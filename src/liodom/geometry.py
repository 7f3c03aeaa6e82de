"""Rigid-body transforms with Euler-angle parameterization.

Convention: intrinsic ZYX, i.e. R = Rz(yaw) @ Ry(pitch) @ Rx(roll).
Angles are radians everywhere inside the package; degrees appear only at
I/O boundaries. Gimbal lock (|pitch| near pi/2) is not special-cased:
inter-frame rotations in odometry are small.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _rot_x(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rot_y(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rot_z(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _drot_x(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[0.0, 0.0, 0.0], [0.0, -s, -c], [0.0, c, -s]])


def _drot_y(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[-s, 0.0, c], [0.0, 0.0, 0.0], [-c, 0.0, -s]])


def _drot_z(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[-s, -c, 0.0], [c, -s, 0.0], [0.0, 0.0, 0.0]])


def euler_to_matrix(q) -> np.ndarray:
    """Rotation matrix for Euler angles q = (roll, pitch, yaw), intrinsic ZYX."""
    roll, pitch, yaw = np.asarray(q, dtype=float)
    return _rot_z(yaw) @ _rot_y(pitch) @ _rot_x(roll)


def matrix_to_euler(R: np.ndarray) -> np.ndarray:
    """Recover (roll, pitch, yaw) from a rotation matrix.

    Inverse of :func:`euler_to_matrix` away from |pitch| = pi/2.
    """
    R = np.asarray(R, dtype=float)
    pitch = -np.arcsin(np.clip(R[2, 0], -1.0, 1.0))
    roll = np.arctan2(R[2, 1], R[2, 2])
    yaw = np.arctan2(R[1, 0], R[0, 0])
    return np.array([roll, pitch, yaw])


def rotation_derivatives(q) -> list[np.ndarray]:
    """dR/droll, dR/dpitch, dR/dyaw for R = Rz(yaw) Ry(pitch) Rx(roll)."""
    roll, pitch, yaw = np.asarray(q, dtype=float)
    rx, ry, rz = _rot_x(roll), _rot_y(pitch), _rot_z(yaw)
    return [rz @ ry @ _drot_x(roll), rz @ _drot_y(pitch) @ rx, _drot_z(yaw) @ ry @ rx]


@dataclass(frozen=True, slots=True)
class Pose:
    """Relative rigid transform: Euler angles q (rad) and translation t (m).

    q, t and the rotation matrix are read-only, so the matrix is computed
    once per pose, at first use, and shared by every move of that pose.
    Slots keep each pose small: a trajectory holds thousands of them.
    """

    q: np.ndarray = field(default_factory=lambda: np.zeros(3))
    t: np.ndarray = field(default_factory=lambda: np.zeros(3))
    _rotation: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("q", "t"):
            v = np.asarray(getattr(self, name), dtype=float).reshape(3)
            if v.flags.writeable:     # read-only arrays, such as another pose's, are shared
                v = v.copy()
                v.flags.writeable = False
            object.__setattr__(self, name, v)

    @property
    def rotation(self) -> np.ndarray:
        if self._rotation is None:
            R = euler_to_matrix(self.q)
            R.flags.writeable = False
            object.__setattr__(self, "_rotation", R)
        return self._rotation

    @property
    def matrix(self) -> np.ndarray:
        """4x4 homogeneous matrix view."""
        T = np.eye(4)
        T[:3, :3] = self.rotation
        T[:3, 3] = self.t
        return T

    @classmethod
    def identity(cls) -> "Pose":
        return cls()

    @classmethod
    def from_matrix(cls, T: np.ndarray) -> "Pose":
        T = np.asarray(T, dtype=float)
        return cls(q=matrix_to_euler(T[:3, :3]), t=T[:3, 3].copy())

    @classmethod
    def from_vector(cls, p) -> "Pose":
        """Build from a 6-vector (roll, pitch, yaw, tx, ty, tz)."""
        p = np.asarray(p, dtype=float).reshape(6)
        return cls(q=p[:3], t=p[3:])

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.q, self.t])

    def inverse(self) -> "Pose":
        R = self.rotation
        return Pose.from_matrix(np.block([[R.T, (-R.T @ self.t)[:, None]], [np.zeros((1, 3)), np.ones((1, 1))]]))


def compose(outer: Pose, inner: Pose) -> Pose:
    """Pose whose matrix view is outer.matrix @ inner.matrix."""
    R_o = outer.rotation
    return Pose(
        q=matrix_to_euler(R_o @ inner.rotation),
        t=R_o @ inner.t + outer.t,
    )


def apply_to_point(T: Pose, v) -> np.ndarray:
    """R v + t. Accepts a single 3-vector or an (N, 3) array.

    With `apply_to_normal`, the one place the package moves points and
    normals forward by a pose.
    """
    v = np.asarray(v, dtype=float)
    return v @ T.rotation.T + T.t


def apply_to_normal(T: Pose, n) -> np.ndarray:
    """R n: translation does not move normals. Accepts (3,) or (N, 3)."""
    n = np.asarray(n, dtype=float)
    return n @ T.rotation.T


def rotation_angle(R: np.ndarray) -> float | np.ndarray:
    """Angle (rad) of a rotation matrix, via the trace formula: a float for
    one (3, 3) matrix, an array of angles for a (..., 3, 3) stack."""
    angle = np.arccos(np.clip((np.trace(R, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0))
    return float(angle) if np.ndim(angle) == 0 else angle
