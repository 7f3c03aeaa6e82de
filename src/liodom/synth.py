"""Synthetic scenes, scans, trajectories, and inertial streams.

Ground-truth oracles for registration, pipeline, and IMU tests. Gravity is
9.81 m/s^2 along scene -z so synthetic inertial windows share the OXTS
column semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset_io import window_imu
from .geometry import Pose, apply_to_normal, apply_to_point, rotation_angle
from .preprocess import PreprocessedCloud

GRAVITY = np.array([0.0, 0.0, -9.81])
IMU_RATE = 15     # corridor IMU samples per scan interval


@dataclass(frozen=True)
class Plane:
    """Rectangular patch: center, unit normal, and in-plane half-extents (m)."""

    center: tuple
    normal: tuple
    extent_u: float = 5.0
    extent_v: float = 5.0


@dataclass(frozen=True)
class Box:
    center: tuple
    size: tuple  # full edge lengths


@dataclass(frozen=True)
class SceneSpec:
    planes: tuple = ()
    boxes: tuple = ()
    density: float = 50.0   # points per square meter
    sigma: float = 0.0      # Gaussian surface noise, meters
    seed: int = 0

    def __post_init__(self):
        if self.density <= 0:
            raise ValueError("density must be positive")


@dataclass
class SyntheticScene:
    points: np.ndarray    # (N, 3) world frame
    normals: np.ndarray   # (N, 3) true surface normals
    labels: np.ndarray    # (N,) surface id

    def as_cloud(self) -> PreprocessedCloud:
        return PreprocessedCloud(self.points.copy(), self.normals.copy())


def _plane_frame(normal: np.ndarray):
    n = normal / np.linalg.norm(normal)
    helper = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(n, helper)
    u /= np.linalg.norm(u)
    return u, np.cross(n, u), n


def _box_planes(box: Box):
    c = np.asarray(box.center, dtype=float)
    sx, sy, sz = np.asarray(box.size, dtype=float) / 2.0
    return [
        Plane(tuple(c + [sx, 0, 0]), (1, 0, 0), sy, sz),
        Plane(tuple(c - [sx, 0, 0]), (-1, 0, 0), sy, sz),
        Plane(tuple(c + [0, sy, 0]), (0, 1, 0), sx, sz),
        Plane(tuple(c - [0, sy, 0]), (0, -1, 0), sx, sz),
        Plane(tuple(c + [0, 0, sz]), (0, 0, 1), sx, sy),
        Plane(tuple(c - [0, 0, sz]), (0, 0, -1), sx, sy),
    ]


def sample_scene(spec: SceneSpec) -> SyntheticScene:
    """Surface-sample the scene; noise is applied along each surface normal."""
    planes = list(spec.planes)
    for box in spec.boxes:
        planes.extend(_box_planes(box))
    if not planes:
        raise ValueError("scene has no geometry")
    rng = np.random.default_rng(spec.seed)
    pts, nrm, lab = [], [], []
    for sid, plane in enumerate(planes):
        u, v, n = _plane_frame(np.asarray(plane.normal, dtype=float))
        area = 4.0 * plane.extent_u * plane.extent_v
        count = max(int(round(spec.density * area)), 4)
        a = rng.uniform(-plane.extent_u, plane.extent_u, count)
        b = rng.uniform(-plane.extent_v, plane.extent_v, count)
        p = np.asarray(plane.center, dtype=float) + a[:, None] * u + b[:, None] * v
        if spec.sigma > 0:
            p = p + rng.normal(0.0, spec.sigma, count)[:, None] * n
        pts.append(p)
        nrm.append(np.tile(n, (count, 1)))
        lab.append(np.full(count, sid))
    return SyntheticScene(np.vstack(pts), np.vstack(nrm), np.concatenate(lab))


def scan_from_pose(scene: SyntheticScene, sensor_pose: Pose) -> SyntheticScene:
    """Express the scene in the sensor frame."""
    inv = sensor_pose.inverse()
    pts = apply_to_point(inv, scene.points)
    nrm = apply_to_normal(inv, scene.normals)
    # orient normals toward the sensor so oracle clouds match the
    # preprocess convention
    flip = np.einsum("ni,ni->n", nrm, pts) > 0
    nrm = nrm.copy()
    nrm[flip] *= -1.0
    return SyntheticScene(pts, nrm, scene.labels.copy())


def imu_records(poses, times) -> np.ndarray:
    """Per-timestamp inertial records (N, 6) from a dense trajectory.

    Body-frame angular velocity comes from consecutive rotation deltas;
    linear acceleration from second differences of position, rotated into
    the body frame with gravity added (accelerometer convention: a static
    sensor reads +9.81 on body z).
    """
    times = np.asarray(times, dtype=float)
    if len(poses) < 3:
        raise ValueError("need at least 3 poses for finite differencing")
    if np.any(np.diff(times) <= 0):
        raise ValueError("timestamps must be strictly increasing")
    n = len(poses)
    Rs = [p.rotation for p in poses]
    ts = np.array([p.t for p in poses])
    records = np.zeros((n, 6))
    for i in range(n):
        j = min(i, n - 2)
        dt = times[j + 1] - times[j]
        dR = Rs[j].T @ Rs[j + 1]
        angle = rotation_angle(dR)
        if angle < 1e-12:
            omega = np.zeros(3)
        else:
            axis = np.array([dR[2, 1] - dR[1, 2], dR[0, 2] - dR[2, 0], dR[1, 0] - dR[0, 1]])
            axis /= 2.0 * np.sin(angle)
            omega = axis * angle / dt
        m = min(max(i, 1), n - 2)
        dt_a = 0.5 * (times[m + 1] - times[m - 1])
        accel_world = (ts[m + 1] - 2.0 * ts[m] + ts[m - 1]) / dt_a**2
        records[i, 0:3] = Rs[i].T @ (accel_world - GRAVITY)
        records[i, 3:6] = omega
    return records


def random_scene_pair(seed: int, max_translation: float = 0.5,
                      max_rotation_deg: float = 5.0, sigma: float = 0.0,
                      density: float = 40.0):
    """A randomized box-room scan pair with known relative pose.

    Returns (source cloud, target cloud, true pose) where the true pose
    maps source-frame coordinates into the target frame.
    """
    rng = np.random.default_rng(seed)
    spec = SceneSpec(
        boxes=(Box(center=(0.0, 0.0, 2.0), size=tuple(rng.uniform(10.0, 16.0, 3))),),
        planes=(Plane(tuple(rng.uniform(-3, 3, 3)), tuple(rng.normal(size=3)), 1.5, 1.5),),
        density=density, sigma=sigma, seed=seed,
    )
    scene = sample_scene(spec)
    angles = np.radians(rng.uniform(-max_rotation_deg, max_rotation_deg, 3))
    trans = rng.uniform(-max_translation, max_translation, 3)
    true = Pose(q=angles, t=trans)
    pose_a = Pose.identity()
    pose_b = true  # sensor moved by `true`, so frame b -> frame a is `true`
    scan_a = scan_from_pose(scene, pose_a)
    # resample the surfaces independently so source and target do not share points
    scene_b = sample_scene(SceneSpec(spec.planes, spec.boxes, spec.density,
                                     spec.sigma, seed=seed + 10_000))
    scan_b = scan_from_pose(scene_b, pose_b)
    return scan_b.as_cloud(), scan_a.as_cloud(), true


@dataclass
class SyntheticSequence:
    scans: list                  # list of SyntheticScene in sensor frames
    poses: list                  # absolute ground-truth sensor poses
    times: np.ndarray
    imu_windows: list = field(default_factory=list)
    dense_records: np.ndarray | None = None   # (N, 6) per-timestamp IMU
    dense_times: np.ndarray | None = None


def corridor_sequence(n_frames: int = 20, seed: int = 0, sigma: float = 0.0,
                      yaw_rate: float = 0.0, speed: float = 0.3) -> SyntheticSequence:
    """A box-corridor trajectory with scans, ground truth, and IMU windows."""
    spec = SceneSpec(
        boxes=(Box(center=(0.0, 0.0, 2.0), size=(40.0, 12.0, 5.0)),),
        planes=(
            Plane((8.0, -3.0, 1.0), (0.4, 1.0, 0.2), 1.5, 1.5),
            Plane((-6.0, 3.5, 1.5), (1.0, -0.5, 0.3), 1.5, 1.5),
        ),
        density=30.0, sigma=sigma, seed=seed,
    )
    scene = sample_scene(spec)
    dt = 0.1
    dense_times = np.arange(n_frames * IMU_RATE + 1) * (dt / IMU_RATE)
    dense_poses = []
    for t in dense_times:
        yaw = yaw_rate * t
        x = speed * t / dt
        dense_poses.append(Pose(q=[0.0, 0.0, yaw], t=[x, 0.5 * np.sin(0.3 * x), 0.0]))
    scan_idx = np.arange(n_frames) * IMU_RATE
    scan_times = dense_times[scan_idx]
    poses = [dense_poses[i] for i in scan_idx]
    scans = [scan_from_pose(scene, p) for p in poses]
    records = imu_records(dense_poses, dense_times)
    imu = window_imu(records, dense_times, scan_times, S=15)
    return SyntheticSequence(scans=scans, poses=poses, times=scan_times,
                             imu_windows=imu, dense_records=records,
                             dense_times=dense_times)
