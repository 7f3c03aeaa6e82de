"""KITTI-format readers and writers, and IMU windowing.

Formats: velodyne .bin scans (little-endian float32, 4 per point), pose
text files (12 reals per line, row-major upper 3x4), calib text files
(key: 12 reals), and OXTS inertial text records (>= 23 whitespace fields
per line). Readers reject malformed input, and pose and calib values that
are not finite, naming the file and line.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .geometry import Pose


class FormatError(ValueError):
    """Malformed on-disk data."""


def read_velodyne_bin(path) -> np.ndarray:
    """Read a KITTI scan: (N, 4) float64 (x, y, z, reflectance), file order."""
    data = Path(path).read_bytes()
    if len(data) % 16 != 0:
        raise FormatError(f"{path}: byte length {len(data)} not divisible by 16")
    pts = np.frombuffer(data, dtype="<f4").reshape(-1, 4)
    return pts.astype(np.float64)


def write_velodyne_bin(path, points: np.ndarray):
    pts = np.asarray(points, dtype="<f4")
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ValueError("expected an (N, 4) array")
    Path(path).write_bytes(pts.tobytes())


def read_oxts(directory) -> np.ndarray:
    """Parse a directory of OXTS records into an (N, 6) inertial array.

    Columns 0-2: linear acceleration ax, ay, az (fields 11-13); columns
    3-5: angular velocity wx, wy, wz (fields 17-19). Files are read in
    sorted name order, one record per file.
    """
    files = sorted(Path(directory).glob("*.txt"))
    if not files:
        raise FormatError(f"{directory}: no OXTS .txt records")
    out = np.empty((len(files), 6))
    for i, f in enumerate(files):
        fields = f.read_text().strip().split()
        if len(fields) < 23:
            raise FormatError(f"{f}: line 1 has {len(fields)} fields, need >= 23")
        try:
            vals = [float(x) for x in fields]
        except ValueError as exc:
            raise FormatError(f"{f}: line 1: {exc}") from exc
        out[i, 0:3] = vals[11:14]
        out[i, 3:6] = vals[17:20]
    return out


def write_oxts(directory, records: np.ndarray):
    """The inverse of `read_oxts`, to ten significant digits: row i goes to
    <i:06d>.txt as 25 fields, zero outside fields 11-13 and 17-19."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, rec in enumerate(np.asarray(records, dtype=float)):
        fields = np.zeros(25)
        fields[11:14] = rec[0:3]
        fields[17:20] = rec[3:6]
        (directory / f"{i:06d}.txt").write_text(" ".join(f"{v:.9e}" for v in fields) + "\n")


def window_imu(records: np.ndarray, record_times: np.ndarray,
               scan_times: np.ndarray, S: int = 15) -> list[np.ndarray]:
    """One (S, 6) window per consecutive scan pair.

    Records with timestamps in (t_k, t_k+1] are selected; more than S are
    uniformly subsampled by index, fewer are linearly interpolated to
    exactly S rows (endpoints preserved).
    """
    records = np.asarray(records, dtype=float)
    record_times = np.asarray(record_times, dtype=float)
    scan_times = np.asarray(scan_times, dtype=float)
    if len(records) != len(record_times):
        raise ValueError("records and record_times must be aligned")
    windows = []
    for k in range(len(scan_times) - 1):
        sel = (record_times > scan_times[k]) & (record_times <= scan_times[k + 1])
        rows = records[sel]
        n = len(rows)
        if n == 0:
            raise FormatError(
                f"no IMU records in scan interval ({scan_times[k]}, {scan_times[k + 1]}]")
        if n == S:
            windows.append(rows.copy())
        elif n > S:
            idx = (np.arange(S) * n) // S
            windows.append(rows[idx])
        else:
            src = np.linspace(0.0, 1.0, n)
            dst = np.linspace(0.0, 1.0, S)
            out = np.empty((S, rows.shape[1]))
            for c in range(rows.shape[1]):
                out[:, c] = np.interp(dst, src, rows[:, c])
            windows.append(out)
    return windows


def _matrix_from_fields(fields, path, lineno) -> np.ndarray:
    """A line's 12 reals (row-major upper 3x4) as a 4x4 matrix."""
    if len(fields) != 12:
        raise FormatError(f"{path}: line {lineno} has {len(fields)} fields, need 12")
    try:
        vals = np.array([float(x) for x in fields])
    except ValueError as exc:
        raise FormatError(f"{path}: line {lineno}: {exc}") from exc
    if not np.isfinite(vals).all():
        raise FormatError(f"{path}: line {lineno} has a non-finite value")
    T = np.eye(4)
    T[:3, :] = vals.reshape(3, 4)
    return T


def read_poses(path) -> list[Pose]:
    """KITTI pose file: one row-major upper 3x4 matrix per line."""
    with open(path) as f:
        return [Pose.from_matrix(_matrix_from_fields(line.split(), path, lineno))
                for lineno, line in enumerate(f, start=1) if line.strip()]


def write_poses(path, poses):
    with open(path, "w") as f:
        for pose in poses:
            row = pose.matrix[:3, :].reshape(-1)
            f.write(" ".join(format(v, ".12e") for v in row) + "\n")


def read_calib(path) -> dict[str, np.ndarray]:
    """KITTI calib file: `key: 12 reals` per line, parsed to 4x4 matrices."""
    out = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            if ":" not in line:
                raise FormatError(f"{path}: line {lineno} lacks a key")
            key, rest = line.split(":", 1)
            out[key.strip()] = _matrix_from_fields(rest.split(), path, lineno)
    return out


def lidar_to_camera_frame(poses, Tr: np.ndarray) -> list[Pose]:
    """Express lidar-frame pose estimates in the calibration (camera) frame."""
    Tr = np.asarray(Tr, dtype=float)
    Tr_inv = np.linalg.inv(Tr)
    return [Pose.from_matrix(Tr @ p.matrix @ Tr_inv) for p in poses]
