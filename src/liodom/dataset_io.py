"""KITTI-format readers and writers, preprocessed clouds, and IMU windowing.

Formats: velodyne .bin scans (little-endian float32, 4 per point), pose
text files (12 reals per line, row-major upper 3x4, read as an (N, 4, 4)
matrix stack), calib text files (key: 12 reals), OXTS inertial text
records (>= 23 whitespace fields per line), timestamp files (one real
per line, never decreasing), and preprocessed clouds (.npz). Readers
reject malformed input and values that are not finite, naming the file
and, in text files, the line.
"""

from __future__ import annotations

import zipfile
from pathlib import Path

import numpy as np

from .preprocess import PreprocessedCloud


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


def write_cloud(path, cloud: PreprocessedCloud):
    """A preprocessed cloud as .npz: its arrays and its voxel-search outcome."""
    np.savez(path, points=cloud.points, normals=cloud.normals, met_target=cloud.met_target,
             side_length=cloud.side_length, passes=cloud.passes)


def read_cloud(path) -> PreprocessedCloud:
    """A cloud as `write_cloud` writes it: finite (N, 3) points and as many
    finite (N, 3) normals, N >= 1. The voxel-search fields are optional."""
    try:
        with np.load(path) as z:
            data = {k: z[k] for k in z.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise FormatError(f"{path}: not an .npz cloud ({exc})") from exc
    for name in ("points", "normals"):
        a = data.get(name)
        if a is None or a.ndim != 2 or a.shape[1] != 3 or a.dtype.kind not in "fiu":
            raise FormatError(f"{path}: {name} must be an (N, 3) array of reals, got "
                              + ("none" if a is None else f"{a.dtype} {a.shape}"))
        if not np.isfinite(a).all():
            raise FormatError(f"{path}: {name} has a non-finite value")
    n_points, n_normals = len(data["points"]), len(data["normals"])
    if n_points != n_normals or n_points == 0:
        raise FormatError(f"{path}: {n_points} points with {n_normals} normals")
    return PreprocessedCloud(data["points"].astype(float), data["normals"].astype(float),
                             met_target=bool(data.get("met_target", True)),
                             side_length=float(data.get("side_length", 0.0)),
                             passes=int(data.get("passes", 0)))


def read_times(path) -> np.ndarray:
    """A timestamp file such as times.txt: one real per line, in seconds,
    none smaller than the one before."""
    with open(path) as f:
        rows = [(lineno, _reals(line.split(), path, lineno, 1)[0])
                for lineno, line in enumerate(f, start=1) if line.strip()]
    for (_, before), (lineno, t) in zip(rows, rows[1:]):
        if t < before:
            raise FormatError(f"{path}: line {lineno} has time {t}, smaller than the time "
                              f"before it ({before})")
    return np.array([t for _, t in rows])


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
        vals = _reals(fields, f, 1)
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

    Records with timestamps in (t_k, t_k+1] are selected; S or more are
    uniformly subsampled by index (S are kept as they are), fewer are
    linearly interpolated to exactly S rows (endpoints preserved).
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
        if n >= S:
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


def _reals(fields, path, lineno, count: int | None = None) -> np.ndarray:
    """A line's fields as finite reals; exactly `count` of them unless None."""
    if count is not None and len(fields) != count:
        raise FormatError(f"{path}: line {lineno} has {len(fields)} fields, need {count}")
    try:
        vals = np.array([float(x) for x in fields])
    except ValueError as exc:
        raise FormatError(f"{path}: line {lineno}: {exc}") from exc
    if not np.isfinite(vals).all():
        raise FormatError(f"{path}: line {lineno} has a non-finite value")
    return vals


def _matrix_from_fields(fields, path, lineno) -> np.ndarray:
    """A line's 12 reals (row-major upper 3x4) as a 4x4 matrix."""
    T = np.eye(4)
    T[:3, :] = _reals(fields, path, lineno, 12).reshape(3, 4)
    return T


def read_poses(path) -> np.ndarray:
    """KITTI pose file: one row-major upper 3x4 matrix per line, as an
    (N, 4, 4) float64 stack of the values as written, N >= 1."""
    with open(path) as f:
        lines = [(lineno, fields) for lineno, line in enumerate(f, start=1)
                 if (fields := line.split())]
    if not lines:
        raise FormatError(f"{path}: no poses")
    try:
        rows = np.array([fields for _, fields in lines], dtype=float)
    except ValueError:    # a token that does not parse, or lines of unequal length
        rows = None
    if rows is None or rows.shape[1] != 12 or not np.isfinite(rows).all():
        # the slow path: `_reals` names the first line at fault
        rows = np.array([_reals(fields, path, lineno, 12) for lineno, fields in lines])
    T = np.zeros((len(rows), 4, 4))
    T[:, :3, :] = rows.reshape(-1, 3, 4)
    T[:, 3, 3] = 1.0
    return T


def write_poses(path, poses):
    """Write an (N, 4, 4) array-like, such as a stack or a list of `Pose`s,
    as a KITTI pose file: each matrix's upper 3x4, row-major, `.12e`."""
    rows = np.asarray(poses, dtype=float).reshape(-1, 4, 4)[:, :3, :].reshape(-1, 12)
    np.savetxt(path, rows, fmt="%.12e")


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


def lidar_to_camera_frame(poses: np.ndarray, Tr: np.ndarray) -> np.ndarray:
    """Express an (N, 4, 4) stack of lidar-frame poses in the calibration
    (camera) frame: Tr @ T @ Tr^-1 for each pose T."""
    Tr = np.asarray(Tr, dtype=float)
    return Tr @ np.asarray(poses, dtype=float) @ np.linalg.inv(Tr)
