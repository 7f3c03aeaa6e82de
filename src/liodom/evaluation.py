"""KITTI-style odometry error metrics.

Segment-averaged translational error (%) and rotational error (deg/100m)
over ground-truth path lengths of 100-800 m, plus relative-to-absolute
trajectory assembly. A trajectory is an (N, 4, 4) matrix stack, as
`accumulate` builds it and `dataset_io.read_poses` returns it. Path
length is computed on the ground truth only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import rotation_angle

SEGMENT_LENGTHS = (100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0)


@dataclass
class SegmentErrorReport:
    per_length: dict = field(default_factory=dict)  # L -> (t_err %, r_err deg/100m, count)
    t_rel: float = 0.0        # percent
    r_rel: float = 0.0        # degrees per 100 m
    total_segments: int = 0

    def as_csv(self) -> str:
        lines = ["length_m,t_rel_percent,r_rel_deg_per_100m,segments"]
        for L in sorted(self.per_length):
            t, r, n = self.per_length[L]
            lines.append(f"{L:.0f},{t:.6f},{r:.6f},{n}")
        lines.append(f"overall,{self.t_rel:.6f},{self.r_rel:.6f},{self.total_segments}")
        return "\n".join(lines) + "\n"

    def as_table(self) -> str:
        lines = [f"{'length':>8} {'t_rel(%)':>10} {'r_rel(deg/100m)':>16} {'segments':>9}"]
        for L in sorted(self.per_length):
            t, r, n = self.per_length[L]
            lines.append(f"{L:8.0f} {t:10.4f} {r:16.4f} {n:9d}")
        lines.append(f"{'overall':>8} {self.t_rel:10.4f} {self.r_rel:16.4f} {self.total_segments:9d}")
        return "\n".join(lines)


def accumulate(relative_poses) -> np.ndarray:
    """Chain N relative poses (4x4 matrices or `Pose`s) into an (N+1, 4, 4)
    trajectory by cumulative matrix product; first pose identity."""
    absolute = [np.eye(4)]
    for T in np.asarray(relative_poses, dtype=float).reshape(-1, 4, 4):
        absolute.append(absolute[-1] @ T)
    return np.array(absolute)


def path_lengths(poses: np.ndarray) -> np.ndarray:
    """Path length (m) travelled from the first pose of an (N, 4, 4) stack
    to each pose."""
    steps = np.linalg.norm(np.diff(poses[:, :3, 3], axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(steps)])


def kitti_relative_errors(estimated: np.ndarray, ground_truth: np.ndarray,
                          stride: int = 1) -> SegmentErrorReport:
    """Segment-based relative errors over frame-aligned (N, 4, 4) trajectories.

    For each start frame (every `stride` frames) and target length L, the
    segment ends at the first frame whose accumulated ground-truth path
    length is >= L. The error pose is
    (gt_s^-1 gt_e)^-1 (est_s^-1 est_e) = (gt_e^-1 gt_s)(est_s^-1 est_e);
    translational error |t|/L (as %), rotational error angle/L (reported
    per 100 m). Each trajectory is inverted once, and each length is one
    batched pass over all its segments that forms only the error's upper
    3x4 rows. Segment ends never decrease, so the starts that have an end
    are a prefix of the strided starts, read as a slice rather than gathered.
    """
    est = np.asarray(estimated, dtype=float)
    gt = np.asarray(ground_truth, dtype=float)
    if len(est) != len(gt):
        raise ValueError("trajectories must be frame-aligned and equal length")
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    dist = path_lengths(gt)
    gt_inv, est_inv = np.linalg.inv(gt), np.linalg.inv(est)
    report = SegmentErrorReport()
    for L in SEGMENT_LENGTHS:
        ends = np.searchsorted(dist, dist[::stride] + L)
        m = np.count_nonzero(ends < len(gt))
        if not m:
            continue
        s, e = slice(0, m * stride, stride), ends[:m]
        err = (gt_inv[e][:, :3] @ gt[s]) @ (est_inv[s] @ est[e])
        t_mean = 100.0 * np.mean(np.linalg.norm(err[:, :, 3], axis=1) / L)         # percent
        r_mean = np.degrees(np.mean(rotation_angle(err[:, :, :3]) / L)) * 100.0  # deg per 100 m
        report.per_length[L] = (float(t_mean), float(r_mean), m)
    if report.per_length:
        t, r, counts = zip(*report.per_length.values())
        report.t_rel, report.r_rel = float(np.mean(t)), float(np.mean(r))
        report.total_segments = sum(counts)
    return report
