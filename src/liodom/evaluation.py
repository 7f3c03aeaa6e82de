"""KITTI-style odometry error metrics.

Segment-averaged translational error (%) and rotational error (deg/100m)
over ground-truth path lengths of 100-800 m, plus relative-to-absolute
trajectory assembly. Path length is computed on the ground truth only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose, compose, rotation_angle

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


def accumulate(relative_poses) -> list[Pose]:
    """Chain relative poses into an absolute trajectory; first pose identity."""
    absolute = [Pose.identity()]
    for rel in relative_poses:
        absolute.append(compose(absolute[-1], rel))
    return absolute


def trajectory_deltas(absolute) -> list[Pose]:
    """Inverse of accumulate: relative poses between consecutive frames."""
    return [compose(absolute[i].inverse(), absolute[i + 1]) for i in range(len(absolute) - 1)]


def _path_lengths(poses) -> np.ndarray:
    ts = np.array([p.t for p in poses])
    steps = np.linalg.norm(np.diff(ts, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(steps)])


def kitti_relative_errors(estimated, ground_truth, stride: int = 1) -> SegmentErrorReport:
    """Segment-based relative errors over frame-aligned trajectories.

    For each start frame (every `stride` frames) and target length L, the
    segment ends at the first frame whose accumulated ground-truth path
    length is >= L. The error pose is
    (gt_s^-1 gt_e)^-1 (est_s^-1 est_e); translational error |t|/L (as %),
    rotational error angle/L (reported per 100 m). Each length is one
    batched pass over all its segments.
    """
    if len(estimated) != len(ground_truth):
        raise ValueError("trajectories must be frame-aligned and equal length")
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    dist = _path_lengths(ground_truth)
    gt = np.stack([p.matrix for p in ground_truth])
    est = np.stack([p.matrix for p in estimated])
    starts = np.arange(0, len(gt), stride)
    report = SegmentErrorReport()
    for L in SEGMENT_LENGTHS:
        ends = np.searchsorted(dist, dist[starts] + L)
        has_end = ends < len(gt)
        if not has_end.any():
            continue
        s, e = starts[has_end], ends[has_end]
        err = np.linalg.inv(np.linalg.inv(gt[s]) @ gt[e]) @ (np.linalg.inv(est[s]) @ est[e])
        t_mean = 100.0 * np.mean(np.linalg.norm(err[:, :3, 3], axis=1) / L)         # percent
        r_mean = np.degrees(np.mean(rotation_angle(err[:, :3, :3]) / L)) * 100.0  # deg per 100 m
        report.per_length[L] = (float(t_mean), float(r_mean), len(s))
    if report.per_length:
        t, r, counts = zip(*report.per_length.values())
        report.t_rel, report.r_rel = float(np.mean(t)), float(np.mean(r))
        report.total_segments = sum(counts)
    return report
