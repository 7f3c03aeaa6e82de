"""Correspondence search and the unsupervised registration losses.

Nearest-neighbor matching runs on a KD-tree over the target cloud (exact,
verified against linear scan in the tests). The point-to-plane loss sums
absolute projections of match residuals onto target normals; the
plane-to-plane loss sums squared differences of matched unit normals.

`residuals` is the one kernel for both terms as functions of the pose:
their unweighted residuals and pose Jacobians with the correspondences
frozen. The loss, its gradient, Gauss-Newton registration and the
composed-pose gradient of training are all built on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import Pose, rotation_derivatives
from .preprocess import PreprocessedCloud


class EmptyMatchError(RuntimeError):
    """No correspondences survived the rejection threshold."""


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 1.0   # point-to-plane
    lam: float = 0.1     # plane-to-plane

    def __post_init__(self):
        if self.alpha < 0 or self.lam < 0:
            raise ValueError("loss weights must be non-negative")


@dataclass
class CorrespondenceSet:
    src_points: np.ndarray    # (M, 3) transformed source points
    src_normals: np.ndarray   # (M, 3)
    tgt_points: np.ndarray    # (M, 3)
    tgt_normals: np.ndarray   # (M, 3)
    distances: np.ndarray     # (M,)
    src_index: np.ndarray     # (M,) indices of the matched points in the source cloud

    def __len__(self):
        return len(self.distances)


class KdIndex:
    """Exact nearest-neighbor index over a target cloud."""

    def __init__(self, cloud: PreprocessedCloud):
        if len(cloud) == 0:
            raise ValueError("cannot index an empty cloud")
        self.cloud = cloud
        self._tree = cKDTree(cloud.points)

    def query(self, points: np.ndarray):
        """(distances, target indices) of the exact nearest neighbors."""
        return self._tree.query(np.asarray(points, dtype=float))


def build_index(target: PreprocessedCloud) -> KdIndex:
    return KdIndex(target)


def match_nearest(
    source: PreprocessedCloud,
    index: KdIndex,
    max_dist: float = 1.0,
) -> CorrespondenceSet:
    """Match each (already transformed) source point to its nearest target.

    Pairs farther apart than max_dist are dropped; an empty result raises
    EmptyMatchError so a zero loss can never reward divergence.
    """
    dist, tgt_idx = index.query(source.points)
    keep = dist <= max_dist
    if not keep.any():
        raise EmptyMatchError(f"no matches within {max_dist} m")
    tgt = index.cloud
    return CorrespondenceSet(
        src_points=source.points[keep],
        src_normals=source.normals[keep],
        tgt_points=tgt.points[tgt_idx[keep]],
        tgt_normals=tgt.normals[tgt_idx[keep]],
        distances=dist[keep],
        src_index=np.flatnonzero(keep),
    )


def point_to_plane_loss(corr: CorrespondenceSet) -> float:
    """Sum of |n_target . (p_source - p_target)| over correspondences."""
    if len(corr) == 0:
        raise EmptyMatchError("empty correspondence set")
    residual = np.einsum("mi,mi->m", corr.tgt_normals, corr.src_points - corr.tgt_points)
    return float(np.abs(residual).sum())


def plane_to_plane_loss(corr: CorrespondenceSet) -> float:
    """Sum of squared differences between matched unit normals."""
    if len(corr) == 0:
        raise EmptyMatchError("empty correspondence set")
    diff = corr.src_normals - corr.tgt_normals
    return float(np.einsum("mi,mi->", diff, diff))


def total_loss(corr: CorrespondenceSet, weights: LossWeights = LossWeights()) -> float:
    """alpha * point-to-plane + lambda * plane-to-plane."""
    return weights.alpha * point_to_plane_loss(corr) + weights.lam * plane_to_plane_loss(corr)


def transformed_cloud(cloud: PreprocessedCloud, pose: Pose) -> PreprocessedCloud:
    """The cloud moved by pose: points to R p + t, normals to R n."""
    R = pose.rotation
    return PreprocessedCloud(points=cloud.points @ R.T + pose.t, normals=cloud.normals @ R.T)


def residuals(p: np.ndarray, source: PreprocessedCloud, corr: CorrespondenceSet):
    """Unweighted residuals and pose Jacobians of both loss terms, matches frozen.

    The matched source points s and normals n_s are taken from `source` at
    `corr.src_index` and moved by the pose 6-vector p. Returns (r1, J1, r2, J2):
    r1 = n_t . (R s + t - t_p), shape (M,), and r2 = (R n_s - n_t).ravel(),
    shape (3M,), with their Jacobians J1 (M, 6) and J2 (3M, 6). The
    translation columns of J2 are zero: normals do not move with t.
    """
    if (corr.src_index < 0).any():
        raise ValueError("correspondence set lacks source indices")
    p = np.asarray(p, dtype=float).reshape(6)
    pose = Pose.from_vector(p)
    R = pose.rotation
    sp = source.points[corr.src_index]
    sn = source.normals[corr.src_index]
    nt = corr.tgt_normals
    r1 = np.einsum("mi,mi->m", nt, sp @ R.T + pose.t - corr.tgt_points)
    r2 = (sn @ R.T - nt).ravel()
    J1 = np.empty((len(nt), 6))
    J2 = np.zeros((r2.size, 6))
    for i, dR in enumerate(rotation_derivatives(p[:3])):
        J1[:, i] = np.einsum("mi,mi->m", nt, sp @ dR.T)
        J2[:, i] = (sn @ dR.T).ravel()
    J1[:, 3:] = nt
    return r1, J1, r2, J2


def loss_at_pose(
    p: np.ndarray,
    source: PreprocessedCloud,
    corr: CorrespondenceSet,
    weights: LossWeights = LossWeights(),
) -> float:
    """Total loss with matches frozen, as a function of the pose 6-vector."""
    r1, _, r2, _ = residuals(p, source, corr)
    return float(weights.alpha * np.abs(r1).sum() + weights.lam * (r2 @ r2))


def loss_gradient(
    p: np.ndarray,
    source: PreprocessedCloud,
    corr: CorrespondenceSet,
    weights: LossWeights = LossWeights(),
) -> np.ndarray:
    """Gradient of loss_at_pose with respect to p, matches frozen.

    The absolute value in the point-to-plane term uses subgradient 0 at
    exactly-zero residuals.
    """
    r1, J1, r2, J2 = residuals(p, source, corr)
    return weights.alpha * (np.sign(r1) @ J1) + 2.0 * weights.lam * (r2 @ J2)
