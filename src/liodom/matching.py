"""Correspondence search and the unsupervised registration losses.

Nearest-neighbor matching runs on a KD-tree over the target cloud (exact,
verified against linear scan in the tests). A match set holds only the
indices of the matched source points and their frozen targets; the source
is moved by the pose whenever a loss is evaluated. The point-to-plane loss
sums absolute projections of match residuals onto target normals; the
plane-to-plane loss sums squared differences of matched unit normals.

`residual_values` is the one formula for both terms as functions of the
pose, with the correspondences frozen; `residuals` adds their pose
Jacobians. The loss, its gradient, Gauss-Newton registration with its
line search, and the composed-pose gradient of training are all built on
these two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import Pose, apply_to_normal, apply_to_point, rotation_derivatives
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

    def combine(self, terms) -> float:
        """alpha * point-to-plane + lambda * plane-to-plane, from `loss_terms`."""
        po2pl, pl2pl = terms
        return self.alpha * po2pl + self.lam * pl2pl


@dataclass
class CorrespondenceSet:
    src_index: np.ndarray     # (M,) indices of the matched points in the source cloud
    tgt_points: np.ndarray    # (M, 3)
    tgt_normals: np.ndarray   # (M, 3)

    def __len__(self):
        return len(self.src_index)


class KdIndex:
    """Exact nearest-neighbor index over a target cloud.

    The tree splits at sliding midpoints (Maneewongvatana & Mount, 1999),
    which builds and queries faster on scan clouds than median splits.
    """

    def __init__(self, cloud: PreprocessedCloud):
        if len(cloud) == 0:
            raise ValueError("cannot index an empty cloud")
        self.cloud = cloud
        self._tree = cKDTree(cloud.points, balanced_tree=False)

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
    hit = tgt_idx[keep]
    return CorrespondenceSet(np.flatnonzero(keep), index.cloud.points[hit], index.cloud.normals[hit])


def transformed_cloud(cloud: PreprocessedCloud, pose: Pose) -> PreprocessedCloud:
    """The cloud moved by pose: points to R p + t, normals to R n."""
    return PreprocessedCloud(points=apply_to_point(pose, cloud.points),
                             normals=apply_to_normal(pose, cloud.normals))


def residual_values(p: np.ndarray, source: PreprocessedCloud, corr: CorrespondenceSet):
    """Unweighted residuals of both loss terms at pose p, matches frozen.

    The matched source points s and normals n_s are taken from `source` at
    `corr.src_index` and moved by the pose 6-vector p. Returns (r1, r2):
    r1 = n_t . (R s + t - t_p), shape (M,), and r2 = (R n_s - n_t).ravel(),
    shape (3M,).
    """
    pose = Pose.from_vector(p)
    nt = corr.tgt_normals
    moved = apply_to_point(pose, source.points[corr.src_index])
    r1 = np.einsum("mi,mi->m", nt, moved - corr.tgt_points)
    r2 = (apply_to_normal(pose, source.normals[corr.src_index]) - nt).ravel()
    return r1, r2


def residuals(p: np.ndarray, source: PreprocessedCloud, corr: CorrespondenceSet):
    """`residual_values` and their pose Jacobians: (r1, J1, r2, J2).

    J1 is (M, 6) and J2 is (3M, 6). The translation columns of J2 are zero:
    normals do not move with t. Callers that need only the residuals, such
    as a line search, use `residual_values` and skip the Jacobians.
    """
    r1, r2 = residual_values(p, source, corr)
    p = np.asarray(p, dtype=float).reshape(6)
    sp = source.points[corr.src_index]
    sn = source.normals[corr.src_index]
    nt = corr.tgt_normals
    J1 = np.empty((len(nt), 6))
    J2 = np.zeros((r2.size, 6))
    for i, dR in enumerate(rotation_derivatives(p[:3])):
        J1[:, i] = np.einsum("mi,mi->m", nt, sp @ dR.T)
        J2[:, i] = (sn @ dR.T).ravel()
    J1[:, 3:] = nt
    return r1, J1, r2, J2


def loss_terms(p: np.ndarray, source: PreprocessedCloud, corr: CorrespondenceSet):
    """(point-to-plane, plane-to-plane) at pose p, matches frozen.

    Point-to-plane is the sum of |r1|, plane-to-plane the sum of squares of
    r2. An empty set raises EmptyMatchError so a zero loss can never
    reward divergence.
    """
    if len(corr) == 0:
        raise EmptyMatchError("empty correspondence set")
    r1, r2 = residual_values(p, source, corr)
    return float(np.abs(r1).sum()), float(r2 @ r2)


def loss_at_pose(
    p: np.ndarray,
    source: PreprocessedCloud,
    corr: CorrespondenceSet,
    weights: LossWeights = LossWeights(),
) -> float:
    """Total loss with matches frozen, as a function of the pose 6-vector."""
    return weights.combine(loss_terms(p, source, corr))


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
