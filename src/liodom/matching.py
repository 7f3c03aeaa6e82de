"""Correspondence search and the unsupervised registration losses.

Nearest-neighbor matching runs on a KD-tree over the target cloud (exact,
verified against linear scan in the tests). A match set holds only the
indices of the matched source points and their frozen targets; the source
is moved by the pose whenever a loss is evaluated. The point-to-plane loss
sums absolute projections of match residuals onto target normals; the
plane-to-plane loss sums squared differences of matched unit normals.

`residual_values` is the one formula for both terms as functions of the
pose, with the correspondences frozen; `residuals` adds J1 and the normal
equations of the plane-to-plane term from 3x3 moments, never a (3M, 6)
Jacobian. The loss, its gradient, Gauss-Newton registration with its line
search, and the composed-pose gradient of training are built on these two.
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
    """`residual_values` and what their consumers read of the Jacobians.

    Returns (r1, J1, r2, H2, g2). J1 is the (M, 6) point-to-plane Jacobian.
    H2 = J2^T J2 and g2 = J2^T r2 reduce the (3M, 6) plane-to-plane Jacobian
    J2, never built, to two 3x3 moments of the matched normals n, sum n n^T
    and sum (R n - n_t) n^T, contracted with the rotation derivatives; their
    translation parts are zero, as normals do not move with t.
    """
    r1, r2 = residual_values(p, source, corr)
    p = np.asarray(p, dtype=float).reshape(6)
    sp = source.points[corr.src_index]
    sn = source.normals[corr.src_index]
    nt = corr.tgt_normals
    dR = np.stack(rotation_derivatives(p[:3]))
    J1 = np.empty((len(nt), 6))
    for i in range(3):
        J1[:, i] = np.einsum("mi,mi->m", nt, sp @ dR[i].T)
    J1[:, 3:] = nt
    # Frobenius products <dR_i, dR_j sum n n^T> and <dR_i, sum (R n - n_t) n^T>
    D = dR.reshape(3, 9)
    H2, g2 = np.zeros((6, 6)), np.zeros(6)
    H2[:3, :3] = D @ (dR @ (sn.T @ sn)).reshape(3, 9).T
    g2[:3] = D @ (r2.reshape(-1, 3).T @ sn).ravel()
    return r1, J1, r2, H2, g2


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
    r1, J1, _, _, g2 = residuals(p, source, corr)
    return weights.alpha * (np.sign(r1) @ J1) + 2.0 * weights.lam * g2
