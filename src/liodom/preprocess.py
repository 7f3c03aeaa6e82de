"""Loss-side point-cloud preparation.

Pipeline: plane-fit normals on the whole cloud, RANSAC ground removal, then
adaptive voxel-grid downsampling toward a target count. Ground removal and
voxel binning are decided once on positions and applied to both the point
and the normal stream, so the two stay index-aligned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree


@dataclass(frozen=True)
class VoxelParams:
    side_length: float = 0.3
    step: float = 0.01
    target: int = 10240
    tolerance: int = 100
    max_iterations: int = 200

    def __post_init__(self):
        if self.side_length <= 0 or self.step <= 0:
            raise ValueError("voxel side length and step must be positive")


@dataclass
class PreprocessedCloud:
    """Downsampled points with index-aligned unit normals."""

    points: np.ndarray   # (N, 3)
    normals: np.ndarray  # (N, 3)
    met_target: bool = True
    side_length: float = 0.0
    passes: int = 0

    def __len__(self):
        return len(self.points)


def estimate_normals_planefit(points: np.ndarray, k: int = 10):
    """Per-point normals from PCA over k nearest neighbors.

    The normal is the smallest-eigenvalue eigenvector of the neighborhood
    covariance, oriented toward the sensor origin (n . p <= 0). Returns
    (normals, valid); rank-deficient neighborhoods are marked invalid.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if k < 3 or n <= k:
        raise ValueError(f"need more than k={k} >= 3 points, got {n}")
    tree = cKDTree(points)
    _, nbr = tree.query(points, k=k + 1)
    neigh = points[nbr]                      # (N, k+1, 3)
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / (k + 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    normals = eigvecs[:, :, 0]
    # rank >= 2: the mid eigenvalue must not vanish relative to the largest
    valid = eigvals[:, 1] > 1e-9 * np.maximum(eigvals[:, 2], 1e-30)
    flip = np.einsum("ni,ni->n", normals, points) > 0
    normals[flip] *= -1.0
    normals /= np.maximum(np.linalg.norm(normals, axis=1, keepdims=True), 1e-30)
    return normals, valid


def ransac_ground_removal(
    points: np.ndarray,
    normals: np.ndarray,
    distance_threshold: float = 0.1,
    iterations: int = 100,
    min_inlier_fraction: float = 0.2,
    seed: int = 0,
):
    """Remove the dominant plane found by RANSAC from both streams.

    If the best plane's inlier fraction is below `min_inlier_fraction`,
    there is no dominant ground and the input is returned unchanged.
    """
    points = np.asarray(points, dtype=float)
    normals = np.asarray(normals, dtype=float)
    n = len(points)
    if n < 3:
        return points, normals
    rng = np.random.default_rng(seed)
    best_inliers = None
    best_count = -1
    for _ in range(iterations):
        i, j, l = rng.choice(n, size=3, replace=False)
        plane_n = np.cross(points[j] - points[i], points[l] - points[i])
        norm = np.linalg.norm(plane_n)
        if norm < 1e-12:
            continue
        plane_n = plane_n / norm
        dist = np.abs((points - points[i]) @ plane_n)
        inliers = dist < distance_threshold
        count = int(inliers.sum())
        if count > best_count:
            best_count = count
            best_inliers = inliers
    if best_inliers is None or best_count < min_inlier_fraction * n:
        return points, normals
    keep = ~best_inliers
    return points[keep], normals[keep]


def _voxel_bin(points: np.ndarray, side: float):
    keys = np.floor(points / side).astype(np.int64)
    if len(keys):
        keys -= keys.min(axis=0)
        span = [int(s) + 1 for s in keys.max(axis=0)]
        if span[0] * span[1] * span[2] < 2**63:
            # One int64 code per voxel, ordered like its (x, y, z) key: a
            # 1-D unique is about ten times faster than a row-wise one.
            keys = (keys[:, 0] * span[1] + keys[:, 1]) * span[2] + keys[:, 2]
    # Sorted unique keys make the output order deterministic and
    # independent of any internal parallel split.
    unique, inverse = np.unique(keys, axis=0, return_inverse=True)
    return inverse, len(unique)


def _voxel_reduce(points, normals, inverse, n_voxels):
    counts = np.bincount(inverse, minlength=n_voxels).astype(float)
    out_p = np.zeros((n_voxels, 3))
    out_n = np.zeros((n_voxels, 3))
    for c in range(3):
        out_p[:, c] = np.bincount(inverse, weights=points[:, c], minlength=n_voxels) / counts
        out_n[:, c] = np.bincount(inverse, weights=normals[:, c], minlength=n_voxels)
    norms = np.linalg.norm(out_n, axis=1)
    degenerate = norms < 1e-12
    out_n[~degenerate] /= norms[~degenerate][:, None]
    out_n[degenerate] = np.array([0.0, 0.0, 1.0])
    return out_p, out_n


def adaptive_voxel_downsample(points, normals, params: VoxelParams) -> PreprocessedCloud:
    """Voxel-grid downsample, adapting the side length toward the target count.

    The voxel representative is the arithmetic mean of member points; voxel
    normals are averaged and renormalized. After each full binning pass the
    side length moves by one step: up when there are too many voxels, down
    when too few. If the budget runs out the closest-achieved result is
    returned with met_target = False.
    """
    points = np.asarray(points, dtype=float)
    normals = np.asarray(normals, dtype=float)
    if len(points) != len(normals):
        raise ValueError("points and normals must be index-aligned")
    lo = params.target - params.tolerance
    hi = params.target + params.tolerance
    if len(points) < lo:
        return PreprocessedCloud(points.copy(), normals.copy(), met_target=False,
                                 side_length=params.side_length, passes=0)
    side = params.side_length
    best = None
    best_gap = None
    for it in range(1, params.max_iterations + 1):
        inverse, n_voxels = _voxel_bin(points, side)
        gap = abs(n_voxels - params.target)
        if best_gap is None or gap < best_gap:
            best_gap = gap
            best = (inverse, n_voxels, side, it)
        if lo <= n_voxels <= hi:
            out_p, out_n = _voxel_reduce(points, normals, inverse, n_voxels)
            return PreprocessedCloud(out_p, out_n, met_target=True, side_length=side, passes=it)
        if n_voxels > hi:
            side += params.step
        else:
            side = side - params.step if side - params.step > 1e-6 else side / 2.0
    inverse, n_voxels, side, _ = best
    out_p, out_n = _voxel_reduce(points, normals, inverse, n_voxels)
    return PreprocessedCloud(out_p, out_n, met_target=False, side_length=side,
                             passes=params.max_iterations)


def preprocess_cloud(
    points: np.ndarray,
    params: VoxelParams,
    planefit_k: int = 10,
    ransac_threshold: float = 0.1,
    ransac_iterations: int = 100,
    min_inlier_fraction: float = 0.2,
    seed: int = 0,
) -> PreprocessedCloud:
    """Full loss-side pipeline: plane-fit normals, ground removal, downsample."""
    normals, valid = estimate_normals_planefit(points, k=planefit_k)
    pts, nrm = points[valid], normals[valid]
    pts, nrm = ransac_ground_removal(
        pts, nrm, distance_threshold=ransac_threshold,
        iterations=ransac_iterations, min_inlier_fraction=min_inlier_fraction,
        seed=seed,
    )
    return adaptive_voxel_downsample(pts, nrm, params)
