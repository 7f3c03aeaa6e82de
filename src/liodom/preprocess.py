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

# Loss-side preprocessing settings, shared by preprocess_cloud and the
# defaults of its stages.
PLANEFIT_K = 10              # neighbours per plane-fit normal
RANSAC_THRESHOLD = 0.1       # m, point-to-plane distance of a ground inlier
RANSAC_ITERATIONS = 100      # plane hypotheses drawn
MIN_INLIER_FRACTION = 0.2    # inlier share below which there is no ground
RANSAC_BLOCK = 16            # plane hypotheses scored by one matmul
CLOSED_FORM_MIN_GAP = 1e-3   # relative eigenvalue gap below which plane-fit uses eigh


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


def _smallest_eigenvectors(cov: np.ndarray):
    """Smallest-eigenvalue eigenvectors of symmetric PSD 3x3 matrices.

    Closed form (Kopp, "Efficient numerical diagonalization of hermitian 3x3
    matrices", 2008): trigonometric eigenvalues, then the largest cross
    product of two rows of A - l0 I. Its angle error grows like 1e-16 / gap**2
    in the relative gap (l1 - l0) / l2, so `eigh` takes the rows with a gap
    of at most CLOSED_FORM_MIN_GAP, a largest diagonal entry of at most
    1e-30 or a non-finite result. These include every row that the rank rule
    below can reject, so the closed-form rows are valid under it and `valid`
    is `eigh`'s rule. Returns (unit vectors up to sign, valid).
    """
    scale = np.maximum(np.maximum(cov[:, 0, 0], cov[:, 1, 1]), cov[:, 2, 2])
    with np.errstate(divide="ignore", invalid="ignore"):
        # The six entries, scaled into [-1, 1] so no power below overflows.
        a00, a11, a22, a01, a02, a12 = (cov[:, i, j] / scale for i, j in
                                        ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)))
        m = (a00 + a11 + a22) / 3.0
        b00, b11, b22 = a00 - m, a11 - m, a22 - m
        p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22
                     + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0)
        det = (b00 * (b11 * b22 - a12 * a12) - a01 * (a01 * b22 - a12 * a02)
               + a02 * (a01 * a12 - b11 * a02))
        phi = np.arccos(np.clip(det / (2.0 * p ** 3), -1.0, 1.0)) / 3.0
        l0 = m + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
        l2 = m + 2.0 * p * np.cos(phi)
        gap = 2.0 * np.sqrt(3.0) * p * np.sin(phi)   # l1 - l0
        # Cross products of rows of A - l0 I are the columns of its adjugate.
        d0, d1, d2 = a00 - l0, a11 - l0, a22 - l0
        c00, c11, c22 = d1 * d2 - a12 * a12, d0 * d2 - a02 * a02, d0 * d1 - a01 * a01
        c01, c02, c12 = a02 * a12 - a01 * d2, a01 * a12 - a02 * d1, a01 * a02 - d0 * a12
        adj = np.stack([c00, c01, c02, c01, c11, c12, c02, c12, c22], axis=1).reshape(-1, 3, 3)
        sq = np.einsum("nij,nij->ni", adj, adj)
        best = np.argmax(sq, axis=1)
        rows = np.arange(len(cov))
        vectors = adj[rows, best] / np.sqrt(sq[rows, best])[:, None]
    fallback = ~((gap > CLOSED_FORM_MIN_GAP * l2) & (scale > 1e-30)
                 & np.isfinite(vectors).all(axis=1))
    valid = np.ones(len(cov), dtype=bool)
    if fallback.any():
        eigvals, eigvecs = np.linalg.eigh(cov[fallback])
        vectors[fallback] = eigvecs[:, :, 0]
        # rank >= 2: the mid eigenvalue must not vanish relative to the largest
        valid[fallback] = eigvals[:, 1] > 1e-9 * np.maximum(eigvals[:, 2], 1e-30)
    return vectors, valid


def _neighbourhoods(points: np.ndarray, k: int) -> np.ndarray:
    """Indices of each point's k nearest neighbours and itself, (N, k+1).

    Exact; the tree splits at sliding midpoints, which builds faster than
    median splits on scan clouds.
    """
    _, nbr = cKDTree(points, balanced_tree=False).query(points, k=k + 1)
    return nbr


def estimate_normals_planefit(points: np.ndarray, k: int = PLANEFIT_K):
    """Per-point normals from PCA over k nearest neighbors.

    The normal is the smallest-eigenvalue eigenvector of the neighborhood
    covariance, oriented toward the sensor origin (n . p <= 0). Returns
    (normals, valid); rank-deficient neighborhoods are marked invalid.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if k < 3 or n <= k:
        raise ValueError(f"need more than k={k} >= 3 points, got {n}")
    neigh = points[_neighbourhoods(points, k)]   # (N, k+1, 3)
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cov = centered.transpose(0, 2, 1) @ centered
    cov /= k + 1
    normals, valid = _smallest_eigenvectors(cov)
    flip = np.einsum("ni,ni->n", normals, points) > 0
    normals[flip] *= -1.0
    normals /= np.maximum(np.linalg.norm(normals, axis=1, keepdims=True), 1e-30)
    return normals, valid


def ransac_ground_removal(
    points: np.ndarray,
    normals: np.ndarray,
    distance_threshold: float = RANSAC_THRESHOLD,
    iterations: int = RANSAC_ITERATIONS,
    min_inlier_fraction: float = MIN_INLIER_FRACTION,
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
    anchors, plane_normals = [], []
    for _ in range(iterations):
        i, j, l = rng.choice(n, size=3, replace=False)
        plane_n = np.cross(points[j] - points[i], points[l] - points[i])
        norm = np.linalg.norm(plane_n)
        if norm < 1e-12:
            continue
        anchors.append(points[i])
        plane_normals.append(plane_n / norm)
    best_inliers = None
    best_count = -1
    # One matmul scores a block of planes: |p . n - anchor . n| per point.
    for start in range(0, len(plane_normals), RANSAC_BLOCK):
        block = np.array(plane_normals[start:start + RANSAC_BLOCK])
        offsets = np.einsum("bi,bi->b", np.array(anchors[start:start + RANSAC_BLOCK]), block)
        dist = points @ block.T
        dist -= offsets
        inliers = np.abs(dist, out=dist) < distance_threshold
        counts = inliers.sum(axis=0)
        k = int(np.argmax(counts))     # the first of a tie, as in draw order
        if counts[k] > best_count:
            best_count = int(counts[k])
            best_inliers = inliers[:, k]
    if best_inliers is None or best_count < min_inlier_fraction * n:
        return points, normals
    keep = ~best_inliers
    return points[keep], normals[keep]


def _voxel_keys(points: np.ndarray, side: float, bounds):
    """Integer voxel keys shifted to start at 0, packed where they fit.

    `bounds` is the cloud's per-axis (min, max). Division by a positive side
    and floor are monotone, so floor(min / side) is the smallest key exactly.
    Returns one int64 code per point, `(kx*span_y + ky)*span_z + kz`, which
    sorts like its (x, y, z) key, or the (N, 3) keys when the grid is too
    wide to pack into an int64.
    """
    pmin, pmax = bounds
    lo = np.floor(pmin / side).astype(np.int64)
    span = [int(s) + 1 for s in np.floor(pmax / side).astype(np.int64) - lo]
    keys = np.floor(points / side).astype(np.int64)
    keys -= lo
    if span[0] * span[1] * span[2] < 2**63:
        return (keys[:, 0] * span[1] + keys[:, 1]) * span[2] + keys[:, 2]
    return keys


def _voxel_count(points: np.ndarray, side: float, bounds) -> int:
    """Number of occupied voxels, without binning the points."""
    keys = _voxel_keys(points, side, bounds)
    if keys.ndim == 2:
        return len(np.unique(keys, axis=0))
    if not len(keys):
        return 0
    keys.sort()
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


def _voxel_bin(points: np.ndarray, side: float, bounds):
    # Sorted unique keys make the output order deterministic and
    # independent of any internal parallel split.
    unique, inverse = np.unique(_voxel_keys(points, side, bounds), axis=0,
                                return_inverse=True)
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
    """Voxel-grid downsample, searching the side length for the target count.

    The voxel representative is the arithmetic mean of member points; voxel
    normals are averaged and renormalized. Each pass counts the occupied
    voxels at one side length. The search first brackets the window: from
    `side_length` it moves up while there are too many voxels and down while
    there are too few, by `step` and then by a step that doubles on each
    move. Once one side gave too many voxels and another too few, it bisects
    between the last two such sides, so the bracket holds even where the
    count is not monotone in the side. It stops at the first count within
    `target +/- tolerance`. Sides stay at or above the finest one whose keys
    fit an int64. The search also stops when the budget runs out or when
    its next side was already counted: the bracket has shrunk to adjacent
    floats, or the cloud has too few voxels even at the finest side (it has
    fewer distinct points than the window asks for). Then the closest-achieved
    side is used and met_target is False.
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
    # Only the voxel count steers the search. The points are binned once, at
    # the side whose count came closest to the target: the accepted side, as
    # every earlier count was outside the window, or the closest on a miss.
    bounds = ((points.min(axis=0), points.max(axis=0)) if len(points)
              else (np.zeros(3), np.zeros(3)))
    # |key| <= 2**61 keeps every key and key span within int64.
    min_side = max(float(np.abs(bounds).max()) * 2.0**-61, np.finfo(float).tiny)
    side = max(params.side_length, min_side)
    step = params.step
    fine = coarse = None      # last sides with too many / too few voxels
    best_side, best_gap = side, None
    passes = 0
    while passes < params.max_iterations:
        passes += 1
        n_voxels = _voxel_count(points, side, bounds)
        gap = abs(n_voxels - params.target)
        if best_gap is None or gap < best_gap:
            best_gap, best_side = gap, side
        if lo <= n_voxels <= hi:
            break
        if n_voxels > hi:
            fine = side
        else:
            coarse = side
        if fine is not None and coarse is not None:
            side = 0.5 * (fine + coarse)
        elif coarse is None:
            side += step
        else:
            side = max(side - step, 0.5 * side, min_side)
        step *= 2.0
        if side in (fine, coarse):
            break
    inverse, n_voxels = _voxel_bin(points, best_side, bounds)
    out_p, out_n = _voxel_reduce(points, normals, inverse, n_voxels)
    return PreprocessedCloud(out_p, out_n, met_target=lo <= n_voxels <= hi,
                             side_length=best_side, passes=passes)


def preprocess_cloud(points: np.ndarray, params: VoxelParams) -> PreprocessedCloud:
    """Full loss-side pipeline: plane-fit normals, ground removal, downsample.

    Normals and ground removal run with this module's default settings.
    Scan rows with a non-finite coordinate are dropped first, as projection
    drops them from the range image.
    """
    points = np.asarray(points, dtype=float)
    points = points[np.isfinite(points).all(axis=1)]
    normals, valid = estimate_normals_planefit(points)
    pts, nrm = ransac_ground_removal(points[valid], normals[valid])
    return adaptive_voxel_downsample(pts, nrm, params)
