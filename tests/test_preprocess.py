import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial import cKDTree

from liodom import preprocess
from liodom.preprocess import (RANSAC_BLOCK, ROW_BLOCK, VoxelParams, _neighbourhoods,
                               _smallest_eigenvectors,
                               adaptive_voxel_downsample,
                               estimate_normals_planefit, preprocess_cloud,
                               ransac_ground_removal)
from liodom.synth import corridor_sequence


def _plane_points(rng, normal, offset, n=500, extent=10.0, sigma=0.0):
    normal = np.asarray(normal, float)
    normal = normal / np.linalg.norm(normal)
    a = np.cross(normal, [1.0, 0.0, 0.0])
    if np.linalg.norm(a) < 1e-6:
        a = np.cross(normal, [0.0, 1.0, 0.0])
    a /= np.linalg.norm(a)
    b = np.cross(normal, a)
    uv = rng.uniform(-extent, extent, (n, 2))
    pts = offset * normal + uv[:, :1] * a + uv[:, 1:] * b
    if sigma:
        pts = pts + rng.normal(0, sigma, pts.shape)
    return pts


class TestPlanefitNormals:
    def test_recovers_plane_normal(self):
        rng = np.random.default_rng(0)
        n_true = np.array([0.3, -0.5, 0.8])
        n_true /= np.linalg.norm(n_true)
        pts = _plane_points(rng, n_true, 6.0)
        normals, valid = estimate_normals_planefit(pts, k=10)
        assert valid.all()
        dots = np.abs(normals @ n_true)
        assert dots.min() > 0.999

    def test_oriented_toward_origin(self):
        rng = np.random.default_rng(1)
        pts = _plane_points(rng, [0.0, 0.0, 1.0], -3.0, extent=4.0)
        normals, _ = estimate_normals_planefit(pts)
        # sensor at the origin is above the plane z = -3: normals point up
        assert (normals @ np.array([0.0, 0.0, 1.0]) > 0).all()

    def test_unit_length(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-5, 5, (200, 3))
        normals, valid = estimate_normals_planefit(pts)
        np.testing.assert_allclose(np.linalg.norm(normals[valid], axis=1), 1.0,
                                   atol=1e-12)


def _eigh_oracle(cov):
    """Smallest eigenvectors and the rank rule, straight from eigh."""
    eigvals, eigvecs = np.linalg.eigh(cov)
    return eigvecs[:, :, 0], eigvals[:, 1] > 1e-9 * np.maximum(eigvals[:, 2], 1e-30)


def _angles(n0, n1):
    # |n0 x n1| resolves angles down to 1e-16; arccos(|n0 . n1|) stops near 2e-8.
    return np.linalg.norm(np.cross(n0, n1), axis=1)


def _reference_planefit(points, k):
    """Brute-force k-NN, einsum covariance and eigh, oriented like the module."""
    d = np.linalg.norm(points[:, None] - points[None], axis=2)
    neigh = points[np.argsort(d, axis=1, kind="stable")[:, :k + 1]]
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    normals, valid = _eigh_oracle(np.einsum("nki,nkj->nij", centered, centered) / (k + 1))
    normals[np.einsum("ni,ni->n", normals, points) > 0] *= -1.0
    return normals, valid


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def _planefit_case(kind, rng):
    """(points, k) for one oracle neighbourhood kind."""
    if kind == "exact-plane":
        return _plane_points(rng, [0.3, -0.5, 0.8], 6.0, n=300, extent=3.0), 10
    if kind == "noisy-plane":
        return _plane_points(rng, [1.0, 0.2, 0.1], 4.0, n=300, extent=3.0, sigma=0.02), 10
    if kind == "offset-1e3":
        pts = _plane_points(rng, [0.2, 0.9, 0.1], 0.0, n=300, extent=2.0, sigma=0.01)
        return pts + np.array([1e3, -1e3, 1e3]), 10
    if kind == "collinear":
        t = rng.uniform(-5.0, 5.0, 200)
        return np.array([2.0, 1.0, -1.0]) + t[:, None] * np.array([0.6, 0.0, 0.8]), 10
    if kind == "all-equal":
        return np.tile([3.0, -2.0, 1.0], (50, 1)), 10
    # Six points, each the others' neighbours, with eigenvalues l0 ~ l1 < l2:
    # "near-isotropic-<d>" stretches the l1 axis by 1 + d, so the relative gap
    # l1 - l0 over l2 is about d; d = 1e-9 and 2e-6 take eigh, 1e-2 does not.
    d = float(kind.removeprefix("near-isotropic-"))
    axes = np.diag([1.0, 1.0 + d, 1.5])
    return (np.vstack([axes, -axes]) @ _random_rotation(rng).T) + np.array([4.0, 1.0, 2.0]), 5


PLANEFIT_CASES = ["exact-plane", "noisy-plane", "offset-1e3", "collinear", "all-equal",
                  "near-isotropic-1e-9", "near-isotropic-2e-6", "near-isotropic-1e-2"]


class TestPlanefitMatchesEighOracle:
    @pytest.mark.parametrize("kind", PLANEFIT_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_valid_mask_and_normals(self, kind, seed):
        points, k = _planefit_case(kind, np.random.default_rng(seed))
        normals, valid = estimate_normals_planefit(points, k=k)
        want_normals, want_valid = _reference_planefit(points, k)
        np.testing.assert_array_equal(valid, want_valid)
        if kind in ("collinear", "all-equal"):
            assert not valid.any()
        else:
            assert valid.all()
        assert _angles(normals[valid], want_normals[valid]).max(initial=0.0) <= 1e-7
        # same orientation rule: never a flipped normal
        assert (np.einsum("ni,ni->n", normals, want_normals)[valid] > 0).all()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_neighbourhoods_are_exact_knn(self, seed):
        rng = np.random.default_rng(seed)
        # snapped coordinates make many equal distances; compare distances,
        # which ties cannot reorder
        points = np.round(rng.uniform(-3.0, 3.0, (400, 3)), 1)
        k = 10
        nbr = np.concatenate([block for _, block in _neighbourhoods(points, k, points)])
        got = np.sort(np.linalg.norm(points[nbr] - points[:, None], axis=2), axis=1)
        brute = np.sort(np.linalg.norm(points[:, None] - points[None], axis=2), axis=1)
        np.testing.assert_array_equal(got, brute[:, :k + 1])


def _subset_cloud(kind, rng):
    if kind == "random":
        return rng.uniform(-5.0, 5.0, (400, 3))
    if kind == "noisy-plane":
        return _plane_points(rng, [1.0, 0.2, 0.1], 4.0, n=300, extent=3.0, sigma=0.02)
    # A line with a blob beside it: the line's own neighbourhoods are
    # collinear (invalid), those near the blob are not.
    line = np.array([2.0, 1.0, -1.0]) + np.outer(rng.uniform(-5.0, 5.0, 200), [0.6, 0.0, 0.8])
    return np.vstack([line, rng.uniform(-1.0, 1.0, (150, 3)) + [8.0, 0.0, 0.0]])


class TestPlanefitAtRows:
    @pytest.mark.parametrize("kind", ["random", "noisy-plane", "line-and-blob"])
    @pytest.mark.parametrize("rows", ["empty", "unsorted", "repeated"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_equal_all_rows_result(self, kind, rows, seed):
        rng = np.random.default_rng(seed)
        points = _subset_cloud(kind, rng)
        n = len(points)
        idx = {"empty": np.array([], dtype=int),
               "unsorted": rng.permutation(n)[:n // 3],
               "repeated": rng.integers(0, n, 2 * n)}[rows]
        normals, valid = estimate_normals_planefit(points)
        if kind == "line-and-blob":
            assert valid.any() and not valid.all()
        got_normals, got_valid = estimate_normals_planefit(points, at=idx)
        assert got_normals.shape == (len(idx), 3) and got_valid.shape == (len(idx),)
        np.testing.assert_array_equal(got_normals, normals[idx])
        np.testing.assert_array_equal(got_valid, valid[idx])


def _unblocked_planefit(points, k, centres):
    """The module's plane-fit formula over all centres at once: one query, one
    covariance stack, one eigenvector pass."""
    _, nbr = cKDTree(points, balanced_tree=False).query(centres, k=k + 1)
    neigh = points[nbr]
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cov = centered.transpose(0, 2, 1) @ centered
    cov /= k + 1
    normals, valid = _smallest_eigenvectors(cov)
    normals[np.einsum("ni,ni->n", normals, centres) > 0] *= -1.0
    normals /= np.maximum(np.linalg.norm(normals, axis=1, keepdims=True), 1e-30)
    return normals, valid


@pytest.mark.parametrize("m", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1])
@pytest.mark.parametrize("rows", ["at", "all"])
def test_planefit_blocks_equal_unblocked_formula(m, rows):
    rng = np.random.default_rng(m)
    n = m if rows == "all" else m + 700
    # A line beside a blob: the line's collinear rows take eigh and are invalid.
    line = np.array([2.0, 1.0, -1.0]) + np.outer(rng.uniform(-5.0, 5.0, n // 4), [0.6, 0.0, 0.8])
    points = np.vstack([line, rng.uniform(-1.0, 1.0, (n - n // 4, 3)) + [8.0, 0.0, 0.0]])
    at = None if rows == "all" else rng.permutation(n)[:m]
    normals, valid = estimate_normals_planefit(points, at=at)
    want_normals, want_valid = _unblocked_planefit(points, 10, points if at is None else points[at])
    assert valid.shape == (m,) and valid.any() and not valid.all()
    np.testing.assert_array_equal(valid, want_valid)
    np.testing.assert_array_equal(normals, want_normals)


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
       rank=st.integers(0, 3), log_scale=st.floats(-12.0, 6.0))
@example(entries=[1.0] * 9, rank=1, log_scale=0.0)
@example(entries=[0.0] * 9, rank=3, log_scale=0.0)
@example(entries=[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], rank=3, log_scale=-12.0)
def test_closed_form_eigenvector_matches_eigh(entries, rank, log_scale):
    """Random symmetric PSD matrices X^T X, some rank-deficient, scaled 1e-12..1e6."""
    x = np.array(entries).reshape(3, 3)
    x[rank:] = 0.0
    cov = (x.T @ x * 10.0 ** log_scale)[None]
    vectors, valid = _smallest_eigenvectors(cov.copy())
    want_vectors, want_valid = _eigh_oracle(cov)
    np.testing.assert_array_equal(valid, want_valid)
    np.testing.assert_allclose(np.linalg.norm(vectors, axis=1), 1.0, rtol=1e-12)
    assert _angles(vectors[valid], want_vectors[valid]).max(initial=0.0) <= 1e-7


class TestRansacGround:
    def _scene(self, seed=0, tilt=(0.0, 0.0, 1.0)):
        rng = np.random.default_rng(seed)
        ground = _plane_points(rng, tilt, -1.6, n=1500, extent=15.0, sigma=0.01)
        wall = _plane_points(rng, [1.0, 0.0, 0.0], 8.0, n=400, extent=3.0,
                             sigma=0.01) + np.array([0.0, 0.0, 2.0])
        pts = np.vstack([ground, wall])
        _, valid = estimate_normals_planefit(pts)
        return pts[valid], len(ground)

    def test_removes_dominant_plane(self):
        pts, n_ground = self._scene()
        kept_p = pts[ransac_ground_removal(pts, seed=0)]
        assert len(kept_p) < 0.35 * len(pts)
        # the wall (x ~ 8) survives almost entirely
        assert (kept_p[:, 0] > 6.0).mean() > 0.9

    def test_deterministic_given_seed(self):
        pts, _ = self._scene(3)
        a = ransac_ground_removal(pts, seed=7)
        b = ransac_ground_removal(pts, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_no_plane_keeps_everything(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-10, 10, (800, 3))
        kept_p = pts[ransac_ground_removal(pts, min_inlier_fraction=0.2, seed=0)]
        assert len(kept_p) == len(pts)


def _drawn_planes(points, iterations, seed):
    """(anchor, unit normal) of each non-degenerate plane RANSAC draws, in order."""
    rng = np.random.default_rng(seed)
    planes = []
    for _ in range(iterations):
        i, j, l = rng.choice(len(points), size=3, replace=False)
        plane_n = np.cross(points[j] - points[i], points[l] - points[i])
        norm = np.linalg.norm(plane_n)
        if norm >= 1e-12:
            planes.append((points[i], plane_n / norm))
    return planes


def _reference_ransac(points, distance_threshold=0.1, iterations=100,
                      min_inlier_fraction=0.2, seed=0):
    """RANSAC keep mask, scored one hypothesis at a time, keeping the first best count."""
    n = len(points)
    if n < 3:
        return np.ones(n, dtype=bool)
    best_inliers = None
    best_count = -1
    for anchor, plane_n in _drawn_planes(points, iterations, seed):
        inliers = np.abs((points - anchor) @ plane_n) < distance_threshold
        count = int(inliers.sum())
        if count > best_count:
            best_count = count
            best_inliers = inliers
    if best_inliers is None or best_count < min_inlier_fraction * n:
        return np.ones(n, dtype=bool)
    return ~best_inliers


def _ransac_cloud(kind, rng):
    if kind == "ground":
        ground = _plane_points(rng, [0.05, 0.0, 1.0], -1.6, n=900, extent=15.0, sigma=0.02)
        wall = _plane_points(rng, [1.0, 0.0, 0.0], 8.0, n=300, extent=3.0, sigma=0.02)
        return np.vstack([ground, wall + [0.0, 0.0, 2.0]])
    if kind == "no-plane":
        return rng.uniform(-10, 10, (600, 3))
    if kind == "two-equal-planes":
        # Exact planes z = 0 and z = 5 of equal size: their hypotheses tie.
        planes = [np.column_stack([rng.uniform(-10, 10, (250, 2)), np.full(250, z)])
                  for z in (0.0, 5.0)]
        return np.vstack(planes + [rng.uniform(-10, 10, (100, 3))])
    if kind == "duplicates":
        # 12 distinct points, each 20 times: many triplets repeat a point.
        return np.repeat(rng.uniform(-3, 3, (12, 3)), 20, axis=0)
    if kind == "collinear":
        line = np.outer(rng.uniform(-5, 5, 200), [1.0, 2.0, -0.5])
        return np.vstack([line, rng.uniform(-5, 5, (8, 3))])
    if kind == "all-collinear":
        return np.outer(np.arange(50.0), [0.5, -1.0, 2.0])
    raise ValueError(kind)


def _unblocked_ransac(points, distance_threshold=0.1, iterations=100,
                      min_inlier_fraction=0.2, seed=0):
    """RANSAC scored RANSAC_BLOCK hypotheses at a time by one matmul over all
    points. Returns (keep mask, every hypothesis's (count, anchor) in draw order)."""
    n = len(points)
    planes = _drawn_planes(points, iterations, seed)
    best_inliers, best_count, scored = None, -1, []
    for start in range(0, len(planes), RANSAC_BLOCK):
        block_anchors, block = map(np.array, zip(*planes[start:start + RANSAC_BLOCK]))
        offsets = np.einsum("bi,bi->b", block_anchors, block)
        inliers = np.abs(points @ block.T - offsets) < distance_threshold
        counts = inliers.sum(axis=0)
        scored += zip(counts.tolist(), block_anchors)
        k = int(np.argmax(counts))
        if counts[k] > best_count:
            best_count, best_inliers = int(counts[k]), inliers[:, k]
    if best_inliers is None or best_count < min_inlier_fraction * n:
        return np.ones(n, dtype=bool), scored
    return ~best_inliers, scored


class TestRansacBlocksEqualUnblockedScorer:
    """Clouds of more points than one ROW_BLOCK, and not a multiple of it."""

    def test_removes_the_same_ground(self):
        rng = np.random.default_rng(0)
        ground = _plane_points(rng, [0.05, 0.0, 1.0], -1.6, n=3500, extent=15.0, sigma=0.02)
        wall = _plane_points(rng, [1.0, 0.0, 0.0], 8.0, n=1501, extent=3.0, sigma=0.02)
        points = np.vstack([ground, wall + [0.0, 0.0, 2.0]])
        want, _ = _unblocked_ransac(points)
        assert 3000 < np.count_nonzero(~want) < 4000
        np.testing.assert_array_equal(ransac_ground_removal(points), want)

    def test_tie_goes_to_the_first_drawn_plane(self):
        # Exact planes z = 0 and z = 5 of 1500 points each, and 1100 points
        # between them that neither plane's band reaches: every hypothesis
        # drawn within one plane counts exactly 1500.
        rng = np.random.default_rng(1)
        planes = [np.column_stack([rng.uniform(-10, 10, (1500, 2)), np.full(1500, z)])
                  for z in (0.0, 5.0)]
        between = np.column_stack([rng.uniform(-10, 10, (1100, 2)), rng.uniform(1, 4, 1100)])
        points = np.vstack(planes + [between])
        want, scored = _unblocked_ransac(points, seed=3)
        tied = [anchor[2] for count, anchor in scored if count == 1500]
        assert set(tied) == {0.0, 5.0} and max(count for count, _ in scored) == 1500
        removed = points[~want]
        assert len(removed) == 1500 and (removed[:, 2] == tied[0]).all()
        np.testing.assert_array_equal(ransac_ground_removal(points, seed=3), want)

    def test_no_ground_keeps_every_point(self):
        points = np.random.default_rng(2).uniform(-10, 10, (3001, 3))
        want, _ = _unblocked_ransac(points)
        assert want.all()
        np.testing.assert_array_equal(ransac_ground_removal(points), want)


class TestRansacMatchesPerHypothesisLoop:
    @pytest.mark.parametrize("kind", ["ground", "no-plane", "two-equal-planes",
                                      "duplicates", "collinear", "all-collinear"])
    @pytest.mark.parametrize("iterations", [1, RANSAC_BLOCK - 1, RANSAC_BLOCK + 1, 37, 100])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_plane_removed(self, kind, iterations, seed):
        rng = np.random.default_rng(seed)
        pts = _ransac_cloud(kind, rng)
        fraction = 0.1 if kind == "collinear" else 0.2
        got = ransac_ground_removal(pts, iterations=iterations,
                                    min_inlier_fraction=fraction, seed=seed)
        want = _reference_ransac(pts, iterations=iterations,
                                 min_inlier_fraction=fraction, seed=seed)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, want)


def _reference_voxel_walk(points, normals, params):
    """The bracket-then-bisect search binned with a row-wise unique at every pass.

    From `side_length`, the side grows while there are too many voxels and
    shrinks (at most halving, never below the finest side whose keys fit an
    int64) while there are too few, by `step` doubled on each move. Once one
    side gave too many and another too few, the next side is the midpoint of
    the last two such sides. The search ends at the first count in the
    window, when the budget runs out, or when the next side is one of those
    two sides; a miss bins at the first side closest to the target.
    Returns (points, normals, side_length, passes, met_target).
    """
    lo = params.target - params.tolerance
    hi = params.target + params.tolerance
    if len(points) < lo:
        return points, normals, params.side_length, 0, False

    def binned(inverse, n_voxels):
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

    min_side = max(np.abs(points).max(initial=0.0) * 2.0**-61, np.finfo(float).tiny)
    side = max(params.side_length, min_side)
    step = params.step
    too_many, too_few, tried = [], [], []
    for it in range(1, params.max_iterations + 1):
        keys = np.floor(points / side).astype(np.int64)
        unique, inverse = np.unique(keys, axis=0, return_inverse=True)
        n_voxels = len(unique)
        if lo <= n_voxels <= hi:
            return (*binned(inverse, n_voxels), side, it, True)
        tried.append((abs(n_voxels - params.target), it, side, inverse, n_voxels))
        (too_many if n_voxels > hi else too_few).append(side)
        if too_many and too_few:
            side = (too_many[-1] + too_few[-1]) / 2.0
        elif too_many:
            side = side + step
        else:
            side = max(side - step, side / 2.0, min_side)
        step *= 2.0
        if side in too_many[-1:] + too_few[-1:]:
            break
    _, _, side, inverse, n_voxels = min(tried, key=lambda t: t[:2])
    return (*binned(inverse, n_voxels), side, len(tried), False)


class TestAdaptiveVoxel:
    def _uniform(self, seed, n, extent):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-extent, extent, (n, 3))
        nrm = rng.standard_normal((n, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        return pts, nrm

    def test_hits_target_within_pass_budget(self):
        pts, nrm = self._uniform(0, 4000, 8.0)
        params = VoxelParams(target=512, tolerance=100, max_iterations=200)
        cloud = adaptive_voxel_downsample(pts, nrm, params)
        assert cloud.met_target
        assert abs(len(cloud) - 512) <= 100
        assert cloud.passes <= 200

    def test_fewer_points_than_target_returns_all(self):
        pts, nrm = self._uniform(1, 50, 2.0)
        cloud = adaptive_voxel_downsample(pts, nrm, VoxelParams(target=512))
        assert len(cloud) == 50

    def test_voxel_means_and_unit_normals(self):
        pts, nrm = self._uniform(2, 1000, 5.0)
        cloud = adaptive_voxel_downsample(pts, nrm, VoxelParams(target=256))
        np.testing.assert_allclose(np.linalg.norm(cloud.normals, axis=1), 1.0,
                                   atol=1e-12)
        # every output point is inside the cell spanned by its voxel
        side = cloud.side_length
        cells = np.floor(cloud.points / side)
        inside = (cloud.points >= cells * side) & (cloud.points <= (cells + 1) * side)
        assert inside.all()

    def test_deterministic(self):
        pts, nrm = self._uniform(3, 3000, 6.0)
        a = adaptive_voxel_downsample(pts, nrm, VoxelParams(target=400))
        b = adaptive_voxel_downsample(pts, nrm, VoxelParams(target=400))
        np.testing.assert_array_equal(a.points, b.points)

    def test_coarser_grid_reduces_count_statistically(self):
        # Exact monotonicity does not hold per 0.01 m step for floor binning,
        # but large side-length changes must reduce the voxel count.
        pts, nrm = self._uniform(5, 5000, 10.0)
        counts = []
        for side in (0.3, 0.6, 1.2, 2.4):
            p = VoxelParams(side_length=side, target=10**9, tolerance=10**9,
                            max_iterations=1)
            counts.append(len(adaptive_voxel_downsample(pts, nrm, p)))
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("side", [0.7, 1e-12])
    def test_voxels_follow_row_wise_key_order(self, side):
        # 1e-12 m cells give keys too wide to pack into one int64 code, so
        # this covers both the packed and the row-wise binning.
        pts, nrm = self._uniform(6, 2000, 8.0)
        pts[:, 2] *= 0.1
        p = VoxelParams(side_length=side, target=10**9, tolerance=10**9,
                        max_iterations=1)
        cloud = adaptive_voxel_downsample(pts, nrm, p)
        keys = np.floor(pts / side).astype(np.int64)
        _, inverse = np.unique(keys, axis=0, return_inverse=True)
        means = np.stack([np.bincount(inverse, weights=pts[:, c]) for c in range(3)], axis=1)
        np.testing.assert_array_equal(cloud.points, means / np.bincount(inverse)[:, None])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_too_few_distinct_points_ends_before_keys_overflow(self):
        # 300 points on a 1 m grid, 261 of them distinct: no side reaches
        # 290 +/- 5 voxels, so the search shrinks the side until it stops.
        # Sides below ~5e-18 m would overflow the int64 keys of these
        # coordinates (a RuntimeWarning from the cast, then garbage counts).
        grid = np.stack(np.unravel_index(np.arange(261), (7, 7, 7)), axis=1) - 3.0
        pts = np.vstack([grid, grid[:39]]) + np.array([12.0, -40.0, 3.0])
        nrm = np.tile([0.0, 0.0, 1.0], (300, 1))
        params = VoxelParams(side_length=1e-12, target=290, tolerance=5, max_iterations=40)
        cloud = adaptive_voxel_downsample(pts, nrm, params)
        assert not cloud.met_target
        assert cloud.passes < params.max_iterations
        assert cloud.side_length == 1e-12      # every side gave 261: the first is kept
        np.testing.assert_array_equal(cloud.points, np.unique(pts, axis=0))

    def test_bisection_keeps_its_bracket_where_count_is_not_monotone(self, monkeypatch):
        # An axis-aligned 12 x 12 x 4 lattice 11 m from the origin: floor
        # binning makes its voxel count jump up and down with the side.
        pts = np.stack(np.meshgrid(np.arange(12.0), np.arange(12.0), np.arange(4.0),
                                   indexing="ij"), axis=-1).reshape(-1, 3) + 11.0
        nrm = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
        params = VoxelParams(side_length=0.3, step=0.01, target=482, tolerance=2,
                             max_iterations=40)
        trace = []
        count = preprocess._voxel_count

        def recording_count(points, side, bounds):
            trace.append((side, count(points, side, bounds)))
            return trace[-1][1]

        monkeypatch.setattr(preprocess, "_voxel_count", recording_count)
        cloud = adaptive_voxel_downsample(pts, nrm, params)
        assert cloud.met_target and abs(len(cloud) - 482) <= 2
        assert (cloud.side_length, cloud.passes) == (trace[-1][0], len(trace))
        fine = coarse = None
        bisected = []
        for side, n in trace:
            if fine is not None and coarse is not None:
                # a bisection side lies strictly inside the current bracket
                assert min(fine, coarse) < side < max(fine, coarse)
                bisected.append((side, n))
            if n > 482 + 2:
                fine = side
            else:
                coarse = side
        # within the bracket a finer side gave fewer voxels than a coarser one
        assert any(s0 < s1 and n0 < n1 for s0, n0 in bisected for s1, n1 in bisected)
        want = _reference_voxel_walk(pts, nrm, params)
        np.testing.assert_array_equal(cloud.points, want[0])
        assert (cloud.side_length, cloud.passes, cloud.met_target) == want[2:]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 400),
       offset=st.floats(-50.0, 50.0), extent=st.floats(0.5, 20.0),
       grid=st.sampled_from([None, 0.25, 1.0]),
       side=st.sampled_from([1e-12, 0.05, 0.3, 1.1]),
       step=st.sampled_from([0.01, 0.05, 0.2]),
       target=st.integers(1, 300), tolerance=st.integers(0, 40),
       max_iterations=st.integers(1, 25))
@example(seed=0, n=0, offset=0.0, extent=1.0, grid=None, side=0.3, step=0.01,
         target=20, tolerance=30, max_iterations=5)      # empty cloud, walked
@example(seed=1, n=300, offset=-20.0, extent=8.0, grid=None, side=1e-12,
         step=0.01, target=300, tolerance=10, max_iterations=3)   # packing fallback
@example(seed=1, n=300, offset=-20.0, extent=8.0, grid=1.0, side=1e-12,
         step=0.01, target=290, tolerance=5, max_iterations=25)  # too few distinct points
def test_voxel_walk_matches_row_wise_reference(seed, n, offset, extent, grid, side,
                                               step, target, tolerance, max_iterations):
    rng = np.random.default_rng(seed)
    pts = offset + rng.uniform(-extent, extent, (n, 3)) * rng.uniform(0.05, 1.0, 3)
    if grid is not None:        # repeated points share a voxel at every side
        pts = np.round(pts / grid) * grid
    nrm = rng.standard_normal((n, 3))
    params = VoxelParams(side_length=side, step=step, target=target,
                         tolerance=tolerance, max_iterations=max_iterations)
    got = adaptive_voxel_downsample(pts, nrm, params)
    want = _reference_voxel_walk(pts, nrm, params)
    np.testing.assert_array_equal(got.points, want[0])
    np.testing.assert_array_equal(got.normals, want[1])
    assert (got.side_length, got.passes, got.met_target) == want[2:]


def test_preprocess_cloud_end_to_end():
    rng = np.random.default_rng(9)
    ground = _plane_points(rng, [0.0, 0.0, 1.0], -1.5, n=3000, extent=12.0,
                           sigma=0.01)
    wall = _plane_points(rng, [1.0, 0.2, 0.0], 7.0, n=2500, extent=2.5,
                         sigma=0.01) + np.array([0.0, 0.0, 3.0])
    cloud = preprocess_cloud(np.vstack([ground, wall]),
                             VoxelParams(target=512, tolerance=100))
    assert abs(len(cloud) - 512) <= 100 or not cloud.met_target
    # ground is gone: nothing near z = -1.5 with an upward normal
    low = cloud.points[:, 2] < -1.2
    assert low.mean() < 0.05


def test_preprocess_cloud_drops_non_finite_rows():
    rng = np.random.default_rng(9)
    clean = np.vstack([_plane_points(rng, [0.0, 0.0, 1.0], -1.5, n=2000, extent=10.0, sigma=0.01),
                       _plane_points(rng, [1.0, 0.2, 0.0], 7.0, n=1500, extent=2.5, sigma=0.01)])
    dirty = np.insert(clean, [100, 2500], [[np.nan, 1.0, 2.0], [3.0, np.inf, 0.0]], axis=0)
    params = VoxelParams(target=512, tolerance=100)
    want = preprocess_cloud(clean, params)
    got = preprocess_cloud(dirty, params)
    np.testing.assert_array_equal(got.points, want.points)
    np.testing.assert_array_equal(got.normals, want.normals)
    assert (got.side_length, got.passes, got.met_target) == (
        want.side_length, want.passes, want.met_target)


def test_preprocess_cloud_equals_normals_first_order():
    # An odom-raw scan: the noisy corridor, read back from float32 storage.
    scan = corridor_sequence(n_frames=2, seed=0, sigma=0.01, yaw_rate=0.05).scans[1]
    points = scan.points.astype(np.float32).astype(float)
    params = VoxelParams()
    normals, valid = estimate_normals_planefit(points)
    assert valid.all()
    keep = _reference_ransac(points[valid])
    want = adaptive_voxel_downsample(points[valid][keep], normals[valid][keep], params)
    got = preprocess_cloud(points, params)
    np.testing.assert_array_equal(got.points, want.points)
    np.testing.assert_array_equal(got.normals, want.normals)
    assert (got.side_length, got.passes, got.met_target) == (
        want.side_length, want.passes, want.met_target)


def test_all_ground_scan_gives_empty_cloud():
    rng = np.random.default_rng(0)
    points = _plane_points(rng, [0.0, 0.0, 1.0], -1.7, n=2000, extent=20.0)
    assert not ransac_ground_removal(points).any()
    cloud = preprocess_cloud(points, VoxelParams(target=512, tolerance=100))
    assert cloud.points.shape == cloud.normals.shape == (0, 3)
    assert not cloud.met_target
