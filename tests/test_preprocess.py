import numpy as np
import pytest

from liodom.preprocess import (VoxelParams, adaptive_voxel_downsample,
                               estimate_normals_planefit, preprocess_cloud,
                               ransac_ground_removal)


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


class TestRansacGround:
    def _scene(self, seed=0, tilt=(0.0, 0.0, 1.0)):
        rng = np.random.default_rng(seed)
        ground = _plane_points(rng, tilt, -1.6, n=1500, extent=15.0, sigma=0.01)
        wall = _plane_points(rng, [1.0, 0.0, 0.0], 8.0, n=400, extent=3.0,
                             sigma=0.01) + np.array([0.0, 0.0, 2.0])
        pts = np.vstack([ground, wall])
        normals, valid = estimate_normals_planefit(pts)
        return pts[valid], normals[valid], len(ground)

    def test_removes_dominant_plane(self):
        pts, normals, n_ground = self._scene()
        kept_p, kept_n = ransac_ground_removal(pts, normals, seed=0)
        assert len(kept_p) < 0.35 * len(pts)
        # the wall (x ~ 8) survives almost entirely
        assert (kept_p[:, 0] > 6.0).mean() > 0.9

    def test_deterministic_given_seed(self):
        pts, normals, _ = self._scene(3)
        a = ransac_ground_removal(pts, normals, seed=7)
        b = ransac_ground_removal(pts, normals, seed=7)
        np.testing.assert_array_equal(a[0], b[0])

    def test_no_plane_keeps_everything(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-10, 10, (800, 3))
        normals, _ = estimate_normals_planefit(pts)
        kept_p, _ = ransac_ground_removal(pts, normals, min_inlier_fraction=0.2,
                                          seed=0)
        assert len(kept_p) == len(pts)


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
