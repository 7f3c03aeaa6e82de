import numpy as np
import pytest

from liodom.geometry import Pose, euler_to_matrix
from liodom.matching import (CorrespondenceSet, EmptyMatchError, KdIndex,
                             LossWeights, build_index, loss_at_pose,
                             loss_gradient, loss_terms, match_nearest,
                             residual_values, residuals)
from liodom.nn import central_difference
from liodom.pipeline import Frame, FramePair, PipelineConfig, pixel_correspondences
from liodom.preprocess import PreprocessedCloud
from liodom.range_image import ProjectionConfig
from liodom.synth import SceneSpec, Box, sample_scene, scan_from_pose


def _cloud(points, normals=None):
    points = np.asarray(points, dtype=float)
    if normals is None:
        normals = np.tile([0.0, 0.0, 1.0], (len(points), 1))
    return PreprocessedCloud(points=points, normals=np.asarray(normals, float),
                             met_target=True, side_length=0.3, passes=0)


def _matches(src_p, src_n, tgt_p, tgt_n):
    """(source cloud, match set) pairing row i of the sources with row i of the targets."""
    source = _cloud(np.atleast_2d(src_p), np.atleast_2d(src_n))
    corr = CorrespondenceSet(np.arange(len(source)), np.atleast_2d(tgt_p).astype(float),
                             np.atleast_2d(tgt_n).astype(float))
    return source, corr


def _terms(*match):
    """(point-to-plane, plane-to-plane) of hand-placed matches, at the identity."""
    return loss_terms(np.zeros(6), *_matches(*match))


class TestKdTreeExactness:
    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(12)
        total = 0
        while total < 10_000:
            pts = rng.uniform(-10, 10, (rng.integers(5, 400), 3))
            qs = rng.uniform(-10, 10, (rng.integers(1, 200), 3))
            idx = KdIndex(_cloud(pts))
            dist, ti = idx.query(qs)
            brute = np.linalg.norm(qs[:, None, :] - pts[None, :, :], axis=2)
            np.testing.assert_array_equal(ti, brute.argmin(axis=1))
            np.testing.assert_allclose(dist, brute.min(axis=1), rtol=1e-12)
            total += len(qs)

    def test_empty_cloud_rejected(self):
        with pytest.raises(EmptyMatchError):
            build_index(_cloud(np.empty((0, 3))))


class TestLossValues:
    def test_identical_clouds_zero(self):
        rng = np.random.default_rng(5)
        c = _cloud(rng.uniform(-5, 5, (50, 3)))
        corr = match_nearest(c, build_index(c))
        assert loss_at_pose(np.zeros(6), c, corr) < 1e-9

    def test_point_to_plane_hand_value(self):
        assert _terms((0.3, 0.4, 0.5), (0, 0, 1), (0, 0, 0), (0, 0, 1))[0] == 0.5

    def test_plane_to_plane_hand_value(self):
        assert _terms((0, 0, 0), (1, 0, 0), (0, 0, 0), (0, 1, 0))[1] == 2.0

    def test_combined_hand_value(self):
        terms = _terms((0.3, 0.4, 0.5), (1, 0, 0), (0, 0, 0), (0, 1, 0))
        # residual: |(0,1,0).(0.3,0.4,0.5)| = 0.4; normals: |(1,0,0)-(0,1,0)|^2 = 2
        assert LossWeights(alpha=1.0, lam=0.1).combine(terms) == pytest.approx(0.6)

    def test_combined_default_weighting(self):
        # the first match is the point-to-plane case, the second the
        # plane-to-plane case moved 100 m away
        source, corr = _matches([(0.3, 0.4, 0.5), (100.0, 100.0, 100.0)],
                                [(0, 0, 1), (1, 0, 0)],
                                [(0, 0, 0), (100.0, 100.0, 100.0)],
                                [(0, 0, 1), (0, 1, 0)])
        # 0.5 + 0.0 point-to-plane, 0 + 2 plane-to-plane, 1.0*0.5 + 0.1*2 = 0.7
        assert loss_at_pose(np.zeros(6), source, corr) == pytest.approx(0.7)

    def test_residual_orthogonal_to_normal_is_free(self):
        assert _terms((0.3, 0.4, 0.0), (0, 0, 1), (0, 0, 0), (0, 0, 1))[0] == 0.0

    def test_flipped_normal_costs_four(self):
        assert _terms((0, 0, 0), (0, 0, 1), (0, 0, 0), (0, 0, -1))[1] == pytest.approx(4.0)

    def test_empty_set_raises(self):
        empty = CorrespondenceSet(np.empty(0, int), np.empty((0, 3)), np.empty((0, 3)))
        source = _cloud(np.zeros((1, 3)))
        with pytest.raises(EmptyMatchError):
            loss_terms(np.zeros(6), source, empty)
        with pytest.raises(EmptyMatchError):
            loss_at_pose(np.zeros(6), source, empty)


class TestMatchNearest:
    def test_max_dist_filters(self):
        tgt = _cloud([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        src = _cloud([[0.1, 0.0, 0.0], [5.0, 0.0, 0.0]])
        corr = match_nearest(src, build_index(tgt), max_dist=1.0)
        assert len(corr) == 1
        np.testing.assert_array_equal(corr.src_index, [0])

    def test_all_too_far_raises(self):
        tgt = _cloud([[0.0, 0.0, 0.0]])
        src = _cloud([[50.0, 0.0, 0.0]])
        with pytest.raises(EmptyMatchError):
            match_nearest(src, build_index(tgt), max_dist=1.0)


def _map_pair(last, cur, cfg):
    """FramePair over two point arrays; pixel matching reads their maps, no clouds."""
    cfg = PipelineConfig(projection=cfg)
    return FramePair(Frame(last, cfg), Frame(cur, cfg))


class TestMatchPixel:
    def test_disjoint_masks_empty(self):
        cfg = ProjectionConfig(f_w=30.0, f_h=15.0, eta_w=1.0, eta_h=1.0, H=30, W=60)

        def wall(y0, y1):
            # dense patch of the plane x = 5 m, every covered pixel gets a normal
            y, z = np.meshgrid(np.arange(y0, y1, 0.02), np.arange(-1.0, 1.0, 0.02))
            return np.stack([np.full(y.size, 5.0), y.ravel(), z.ravel()], axis=1)

        fp = _map_pair(wall(-1.8, -0.45), wall(0.45, 1.8), cfg)
        assert fp.n_last.valid.any() and fp.n_cur.valid.any()
        with pytest.raises(EmptyMatchError):
            pixel_correspondences(fp, Pose.identity(), cfg)

    def test_fewer_correct_matches_than_nearest(self):
        cfg = ProjectionConfig(f_w=180.0, f_h=23.0, eta_w=1.0, eta_h=1.0,
                               H=46, W=360)
        spec = SceneSpec(boxes=(Box(center=(0, 0, 1), size=(16, 10, 4)),),
                         density=40.0, seed=3)
        scene = sample_scene(spec)
        motion = Pose(q=[0.0, 0.0, 0.03], t=[0.25, 0.05, 0.0])
        s_last = scan_from_pose(scene, Pose.identity())
        s_cur = scan_from_pose(scene, motion)
        pix_source, pix = pixel_correspondences(_map_pair(s_last.points, s_cur.points, cfg),
                                                Pose.identity(), cfg)

        # ground truth: the true correspondence maps cur through the motion
        moved = s_cur.points @ motion.rotation.T + motion.t
        cur_cloud = _cloud(s_cur.points, s_cur.normals)
        moved_cloud = _cloud(moved, s_cur.normals)
        near = match_nearest(moved_cloud, build_index(_cloud(s_last.points, s_last.normals)),
                             max_dist=1.0)

        def correct_fraction(sp, tp):
            # a match is correct when the source point, moved by the true
            # motion, lands within 5 cm of its assigned target
            return float(np.mean(np.linalg.norm(sp - tp, axis=1) < 0.05))

        near_correct = correct_fraction(moved[near.src_index], near.tgt_points)
        pix_moved = pix_source.points[pix.src_index] @ motion.rotation.T + motion.t
        pix_correct = correct_fraction(pix_moved, pix.tgt_points)
        assert near_correct * len(near) > pix_correct * len(pix)


class TestLossGradient:
    def _setup(self, seed=0):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-4, 4, (60, 3))
        nrm = rng.standard_normal((60, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        src = _cloud(pts, nrm)
        tgt = _cloud(pts + rng.normal(0, 0.05, (60, 3)), nrm)
        corr = match_nearest(src, build_index(tgt))
        return src, corr

    @pytest.mark.parametrize("alpha,lam", [(1.0, 0.1), (1.0, 0.0), (0.0, 1.0), (0.3, 2.0)])
    def test_matches_finite_differences(self, alpha, lam):
        src, corr = self._setup()
        rng = np.random.default_rng(1)
        w = LossWeights(alpha=alpha, lam=lam)
        for _ in range(5):
            p = rng.uniform(-0.1, 0.1, 6)
            g = loss_gradient(p, src, corr, w)
            for k in range(6):
                fd, _ = central_difference(lambda: loss_at_pose(p, src, corr, w), p, k, 1e-7)
                assert abs(g[k] - fd) < 1e-5 * max(1.0, abs(fd))

    def test_loss_at_pose_matches_hand_moved_oracle(self):
        # the kernel's loss against the loss formula on matches moved by hand
        src, corr = self._setup()
        rng = np.random.default_rng(2)
        for _ in range(5):
            p = rng.uniform(-0.1, 0.1, 6)
            w = LossWeights(alpha=rng.uniform(0, 2), lam=rng.uniform(0, 2))
            R = euler_to_matrix(p[:3])
            sp = src.points[corr.src_index] @ R.T + p[3:]
            sn = src.normals[corr.src_index] @ R.T
            po2pl = np.abs(np.einsum("mi,mi->m", corr.tgt_normals, sp - corr.tgt_points)).sum()
            diff = sn - corr.tgt_normals
            pl2pl = np.einsum("mi,mi->", diff, diff)
            assert loss_at_pose(p, src, corr, w) == pytest.approx(
                w.alpha * po2pl + w.lam * pl2pl, rel=1e-12, abs=1e-12)

    def test_residual_values_are_the_kernel_residuals(self):
        src, corr = self._setup()
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = rng.uniform(-0.5, 0.5, 6)
            r1, r2 = residual_values(p, src, corr)
            k1, _, k2, _, _ = residuals(p, src, corr)
            np.testing.assert_array_equal(r1, k1)
            np.testing.assert_array_equal(r2, k2)

    def test_kernel_against_finite_difference_jacobians(self):
        # J1 and J2 built column by column from central differences of the
        # residuals; the kernel's J1, H2 = J2^T J2 and g2 = J2^T r2 must match
        src, corr = self._setup()
        rng = np.random.default_rng(4)
        for _ in range(5):
            p = rng.uniform(-0.5, 0.5, 6)
            r1, J1, r2, H2, g2 = residuals(p, src, corr)
            fd = np.empty((len(r1) + len(r2), 6))
            for k in range(6):
                fd[:, k], kink = central_difference(
                    lambda: np.concatenate(residual_values(p, src, corr)), p, k, 1e-6)
                assert not kink
            fd1, fd2 = fd[:len(r1)], fd[len(r1):]
            np.testing.assert_allclose(J1, fd1, rtol=1e-6, atol=1e-7)
            np.testing.assert_allclose(H2, fd2.T @ fd2, rtol=1e-6, atol=1e-7)
            np.testing.assert_allclose(g2, fd2.T @ r2, rtol=1e-6, atol=1e-7)

    def test_zero_residual_subgradient(self):
        # exactly overlapping pair: the absolute value kink contributes 0
        src = _cloud([[1.0, 2.0, 3.0]], [[0.0, 0.0, 1.0]])
        corr = match_nearest(src, build_index(src))
        g = loss_gradient(np.zeros(6), src, corr)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)
