import dataclasses
import json

import numpy as np
import pytest

from liodom.config import config_to_dict
from liodom.geometry import Pose, compose
from liodom.matching import transformed_cloud
from liodom.nn import Adam, StepLR
from liodom.pipeline import (OdometryModel, PipelineConfig,
                             TrainParams, build_frame_pairs,
                             composed_pose_gradients, estimate_pair,
                             pair_loss, run_sequence, train_epoch, train_step)
from liodom.preprocess import VoxelParams
from liodom.range_image import ProjectionConfig
from liodom.synth import Box, Plane, SceneSpec, Pose as _P  # noqa: F401
from liodom.synth import sample_scene, scan_from_pose, synthesize_imu

TINY = PipelineConfig(
    feature_dim=16, encoder_widths=(2, 3, 4), lstm_hidden=8,
    projection=ProjectionConfig(f_w=180.0, f_h=24.0, eta_w=5.0, eta_h=4.0,
                                H=12, W=72),
    voxel=VoxelParams(side_length=0.5, target=256, tolerance=100),
    train=TrainParams(batch_size=4, epochs=3, seed=0),
)


def _tiny_cfg(**kw):
    return dataclasses.replace(TINY, **kw)


def _scene():
    spec = SceneSpec(
        boxes=(Box(center=(0.0, 0.0, 1.0), size=(12.0, 8.0, 4.0)),),
        planes=(Plane((3.0, -2.0, 0.5), (0.5, 1.0, 0.3), 1.0, 1.0),),
        density=10.0, seed=0)
    return sample_scene(spec)


def _pairs(cfg, n_frames=3, speed=0.15, yaw_rate=0.05):
    scene = _scene()
    times = np.arange(n_frames) * 0.1
    poses = [Pose(q=[0.0, 0.0, yaw_rate * t], t=[speed * t / 0.1, 0.0, 0.0])
             for t in times]
    scans = [scan_from_pose(scene, p) for p in poses]
    dense_t = np.arange(n_frames * 15 + 1) * (0.1 / 15)
    dense_p = [Pose(q=[0.0, 0.0, yaw_rate * t], t=[speed * t / 0.1, 0.0, 0.0])
               for t in dense_t]
    imu = synthesize_imu(dense_p, dense_t, scan_times=times, S=15)
    return build_frame_pairs(scans, cfg, imu_windows=imu), poses


class TestConfig:
    def test_rejects_unknown_modes(self):
        for kw in ({"imu_mode": "bogus"}, {"head_mode": "bogus"},
                   {"head_type": "bogus"}, {"matching": "bogus"}):
            with pytest.raises(ValueError):
                PipelineConfig(**kw)

    def test_defaults_follow_training_recipe(self):
        cfg = PipelineConfig()
        assert cfg.train.learning_rate == 1e-4
        assert (cfg.train.beta1, cfg.train.beta2) == (0.9, 0.99)
        assert cfg.train.weight_decay == 1e-5
        assert cfg.train.lr_step_size == 20 and cfg.train.lr_gamma == 0.5
        assert cfg.train.batch_size == 20
        assert cfg.imu_window == 15
        assert cfg.weights.alpha == 1.0 and cfg.weights.lam == 0.1
        assert cfg.q_scale == 0.1

    def test_config_dict_is_plain_data(self):
        d = config_to_dict(PipelineConfig())
        assert json.loads(json.dumps(d)) == d
        assert (d["pipeline"]["alpha"], d["pipeline"]["lam"]) == (1.0, 0.1)
        assert d["projection"]["H"] == 52 and d["projection"]["W"] == 720


class TestZeroInitIdentity:
    @pytest.mark.parametrize("imu_mode", ["none", "initial-pose",
                                          "feature-concat"])
    def test_untrained_model_emits_identity(self, imu_mode):
        cfg = _tiny_cfg(imu_mode=imu_mode)
        pairs, _ = _pairs(cfg)
        model = OdometryModel(cfg)
        pose, diag = estimate_pair(pairs[0], model, cfg)
        np.testing.assert_allclose(pose.matrix, np.eye(4), atol=0)
        np.testing.assert_allclose(diag.initial.matrix, np.eye(4), atol=0)

    def test_initial_pose_requires_imu(self):
        cfg = _tiny_cfg(imu_mode="initial-pose")
        pairs, _ = _pairs(cfg)
        pairs[0].imu = None
        with pytest.raises(ValueError):
            estimate_pair(pairs[0], OdometryModel(cfg), cfg)


@pytest.mark.parametrize("head_mode", ["two-branch", "merged", "vertex-only"])
@pytest.mark.parametrize("head_type", ["attention", "fc-activation"])
def test_all_head_variants_run(head_mode, head_type):
    cfg = _tiny_cfg(head_mode=head_mode, head_type=head_type)
    pairs, _ = _pairs(cfg)
    model = OdometryModel(cfg)
    loss, terms, diag = train_step(pairs[0], model, cfg)
    assert np.isfinite(loss)
    grads = [np.abs(p.grad).sum() for p in model.parameters().values()]
    assert sum(g > 0 for g in grads) > 0


def test_vertex_only_has_no_normal_encoder():
    cfg = _tiny_cfg(head_mode="vertex-only")
    model = OdometryModel(cfg)
    assert model.normal_encoder is None
    assert not any(k.startswith("normal_encoder")
                   for k in model.parameters())


def test_feature_concat_widens_heads():
    base = OdometryModel(_tiny_cfg(imu_mode="none"))
    wide = OdometryModel(_tiny_cfg(imu_mode="feature-concat"))
    assert wide.t_dim == base.t_dim + 2 * TINY.lstm_hidden


class TestComposedGradients:
    def _loss(self, p_delta, p_hat, source, corr, w):
        moved = transformed_cloud(transformed_cloud(source, Pose.from_vector(p_hat)),
                                  Pose.from_vector(p_delta))
        sp = moved.points[corr.src_index]
        sn = moved.normals[corr.src_index]
        res = np.einsum("mi,mi->m", corr.tgt_normals, sp - corr.tgt_points)
        diff = sn - corr.tgt_normals
        return float(w.alpha * np.abs(res).sum()
                     + w.lam * np.einsum("mi,mi->", diff, diff))

    def test_matches_finite_differences(self):
        cfg = _tiny_cfg(imu_mode="none")
        pairs, _ = _pairs(cfg)
        rng = np.random.default_rng(0)
        p_delta = rng.uniform(-0.05, 0.05, 6)
        p_hat = rng.uniform(-0.05, 0.05, 6)
        pose = compose(Pose.from_vector(p_delta), Pose.from_vector(p_hat))
        source, corr, _ = pair_loss(pairs[0], pose, cfg)
        w = cfg.weights
        g_delta, g_hat = composed_pose_gradients(p_delta, p_hat, source, corr, w)
        eps = 1e-7
        for k in range(6):
            d = np.zeros(6)
            d[k] = eps
            fd_d = (self._loss(p_delta + d, p_hat, source, corr, w)
                    - self._loss(p_delta - d, p_hat, source, corr, w)) / (2 * eps)
            fd_h = (self._loss(p_delta, p_hat + d, source, corr, w)
                    - self._loss(p_delta, p_hat - d, source, corr, w)) / (2 * eps)
            assert abs(g_delta[k] - fd_d) < 1e-5 * max(1.0, abs(fd_d))
            assert abs(g_hat[k] - fd_h) < 1e-5 * max(1.0, abs(fd_h))


class TestTraining:
    def test_loss_decreases_on_single_pair(self):
        cfg = _tiny_cfg(imu_mode="none")
        pairs, _ = _pairs(cfg)
        model = OdometryModel(cfg)
        opt = Adam(model.parameters(), lr=1e-3, weight_decay=0.0)
        first = None
        losses = []
        for _ in range(25):
            model.zero_grad()
            loss, _, _ = train_step(pairs[0], model, cfg)
            opt.step()
            losses.append(loss)
        assert losses[-1] < 0.9 * losses[0]

    def test_train_epoch_stats(self):
        cfg = _tiny_cfg(imu_mode="initial-pose")
        pairs, _ = _pairs(cfg, n_frames=4)
        model = OdometryModel(cfg)
        opt = Adam(model.parameters(), lr=cfg.train.learning_rate)
        sched = StepLR(opt, cfg.train.lr_step_size, cfg.train.lr_gamma)
        stats = train_epoch(pairs, model, opt, cfg, epoch=0, scheduler=sched)
        assert stats.pairs_used == len(pairs)
        assert stats.pairs_skipped == 0
        assert np.isfinite(stats.mean_loss)
        assert stats.mean_loss == pytest.approx(
            stats.mean_po2pl * cfg.weights.alpha
            + stats.mean_pl2pl * cfg.weights.lam, rel=1e-9)

    def test_scheduler_applied_per_epoch(self):
        cfg = _tiny_cfg(imu_mode="none")
        pairs, _ = _pairs(cfg)
        model = OdometryModel(cfg)
        opt = Adam(model.parameters(), lr=1e-4)
        sched = StepLR(opt, step_size=20, gamma=0.5)
        stats = train_epoch(pairs[:1], model, opt, cfg, epoch=40, scheduler=sched)
        assert stats.learning_rate == pytest.approx(2.5e-5)


class TestRunSequence:
    def test_classical_recovers_trajectory(self):
        cfg = _tiny_cfg(imu_mode="none")
        pairs, poses = _pairs(cfg, n_frames=4)
        absolute, relatives, flags = run_sequence(pairs, "classical", cfg)
        assert flags == ["ok"] * 3
        assert len(absolute) == 4
        for k, est in enumerate(absolute):
            true = compose(poses[0].inverse(), poses[k])
            assert np.linalg.norm(est.t - true.t) < 0.05

    def test_learned_needs_model(self):
        cfg = _tiny_cfg(imu_mode="none")
        pairs, _ = _pairs(cfg)
        with pytest.raises(ValueError):
            run_sequence(pairs, "learned", cfg)

    def test_unknown_mode_rejected(self):
        cfg = _tiny_cfg()
        with pytest.raises(ValueError):
            run_sequence([], "bogus", cfg)

    def test_learned_zero_init_gives_identity_trajectory(self):
        cfg = _tiny_cfg(imu_mode="none")
        pairs, _ = _pairs(cfg)
        model = OdometryModel(cfg)
        absolute, _, _ = run_sequence(pairs, "learned", cfg, model=model)
        for p in absolute:
            np.testing.assert_allclose(p.matrix, np.eye(4), atol=0)


class TestStateRoundTrip:
    def test_arrays_restore_exactly(self):
        cfg = _tiny_cfg(imu_mode="initial-pose")
        pairs, _ = _pairs(cfg)
        model = OdometryModel(cfg)
        opt = Adam(model.parameters(), lr=1e-3)
        train_epoch(pairs, model, opt, cfg)
        state = {k: v.copy() for k, v in model.state_arrays().items()}
        clone = OdometryModel(cfg, rng=np.random.default_rng(99))
        clone.load_state_arrays(state)
        pose_a, _ = estimate_pair(pairs[0], model, cfg)
        pose_b, _ = estimate_pair(pairs[0], clone, cfg)
        np.testing.assert_array_equal(pose_a.matrix, pose_b.matrix)

    def test_unknown_key_rejected(self):
        model = OdometryModel(_tiny_cfg())
        with pytest.raises(KeyError):
            model.load_state_arrays({"nope": np.zeros(3)})

    def test_shape_mismatch_rejected(self):
        model = OdometryModel(_tiny_cfg())
        name = next(iter(model.state_arrays()))
        with pytest.raises(ValueError):
            model.load_state_arrays({name: np.zeros((1, 1, 1))})

    def test_missing_key_rejected(self):
        model = OdometryModel(_tiny_cfg())
        state = model.state_arrays()
        state.pop(next(iter(state)))
        with pytest.raises(KeyError):
            model.load_state_arrays(state)

    def test_merged_heads_shared_once(self):
        cfg = _tiny_cfg(imu_mode="initial-pose", head_mode="merged")
        pairs, _ = _pairs(cfg)
        model = OdometryModel(cfg)
        assert model.head_q is model.head_t
        opt = Adam(model.parameters(), lr=1e-3)
        stepped = [id(p) for p in opt.params.values()]
        assert len(set(stepped)) == len(stepped)
        assert {id(p) for p in model.head_q.parameters().values()} <= set(stepped)
        assert not any(k.startswith("head_q.") for k in opt.params)
        train_epoch(pairs, model, opt, cfg)
        assert "normal_encoder.blocks.2.proj_norm.running_var" in model.buffers()
        state = {k: v.copy() for k, v in model.state_arrays().items()}
        clone = OdometryModel(cfg, rng=np.random.default_rng(99))
        clone.load_state_arrays(state)
        assert clone.state_arrays().keys() == state.keys()
        for k, v in clone.state_arrays().items():
            np.testing.assert_array_equal(v, state[k])


def test_pixel_matching_mode_trains():
    cfg = _tiny_cfg(imu_mode="none", matching="pixel")
    pairs, _ = _pairs(cfg)
    model = OdometryModel(cfg)
    loss, _, _ = train_step(pairs[0], model, cfg)
    assert np.isfinite(loss) and loss > 0


def test_build_frame_pairs_counts():
    cfg = _tiny_cfg()
    pairs, _ = _pairs(cfg, n_frames=5)
    assert len(pairs) == 4
    assert all(p.imu.shape == (15, 6) for p in pairs)
    assert all(len(p.last_cloud) > 0 and len(p.cur_cloud) > 0 for p in pairs)
