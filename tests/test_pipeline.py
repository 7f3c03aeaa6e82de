import dataclasses
import json
import os
import sys

import numpy as np
import pytest

from liodom import pipeline
from liodom.config import config_to_dict
from liodom.geometry import Pose, compose
from liodom.matching import CorrespondenceSet, EmptyMatchError, transformed_cloud
from liodom.nn import (Adam, MapEncoder, StepLR, central_difference, gradcheck,
                       load_checkpoint, save_checkpoint)
from liodom.pipeline import (HEAD_MODES, IMU_MODES, Frame, FramePair, OdometryModel,
                             PairDiagnostics, PipelineConfig, TrainParams, build_frame_pairs,
                             composed_pose_gradients, estimate_pair,
                             pair_loss, run_sequence, train_epoch, train_step)
from liodom.preprocess import (PreprocessedCloud, VoxelParams, adaptive_voxel_downsample,
                               preprocess_cloud)
from liodom.range_image import (NormalMap, ProjectionConfig, VertexMap, compute_normal_map,
                                project, remap)
from liodom.registration import register
from liodom.synth import Box, Plane, SceneSpec, Pose as _P  # noqa: F401
from liodom.dataset_io import window_imu
from liodom.synth import imu_records, sample_scene, scan_from_pose

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
    imu = window_imu(imu_records(dense_p, dense_t), dense_t, times, S=15)
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
        with pytest.raises(ValueError):
            estimate_pair(dataclasses.replace(pairs[0], imu=None), OdometryModel(cfg), cfg)


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


@pytest.mark.parametrize("head_mode", HEAD_MODES)
def test_modules_form_a_tree(head_mode):
    model = OdometryModel(_tiny_cfg(imu_mode="feature-concat", head_mode=head_mode))
    modules = [id(m) for _, m in model.named_modules()]
    assert len(modules) == len(set(modules))
    assert (model.head_q is None) == (head_mode != "two-branch")


def _pipeline_values():
    cloud = PreprocessedCloud(np.zeros((1, 3)), np.zeros((1, 3)))
    vmap = VertexMap(np.zeros((2, 2, 3)), np.zeros((2, 2), dtype=bool))
    nmap = NormalMap(vmap.grid, vmap.valid)
    frame = Frame(cloud.points, TINY, cloud=cloud)
    return [FramePair(frame, frame), cloud,
            CorrespondenceSet(np.arange(1), cloud.points, cloud.normals),
            vmap, nmap, PairDiagnostics()]


@pytest.mark.parametrize("value", _pipeline_values(), ids=lambda v: type(v).__name__)
def test_pipeline_values_are_frozen(value):
    for f in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))


def test_vertex_only_has_no_normal_encoder():
    cfg = _tiny_cfg(head_mode="vertex-only")
    model = OdometryModel(cfg)
    assert model.normal_encoder is None
    assert not any(k.startswith("normal_encoder")
                   for k in model.parameters())


def test_feature_concat_widens_heads():
    base = OdometryModel(_tiny_cfg(imu_mode="none"))
    wide = OdometryModel(_tiny_cfg(imu_mode="feature-concat"))
    assert len(wide.t_columns) == len(base.t_columns) + 2 * TINY.lstm_hidden


@pytest.fixture(scope="module")
def tiny_pair():
    pairs, _ = _pairs(TINY)
    return pairs[0]


@pytest.mark.parametrize("head_mode", ["two-branch", "merged"])
def test_only_merged_translation_reads_normal_features(tiny_pair, head_mode):
    cfg = _tiny_cfg(imu_mode="feature-concat", head_mode=head_mode)
    model = OdometryModel(cfg)
    rng = np.random.default_rng(0)
    for p in model.parameters().values():     # zero output layers pass nothing through
        if not p.value.any():
            p.value[...] = rng.normal(scale=0.1, size=p.value.shape)
    model.set_training(False)
    _, imu_feats = model.initial_pose(tiny_pair.imu[None])
    v_pairs = pipeline._map_pair(tiny_pair.v_last, tiny_pair.v_cur)[None]
    n_pairs = pipeline._map_pair(tiny_pair.n_last, tiny_pair.n_cur)[None]
    before = model.residual_pose(v_pairs, n_pairs, imu_feats)[0]
    n_moved = n_pairs + rng.normal(scale=0.1, size=n_pairs.shape)
    after = model.residual_pose(v_pairs, n_moved, imu_feats)[0]
    assert (after[:3] != before[:3]).all()      # q reads n in every head mode
    if head_mode == "two-branch":
        np.testing.assert_array_equal(after[3:], before[3:])
    else:
        assert (after[3:] != before[3:]).all()


@pytest.mark.parametrize("head_mode", HEAD_MODES)
@pytest.mark.parametrize("imu_mode", IMU_MODES)
def test_model_backward_matches_finite_differences(tiny_pair, imu_mode, head_mode,
                                                   monkeypatch):
    # lstm_hidden=5 makes the imu block (10) narrower than v and n (16 each),
    # so gradients split at the wrong offsets cannot pass unseen.
    cfg = _tiny_cfg(imu_mode=imu_mode, head_mode=head_mode, lstm_hidden=5)
    model = OdometryModel(cfg).cast(np.float64)     # gradcheck checks float64 backward passes
    rng = np.random.default_rng(0)
    # Randomise every zero-initialised array (output layers, biases, norm
    # shifts): zero output layers pass no gradient, and zero biases put the
    # ReLUs over the maps' zero-filled invalid pixels exactly at their kink.
    for p in model.parameters().values():
        if not p.value.any():
            p.value[...] = rng.normal(scale=0.1, size=p.value.shape)
    model.set_training(False)
    # remap is not differentiated by design: hold the remapped maps fixed
    _, diag = estimate_pair(tiny_pair, model, cfg)
    fixed = remap(tiny_pair.v_cur, tiny_pair.n_cur, diag.initial, cfg.projection)
    monkeypatch.setattr(pipeline, "remap", lambda *args: fixed)

    def fwd(m, window):
        _, diag = estimate_pair(dataclasses.replace(tiny_pair, imu=window), m, cfg)
        return np.concatenate([diag.residual.as_vector(), diag.initial.as_vector()])

    def bwd(m, g):
        m.backward(g[None, :6], g[None, 6:])

    assert gradcheck(model, tiny_pair.imu, rng, fwd, bwd, n_checks=1).worst < 1e-4


@pytest.mark.parametrize("head_mode", HEAD_MODES)
@pytest.mark.parametrize("imu_mode", IMU_MODES)
def test_model_batch_matches_single_pairs(imu_mode, head_mode):
    # A batch of two pairs gives each pair's outputs, and the sum of the two
    # single-pair parameter gradients; GEMMs over other row counts round
    # differently, so in float64 the match is to 1e-12, not bit for bit.
    cfg = _tiny_cfg(imu_mode=imu_mode, head_mode=head_mode, lstm_hidden=5)
    model = OdometryModel(cfg).cast(np.float64)
    rng = np.random.default_rng(1)
    for p in model.parameters().values():
        if not p.value.any():
            p.value[...] = rng.normal(scale=0.1, size=p.value.shape)
    model.set_training(False)
    pairs, _ = _pairs(cfg)
    assert len(pairs) == 2
    stacked = lambda a, b: np.concatenate([np.transpose(m.grid, (2, 0, 1)) for m in (a, b)])
    windows = np.stack([fp.imu for fp in pairs])
    v_pairs = np.stack([stacked(fp.v_last, fp.v_cur) for fp in pairs])
    n_pairs = np.stack([stacked(fp.n_last, fp.n_cur) for fp in pairs])
    g_delta, g_hat = rng.standard_normal((2, 2, 6))

    def run(rows):
        model.zero_grad()
        p_hat, imu_feats = model.initial_pose(windows[rows])
        p_delta = model.residual_pose(v_pairs[rows], n_pairs[rows], imu_feats)
        model.backward(g_delta[rows], g_hat[rows])
        return p_hat, p_delta, {k: p.grad.copy() for k, p in model.parameters().items()}

    p_hat, p_delta, grads = run(slice(0, 2))
    singles = [run(slice(k, k + 1)) for k in range(2)]
    assert p_delta.shape == (2, 6)
    assert (p_hat is None) == (imu_mode != "initial-pose")
    for k, (hat_k, delta_k, _) in enumerate(singles):
        np.testing.assert_allclose(p_delta[k:k + 1], delta_k, rtol=0, atol=1e-12)
        if p_hat is not None:
            np.testing.assert_allclose(p_hat[k:k + 1], hat_k, rtol=0, atol=1e-12)
    for name, grad in grads.items():
        total = singles[0][2][name] + singles[1][2][name]
        assert np.max(np.abs(grad - total)) <= 1e-12 * np.max(np.abs(total)), name


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
        loss = lambda: self._loss(p_delta, p_hat, source, corr, w)
        for k in range(6):
            fd_d, _ = central_difference(loss, p_delta, k, 1e-7)
            fd_h, _ = central_difference(loss, p_hat, k, 1e-7)
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

    @pytest.mark.parametrize("imu_mode", ["initial-pose", "feature-concat"])
    def test_non_finite_pair_skipped_before_backward(self, imu_mode):
        cfg = _tiny_cfg(imu_mode=imu_mode)
        pairs, _ = _pairs(cfg, n_frames=4)
        pairs[1].imu[5, 4] = np.nan
        model = OdometryModel(cfg)
        opt = Adam(model.parameters(), lr=cfg.train.learning_rate)
        stats = train_epoch(pairs, model, opt, cfg)
        assert (stats.pairs_used, stats.pairs_skipped) == (2, 1)
        assert np.isfinite(stats.mean_loss)
        for name, value in model.state_arrays().items():
            assert np.isfinite(value).all(), name

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
            assert np.linalg.norm(est[:3, 3] - true.t) < 0.05

    def test_learned_needs_model(self):
        cfg = _tiny_cfg(imu_mode="none")
        pairs, _ = _pairs(cfg)
        with pytest.raises(ValueError):
            run_sequence(pairs, "learned", cfg)

    def test_unknown_mode_rejected(self):
        cfg = _tiny_cfg()
        with pytest.raises(ValueError):
            run_sequence([], "bogus", cfg)

    def test_hybrid_failure_keeps_learned_pose(self):
        cfg = _tiny_cfg(imu_mode="none")
        pairs, _ = _pairs(cfg)
        moved = transformed_cloud(pairs[0].cur_cloud, Pose(t=np.array([100.0, 0.0, 0.0])))
        # the same scan, with nothing of its cloud in match range
        far = dataclasses.replace(pairs[0], cur=Frame(pairs[0].cur.points, cfg, cloud=moved))
        model = OdometryModel(cfg)
        model.out_t.bias.value[...] = [0.1, -0.05, 0.02]
        learned, _ = estimate_pair(far, model, cfg)
        _, relatives, flags = run_sequence([far], "hybrid", cfg, model=model)
        assert flags == ["registration-failed"]
        np.testing.assert_array_equal(relatives[0].matrix, learned.matrix)
        assert np.abs(learned.t).max() > 0

    def test_hybrid_non_finite_learned_pose_is_flagged(self):
        cfg = _tiny_cfg(imu_mode="none")
        pairs, _ = _pairs(cfg)
        model = OdometryModel(cfg)
        model.out_t.bias.value[...] = np.nan
        absolute, relatives, flags = run_sequence(pairs, "hybrid", cfg, model=model)
        assert flags == ["non-finite-pose"] * len(pairs)
        assert all((pose.matrix == np.eye(4)).all() for pose in relatives)
        assert np.isfinite(absolute).all()

    def test_learned_non_finite_pose_is_flagged(self):
        cfg = _tiny_cfg(imu_mode="initial-pose")
        pairs, _ = _pairs(cfg, n_frames=4)
        pairs[1].imu[5, 4] = np.nan         # only pair 1's learned pose is not finite
        model = OdometryModel(cfg)
        model.out_t.bias.value[...] = [0.1, -0.05, 0.02]
        learned = [estimate_pair(fp, model, cfg)[0] for fp in pairs]
        absolute, relatives, flags = run_sequence(pairs, "learned", cfg, model=model)
        assert flags == ["ok", "non-finite-pose", "ok"]
        for k, want in ((0, learned[0].matrix), (1, np.eye(4)), (2, learned[2].matrix)):
            np.testing.assert_array_equal(relatives[k].matrix, want)
        assert np.isfinite(absolute).all()

    @pytest.mark.parametrize("mode", ["learned", "hybrid"])
    def test_inference_keeps_no_activations(self, mode):
        cfg = _tiny_cfg(imu_mode="initial-pose")
        pairs, _ = _pairs(cfg, n_frames=4)
        model = OdometryModel(cfg)
        model.out_t.bias.value[...] = [0.1, -0.05, 0.02]
        learned = [estimate_pair(fp, model, cfg)[0] for fp in pairs]
        assert any(m._cache is not None for _, m in model.named_modules())
        _, relatives, flags = run_sequence(pairs, mode, cfg, model=model)
        assert [name for name, m in model.named_modules() if m._cache is not None] == []
        if mode == "learned":
            assert flags == ["ok"] * len(pairs)
            for got, want in zip(relatives, learned, strict=True):
                np.testing.assert_array_equal(got.matrix, want.matrix)
        # a later training step runs as on a model that never ran inference
        fresh = OdometryModel(cfg)
        fresh.load_state_arrays(model.state_arrays())
        for m in (model, fresh):
            m.set_training(True)
            train_step(pairs[0], m, cfg)
        for name, p in fresh.parameters().items():
            np.testing.assert_array_equal(model.parameters()[name].grad, p.grad, err_msg=name)

    def test_learned_zero_init_gives_identity_trajectory(self):
        cfg = _tiny_cfg(imu_mode="none")
        pairs, _ = _pairs(cfg)
        model = OdometryModel(cfg)
        absolute, _, _ = run_sequence(pairs, "learned", cfg, model=model)
        for p in absolute:
            np.testing.assert_allclose(p, np.eye(4), atol=0)


class TestPooledStages:
    """Pooled stages give the serial results, in order, on more workers than
    the host may have CPUs."""

    @pytest.fixture(autouse=True)
    def four_workers(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)

    @pytest.mark.parametrize("kind", ["raw-arrays", "analytic-normals", "precomputed-clouds"])
    def test_each_scan_gives_its_own_maps_and_cloud(self, kind):
        cfg = _tiny_cfg()
        scenes = [scan_from_pose(_scene(), Pose(q=[0.0, 0.0, 0.05 * k], t=[0.15 * k, 0.0, 0.0]))
                  for k in range(5)]
        scans, clouds = scenes, None
        if kind == "raw-arrays":
            scans = [s.points for s in scenes]
            want_clouds = [preprocess_cloud(s.points, cfg.voxel) for s in scenes]
        elif kind == "analytic-normals":
            want_clouds = [adaptive_voxel_downsample(s.points, s.normals, cfg.voxel) for s in scenes]
        else:
            clouds = want_clouds = [PreprocessedCloud(s.points[k::7], s.normals[k::7])
                                    for k, s in enumerate(scenes)]
        pairs = build_frame_pairs(scans, cfg, clouds=clouds)
        assert len(pairs) == len(scenes) - 1
        frames = [(fp.v_last, fp.n_last, fp.last_cloud) for fp in pairs[:1]]
        frames += [(fp.v_cur, fp.n_cur, fp.cur_cloud) for fp in pairs]
        for (vm, nm, cloud), scene, want in zip(frames, scenes, want_clouds, strict=True):
            want_vm = project(scene.points, cfg.projection)
            for got, ref in ((vm, want_vm), (nm, compute_normal_map(want_vm))):
                np.testing.assert_array_equal(got.grid, ref.grid)
                np.testing.assert_array_equal(got.valid, ref.valid)
            np.testing.assert_array_equal(cloud.points, want.points)
            np.testing.assert_array_equal(cloud.normals, want.normals)
            assert (cloud.side_length, cloud.passes, cloud.met_target) == (
                want.side_length, want.passes, want.met_target)

    @pytest.fixture
    def builds(self, monkeypatch):
        """Each product build as (function name, id of its input array), with
        threads switched often, so that two threads building one frame
        would show as a second build."""
        seen = []
        for name in ("project", "compute_normal_map", "preprocess_cloud",
                     "adaptive_voxel_downsample"):
            def counted(first, *args, _fn=getattr(pipeline, name), _name=name, **kwargs):
                seen.append((_name, id(first)))     # list.append is atomic across threads
                return _fn(first, *args, **kwargs)
            monkeypatch.setattr(pipeline, name, counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield seen
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _built(builds, *names):
        return sorted(key for key in builds if key[0] in names)

    @pytest.mark.parametrize("mode", ["classical", "learned", "hybrid"])
    def test_each_mode_builds_what_it_reads_once(self, builds, mode):
        cfg = _tiny_cfg(imu_mode="none")
        pairs, _ = _pairs(cfg, n_frames=4)      # scans with analytic normals
        points = [fp.last.points for fp in pairs[:1]] + [fp.cur.points for fp in pairs]
        assert builds == []                     # build_frame_pairs builds nothing
        run_sequence(pairs, mode, cfg, model=OdometryModel(cfg))
        # every frame but the first and last is read by two pairs
        once = lambda name: sorted((name, id(p)) for p in points)
        maps = once("project") if mode != "classical" else []
        assert self._built(builds, "project") == maps
        assert len(self._built(builds, "compute_normal_map")) == len(maps)
        clouds = once("adaptive_voxel_downsample") if mode != "learned" else []
        assert self._built(builds, "adaptive_voxel_downsample", "preprocess_cloud") == clouds
        # a frame drops its scan once it holds both products
        assert [f.points is None for f in pipeline._frames(pairs)] == [mode == "hybrid"] * 4
        # a second run reads what the first built
        builds.clear()
        run_sequence(pairs, "hybrid", cfg, model=OdometryModel(cfg))
        assert len(builds) == {"classical": 8, "learned": 4, "hybrid": 0}[mode]
        assert all(f.points is None and f.normals is None for f in pipeline._frames(pairs))

    @pytest.mark.parametrize("matching", ["nearest", "pixel"])
    def test_training_builds_once_for_every_epoch(self, builds, matching):
        cfg = _tiny_cfg(imu_mode="none", matching=matching)
        raw = [scan_from_pose(_scene(), Pose(q=[0.0, 0.0, 0.05 * k], t=[0.15 * k, 0.0, 0.0])).points
               for k in range(3)]
        pairs = build_frame_pairs(raw, cfg)
        model = OdometryModel(cfg)
        opt = Adam(model.parameters(), lr=1e-3)
        train_epoch(pairs, model, opt, cfg)
        once = lambda name: sorted((name, id(points)) for points in raw)
        assert self._built(builds, "project") == once("project")
        assert len(self._built(builds, "compute_normal_map")) == 3
        clouds = once("preprocess_cloud") if matching == "nearest" else []
        assert self._built(builds, "preprocess_cloud", "adaptive_voxel_downsample") == clouds
        builds.clear()
        train_epoch(pairs, model, opt, cfg, epoch=1)
        assert builds == []

    def test_lazy_products_give_the_eager_poses_and_losses(self):
        # Products built eagerly by hand, as build_frame_pairs built them
        # before frames were lazy, against products built where they are read.
        cfg = _tiny_cfg(imu_mode="none")
        scenes = [scan_from_pose(_scene(), Pose(q=[0.0, 0.0, 0.05 * k], t=[0.15 * k, 0.0, 0.0]))
                  for k in range(4)]

        def eager():
            frames = []
            for s in scenes:
                frame = Frame(s.points, cfg, cloud=adaptive_voxel_downsample(
                    s.points, s.normals, cfg.voxel))
                vm = project(s.points, cfg.projection)
                frame._maps = vm, compute_normal_map(vm)
                frames.append(frame)
            return [FramePair(a, b) for a, b in zip(frames, frames[1:])]

        model = OdometryModel(cfg)
        model.out_t.bias.value[...] = [0.02, -0.01, 0.0]
        for mode in ("classical", "learned", "hybrid"):
            want = run_sequence(eager(), mode, cfg, model=model)
            got = run_sequence(build_frame_pairs(scenes, cfg), mode, cfg, model=model)
            assert got[2] == want[2]
            for a, b in zip(got[1], want[1], strict=True):
                np.testing.assert_array_equal(a.matrix, b.matrix)
        stats = []
        for pairs in (eager(), build_frame_pairs(scenes, cfg)):
            trained = OdometryModel(cfg)
            stats.append(train_epoch(pairs, trained, Adam(trained.parameters(), lr=1e-3), cfg))
        assert stats[0] == stats[1]

    def test_a_failing_scan_raises_to_the_caller(self):
        # build_frame_pairs builds nothing; the step that reads a product raises
        cfg = _tiny_cfg(imu_mode="none")
        model = OdometryModel(cfg)
        good = scan_from_pose(_scene(), Pose.identity()).points
        small = build_frame_pairs([good, good[:5], good], cfg)    # too few points to plane-fit
        with pytest.raises(ValueError, match="need more than k=10"):
            run_sequence(small, "classical", cfg)
        with pytest.raises(ValueError, match="cannot project an empty cloud"):
            run_sequence(build_frame_pairs([good, good[:0], good], cfg), "learned", cfg,
                         model=model)
        # learned mode reads maps only, so it never plane-fits the small scan
        _, _, flags = run_sequence(small, "learned", cfg, model=model)
        assert flags == ["ok", "ok"]

    def test_pool_map_makes_each_call_once_in_order(self):
        made = []
        out = pipeline._pool_map(lambda k, s: made.append(k) or k * s, range(50), [2] * 50)
        assert out == [2 * k for k in range(50)]
        assert sorted(made) == list(range(50))

    @pytest.mark.parametrize("bad", [0, 49])    # a worker's first call; the caller's first
    def test_pool_map_raises_a_calls_error(self, bad):
        def fn(k):
            if k == bad:
                raise ValueError(f"call {k}")
            return k

        with pytest.raises(ValueError, match=f"call {bad}"):
            pipeline._pool_map(fn, range(50))

    def test_clouds_must_match_scans_one_to_one(self):
        scans = [scan_from_pose(_scene(), Pose(t=[0.15 * k, 0.0, 0.0])) for k in range(3)]
        with pytest.raises(ValueError, match="2 clouds for 3 scans"):
            build_frame_pairs(scans, _tiny_cfg(), clouds=[s.as_cloud() for s in scans[:2]])

    @pytest.mark.parametrize("n_windows", [1, 6])
    def test_imu_windows_must_match_scan_pairs(self, n_windows):
        # empty scans would fail when a consumer builds them; this call builds nothing
        scans = [np.zeros((0, 3))] * 4
        windows = [np.zeros((15, 6))] * n_windows
        with pytest.raises(ValueError, match=f"{n_windows} IMU windows for 4 scans"):
            build_frame_pairs(scans, _tiny_cfg(), imu_windows=windows)

    @pytest.mark.parametrize("mode", ["classical", "hybrid"])
    def test_registrations_keep_pair_order_and_flags(self, mode):
        cfg = _tiny_cfg(imu_mode="none")
        pairs, _ = _pairs(cfg, n_frames=4)
        moved = transformed_cloud(pairs[1].cur_cloud, Pose(t=np.array([100.0, 0.0, 0.0])))
        # the same scan, with nothing of its cloud in match range
        pairs[1] = dataclasses.replace(pairs[1], cur=Frame(pairs[1].cur.points, cfg, cloud=moved))
        model = OdometryModel(cfg)
        model.out_t.bias.value[...] = [0.02, -0.01, 0.0]
        want, want_flags = [], []
        for fp in pairs:
            init = Pose.identity() if mode == "classical" else estimate_pair(fp, model, cfg)[0]
            try:
                want.append(register(fp.cur_cloud, fp.last_cloud, init=init,
                                     max_match_dist=cfg.max_match_dist, weights=cfg.weights)[0])
                want_flags.append("ok")
            except EmptyMatchError:
                want.append(init)
                want_flags.append("registration-failed")
        _, relatives, flags = run_sequence(pairs, mode, cfg, model=model)
        assert flags == want_flags == ["ok", "registration-failed", "ok"]
        for got, pose in zip(relatives, want, strict=True):
            np.testing.assert_array_equal(got.matrix, pose.matrix)


class TestConcurrentEncoders:
    """At and above `CONCURRENT_STEM_SIZE` stem output elements the two map
    encoders run on two threads, with the serial order's bits."""

    # widths[0] * H * W = 4 * 16 * 512 = 2 ** 15, the smallest size that goes concurrent
    CFG = _tiny_cfg(imu_mode="initial-pose", encoder_widths=(4, 8, 16),
                    projection=ProjectionConfig(f_w=180.0, f_h=24.0, eta_w=360.0 / 512,
                                                eta_h=1.5, H=16, W=512))

    def _train_step(self, monkeypatch, cpus, pooled_calls=2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        pool_map, pooled = pipeline._pool_map, []
        monkeypatch.setattr(pipeline, "_pool_map",
                            lambda fn, *args: pooled.append(len(args[0])) or pool_map(fn, *args))
        pairs, _ = _pairs(self.CFG)
        model = OdometryModel(self.CFG)
        rng = np.random.default_rng(0)
        for p in model.parameters().values():   # zero output layers would pass no gradient
            if not p.value.any():
                p.value[...] = rng.normal(scale=0.01, size=p.value.shape)
        model.set_training(True)
        loss, _, diag = train_step(pairs[0], model, self.CFG)
        assert pooled == [2] * pooled_calls    # the encoders' forwards, then their backwards
        grads = {k: p.grad.copy() for k, p in model.parameters().items()}
        return loss, diag.residual.as_vector(), grads, model.buffers()

    @pytest.mark.parametrize("serial", ["one-cpu", "below-threshold"])
    def test_threads_give_the_serial_bits(self, monkeypatch, serial):
        loss, residual, grads, buffers = self._train_step(monkeypatch, cpus=2)
        if serial == "below-threshold":     # the encoders run in turn, with no worker thread
            monkeypatch.setattr(pipeline, "CONCURRENT_STEM_SIZE", np.inf)
            want = self._train_step(monkeypatch, cpus=2, pooled_calls=0)
        else:
            want = self._train_step(monkeypatch, cpus=1)
        want_loss, want_residual, want_grads, want_buffers = want
        assert loss == want_loss
        np.testing.assert_array_equal(residual, want_residual)
        assert grads.keys() == want_grads.keys() and buffers.keys() == want_buffers.keys()
        assert all(g.any() for g in grads.values())
        for name in grads:
            np.testing.assert_array_equal(grads[name], want_grads[name], err_msg=name)
        for name in buffers:
            np.testing.assert_array_equal(buffers[name], want_buffers[name], err_msg=name)

    def test_an_encoder_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        model = OdometryModel(self.CFG)
        v_pairs = np.zeros((1, 6, 16, 512))
        n_pairs = np.zeros((1, 6, MapEncoder.FLOOR - 1, 512))    # the normal encoder's thread raises
        with pytest.raises(ValueError, match="below the downsampling floor"):
            model.residual_pose(v_pairs, n_pairs, None)

    @pytest.mark.parametrize("widths, H, W, head_mode, concurrent", [
        ((4, 8, 16), 16, 144, "two-branch", False),     # train-smoke, criterion 7: 9,216
        ((16, 32, 64), 52, 720, "two-branch", True),    # the paper's default: 599,040
        ((4, 8, 16), 16, 512, "vertex-only", False),    # 32,768, but one encoder only
    ])
    def test_the_threshold_routes_workloads(self, monkeypatch, widths, H, W, head_mode,
                                            concurrent):
        class Pooled(Exception):
            pass

        def pool_map(fn, *args):
            raise Pooled

        monkeypatch.setattr(pipeline, "_pool_map", pool_map)
        cfg = PipelineConfig(head_mode=head_mode, encoder_widths=widths,
                             projection=ProjectionConfig(eta_w=360.0 / W, H=H, W=W))
        model = OdometryModel(cfg)
        maps = np.zeros((1, 6, H, W), np.float32)
        if concurrent:
            with pytest.raises(Pooled):
                model.residual_pose(maps, maps, None)
        else:
            assert model.residual_pose(maps, maps, None).shape == (1, 6)


class TestPrecision:
    """The network runs in float32; poses, pose gradients and Adam's moments in float64."""

    def test_one_train_step(self, monkeypatch):
        cfg = _tiny_cfg(imu_mode="initial-pose")
        pairs, _ = _pairs(cfg)
        model = OdometryModel(cfg)
        opt = Adam(model.parameters(), lr=1e-3)
        seen = {}
        backward, encode = model.backward, model.vertex_encoder.forward

        def spy_backward(grad_delta, grad_hat):
            seen.update(grad_delta=grad_delta, grad_hat=grad_hat)
            backward(grad_delta, grad_hat)

        def spy_encode(x):
            seen["features"] = encode(x)
            return seen["features"]

        monkeypatch.setattr(model, "backward", spy_backward)
        monkeypatch.setattr(model.vertex_encoder, "forward", spy_encode)
        model.set_training(True)
        _, _, diag = train_step(pairs[0], model, cfg)
        opt.step()
        assert seen["features"].dtype == np.float32
        for name, p in model.parameters().items():
            assert p.value.dtype == p.grad.dtype == np.float32, name
        assert model.buffers() and all(b.dtype == np.float32 for b in model.buffers().values())
        for pose in (diag.initial, diag.residual):
            assert pose.q.dtype == pose.t.dtype == pose.as_vector().dtype == np.float64
        assert seen["grad_delta"].dtype == seen["grad_hat"].dtype == np.float64
        assert all(m.dtype == np.float64 for m in (*opt._m.values(), *opt._v.values()))

    def test_checkpoint_round_trip(self, tmp_path):
        cfg = _tiny_cfg(imu_mode="initial-pose")
        pairs, _ = _pairs(cfg)
        model = OdometryModel(cfg)
        train_epoch(pairs, model, Adam(model.parameters(), lr=1e-3), cfg)
        save_checkpoint(tmp_path / "m.ckpt", model.state_arrays())
        arrays, _, precision = load_checkpoint(tmp_path / "m.ckpt")
        assert precision == "float32"
        clone = OdometryModel(cfg, rng=np.random.default_rng(99))
        clone.load_state_arrays(arrays)
        for name, value in model.state_arrays().items():
            assert clone.state_arrays()[name].dtype == np.float32
            np.testing.assert_array_equal(clone.state_arrays()[name], value, err_msg=name)

    def test_float64_checkpoint_loads_into_float32_model(self, tmp_path):
        # as every checkpoint written before the network ran in float32
        cfg = _tiny_cfg(imu_mode="initial-pose")
        rng = np.random.default_rng(5)
        model = OdometryModel(cfg)
        old = {k: rng.standard_normal(v.shape) for k, v in model.state_arrays().items()}
        save_checkpoint(tmp_path / "old.ckpt", old)
        arrays, _, precision = load_checkpoint(tmp_path / "old.ckpt")
        assert precision == "float64"
        model.load_state_arrays(arrays)
        for name, value in model.state_arrays().items():
            assert value.dtype == np.float32
            np.testing.assert_array_equal(value, old[name].astype(np.float32), err_msg=name)


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
        assert model.head_q is None
        opt = Adam(model.parameters(), lr=1e-3)
        stepped = [id(p) for p in opt.params.values()]
        assert len(set(stepped)) == len(stepped)
        assert {id(p) for p in model.head_t.parameters().values()} <= set(stepped)
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


def test_pixel_matching_skips_pair_without_valid_normals():
    # A lone point has no valid neighbour, so its normal map is empty.
    cfg = _tiny_cfg(imu_mode="none", matching="pixel")
    pairs, _ = _pairs(cfg)
    bad = dataclasses.replace(pairs[0], cur=Frame(np.array([[5.0, 0.0, 0.0]]), cfg))
    model = OdometryModel(cfg)
    opt = Adam(model.parameters(), lr=1e-4)
    stats = train_epoch([bad, pairs[1]], model, opt, cfg)
    assert stats.pairs_skipped == 1
    assert stats.pairs_used == 1


def test_nearest_matching_skips_pair_with_empty_target():
    cfg = _tiny_cfg(imu_mode="none")
    pairs, _ = _pairs(cfg)
    empty = PreprocessedCloud(np.empty((0, 3)), np.empty((0, 3)))
    bad = dataclasses.replace(pairs[0], last=Frame(pairs[0].last.points, cfg, cloud=empty))
    model = OdometryModel(cfg)
    opt = Adam(model.parameters(), lr=1e-4)
    stats = train_epoch([bad, pairs[1]], model, opt, cfg)
    assert (stats.pairs_used, stats.pairs_skipped) == (1, 1)


def test_build_frame_pairs_counts():
    cfg = _tiny_cfg()
    pairs, _ = _pairs(cfg, n_frames=5)
    assert len(pairs) == 4
    assert all(p.imu.shape == (15, 6) for p in pairs)
    assert all(len(p.last_cloud) > 0 and len(p.cur_cloud) > 0 for p in pairs)
