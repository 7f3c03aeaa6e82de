"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with plain pytest; the per-criterion lines bypass output capture so
they are always visible in the log.
"""

import json
import struct
import time

import numpy as np
import pytest

from liodom.cli import gradient_suite
from liodom.evaluation import kitti_relative_errors
from liodom.geometry import Pose, compose, rotation_angle
from liodom.matching import (CorrespondenceSet, KdIndex, LossWeights,
                             build_index, loss_at_pose, loss_terms,
                             match_nearest)
from liodom.nn import Adam, StepLR, load_checkpoint, save_checkpoint
from liodom.pipeline import (OdometryModel, PipelineConfig, TrainParams,
                             build_frame_pairs, estimate_pair, train_epoch)
from liodom.preprocess import (PreprocessedCloud, VoxelParams,
                               adaptive_voxel_downsample)
from liodom.range_image import ProjectionConfig
from liodom.registration import register
from liodom.synth import corridor_sequence, random_scene_pair
from liodom.dataset_io import (read_oxts, read_poses, read_velodyne_bin,
                               write_poses, write_velodyne_bin)

from test_evaluation import brute_force_errors


def report(capfd, num, passed, detail):
    status = "PASS" if passed else "FAIL"
    with capfd.disabled():
        print(f"[{status}] criterion {num}: {detail}")
    assert passed, f"criterion {num}: {detail}"


def _cloud(points, normals):
    return PreprocessedCloud(points=np.asarray(points, float),
                             normals=np.asarray(normals, float),
                             met_target=True, side_length=0.3, passes=0)


def _matches(src_p, src_n, tgt_p, tgt_n):
    """(source cloud, match set) pairing row i of the sources with row i of the targets."""
    source = _cloud(np.atleast_2d(src_p), np.atleast_2d(src_n))
    corr = CorrespondenceSet(np.arange(len(source)), np.atleast_2d(tgt_p).astype(float),
                             np.atleast_2d(tgt_n).astype(float))
    return source, corr


def _pose_error(est: Pose, true: Pose):
    e = compose(true.inverse(), est)
    return float(np.linalg.norm(e.t)), float(np.degrees(rotation_angle(e.rotation)))


# -- criterion 1: gradient suite ---------------------------------------------

def test_criterion_1_gradient_suite(capfd):
    t0 = time.time()
    entries = [(f"{name} at seed {seed}", r) for seed in range(10)
               for name, r in gradient_suite(np.random.default_rng(seed)).items()]
    elapsed = time.time() - t0
    results = [r for _, r in entries]
    worst = np.max([r.worst for r in results])      # np.max keeps a NaN
    most_skips, r_skips = max(entries, key=lambda e: e[1].skipped / e[1].drawn)
    ok = worst < 1e-4 and all(r.ok for r in results) and elapsed < 60.0
    report(capfd, 1, ok,
           f"gradient suite worst rel err {worst:.2e} (< 1e-4), "
           f"{elapsed:.1f}s (< 60s), 10 seeds; skipped at kinks "
           f"{sum(r.skipped for r in results)} of {sum(r.drawn for r in results)}; "
           f"largest skip share {r_skips.skipped} of {r_skips.drawn} "
           f"({100 * r_skips.skipped / r_skips.drawn:.1f}% <= 10%), {most_skips}")


# -- criterion 2: loss correctness -------------------------------------------

def test_criterion_2_loss_values(capfd):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-5, 5, (60, 3))
    nrm = rng.standard_normal((60, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    same = _cloud(pts, nrm)
    identity = np.zeros(6)
    zero = loss_at_pose(identity, same, match_nearest(same, build_index(same)))
    po, _ = loss_terms(identity, *_matches((0.3, 0.4, 0.5), (0, 0, 1), (0, 0, 0), (0, 0, 1)))
    _, pl = loss_terms(identity, *_matches((0, 0, 0), (1, 0, 0), (0, 0, 0), (0, 1, 0)))
    combined = _matches([(0.3, 0.4, 0.5), (100.0, 100.0, 100.0)],
                        [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)],
                        [(0.0, 0.0, 0.0), (100.0, 100.0, 100.0)],
                        [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0)])
    tot = loss_at_pose(identity, *combined, LossWeights(alpha=1.0, lam=0.1))
    ok = zero < 1e-9 and po == 0.5 and pl == 2.0 and abs(tot - 0.7) < 1e-15
    report(capfd, 2, ok,
           f"identity loss {zero:.1e} (< 1e-9), hand values "
           f"{po}/{pl}/{tot} (expect 0.5/2.0/0.7)")


# -- criterion 3: registration oracle ----------------------------------------

def test_criterion_3_registration(capfd):
    worst_clean = (0.0, 0.0)
    worst_noisy = (0.0, 0.0)
    slowest = 0.0
    for seed in range(20):
        src, tgt, true = random_scene_pair(seed=seed)
        t0 = time.time()
        pose, _ = register(src, tgt)
        slowest = max(slowest, time.time() - t0)
        te, re = _pose_error(pose, true)
        worst_clean = (max(worst_clean[0], te), max(worst_clean[1], re))

        src, tgt, true = random_scene_pair(seed=seed + 100, sigma=0.01)
        t0 = time.time()
        pose, _ = register(src, tgt)
        slowest = max(slowest, time.time() - t0)
        te, re = _pose_error(pose, true)
        worst_noisy = (max(worst_noisy[0], te), max(worst_noisy[1], re))
    ok = (worst_clean[0] < 1e-3 and worst_clean[1] < 0.05
          and worst_noisy[0] < 0.02 and worst_noisy[1] < 0.2
          and slowest < 5.0)
    report(capfd, 3, ok,
           f"20 scenes: noiseless worst {worst_clean[0]:.2e} m / "
           f"{worst_clean[1]:.3f} deg (< 1e-3 / 0.05), sigma=0.01 worst "
           f"{worst_noisy[0]:.4f} m / {worst_noisy[1]:.3f} deg "
           f"(< 0.02 / 0.2), slowest pair {slowest:.2f}s (< 5s)")


# -- criterion 4: preprocessing bound ----------------------------------------

def test_criterion_4_voxel_target(capfd):
    rng = np.random.default_rng(0)
    results = []

    def run(points, K, label):
        nrm = rng.standard_normal(points.shape)
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        params = VoxelParams(target=K, tolerance=100, max_iterations=200)
        c = adaptive_voxel_downsample(points, nrm, params)
        results.append((label, K, len(c), c.passes, c.met_target))
        return c.met_target and abs(len(c) - K) <= 100 and c.passes <= 200

    ok = True
    ok &= run(rng.uniform(-15, 15, (25_000, 3)), 10240, "uniform-10240")
    scan = corridor_sequence(n_frames=2, seed=1).scans[0]
    nrm = scan.normals
    c = adaptive_voxel_downsample(scan.points, nrm,
                                  VoxelParams(target=10240, tolerance=100,
                                              max_iterations=200))
    results.append(("scan-10240", 10240, len(c), c.passes, c.met_target))
    ok &= c.met_target and abs(len(c) - 10240) <= 100
    ok &= run(rng.uniform(-8, 8, (4000, 3)), 512, "uniform-512")
    ok &= run(rng.uniform(-3, 3, (700, 3)), 512, "dense-512")
    detail = "; ".join(f"{lab}: {n} in {p} passes" for lab, K, n, p, met in results)
    report(capfd, 4, ok, f"voxel counts within K+/-100 <= 200 passes ({detail})")


# -- criterion 5: KD-tree exactness ------------------------------------------

def test_criterion_5_kdtree(capfd):
    rng = np.random.default_rng(7)
    total = 0
    exact = True
    while total < 10_000:
        pts = rng.uniform(-10, 10, (int(rng.integers(5, 500)), 3))
        qs = rng.uniform(-10, 10, (int(rng.integers(1, 300)), 3))
        dist, idx = KdIndex(_cloud(pts, pts)).query(qs)
        brute = np.linalg.norm(qs[:, None, :] - pts[None, :, :], axis=2)
        exact &= bool((idx == brute.argmin(axis=1)).all())
        exact &= bool(np.allclose(dist, brute.min(axis=1), rtol=1e-12, atol=0))
        total += len(qs)
    report(capfd, 5, exact,
           f"nearest neighbors equal the linear-scan oracle on {total} queries")


# -- criterion 6: metric oracle ----------------------------------------------

def test_criterion_6_metrics(capfd):
    line = [Pose(q=[0.0, 0.0, 0.0], t=[i * 1.0, 0.0, 0.0]) for i in range(1200)]
    ident = kitti_relative_errors(np.asarray(line), np.asarray(line))
    scaled = [Pose(q=p.q, t=1.01 * np.asarray(p.t)) for p in line]
    one_pct = kitti_relative_errors(np.asarray(scaled), np.asarray(line))

    rng = np.random.default_rng(3)
    max_diff = 0.0
    for _ in range(10):
        gt = [Pose.identity()]
        for _ in range(399):
            gt.append(compose(gt[-1], Pose(q=rng.normal(0, 0.01, 3),
                                           t=[1.0 + rng.normal(0, 0.1),
                                              rng.normal(0, 0.1),
                                              rng.normal(0, 0.02)])))
        est = [compose(p, Pose(q=rng.normal(0, 0.002, 3),
                               t=rng.normal(0, 0.05, 3))) for p in gt]
        rep = kitti_relative_errors(np.asarray(est), np.asarray(gt))
        _, t_rel, r_rel = brute_force_errors(est, gt)
        max_diff = max(max_diff, abs(rep.t_rel - t_rel), abs(rep.r_rel - r_rel))
    ok = (ident.t_rel < 1e-9 and ident.r_rel < 1e-6
          and abs(one_pct.t_rel - 1.00) <= 0.01
          and max_diff < 1e-9)
    report(capfd, 6, ok,
           f"identical ({ident.t_rel:.1e}, {ident.r_rel:.1e}); scaled line "
           f"t_rel {one_pct.t_rel:.4f}% (1.00 +/- 0.01); brute-force max "
           f"diff {max_diff:.1e} (< 1e-9, 10 trajectories)")


# -- criteria 7 and 8: unsupervised smoke training ---------------------------

SMOKE = dict(
    feature_dim=32, encoder_widths=(4, 8, 16), lstm_hidden=16,
    projection=ProjectionConfig(f_w=180.0, f_h=24.0, eta_w=2.5, eta_h=3.0,
                                H=16, W=144),
    voxel=VoxelParams(side_length=1.5, target=512, tolerance=100),
    train=TrainParams(learning_rate=1e-3, batch_size=20, epochs=100, seed=0),
)


@pytest.fixture(scope="module")
def smoke_training():
    """Train initial-pose and no-IMU models on 50 pairs; 10 held out."""
    seq = corridor_sequence(n_frames=61, seed=0, yaw_rate=0.05)
    base_cfg = PipelineConfig(imu_mode="initial-pose", **SMOKE)
    pairs = build_frame_pairs(seq.scans, base_cfg, imu_windows=seq.imu_windows)
    true_rel = [compose(seq.poses[k].inverse(), seq.poses[k + 1])
                for k in range(len(pairs))]
    out = {"true_rel": true_rel, "pairs": pairs}
    for mode in ("initial-pose", "none"):
        cfg = PipelineConfig(imu_mode=mode, **SMOKE)
        model = OdometryModel(cfg)
        opt = Adam(model.parameters(), lr=cfg.train.learning_rate,
                   betas=(cfg.train.beta1, cfg.train.beta2),
                   weight_decay=cfg.train.weight_decay)
        sched = StepLR(opt, cfg.train.lr_step_size, cfg.train.lr_gamma)
        t0 = time.time()
        first = last = None
        for epoch in range(cfg.train.epochs):
            stats = train_epoch(pairs[:50], model, opt, cfg, epoch=epoch,
                                scheduler=sched)
            if epoch == 0:
                first = stats.mean_loss
            last = stats.mean_loss
        out[mode] = {
            "cfg": cfg, "model": model,
            "first": first, "last": last, "seconds": time.time() - t0,
        }
    return out


def _combined_err(est: Pose, true: Pose) -> float:
    e = compose(true.inverse(), est)
    return float(np.linalg.norm(e.t)) + float(rotation_angle(e.rotation))


def _mean_pose_error(model, cfg, pairs, rels):
    errs = []
    for fp, true in zip(pairs, rels):
        pose, _ = estimate_pair(fp, model, cfg)
        errs.append(_combined_err(pose, true))
    return float(np.mean(errs))


def test_criterion_7_smoke_training(capfd, smoke_training):
    run = smoke_training["initial-pose"]
    rels = smoke_training["true_rel"]
    pairs = smoke_training["pairs"]
    baseline = float(np.mean([_combined_err(Pose.identity(), t)
                              for t in rels[:50]]))
    trained = _mean_pose_error(run["model"], run["cfg"], pairs[:50], rels[:50])
    ok = (run["last"] < 0.5 * run["first"]
          and trained < baseline
          and run["seconds"] < 900.0)
    report(capfd, 7, ok,
           f"100 epochs on 50 pairs in {run['seconds']:.0f}s (< 900s); "
           f"loss {run['first']:.1f} -> {run['last']:.1f} "
           f"(ratio {run['last'] / run['first']:.2f} < 0.5); pose error "
           f"{trained:.4f} < identity baseline {baseline:.4f}")


def test_criterion_8_imu_pathway(capfd, smoke_training):
    # zero-initialized heads emit the identity exactly
    cfg = PipelineConfig(imu_mode="initial-pose", **SMOKE)
    fresh = OdometryModel(cfg)
    pairs = smoke_training["pairs"]
    pose, diag = estimate_pair(pairs[0], fresh, cfg)
    identity_exact = (pose.matrix == np.eye(4)).all() \
        and (diag.initial.matrix == np.eye(4)).all()

    rels = smoke_training["true_rel"]
    errs = {}
    for mode in ("initial-pose", "none"):
        run = smoke_training[mode]
        errs[mode] = _mean_pose_error(run["model"], run["cfg"],
                                      pairs[50:], rels[50:])
    ok = identity_exact and errs["initial-pose"] < errs["none"]
    report(capfd, 8, ok,
           f"zero-init identity exact: {identity_exact}; held-out error "
           f"initial-pose {errs['initial-pose']:.4f} < no-IMU {errs['none']:.4f}")


# -- criterion 9: format fidelity --------------------------------------------

def test_criterion_9_formats(capfd, tmp_path):
    rng = np.random.default_rng(11)
    checks = []

    pts = rng.uniform(-80, 80, (64, 4)).astype("<f4").astype(float)
    write_velodyne_bin(tmp_path / "s.bin", pts)
    raw = (tmp_path / "s.bin").read_bytes()
    checks.append(raw == pts.astype("<f4").tobytes()
                  and np.array_equal(read_velodyne_bin(tmp_path / "s.bin"), pts))

    poses = [Pose(q=rng.uniform(-1, 1, 3), t=rng.uniform(-50, 50, 3))
             for _ in range(5)]
    write_poses(tmp_path / "p.txt", poses)
    lines = (tmp_path / "p.txt").read_text().strip().split("\n")
    twelve = all(len(l.split()) == 12 for l in lines)
    loaded = read_poses(tmp_path / "p.txt")
    checks.append(twelve and loaded.shape == (5, 4, 4)
                  and np.allclose(np.asarray(poses), loaded, atol=1e-9))

    oxdir = tmp_path / "oxts"
    oxdir.mkdir()
    fields = [0.0] * 30
    fields[11:14] = [1.5, -2.5, 9.9]
    fields[17:20] = [0.01, -0.02, 0.03]
    (oxdir / "0000000000.txt").write_text(" ".join(map(str, fields)))
    rec = read_oxts(oxdir)
    checks.append(np.array_equal(rec[0], [1.5, -2.5, 9.9, 0.01, -0.02, 0.03]))

    arrays = {"a.w": rng.standard_normal((3, 2)), "b": rng.standard_normal(4)}
    save_checkpoint(tmp_path / "m.ckpt", arrays, config={"k": [1, 2]})
    blob = (tmp_path / "m.ckpt").read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + hlen])
    back, cfg, precision = load_checkpoint(tmp_path / "m.ckpt")
    checks.append(blob[:8] == b"LIOCKPT1"
                  and header["precision"] == "float64"
                  and cfg == {"k": [1, 2]}
                  and all(np.array_equal(back[k], arrays[k]) for k in arrays))

    ok = all(checks)
    report(capfd, 9, ok,
           "byte-level round trips: velodyne .bin, pose files, OXTS, "
           f"checkpoint ({sum(checks)}/4 exact)")
