"""Command line entry points.

Subcommands cover the whole toolkit: preprocessing single scans, classical
pair registration, synthetic sequence generation, training, inference over
a sequence, segment-error evaluation, gradient self-checks, and trajectory
frame export. Every command whose outputs depend on the config writes the
resolved config next to them. A run's config is its `--config` file (in
`infer` without one, the checkpoint's config), then its `--set` lines in
order, the later winning.

Exit codes: 0 success, 1 usage or configuration error, 2 malformed data,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from .config import ConfigError, config_to_dict, dump_config, load_config
from .dataset_io import (FormatError, lidar_to_camera_frame, read_calib, read_cloud,
                         read_oxts, read_poses, read_times, read_velodyne_bin, row_line,
                         window_imu, write_cloud, write_oxts, write_poses,
                         write_velodyne_bin)
from .evaluation import SEGMENT_LENGTHS, kitti_relative_errors, path_lengths
from .geometry import Pose
from .matching import (CorrespondenceSet, EmptyMatchError, LossWeights,
                       loss_at_pose, loss_gradient, transformed_cloud)
from .nn import (Adam, AttentionHead, ChannelNorm, Conv2d, FcActivationHead,
                 GradcheckResult, Linear, LSTM, MapEncoder, Module, ResBlock, StepLR,
                 gradcheck, load_checkpoint, save_checkpoint)
from .pipeline import (OdometryModel, build_frame_pairs, built_clouds,
                       composed_pose_gradients, run_sequence, train_epoch)
from .preprocess import PLANEFIT_K, PreprocessedCloud, preprocess_cloud
from .registration import register
from .synth import corridor_sequence

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

# Bound on max |R^T R - I| for a pose that `eval` reads. KITTI's pose files
# hold 6 significant digits, so their rotations are orthonormal to about 1e-6.
POSE_RIGIDITY = 1e-3


def _parse_overrides(pairs) -> dict:
    """--set section.key=value flags into a nested dict."""
    import ast

    out: dict = {}
    for item in pairs or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        key, raw = item.split("=", 1)
        section, name = key.split(".", 1)
        try:
            value = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            value = raw
        out.setdefault(section, {})[name] = value
    return out


def _config_from_args(args, base: dict | None = None):
    return load_config(path=args.config, overrides=_parse_overrides(args.set), base=base)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _add_config_flags(p):
    p.add_argument("--config", type=Path, default=None, help="YAML config file")
    p.add_argument("--set", action="append", metavar="SEC.KEY=VAL",
                   help="override a single config value (repeatable; later ones win)")


def _read_scan(path: Path, cloud: bool = True) -> np.ndarray:
    """A velodyne scan's (N, 3) points, checked to hold more than PLANEFIT_K
    finite points when a cloud is built from it, as plane-fit needs, and at
    least one when only its maps are, as projection needs."""
    points = read_velodyne_bin(path)[:, :3]
    finite = np.isfinite(points).all(axis=1).sum()
    stage, need = ("preprocessing", PLANEFIT_K + 1) if cloud else ("projection", 1)
    if finite < need:
        raise FormatError(f"{path}: {finite} finite points; {stage} needs at least {need}")
    return points


def _load_cloud(path: Path, cfg):
    """A loss-side cloud from either a preprocessed .npz or a raw scan."""
    if path.suffix == ".npz":
        return read_cloud(path)
    return preprocess_cloud(_read_scan(path), cfg.voxel)


# -- subcommands -------------------------------------------------------------

def cmd_preprocess(args) -> int:
    cfg = _config_from_args(args)
    # np.savez would append .npz, and _load_cloud reads a cloud by that suffix
    if args.output.suffix != ".npz":
        print(f"--output {args.output}: a cloud file must end in .npz", file=sys.stderr)
        return EXIT_USAGE
    cloud = preprocess_cloud(_read_scan(args.input), cfg.voxel)
    write_cloud(args.output, cloud)
    dump_config(cfg, Path(args.output).with_suffix(".config.yaml"))
    print(f"{len(cloud.points)} points, voxel side {cloud.side_length:.3f} m "
          f"({cloud.passes} passes, target {'met' if cloud.met_target else 'missed'})")
    return 0


def _warn_missed_targets(clouds):
    missed = sum(not cloud.met_target for cloud in clouds)
    if missed:
        print(f"warning: {missed} of {len(clouds)} clouds missed the voxel target",
              file=sys.stderr)


def cmd_register(args) -> int:
    cfg = _config_from_args(args)
    source = _load_cloud(args.source, cfg)
    target = _load_cloud(args.target, cfg)
    _warn_missed_targets([source, target])
    pose, diag = register(source, target, max_match_dist=cfg.max_match_dist,
                          weights=cfg.weights)
    print("pose (roll pitch yaw tx ty tz):",
          " ".join(f"{v:.9f}" for v in pose.as_vector()))
    print(f"final loss {diag.loss_trace[-1]:.6f} after {diag.outer_iterations} "
          f"iterations ({'converged' if diag.converged else 'not converged'})")
    if args.output is not None:
        write_poses(args.output, [pose])
        dump_config(cfg, Path(args.output).with_suffix(".config.yaml"))
    return 0


def cmd_synth(args) -> int:
    seq = corridor_sequence(n_frames=args.frames, seed=args.seed,
                            sigma=args.sigma, yaw_rate=args.yaw_rate,
                            speed=args.speed)
    out = Path(args.output_dir)
    (out / "velodyne").mkdir(parents=True, exist_ok=True)
    for i, scan in enumerate(seq.scans):
        pts = np.concatenate([scan.points, np.zeros((len(scan.points), 1))], axis=1)
        write_velodyne_bin(out / "velodyne" / f"{i:06d}.bin", pts)
    write_oxts(out / "oxts", seq.dense_records)
    np.savetxt(out / "oxts_times.txt", seq.dense_times, fmt="%.9f")
    np.savetxt(out / "times.txt", seq.times, fmt="%.9f")
    write_poses(out / "poses.txt", seq.poses)
    print(f"wrote {len(seq.scans)} scans, {len(seq.dense_records)} IMU records to {out}")
    return 0


def _load_sequence(data_dir: Path, cfg, network: bool, clouds: bool):
    """Frame pairs of a KITTI-format sequence, checked as it is read. The
    IMU is read only when `network` (the model reads the pairs) and the IMU
    mode is not none; then oxts/ and oxts_times.txt must exist. Each scan
    must hold enough finite points for a cloud when `clouds` (the run builds
    loss-side clouds), else for its maps. No map or cloud is built here:
    `train_epoch` and `run_sequence` build what they read, and the caller
    then warns about the built clouds that missed the voxel target."""
    scans = sorted((data_dir / "velodyne").glob("*.bin"))
    if not scans:
        raise FormatError(f"{data_dir}: no velodyne/*.bin scans")
    scan_times = read_times(data_dir / "times.txt")
    if len(scan_times) != len(scans):
        raise FormatError(f"{data_dir / 'times.txt'}: {len(scan_times)} times "
                          f"for {len(scans)} scans")
    imu_windows = None
    if network and cfg.imu_mode != "none":
        if not (data_dir / "oxts").is_dir():
            raise FormatError(f"imu_mode {cfg.imu_mode!r} needs oxts/ records in {data_dir}")
        records = read_oxts(data_dir / "oxts")
        record_times = read_times(data_dir / "oxts_times.txt")
        if len(record_times) != len(records):
            raise FormatError(f"{data_dir / 'oxts_times.txt'}: {len(record_times)} times "
                              f"for {len(records)} OXTS records")
        try:
            imu_windows = window_imu(records, record_times, scan_times, S=cfg.imu_window)
        except FormatError as exc:
            raise FormatError(f"{data_dir / 'oxts_times.txt'}: {exc}") from exc
    return build_frame_pairs([_read_scan(p, clouds) for p in scans], cfg,
                             imu_windows=imu_windows)


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    pairs = _load_sequence(Path(args.data), cfg, network=True,
                           clouds=cfg.matching == "nearest")
    if not pairs:
        raise FormatError(f"{args.data}: one scan, so no frame pair to train on")
    model = OdometryModel(cfg)
    optimizer = Adam(model.parameters(), lr=cfg.train.learning_rate,
                     betas=(cfg.train.beta1, cfg.train.beta2),
                     weight_decay=cfg.train.weight_decay)
    scheduler = StepLR(optimizer, step_size=cfg.train.lr_step_size,
                       gamma=cfg.train.lr_gamma)
    dump_config(cfg, out / "resolved_config.yaml")
    t0 = time.time()
    log_lines = ["epoch,mean_loss,mean_po2pl,mean_pl2pl,pairs,skipped,lr"]
    failure = None
    for epoch in range(cfg.train.epochs):
        stats = train_epoch(pairs, model, optimizer, cfg, epoch=epoch,
                            scheduler=scheduler)
        log_lines.append(f"{epoch},{stats.mean_loss:.6f},{stats.mean_po2pl:.6f},"
                         f"{stats.mean_pl2pl:.6f},{stats.pairs_used},"
                         f"{stats.pairs_skipped},{stats.learning_rate:.2e}")
        print(f"epoch {epoch:3d}  loss {stats.mean_loss:10.4f}  "
              f"lr {stats.learning_rate:.2e}  ({time.time() - t0:.1f}s)")
        # train_step refuses a non-finite pose, loss or pose gradient, so
        # the mean loss is finite whenever a pair trained
        if stats.pairs_used == 0:
            failure = (f"epoch {epoch} trained no pair: {stats.pairs_skipped} of {len(pairs)} "
                       f"skipped (no matches, or a non-finite pose, loss or gradient)")
            break
    _warn_missed_targets(built_clouds(pairs))
    (out / "train_log.csv").write_text("\n".join(log_lines) + "\n")
    if not all(np.isfinite(p.value).all() for p in model.parameters().values()):
        failure = "a parameter became non-finite; no checkpoint saved"
    if failure is not None:
        print(failure, file=sys.stderr)
        return EXIT_NUMERICAL
    save_checkpoint(out / "model.ckpt", model.state_arrays(), config=config_to_dict(cfg))
    print(f"saved {out / 'model.ckpt'}")
    return 0


def cmd_infer(args) -> int:
    """Without --config, the checkpoint's config is the base under --set."""
    if args.checkpoint is None and args.mode != "classical":
        print(f"mode {args.mode!r} needs --checkpoint", file=sys.stderr)
        return EXIT_USAGE
    arrays = saved_cfg = model = None
    if args.checkpoint is not None:
        try:
            arrays, saved_cfg, _ = load_checkpoint(args.checkpoint)
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
    cfg = _config_from_args(args, base=saved_cfg)
    if arrays is not None:
        model = OdometryModel(cfg)
        try:
            model.load_state_arrays(arrays)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{args.checkpoint} does not fit the resolved config: "
                              f"{exc}") from exc
    pairs = _load_sequence(Path(args.data), cfg, network=args.mode != "classical",
                           clouds=args.mode != "learned")
    absolute, _, flags = run_sequence(pairs, args.mode, cfg, model=model)
    _warn_missed_targets(built_clouds(pairs))
    failed = Counter(flag for flag in flags if flag != "ok")
    if failed:
        print(f"warning: {failed.total()} of {len(flags)} pair(s) fell back to the initial pose, "
              f"or to the identity where it is not finite: "
              + ", ".join(f"{n} {flag}" for flag, n in failed.items()), file=sys.stderr)
    write_poses(args.output, absolute)
    dump_config(cfg, Path(args.output).with_suffix(".config.yaml"))
    print(f"wrote {len(absolute)} poses to {args.output}")
    return 0


def _rigidity(R: np.ndarray):
    """max |R^T R - I| and det R of a (..., 3, 3) array, per matrix; a value
    that overflows reads as inf or nan, with no warning."""
    with np.errstate(all="ignore"):
        return np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3)).max(axis=(-2, -1)), np.linalg.det(R)


def _read_rigid_poses(path) -> np.ndarray:
    """`read_poses`, rejecting the first pose whose 3x3 block is not a
    rotation to within POSE_RIGIDITY, or whose determinant is not positive:
    the segment errors invert every pose."""
    poses = read_poses(path)
    deviation, det = _rigidity(poses[:, :3, :3])
    bad = np.flatnonzero(~((deviation <= POSE_RIGIDITY) & (det > 0)))
    if bad.size:
        k = bad[0]
        raise FormatError(f"{path}: line {row_line(path, k)} is not a rigid pose: its 3x3 block "
                          f"has max |R^T R - I| {deviation[k]:.1e} and determinant {det[k]:.3g}")
    return poses


def cmd_eval(args) -> int:
    est = _read_rigid_poses(args.estimated)
    gt = _read_rigid_poses(args.ground_truth)
    if len(est) != len(gt):
        raise FormatError(f"trajectory lengths differ: {len(est)} vs {len(gt)}")
    report = kitti_relative_errors(est, gt, stride=args.stride)
    if report.total_segments == 0:
        raise FormatError(f"{args.ground_truth}: the ground-truth path is {path_lengths(gt)[-1]:.2f} m "
                          f"long, shorter than the shortest segment ({SEGMENT_LENGTHS[0]:.0f} m)")
    print(report.as_table())
    if args.output is not None:
        Path(args.output).write_text(report.as_csv())
    return 0


def cmd_export_traj(args) -> int:
    poses = read_poses(args.poses)
    calib = read_calib(args.calib)
    if "Tr" not in calib:
        raise FormatError(f"{args.calib}: no Tr entry")
    # KITTI's published calibrations are orthonormal to about 1e-7
    deviation, det = _rigidity(calib["Tr"][:3, :3])
    if not (deviation <= 1e-6 and det > 0):
        raise FormatError(f"{args.calib}: Tr is not rigid: its 3x3 block has "
                          f"max |R^T R - I| {deviation:.1e} and determinant {det:.3g}")
    camera = lidar_to_camera_frame(poses, calib["Tr"])
    write_poses(args.output, camera)
    print(f"wrote {len(poses)} camera-frame poses to {args.output}")
    return 0


def gradient_suite(rng: np.random.Generator) -> dict[str, GradcheckResult]:
    """`gradcheck` against central differences, by name, of every trainable
    block and of the two pose gradients that training feeds into the
    network: `loss_gradient` and both factors of `composed_pose_gradients`.
    The blocks are built here, so in float64, as `gradcheck` requires.
    """
    def check(module, x):
        return gradcheck(module, x, rng)

    def check_pose(loss, grad, p):
        # gradcheck's scalar is g * loss for a random g, so its gradient is g * grad
        return gradcheck(Module(), p, rng, lambda _, q: loss(q), lambda _, g: g * grad(p),
                         n_checks=p.size, eps=1e-7, wrt_input=True)

    results = {
        "linear": check(Linear(7, 5, rng), rng.standard_normal((4, 7))),
        "attention-head": check(AttentionHead(6, rng), rng.standard_normal((3, 6))),
        "fc-head": check(FcActivationHead(6, rng), rng.standard_normal((3, 6))),
        "lstm": check(LSTM(4, 5, rng), rng.standard_normal((2, 6, 4))),
        "conv2d": check(Conv2d(3, 4, rng=rng), rng.standard_normal((2, 3, 6, 6))),
        "channel-norm": check(ChannelNorm(3), rng.standard_normal((2, 3, 5, 5))),
        "resblock": check(ResBlock(3, 5, stride=2, rng=rng), rng.standard_normal((1, 3, 8, 8))),
        "map-encoder": check(MapEncoder((4, 6, 8), 10, rng=rng), rng.standard_normal((1, 6, 8, 16))),
    }
    # 40 points matched to noisy copies of themselves, under non-default weights
    pts, nrm = rng.uniform(-4, 4, (40, 3)), rng.standard_normal((40, 3))
    source = PreprocessedCloud(pts, nrm / np.linalg.norm(nrm, axis=1, keepdims=True))
    corr = CorrespondenceSet(np.arange(40), pts + rng.normal(0, 0.05, (40, 3)), source.normals)
    w = LossWeights(alpha=0.7, lam=1.3)
    results["pose-loss"] = check_pose(lambda p: loss_at_pose(p, source, corr, w),
                                      lambda p: loss_gradient(p, source, corr, w),
                                      rng.uniform(-0.1, 0.1, 6))
    # (p_delta, p_hat): the loss of the source moved by p_hat, then by p_delta
    results["composed-pose"] = check_pose(
        lambda p: loss_at_pose(p[:6], transformed_cloud(source, Pose.from_vector(p[6:])), corr, w),
        lambda p: np.concatenate(composed_pose_gradients(p[:6], p[6:], source, corr, w)),
        rng.uniform(-0.1, 0.1, 12))
    return results


def cmd_gradcheck(args) -> int:
    """Prints `gradient_suite`, one line per entry with the elements it skipped
    at kinks; exits 3 if any entry is not `GradcheckResult.ok`: an error
    reaches 1e-4, or more than a tenth of its draws were skipped."""
    results = gradient_suite(np.random.default_rng(args.seed))
    for name, r in results.items():
        print(f"{name:18s} max rel err {r.worst:.3e}  skipped {r.skipped:3d} of {r.drawn:3d}  "
              f"{'ok' if r.ok else 'FAIL'}")
    return 0 if all(r.ok for r in results.values()) else EXIT_NUMERICAL


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liodom",
        description="Lidar-inertial odometry: preprocessing, registration, "
                    "learned pose estimation, and KITTI-style evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="normals, ground removal, voxel downsample")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--output", type=Path, required=True, help=".npz cloud")
    _add_config_flags(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("register", help="classical pair registration")
    p.add_argument("--source", type=Path, required=True)
    p.add_argument("--target", type=Path, required=True)
    p.add_argument("--output", type=Path, default=None)
    _add_config_flags(p)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("synth", help="generate a synthetic sequence on disk")
    p.add_argument("--output-dir", type=Path, required=True)
    p.add_argument("--frames", type=positive_int, default=20)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--yaw-rate", type=float, default=0.0)
    p.add_argument("--speed", type=float, default=0.3)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the pose network on a sequence")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--output-dir", type=Path, required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="estimate a trajectory for a sequence")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--output", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--mode", choices=("learned", "classical", "hybrid"),
                   default="learned")
    _add_config_flags(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="segment errors against ground truth")
    p.add_argument("--estimated", type=Path, required=True)
    p.add_argument("--ground-truth", type=Path, required=True)
    p.add_argument("--output", type=Path, default=None, help="CSV report")
    p.add_argument("--stride", type=positive_int, default=1)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-traj", help="lidar-frame poses to camera frame")
    p.add_argument("--poses", type=Path, required=True)
    p.add_argument("--calib", type=Path, required=True)
    p.add_argument("--output", type=Path, required=True)
    p.set_defaults(func=cmd_export_traj)

    p = sub.add_parser("gradcheck", help="finite-difference layer self-test")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, FileNotFoundError, NotADirectoryError, FileExistsError,
            IsADirectoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (EmptyMatchError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
