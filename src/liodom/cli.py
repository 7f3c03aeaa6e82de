"""Command line entry points.

Subcommands cover the whole toolkit: preprocessing single scans, classical
pair registration, synthetic sequence generation, training, inference over
a sequence, segment-error evaluation, gradient self-checks, and trajectory
frame export. Every command that produces outputs also writes the fully
resolved configuration next to them.

Exit codes: 0 success, 1 usage or configuration error, 2 malformed data,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .config import (ABLATION_PRESETS, ConfigError, config_to_dict,
                     dump_config, load_config)
from .dataset_io import (FormatError, lidar_to_camera_frame, read_calib,
                         read_oxts, read_poses, read_velodyne_bin, window_imu,
                         write_poses, write_velodyne_bin)
from .evaluation import kitti_relative_errors
from .geometry import Pose
from .matching import EmptyMatchError
from .nn import Adam, StepLR, load_checkpoint, save_checkpoint
from .pipeline import (OdometryModel, build_frame_pairs, run_sequence,
                       train_epoch)
from .preprocess import preprocess_cloud
from .registration import RegistrationError, register
from .synth import corridor_sequence

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


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
    return load_config(path=getattr(args, "config", None),
                       overrides=_parse_overrides(getattr(args, "set", None)),
                       preset=getattr(args, "preset", None), base=base)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_config_flags(p):
    p.add_argument("--config", type=Path, default=None, help="YAML config file")
    p.add_argument("--preset", choices=sorted(ABLATION_PRESETS), default=None,
                   help="ablation preset applied over the config file")
    p.add_argument("--set", action="append", metavar="SEC.KEY=VAL",
                   help="override a single config value (repeatable)")


def _load_scan_points(path: Path) -> np.ndarray:
    if path.suffix == ".npz":
        with np.load(path) as z:
            return np.asarray(z["points"], dtype=float)
    return read_velodyne_bin(path)[:, :3]


def _load_cloud(path: Path, cfg):
    """A loss-side cloud from either a preprocessed .npz or a raw scan."""
    from .preprocess import PreprocessedCloud

    if path.suffix == ".npz":
        with np.load(path) as z:
            if "normals" in z:
                return PreprocessedCloud(
                    points=np.asarray(z["points"], dtype=float),
                    normals=np.asarray(z["normals"], dtype=float),
                    met_target=bool(z.get("met_target", True)),
                    side_length=float(z.get("side_length", cfg.voxel.side_length)),
                    passes=int(z.get("passes", 0)))
    return preprocess_cloud(_load_scan_points(path), cfg.voxel)


# -- subcommands -------------------------------------------------------------

def cmd_preprocess(args) -> int:
    cfg = _config_from_args(args)
    cloud = preprocess_cloud(_load_scan_points(args.input), cfg.voxel)
    np.savez(args.output, points=cloud.points, normals=cloud.normals,
             met_target=cloud.met_target, side_length=cloud.side_length,
             passes=cloud.passes)
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
    cfg = _config_from_args(args)
    seq = corridor_sequence(n_frames=args.frames, seed=args.seed,
                            sigma=args.sigma, yaw_rate=args.yaw_rate,
                            speed=args.speed)
    out = Path(args.output_dir)
    (out / "velodyne").mkdir(parents=True, exist_ok=True)
    (out / "oxts").mkdir(exist_ok=True)
    for i, scan in enumerate(seq.scans):
        pts = np.concatenate([scan.points, np.zeros((len(scan.points), 1))], axis=1)
        write_velodyne_bin(out / "velodyne" / f"{i:06d}.bin", pts)
    for i, rec in enumerate(seq.dense_records):
        fields = np.zeros(25)
        fields[11:14] = rec[0:3]
        fields[17:20] = rec[3:6]
        (out / "oxts" / f"{i:06d}.txt").write_text(
            " ".join(f"{v:.9e}" for v in fields) + "\n")
    np.savetxt(out / "oxts_times.txt", seq.dense_times, fmt="%.9f")
    np.savetxt(out / "times.txt", seq.times, fmt="%.9f")
    write_poses(out / "poses.txt", seq.poses)
    dump_config(cfg, out / "resolved_config.yaml")
    print(f"wrote {len(seq.scans)} scans, {len(seq.dense_records)} IMU records to {out}")
    return 0


def _load_sequence(data_dir: Path, cfg):
    """Frame pairs of a KITTI-format sequence; warns about clouds that missed
    the voxel target."""
    scans = sorted((data_dir / "velodyne").glob("*.bin"))
    if not scans:
        raise FormatError(f"{data_dir}: no velodyne/*.bin scans")
    points = [read_velodyne_bin(p)[:, :3] for p in scans]
    scan_times = np.loadtxt(data_dir / "times.txt")
    imu_windows = None
    if (data_dir / "oxts").is_dir():
        records = read_oxts(data_dir / "oxts")
        record_times = np.loadtxt(data_dir / "oxts_times.txt")
        imu_windows = window_imu(records, record_times, scan_times, S=cfg.imu_window)
    pairs = build_frame_pairs(points, cfg, imu_windows=imu_windows)
    _warn_missed_targets([fp.last_cloud for fp in pairs[:1]] + [fp.cur_cloud for fp in pairs])
    return pairs


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    pairs = _load_sequence(Path(args.data), cfg)
    if cfg.imu_mode != "none" and pairs[0].imu is None:
        raise FormatError(f"imu_mode {cfg.imu_mode!r} needs oxts/ records in {args.data}")
    model = OdometryModel(cfg)
    optimizer = Adam(model.parameters(), lr=cfg.train.learning_rate,
                     betas=(cfg.train.beta1, cfg.train.beta2),
                     weight_decay=cfg.train.weight_decay)
    scheduler = StepLR(optimizer, step_size=cfg.train.lr_step_size,
                       gamma=cfg.train.lr_gamma)
    dump_config(cfg, out / "resolved_config.yaml")
    t0 = time.time()
    log_lines = ["epoch,mean_loss,mean_po2pl,mean_pl2pl,pairs,skipped,lr"]
    for epoch in range(cfg.train.epochs):
        stats = train_epoch(pairs, model, optimizer, cfg, epoch=epoch,
                            scheduler=scheduler)
        log_lines.append(f"{epoch},{stats.mean_loss:.6f},{stats.mean_po2pl:.6f},"
                         f"{stats.mean_pl2pl:.6f},{stats.pairs_used},"
                         f"{stats.pairs_skipped},{stats.learning_rate:.2e}")
        print(f"epoch {epoch:3d}  loss {stats.mean_loss:10.4f}  "
              f"lr {stats.learning_rate:.2e}  ({time.time() - t0:.1f}s)")
        if not np.isfinite(stats.mean_loss):
            print("training loss became non-finite", file=sys.stderr)
            return EXIT_NUMERICAL
    (out / "train_log.csv").write_text("\n".join(log_lines) + "\n")
    save_checkpoint(out / "model.ckpt", model.state_arrays(), config=config_to_dict(cfg))
    print(f"saved {out / 'model.ckpt'}")
    return 0


def cmd_infer(args) -> int:
    """Without --config, the checkpoint's config is the base under --preset and --set."""
    if args.checkpoint is None and args.mode != "classical":
        print(f"mode {args.mode!r} needs --checkpoint", file=sys.stderr)
        return EXIT_USAGE
    arrays = saved_cfg = model = None
    if args.checkpoint is not None:
        arrays, saved_cfg, _ = load_checkpoint(args.checkpoint)
    cfg = _config_from_args(args, base=saved_cfg)
    if arrays is not None:
        model = OdometryModel(cfg)
        try:
            model.load_state_arrays(arrays)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{args.checkpoint} does not fit the resolved config: "
                              f"{exc}") from exc
    pairs = _load_sequence(Path(args.data), cfg)
    absolute, _, flags = run_sequence(pairs, args.mode, cfg, model=model)
    failed = flags.count("registration-failed")
    if failed:
        print(f"warning: {failed} pair(s) fell back to the initial pose", file=sys.stderr)
    write_poses(args.output, absolute)
    dump_config(cfg, Path(args.output).with_suffix(".config.yaml"))
    print(f"wrote {len(absolute)} poses to {args.output}")
    return 0


def cmd_eval(args) -> int:
    est = read_poses(args.estimated)
    gt = read_poses(args.ground_truth)
    if len(est) != len(gt):
        raise FormatError(f"trajectory lengths differ: {len(est)} vs {len(gt)}")
    report = kitti_relative_errors(est, gt, stride=args.stride)
    print(report.as_table())
    if args.output is not None:
        Path(args.output).write_text(report.as_csv())
    return 0


def cmd_export_traj(args) -> int:
    poses = read_poses(args.poses)
    calib = read_calib(args.calib)
    if "Tr" not in calib:
        raise FormatError(f"{args.calib}: no Tr entry")
    write_poses(args.output, lidar_to_camera_frame(poses, calib["Tr"]))
    print(f"wrote {len(poses)} camera-frame poses to {args.output}")
    return 0


def cmd_gradcheck(args) -> int:
    """Finite-difference checks on every trainable block."""
    from .nn import (AttentionHead, ChannelNorm, Conv2d, FcActivationHead,
                     Linear, LSTM, MapEncoder, gradcheck)

    rng = np.random.default_rng(args.seed)

    def check(name, module, x, fwd=None, bwd=None):
        worst = gradcheck(module, x, rng, fwd, bwd, n_checks=4)
        status = "ok" if worst < 1e-4 else "FAIL"
        print(f"{name:18s} max rel err {worst:.3e}  {status}")
        return worst < 1e-4

    ok = True
    ok &= check("linear", Linear(7, 5, rng), rng.standard_normal((4, 7)))
    ok &= check("attention-head", AttentionHead(6, rng), rng.standard_normal((3, 6)))
    ok &= check("fc-head", FcActivationHead(6, rng), rng.standard_normal((3, 6)))
    ok &= check("lstm", LSTM(4, 5, rng), rng.standard_normal((2, 6, 4)),
                fwd=lambda m, x: m(x)[0],
                bwd=lambda m, g: m.backward(grad_hs=g))
    ok &= check("conv2d", Conv2d(3, 4, rng=rng), rng.standard_normal((2, 3, 6, 6)))
    norm = ChannelNorm(3)
    norm.training = False
    ok &= check("channel-norm", norm, rng.standard_normal((2, 3, 5, 5)))
    enc = MapEncoder((4, 6, 8), 10, rng=rng)
    enc.set_training(False)
    ok &= check("map-encoder", enc, rng.standard_normal((1, 6, 8, 16)))
    return 0 if ok else EXIT_NUMERICAL


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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--yaw-rate", type=float, default=0.0)
    p.add_argument("--speed", type=float, default=0.3)
    _add_config_flags(p)
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
    p.add_argument("--seed", type=int, default=0)
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
    except (FormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (RegistrationError, EmptyMatchError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
