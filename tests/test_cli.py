import re
import shutil

import numpy as np
import pytest
import yaml

from liodom import cli, pipeline
from liodom.cli import main
from liodom.config import ConfigError, config_from_dict, dump_config, load_config
from liodom.dataset_io import (lidar_to_camera_frame, read_calib, read_poses, write_poses,
                               write_velodyne_bin)
from liodom.geometry import Pose
from liodom.nn import GradcheckResult, gradcheck, load_checkpoint, save_checkpoint

TINY_FLAGS = [
    "--set", "pipeline.feature_dim=16",
    "--set", "pipeline.encoder_widths=(2,3,4)",
    "--set", "pipeline.lstm_hidden=8",
    "--set", "projection.f_w=180.0", "--set", "projection.eta_w=5.0",
    "--set", "projection.W=72", "--set", "projection.H=12",
    "--set", "projection.f_h=24.0", "--set", "projection.eta_h=4.0",
    "--set", "voxel.target=256", "--set", "voxel.side_length=0.5",
]


class TestConfigLoading:
    def test_defaults(self):
        cfg = load_config()
        assert cfg.imu_mode == "initial-pose"
        assert cfg.train.learning_rate == 1e-4

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"nonsense": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"train": {"lr": 1e-3}})

    def test_flags_override_file(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump({"train": {"learning_rate": 5e-4},
                                     "pipeline": {"imu_mode": "none"}}))
        cfg = load_config(p, overrides={"train": {"learning_rate": 2e-3}})
        assert cfg.train.learning_rate == 2e-3
        assert cfg.imu_mode == "none"

    def test_later_set_line_wins(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump({"pipeline": {"imu_mode": "initial-pose"}}))
        overrides = cli._parse_overrides(["pipeline.imu_mode=none", "train.epochs=3",
                                          "pipeline.imu_mode=feature-concat"])
        cfg = load_config(p, overrides=overrides)
        assert (cfg.imu_mode, cfg.train.epochs) == ("feature-concat", 3)

    def test_non_mapping_section_under_flags(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("pipeline: 3\n")
        with pytest.raises(ConfigError, match="must be a mapping"):
            load_config(p, overrides={"train": {"epochs": 2}})

    def test_exponent_without_a_dot_is_a_float(self, tmp_path):
        # YAML reads 1e-4 as text; a float field reads the text as a number
        p = tmp_path / "c.yaml"
        p.write_text("train: {learning_rate: 1e-4}\npipeline: {max_match_dist: 5e-1}\n")
        cfg = load_config(p)
        assert cfg.train.learning_rate == 1e-4 and cfg.max_match_dist == 0.5

    def test_dump_round_trip(self, tmp_path):
        cfg = load_config(overrides={"pipeline": {"head_mode": "vertex-only"},
                                     "train": {"epochs": 7}})
        out = tmp_path / "resolved.yaml"
        dump_config(cfg, out)
        again = load_config(out)
        assert again == cfg


def _synth(tmp_path, frames=4):
    data = tmp_path / "seq"
    assert main(["synth", "--output-dir", str(data), "--frames", str(frames),
                 "--seed", "1"]) == 0
    return data


class TestCliRoundTrip:
    def test_synth_layout(self, tmp_path):
        data = _synth(tmp_path)
        assert len(list((data / "velodyne").glob("*.bin"))) == 4
        assert (data / "oxts").is_dir()
        assert (data / "poses.txt").exists()
        # a synthetic sequence reads no config, so none is written
        assert not (data / "resolved_config.yaml").exists()

    def test_preprocess_register(self, tmp_path):
        data = _synth(tmp_path)
        c0 = tmp_path / "c0.npz"
        c1 = tmp_path / "c1.npz"
        for src, dst in ((0, c0), (1, c1)):
            assert main(["preprocess", "--input",
                         str(data / "velodyne" / f"{src:06d}.bin"),
                         "--output", str(dst)] + TINY_FLAGS) == 0
            assert dst.exists()
            assert dst.with_suffix(".config.yaml").exists()
        pose_file = tmp_path / "pose.txt"
        assert main(["register", "--source", str(c1), "--target", str(c0),
                     "--output", str(pose_file)] + TINY_FLAGS) == 0
        # frames are 0.3 m apart along x in the corridor sequence
        assert read_poses(pose_file)[0, 0, 3] == pytest.approx(0.3, abs=0.02)

    def test_register_reports_convergence(self, tmp_path, capsys, monkeypatch):
        data = _synth(tmp_path, frames=2)
        argv = ["register", "--source", str(data / "velodyne" / "000001.bin"),
                "--target", str(data / "velodyne" / "000000.bin")] + TINY_FLAGS
        capsys.readouterr()
        assert main(argv) == 0
        assert re.search(r"^final loss \S+ after [2-9] iterations \(converged\)$",
                         capsys.readouterr().out, re.MULTILINE)
        # one iteration moves the pose by about 0.3 m, far above the tolerance
        monkeypatch.setattr("liodom.registration.MAX_ITERATIONS", 1)
        assert main(argv) == 0
        assert re.search(r"^final loss \S+ after 1 iterations \(not converged\)$",
                         capsys.readouterr().out, re.MULTILINE)

    def test_train_infer_eval(self, tmp_path):
        data = _synth(tmp_path)
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--output-dir", str(run),
                     "--set", "train.epochs=2"] + TINY_FLAGS) == 0
        assert (run / "model.ckpt").exists()
        assert (run / "train_log.csv").exists()
        assert (run / "resolved_config.yaml").exists()
        est = tmp_path / "est.txt"
        assert main(["infer", "--data", str(data), "--output", str(est),
                     "--checkpoint", str(run / "model.ckpt"),
                     "--mode", "learned"]) == 0
        assert len(read_poses(est)) == 4
        # four corridor frames span about 1 m, short of a 100 m segment
        assert main(["eval", "--estimated", str(est),
                     "--ground-truth", str(data / "poses.txt"),
                     "--output", str(tmp_path / "report.csv")]) == 2
        assert not (tmp_path / "report.csv").exists()

    def test_eval_writes_report(self, tmp_path, capsys):
        gt, est = tmp_path / "gt.txt", tmp_path / "est.txt"
        write_poses(gt, [Pose(t=[float(i), 0.0, 0.0]) for i in range(120)])
        write_poses(est, [Pose(t=[1.01 * i, 0.0, 0.0]) for i in range(120)])
        assert main(["eval", "--estimated", str(est), "--ground-truth", str(gt),
                     "--output", str(tmp_path / "report.csv")]) == 0
        assert re.search(r"^ +overall +1\.0000 +0\.0000 +20$", capsys.readouterr().out,
                         re.MULTILINE)
        csv = (tmp_path / "report.csv").read_text()
        assert csv.startswith("length_m,") and csv.endswith("overall,1.000000,0.000000,20\n")

    def test_infer_classical_without_checkpoint(self, tmp_path):
        data = _synth(tmp_path, frames=3)
        est = tmp_path / "est.txt"
        assert main(["infer", "--data", str(data), "--output", str(est),
                     "--mode", "classical"] + TINY_FLAGS) == 0
        assert len(read_poses(est)) == 3

    def test_infer_flags_a_pair_with_an_empty_loss_cloud(self, tmp_path, capsys):
        # collinear points fit no valid plane-fit normal, so scan 1's cloud is empty
        data = _synth(tmp_path, frames=3)
        t = np.linspace(0.0, 1.0, 400)[:, None]
        write_velodyne_bin(data / "velodyne" / "000001.bin",
                           np.hstack([5.0 + 3.0 * t, 1.0 + t, 0.5 + 0.0 * t, 0.0 * t]))
        est = tmp_path / "est.txt"
        assert main(["infer", "--data", str(data), "--output", str(est),
                     "--mode", "classical"]) == 0
        assert len(read_poses(est)) == 3
        assert "pair(s) fell back to the initial pose" in capsys.readouterr().err

    def test_export_traj(self, tmp_path):
        data = _synth(tmp_path, frames=3)
        calib = tmp_path / "calib.txt"
        calib.write_text("Tr: 0 -1 0 0 0 0 -1 0 1 0 0 0\n")
        out = tmp_path / "cam.txt"
        assert main(["export-traj", "--poses", str(data / "poses.txt"),
                     "--calib", str(calib), "--output", str(out)]) == 0
        assert len(read_poses(out)) == 3

    def test_export_traj_accepts_a_published_kitti_calib(self, tmp_path):
        # KITTI odometry sequence 00's Tr: orthonormal to within 9.4e-8
        calib = tmp_path / "calib.txt"
        calib.write_text("Tr: 4.276802385584e-04 -9.999672484946e-01 -8.084491683471e-03 "
                         "-1.198459927713e-02 -7.210626507497e-03 8.081198471645e-03 "
                         "-9.999413164504e-01 -5.403984729748e-02 9.999738645903e-01 "
                         "4.859485810390e-04 -7.206933692422e-03 -2.921968648686e-01\n")
        poses, out = tmp_path / "poses.txt", tmp_path / "cam.txt"
        lidar = [Pose(t=[0.3 * i, 0.0, 0.0]) for i in range(3)]
        write_poses(poses, lidar)
        assert main(["export-traj", "--poses", str(poses), "--calib", str(calib),
                     "--output", str(out)]) == 0
        camera = read_poses(out)
        # a rigid change of frame keeps each step's length
        assert np.linalg.norm(camera[:, :3, 3], axis=1) == pytest.approx([0.0, 0.3, 0.6])
        Tr = read_calib(calib)["Tr"]
        np.testing.assert_allclose(camera, Tr @ np.asarray(lidar) @ np.linalg.inv(Tr), atol=1e-12)

    def test_export_traj_near_ninety_degree_pitch(self, tmp_path):
        # KITTI's axis swap makes the lidar yaw the camera frame's ZYX pitch,
        # where an Euler round trip loses about 1e-8
        calib, poses, out = tmp_path / "calib.txt", tmp_path / "poses.txt", tmp_path / "cam.txt"
        calib.write_text("Tr: 0 -1 0 0 0 0 -1 0 1 0 0 0\n")
        yaws = np.pi / 2 + np.linspace(-1e-8, 1e-8, 21)
        write_poses(poses, [Pose(q=[0.0, 0.0, yaw], t=[1.0, 2.0, 3.0]) for yaw in yaws])
        assert main(["export-traj", "--poses", str(poses), "--calib", str(calib),
                     "--output", str(out)]) == 0
        want = lidar_to_camera_frame(read_poses(poses), read_calib(calib)["Tr"])
        np.testing.assert_allclose(read_poses(out), want, rtol=0, atol=1e-12)


# A short voxel walk: these tests check the resolved config, not the clouds.
SHORT_WALK = ["--set", "voxel.max_iterations=5"]


def test_train_warns_on_missed_voxel_targets(tmp_path, capsys):
    data = _synth(tmp_path, frames=2)
    assert main(["train", "--data", str(data), "--output-dir", str(tmp_path / "run"),
                 "--set", "train.epochs=1"] + TINY_FLAGS + SHORT_WALK) == 0
    assert "warning: 2 of 2 clouds missed the voxel target" in capsys.readouterr().err


def test_pixel_matching_train_builds_no_cloud(tmp_path, capsys, monkeypatch):
    def no_cloud(*args, **kwargs):
        raise AssertionError("pixel-matching training built a loss-side cloud")

    monkeypatch.setattr(pipeline, "preprocess_cloud", no_cloud)
    data = _synth(tmp_path, frames=2)
    assert main(["train", "--data", str(data), "--output-dir", str(tmp_path / "run"),
                 "--set", "train.epochs=1", "--set", "pipeline.matching=pixel"]
                + TINY_FLAGS + SHORT_WALK) == 0
    assert "voxel target" not in capsys.readouterr().err


def test_register_warns_on_missed_voxel_targets(tmp_path, capsys):
    data = _synth(tmp_path, frames=2)
    scan0, scan1 = (str(data / "velodyne" / f"{i:06d}.bin") for i in range(2))
    missed = str(tmp_path / "c0.npz")
    assert main(["preprocess", "--input", scan0, "--output", missed]
                + TINY_FLAGS + SHORT_WALK) == 0
    capsys.readouterr()
    # a raw scan preprocessed on load, against a stored cloud that missed
    assert main(["register", "--source", scan1, "--target", missed]
                + TINY_FLAGS + SHORT_WALK) == 0
    assert "warning: 2 of 2 clouds missed the voxel target" in capsys.readouterr().err
    assert main(["register", "--source", scan1, "--target", missed] + TINY_FLAGS) == 0
    assert "warning: 1 of 2 clouds missed the voxel target" in capsys.readouterr().err
    assert main(["register", "--source", scan1, "--target", scan0] + TINY_FLAGS) == 0
    assert "voxel target" not in capsys.readouterr().err


@pytest.fixture(scope="module")
def lam0_run(tmp_path_factory):
    """A two-scan sequence and a one-epoch checkpoint trained with lam=0."""
    tmp = tmp_path_factory.mktemp("lam0")
    data = _synth(tmp, frames=2)
    run = tmp / "run"
    assert main(["train", "--data", str(data), "--output-dir", str(run),
                 "--set", "train.epochs=1", "--set", "pipeline.lam=0.0"]
                + TINY_FLAGS + SHORT_WALK) == 0
    return data, run / "model.ckpt"


class TestInferConfig:
    """infer with --checkpoint and no --config: checkpoint, then --set."""

    def _infer(self, tmp_path, run, *flags, mode="learned"):
        data, ckpt = run
        est = tmp_path / "est.txt"
        code = main(["infer", "--data", str(data), "--output", str(est),
                     "--checkpoint", str(ckpt), "--mode", mode, *SHORT_WALK, *flags])
        return code, est.with_suffix(".config.yaml")

    def test_set_lines_apply_over_checkpoint(self, tmp_path, lam0_run):
        code, resolved = self._infer(tmp_path, lam0_run, "--set", "pipeline.matching=pixel",
                                     "--set", "pipeline.max_match_dist=2.5")
        assert code == 0
        cfg = load_config(resolved)
        assert (cfg.matching, cfg.max_match_dist, cfg.weights.lam) == ("pixel", 2.5, 0.0)

    def test_loss_weights_restored(self, tmp_path, lam0_run):
        code, resolved = self._infer(tmp_path, lam0_run)
        assert code == 0
        cfg = load_config(resolved)
        assert cfg.weights.lam == 0.0 and cfg.feature_dim == 16

    def test_missed_voxel_targets_warned(self, tmp_path, lam0_run, capsys):
        code, _ = self._infer(tmp_path, lam0_run, mode="hybrid")
        assert code == 0
        assert "warning: 2 of 2 clouds missed the voxel target" in capsys.readouterr().err

    def test_no_warning_when_targets_met(self, tmp_path, lam0_run, capsys):
        code, _ = self._infer(tmp_path, lam0_run, "--set", "voxel.tolerance=100000",
                              mode="hybrid")
        assert code == 0
        assert "voxel target" not in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["classical", "learned"])
    def test_voxel_warning_counts_the_clouds_a_mode_built(self, tmp_path, lam0_run, capsys,
                                                          monkeypatch, mode):
        if mode == "learned":
            def no_cloud(*args, **kwargs):
                raise AssertionError("learned inference built a loss-side cloud")

            monkeypatch.setattr(pipeline, "preprocess_cloud", no_cloud)
        code, _ = self._infer(tmp_path, lam0_run, mode=mode)
        assert code == 0
        err = capsys.readouterr().err
        if mode == "learned":
            assert "voxel target" not in err
        else:
            assert "warning: 2 of 2 clouds missed the voxel target" in err

    def test_non_finite_learned_pose_is_flagged(self, tmp_path, lam0_run, capsys):
        data, ckpt = lam0_run
        arrays, config, _ = load_checkpoint(ckpt)
        arrays["out_t.bias"] = np.full_like(arrays["out_t.bias"], np.nan)
        nan_ckpt = tmp_path / "nan.ckpt"
        save_checkpoint(nan_ckpt, arrays, config=config)
        code, _ = self._infer(tmp_path, (data, nan_ckpt))
        assert code == 0
        poses = read_poses(tmp_path / "est.txt")
        assert len(poses) == 2 and np.isfinite(poses).all()
        assert ("warning: 1 of 1 pair(s) fell back to the initial pose, or to the identity "
                "where it is not finite: 1 non-finite-pose") in capsys.readouterr().err

    def test_mismatched_checkpoint_is_config_error(self, tmp_path, lam0_run, capsys):
        wide = tmp_path / "wide.yaml"
        wide.write_text(yaml.safe_dump({"pipeline": {"feature_dim": 32}}))
        code, _ = self._infer(tmp_path, lam0_run, "--config", str(wide))
        assert code == 1
        assert "configuration error:" in capsys.readouterr().err


class TestExitCodes:
    def test_usage_error_on_bad_config(self, tmp_path):
        assert main(["preprocess", "--input", "x", "--output", "y",
                     "--set", "bogus.key=1"]) == 1

    def test_usage_error_on_non_mapping_section_with_set(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("pipeline: 3\n")
        assert main(["preprocess", "--input", "x", "--output", "y",
                     "--config", str(bad), "--set", "train.epochs=2"]) == 1
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "seq", "--output-dir", "run", "--preset", "no-imu"],
        ["synth", "--output-dir", "seq", "--set", "voxel.target=5"],
        ["synth", "--output-dir", "seq", "--config", "c.yaml"],
    ])
    def test_usage_error_on_removed_config_flags(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "seq").exists() and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("setting", [
        "pipeline.imu_mode=bogus",
        "train.batch_size=0",
        "train.lr_step_size=0",
        "pipeline.imu_window=0",
        "pipeline.max_match_dist=-1",
        "train.learning_rate=abc",
        "train.epochs=2.5",
        "pipeline.encoder_widths=(4,8)",
        "pipeline.encoder_widths=(4,-8,16)",
        "pipeline.feature_dim=0",
        "pipeline.lstm_hidden=0",
        "projection.eta_h=-0.5",
        "train.learning_rate=0.0",
        "train.beta1=1.0",
        "train.beta2=-0.1",
        "train.weight_decay=-1e-5",
        "train.lr_gamma=0.0",
        "voxel.target=0",
        "voxel.tolerance=-5",
        "voxel.max_iterations=0",
        "train.epochs=0",
        "train.seed=-1",
        "projection.H=2",
    ])
    def test_usage_error_on_invalid_value(self, capsys, setting):
        assert main(["preprocess", "--input", "x", "--output", "y",
                     "--set", setting]) == 1
        assert "configuration error:" in capsys.readouterr().err

    def test_usage_error_on_unknown_flag(self):
        assert main(["preprocess", "--nonsense"]) == 1

    @pytest.mark.parametrize("command", [["synth", "--output-dir", "out"], ["gradcheck"]])
    def test_usage_error_on_negative_seed(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        assert main(command + ["--seed", "-1"]) == 1
        assert "must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["synth", "--output-dir", "out", "--frames", "0"],
        ["eval", "--estimated", "e.txt", "--ground-truth", "g.txt", "--stride", "0"],
        ["eval", "--estimated", "e.txt", "--ground-truth", "g.txt", "--stride", "-1"],
    ])
    def test_usage_error_on_non_positive_count(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        for name in ("e.txt", "g.txt"):
            write_poses(name, [Pose(t=[float(i), 0.0, 0.0]) for i in range(3)])
        assert main(argv) == 1
        assert "must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_data_error_on_missing_file(self, tmp_path):
        assert main(["eval", "--estimated", str(tmp_path / "no.txt"),
                     "--ground-truth", str(tmp_path / "no.txt")]) == 2

    def test_data_error_on_non_numeric_calib(self, tmp_path, capsys):
        poses = tmp_path / "poses.txt"
        write_poses(poses, [Pose.identity()])
        calib = tmp_path / "calib.txt"
        calib.write_text("Tr: 1 0 0 0 0 1 0 0 0 0 1 abc\n")
        assert main(["export-traj", "--poses", str(poses), "--calib", str(calib),
                     "--output", str(tmp_path / "cam.txt")]) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("tr", ["0 0 0 0 0 0 0 0 0 0 0 0", "2 0 0 0 0 2 0 0 0 0 2 0",
                                    "1 0 0 0 0 1 0 0 0 0 -1 0"],
                             ids=["zero", "scaled", "reflection"])
    def test_data_error_on_non_rigid_calib(self, tmp_path, capsys, tr):
        poses, out = tmp_path / "poses.txt", tmp_path / "cam.txt"
        write_poses(poses, [Pose(t=[0.3, 0.0, 0.0])])
        calib = tmp_path / "calib.txt"
        calib.write_text(f"P0: 1 0 0 0 0 1 0 0 0 0 1 0\nTr: {tr}\n")
        assert main(["export-traj", "--poses", str(poses), "--calib", str(calib),
                     "--output", str(out)]) == 2
        assert f"data error: {calib}: Tr is not rigid" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_on_cloud_output_without_npz(self, tmp_path, capsys):
        data = _synth(tmp_path, frames=1)
        out = tmp_path / "c0"
        assert main(["preprocess", "--input", str(data / "velodyne" / "000000.bin"),
                     "--output", str(out)]) == 1
        assert f"--output {out}: a cloud file must end in .npz" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [data]

    def test_data_error_on_empty_pose_files(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["eval", "--estimated", str(empty), "--ground-truth", str(empty)]) == 2
        assert "no poses" in capsys.readouterr().err

    def test_data_error_on_empty_pose_file_to_export(self, tmp_path, capsys):
        empty, calib, out = tmp_path / "empty.txt", tmp_path / "calib.txt", tmp_path / "cam.txt"
        empty.write_text("")
        calib.write_text("Tr: 0 -1 0 0 0 0 -1 0 1 0 0 0\n")
        assert main(["export-traj", "--poses", str(empty), "--calib", str(calib),
                     "--output", str(out)]) == 2
        assert f"data error: {empty}: no poses" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_data_error_on_output_dir_that_is_a_file(self, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        argv = [command, "--output-dir", str(taken)]
        argv += (["--frames", "1"] if command == "synth"
                 else ["--data", str(_synth(tmp_path, frames=2))] + TINY_FLAGS)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(taken) in err
        assert taken.read_text() == "a file\n"

    def test_data_error_on_report_path_that_is_a_directory(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        write_poses(gt, [Pose(t=[float(i), 0.0, 0.0]) for i in range(120)])
        assert main(["eval", "--estimated", str(gt), "--ground-truth", str(gt),
                     "--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(tmp_path) in err

    def test_data_error_on_trajectory_shorter_than_a_segment(self, tmp_path, capsys):
        # the estimate moves at twice the speed: a 100% error that no segment measures
        gt, est, out = tmp_path / "gt.txt", tmp_path / "est.txt", tmp_path / "report.csv"
        write_poses(gt, [Pose(t=[float(i), 0.0, 0.0]) for i in range(3)])
        write_poses(est, [Pose(t=[2.0 * i, 0.0, 0.0]) for i in range(3)])
        assert main(["eval", "--estimated", str(est), "--ground-truth", str(gt),
                     "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "2.00 m" in captured.err and "100 m" in captured.err

    def test_data_error_on_nan_pose(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        write_poses(gt, [Pose(t=[float(i), 0.0, 0.0]) for i in range(3)])
        est = tmp_path / "est.txt"
        est.write_text(gt.read_text().replace("0.000000000000e+00", "nan", 1))
        assert main(["eval", "--estimated", str(est), "--ground-truth", str(gt)]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("block", [1e-300 * np.eye(3), np.zeros((3, 3)), 1e200 * np.eye(3),
                                       np.diag([1.0, 1.0, -1.0]), np.diag([1.0, 1.0, 1.002])],
                             ids=["tiny", "singular", "huge", "reflection", "stretched"])
    @pytest.mark.parametrize("bad_file", ["est", "gt"])
    def test_data_error_on_a_pose_that_is_not_rigid(self, tmp_path, capsys, block, bad_file):
        poses = np.asarray([Pose(t=[float(i), 0.0, 0.0]) for i in range(120)])
        paths = {name: tmp_path / f"{name}.txt" for name in ("est", "gt")}
        for name, path in paths.items():
            write_poses(path, poses)
        poses[7, :3, :3] = block
        bad = paths[bad_file]
        write_poses(bad, poses)
        bad.write_text("\n\n" + bad.read_text())    # pose 7 is on line 10
        out = tmp_path / "report.csv"
        assert main(["eval", "--estimated", str(paths["est"]), "--ground-truth", str(paths["gt"]),
                     "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith(f"data error: {bad}: line 10 is not a rigid pose: its "
                                       f"3x3 block has max |R^T R - I| ")

    def test_eval_accepts_a_six_digit_kitti_pose_file(self, tmp_path, capsys):
        # rotations written to 6 significant digits are orthonormal to about 1e-6
        rng = np.random.default_rng(5)
        poses = [Pose.identity()]
        for _ in range(399):
            poses.append(poses[-1] @ Pose(q=rng.normal(0.0, 0.05, 3), t=[1.0, 0.1, 0.0]).matrix)
        gt, est = tmp_path / "gt.txt", tmp_path / "est.txt"
        for path, T in ((gt, np.asarray(poses)), (est, np.asarray(poses) * [1, 1, 1, 1.01])):
            np.savetxt(path, T[:, :3, :].reshape(-1, 12), fmt="%.5e")
        R = read_poses(gt)[:, :3, :3]
        assert np.abs(np.swapaxes(R, 1, 2) @ R - np.eye(3)).max() > 1e-7
        assert main(["eval", "--estimated", str(est), "--ground-truth", str(gt)]) == 0
        # a scaled curved path: 1% of each chord, which is shorter than its segment
        assert re.search(r"^ +overall +0\.9485 +0\.0000 +602$", capsys.readouterr().out,
                         re.MULTILINE)

    @pytest.mark.parametrize("command", ["eval", "export-traj"])
    def test_data_error_on_a_file_that_is_not_utf8(self, tmp_path, capsys, command):
        bad, calib, out = tmp_path / "bad.txt", tmp_path / "calib.txt", tmp_path / "out.txt"
        bad.write_bytes(b"\xff\xfe1 0 0 0 0 1 0 0 0 0 1 0\n")
        calib.write_text("Tr: 0 -1 0 0 0 0 -1 0 1 0 0 0\n")
        argv = (["eval", "--estimated", str(bad), "--ground-truth", str(bad)]
                if command == "eval" else
                ["export-traj", "--poses", str(bad), "--calib", str(calib)])
        assert main(argv + ["--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"data error: {bad}: not UTF-8 text")
        assert not out.exists()

    def test_data_error_on_malformed_scan(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"xyz")
        assert main(["preprocess", "--input", str(bad),
                     "--output", str(tmp_path / "o.npz")]) == 2

    @pytest.mark.parametrize("write", [
        lambda f, p, n: np.savez(f, points=p, normals=n[:-1]),
        lambda f, p, n: np.savez(f, points=p.ravel(), normals=n.ravel()),
        lambda f, p, n: np.savez(f, normals=n,
                                 points=np.where(np.arange(len(p))[:, None] == 3, np.nan, p)),
        lambda f, p, n: np.savez(f, points=p),
        lambda f, p, n: f.write_text("points normals\n"),
    ], ids=["short-normals", "flat-arrays", "nan-point", "no-normals", "not-an-archive"])
    def test_data_error_on_malformed_cloud(self, tmp_path, capsys, write):
        pts = np.random.default_rng(0).uniform(-2, 2, (80, 3))
        nrm = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
        np.savez(good, points=pts, normals=nrm)
        write(bad, pts, nrm)
        assert main(["register", "--source", str(good), "--target", str(bad)]) == 2
        assert f"data error: {bad}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["times.txt", "oxts_times.txt"])
    def test_data_error_on_times_not_aligned(self, tmp_path, capsys, lam0_run, name):
        _, ckpt = lam0_run
        data = _synth(tmp_path, frames=3)
        lines = (data / name).read_text().splitlines(keepends=True)
        (data / name).write_text("".join(lines[:-1]))
        assert main(["infer", "--data", str(data), "--output", str(tmp_path / "e.txt"),
                     "--checkpoint", str(ckpt), "--mode", "learned"]) == 2
        assert f"data error: {data / name}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["times.txt", "oxts_times.txt"])
    def test_data_error_on_decreasing_times(self, tmp_path, capsys, name):
        data = _synth(tmp_path, frames=3)
        times = np.loadtxt(data / name)
        bad = times[::-1] if name == "times.txt" else np.random.default_rng(0).permutation(times)
        np.savetxt(data / name, bad, fmt="%.9f")
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--output-dir", str(run),
                     "--set", "train.epochs=1"] + TINY_FLAGS + SHORT_WALK) == 2
        assert re.search(rf"data error: {re.escape(str(data / name))}: line \d+ has time",
                         capsys.readouterr().err)
        assert not (run / "model.ckpt").exists()

    def test_classical_inference_reads_no_imu(self, tmp_path, capsys, lam0_run):
        _, ckpt = lam0_run
        data = _synth(tmp_path, frames=3)
        t1, t2 = np.loadtxt(data / "times.txt")[1:]
        lines = (data / "oxts_times.txt").read_text().splitlines(keepends=True)
        gap = [i for i, line in enumerate(lines) if t1 < float(line) <= t2]
        assert len(gap) == 15
        for i in gap:
            (data / "oxts" / f"{i:06d}.txt").unlink()
        (data / "oxts_times.txt").write_text("".join(line for i, line in enumerate(lines)
                                                     if i not in gap))
        est = tmp_path / "e.txt"
        assert main(["infer", "--data", str(data), "--output", str(est),
                     "--mode", "classical"] + TINY_FLAGS + SHORT_WALK) == 0
        assert len(read_poses(est)) == 3
        assert main(["infer", "--data", str(data), "--output", str(est),
                     "--checkpoint", str(ckpt), "--mode", "learned"]) == 2
        assert (f"data error: {data / 'oxts_times.txt'}: no IMU records in scan interval"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("points", [0, 5], ids=["empty", "five-points"])
    def test_data_error_on_scan_too_small_to_preprocess(self, tmp_path, capsys, points):
        data = _synth(tmp_path, frames=3)
        scan = data / "velodyne" / "000001.bin"
        write_velodyne_bin(scan, np.random.default_rng(0).uniform(-5, 5, (points, 4)))
        assert main(["infer", "--data", str(data), "--output", str(tmp_path / "e.txt"),
                     "--mode", "classical"]) == 2
        assert f"data error: {scan}: {points} finite points" in capsys.readouterr().err
        assert main(["preprocess", "--input", str(scan), "--output", str(tmp_path / "c.npz")]) == 2
        assert f"data error: {scan}: {points} finite points" in capsys.readouterr().err

    @pytest.mark.parametrize("run", ["learned", "hybrid", "nearest", "pixel"])
    def test_scan_size_checked_against_what_the_run_builds(self, tmp_path, capsys, lam0_run,
                                                           run):
        # learned inference and pixel-matching training build only maps, which
        # take any finite point; hybrid inference and nearest-matching
        # training also plane-fit a cloud. An empty scan fails every run.
        # Pixel matching finds no match in the two pairs of the 5-point scan,
        # so a fourth scan gives it a pair to train on.
        _, ckpt = lam0_run
        data = _synth(tmp_path, frames=4)
        scan = data / "velodyne" / "000001.bin"
        out = tmp_path / "out"
        if run in ("learned", "hybrid"):
            argv = ["infer", "--data", str(data), "--output", str(out),
                    "--checkpoint", str(ckpt), "--mode", run]
        else:
            argv = ["train", "--data", str(data), "--output-dir", str(out),
                    "--set", "train.epochs=1", "--set", f"pipeline.matching={run}",
                    *TINY_FLAGS, *SHORT_WALK]
        for points in (5, 0):
            write_velodyne_bin(scan, np.random.default_rng(0).uniform(-5, 5, (points, 4)))
            if points and run in ("learned", "pixel"):
                assert main(argv) == 0
                if run == "learned":
                    assert len(read_poses(out)) == 4
                else:
                    assert (out / "model.ckpt").exists()
            else:
                assert main(argv) == 2
                assert f"data error: {scan}: {points} finite points" in capsys.readouterr().err

    @pytest.mark.parametrize("cut", ["not-a-checkpoint", "truncated-arrays", "truncated-header"])
    def test_data_error_on_malformed_checkpoint(self, tmp_path, capsys, lam0_run, cut):
        data, ckpt = lam0_run
        raw = ckpt.read_bytes()
        end = 16 + int.from_bytes(raw[8:16], "little")    # magic, header length, header
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes({"not-a-checkpoint": b"weights",
                         "truncated-arrays": raw[:(end + len(raw)) // 2],
                         "truncated-header": raw[:(16 + end) // 2]}[cut])
        assert main(["infer", "--data", str(data), "--output", str(tmp_path / "e.txt"),
                     "--checkpoint", str(bad), "--mode", "learned"]) == 2
        assert f"data error: {bad}" in capsys.readouterr().err

    def test_data_error_on_nan_oxts_field(self, tmp_path, capsys, lam0_run):
        data, ckpt = lam0_run
        data = shutil.copytree(data, tmp_path / "seq")
        record = data / "oxts" / "000005.txt"
        fields = record.read_text().split()
        fields[11] = "nan"       # x acceleration
        record.write_text(" ".join(fields) + "\n")
        assert main(["infer", "--data", str(data), "--output", str(tmp_path / "e.txt"),
                     "--checkpoint", str(ckpt), "--mode", "learned"]) == 2
        assert f"data error: {record}: line 1 has a non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "e.txt").exists()

    def test_data_error_on_imu_checkpoint_without_oxts(self, tmp_path, capsys, lam0_run):
        data, ckpt = lam0_run
        data = shutil.copytree(data, tmp_path / "seq")
        shutil.rmtree(data / "oxts")
        est = tmp_path / "e.txt"
        assert main(["infer", "--data", str(data), "--output", str(est),
                     "--checkpoint", str(ckpt), "--mode", "learned"]) == 2
        assert "needs oxts/ records" in capsys.readouterr().err
        # registration alone reads no IMU
        assert main(["infer", "--data", str(data), "--output", str(est),
                     "--checkpoint", str(ckpt), "--mode", "classical"]) == 0
        assert len(read_poses(est)) == 2

    def test_numerical_error_on_non_finite_parameters(self, tmp_path, capsys, monkeypatch):
        # the epoch's loss is computed before its step, so only the
        # parameters show the NaN that the last step writes
        step = cli.Adam.step

        def nan_step(self):
            step(self)
            next(iter(self.params.values())).value.flat[0] = np.nan

        monkeypatch.setattr(cli.Adam, "step", nan_step)
        data = _synth(tmp_path, frames=2)
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--output-dir", str(run),
                     "--set", "train.epochs=1"] + TINY_FLAGS + SHORT_WALK) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (run / "model.ckpt").exists()

    def test_data_error_on_training_with_one_scan(self, tmp_path, capsys):
        data = _synth(tmp_path, frames=1)
        assert main(["train", "--data", str(data), "--output-dir", str(tmp_path / "run"),
                     "--set", "train.epochs=2"] + TINY_FLAGS) == 2
        assert f"data error: {data}: one scan" in capsys.readouterr().err

    def test_numerical_error_on_an_epoch_with_no_trained_pair(self, tmp_path, capsys):
        data = _synth(tmp_path, frames=3)
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--output-dir", str(run),
                     "--set", "train.epochs=2", "--set", "pipeline.max_match_dist=1e-9"]
                    + TINY_FLAGS) == 3
        assert "epoch 0 trained no pair: 2 of 2 skipped" in capsys.readouterr().err
        log = (run / "train_log.csv").read_text().splitlines()
        assert log[1:] == ["0,nan,nan,nan,0,2,1.00e-04"]
        assert not (run / "model.ckpt").exists()

    def test_numerical_error_on_hopeless_registration(self, tmp_path):
        rng = np.random.default_rng(0)
        a = tmp_path / "a.npz"
        b = tmp_path / "b.npz"
        pts = rng.uniform(-2, 2, (80, 3))
        nrm = rng.standard_normal((80, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        np.savez(a, points=pts, normals=nrm)
        np.savez(b, points=pts + 500.0, normals=nrm)
        assert main(["register", "--source", str(a), "--target", str(b)]) == 3

    def test_gradcheck_exits_zero(self):
        assert main(["gradcheck", "--seed", "3"]) == 0

    def test_gradcheck_checks_the_loss_gradient(self, monkeypatch, capsys):
        loss_gradient = pipeline.loss_gradient
        monkeypatch.setattr(pipeline, "loss_gradient",
                            lambda *args: 1.001 * loss_gradient(*args))
        assert main(["gradcheck"]) == 3
        out = capsys.readouterr().out
        assert re.search(r"^pose-loss .* ok$", out, re.MULTILINE)
        assert re.search(r"^composed-pose .* FAIL$", out, re.MULTILINE)

    def test_gradcheck_fails_an_entry_that_skips_over_a_tenth(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "gradient_suite", lambda rng: {
            "tenth": GradcheckResult(1e-9, 2, 20), "over": GradcheckResult(1e-9, 3, 20)})
        assert main(["gradcheck"]) == 3
        out = capsys.readouterr().out
        assert re.search(r"^tenth .* ok$", out, re.MULTILINE)
        assert re.search(r"^over .* FAIL$", out, re.MULTILINE)

    def test_gradcheck_checks_float64_modules(self, monkeypatch):
        dtypes = set()

        def spy(module, *args, **kwargs):
            dtypes.update(p.value.dtype for p in module.parameters().values())
            return gradcheck(module, *args, **kwargs)

        monkeypatch.setattr(cli, "gradcheck", spy)
        assert len(cli.gradient_suite(np.random.default_rng(0))) == 10
        assert dtypes == {np.dtype(np.float64)}

    def test_infer_learned_without_checkpoint_is_usage_error(self, tmp_path):
        data = _synth(tmp_path, frames=3)
        assert main(["infer", "--data", str(data),
                     "--output", str(tmp_path / "e.txt"),
                     "--mode", "learned"]) == 1
