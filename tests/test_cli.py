import re

import numpy as np
import pytest
import yaml

from liodom import pipeline
from liodom.cli import main
from liodom.config import (ABLATION_PRESETS, ConfigError, config_from_dict,
                           dump_config, load_config)
from liodom.dataset_io import read_poses, write_poses
from liodom.geometry import Pose

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

    def test_preset_between_file_and_flags(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump({"pipeline": {"imu_mode": "initial-pose"}}))
        cfg = load_config(p, preset="no-imu")
        assert cfg.imu_mode == "none"
        cfg = load_config(p, preset="no-imu",
                          overrides={"pipeline": {"imu_mode": "feature-concat"}})
        assert cfg.imu_mode == "feature-concat"

    @pytest.mark.parametrize("layers", [{"preset": "no-imu"},
                                        {"overrides": {"train": {"epochs": 2}}}])
    def test_non_mapping_section_under_preset_or_flags(self, tmp_path, layers):
        p = tmp_path / "c.yaml"
        p.write_text("pipeline: 3\n")
        with pytest.raises(ConfigError, match="must be a mapping"):
            load_config(p, **layers)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_config(preset="bogus")

    def test_every_preset_is_valid(self):
        for name in ABLATION_PRESETS:
            load_config(preset=name)

    def test_dump_round_trip(self, tmp_path):
        cfg = load_config(preset="vertex-only",
                          overrides={"train": {"epochs": 7}})
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
        assert (data / "resolved_config.yaml").exists()

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
        pose = read_poses(pose_file)[0]
        # frames are 0.3 m apart along x in the corridor sequence
        assert pose.t[0] == pytest.approx(0.3, abs=0.02)

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
        assert main(["eval", "--estimated", str(est),
                     "--ground-truth", str(data / "poses.txt"),
                     "--output", str(tmp_path / "report.csv")]) == 0
        assert (tmp_path / "report.csv").read_text().startswith("length_m,")

    def test_infer_classical_without_checkpoint(self, tmp_path):
        data = _synth(tmp_path, frames=3)
        est = tmp_path / "est.txt"
        assert main(["infer", "--data", str(data), "--output", str(est),
                     "--mode", "classical"] + TINY_FLAGS) == 0
        assert len(read_poses(est)) == 3

    def test_export_traj(self, tmp_path):
        data = _synth(tmp_path, frames=3)
        calib = tmp_path / "calib.txt"
        calib.write_text("Tr: 0 -1 0 0 0 0 -1 0 1 0 0 0\n")
        out = tmp_path / "cam.txt"
        assert main(["export-traj", "--poses", str(data / "poses.txt"),
                     "--calib", str(calib), "--output", str(out)]) == 0
        assert len(read_poses(out)) == 3


# A short voxel walk: these tests check the resolved config, not the clouds.
SHORT_WALK = ["--set", "voxel.max_iterations=5"]


def test_train_warns_on_missed_voxel_targets(tmp_path, capsys):
    data = _synth(tmp_path, frames=2)
    assert main(["train", "--data", str(data), "--output-dir", str(tmp_path / "run"),
                 "--set", "train.epochs=1"] + TINY_FLAGS + SHORT_WALK) == 0
    assert "warning: 2 of 2 clouds missed the voxel target" in capsys.readouterr().err


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
    """infer with --checkpoint and no --config: checkpoint, then --preset, then --set."""

    def _infer(self, tmp_path, run, *flags):
        data, ckpt = run
        est = tmp_path / "est.txt"
        code = main(["infer", "--data", str(data), "--output", str(est),
                     "--checkpoint", str(ckpt), "--mode", "learned", *SHORT_WALK, *flags])
        return code, est.with_suffix(".config.yaml")

    def test_preset_and_set_apply_over_checkpoint(self, tmp_path, lam0_run):
        code, resolved = self._infer(tmp_path, lam0_run, "--preset", "pixel-matching",
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
        code, _ = self._infer(tmp_path, lam0_run)
        assert code == 0
        assert "warning: 2 of 2 clouds missed the voxel target" in capsys.readouterr().err

    def test_no_warning_when_targets_met(self, tmp_path, lam0_run, capsys):
        code, _ = self._infer(tmp_path, lam0_run, "--set", "voxel.tolerance=100000")
        assert code == 0
        assert "voxel target" not in capsys.readouterr().err

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

    def test_usage_error_on_non_mapping_section_with_preset(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("pipeline: 3\n")
        assert main(["preprocess", "--input", "x", "--output", "y",
                     "--config", str(bad), "--preset", "no-imu"]) == 1
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "pipeline.imu_mode=bogus",
        "train.batch_size=0",
        "train.lr_step_size=0",
        "pipeline.imu_window=0",
        "pipeline.max_match_dist=-1",
    ])
    def test_usage_error_on_invalid_value(self, capsys, setting):
        assert main(["preprocess", "--input", "x", "--output", "y",
                     "--set", setting]) == 1
        assert "configuration error:" in capsys.readouterr().err

    def test_usage_error_on_unknown_flag(self):
        assert main(["preprocess", "--nonsense"]) == 1

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

    def test_data_error_on_nan_pose(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        write_poses(gt, [Pose(t=[float(i), 0.0, 0.0]) for i in range(3)])
        est = tmp_path / "est.txt"
        est.write_text(gt.read_text().replace("0.000000000000e+00", "nan", 1))
        assert main(["eval", "--estimated", str(est), "--ground-truth", str(gt)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_data_error_on_malformed_scan(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"xyz")
        assert main(["preprocess", "--input", str(bad),
                     "--output", str(tmp_path / "o.npz")]) == 2

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

    def test_infer_learned_without_checkpoint_is_usage_error(self, tmp_path):
        data = _synth(tmp_path, frames=3)
        assert main(["infer", "--data", str(data),
                     "--output", str(tmp_path / "e.txt"),
                     "--mode", "learned"]) == 1
