import re
import warnings

import numpy as np
import pytest

from liodom import dataset_io
from liodom.dataset_io import (FormatError, _reals, lidar_to_camera_frame, read_calib,
                               read_oxts, read_poses, read_times, read_velodyne_bin,
                               window_imu, write_oxts, write_poses,
                               write_velodyne_bin)
from liodom.geometry import Pose


class TestVelodyne:
    def test_byte_level_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-50, 50, (100, 4)).astype("<f4").astype(float)
        path = tmp_path / "scan.bin"
        write_velodyne_bin(path, pts)
        raw = path.read_bytes()
        assert len(raw) == 100 * 16
        np.testing.assert_array_equal(
            np.frombuffer(raw, dtype="<f4").reshape(-1, 4).astype(float), pts)
        np.testing.assert_array_equal(read_velodyne_bin(path), pts)

    def test_rejects_bad_length(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\x00" * 17)
        with pytest.raises(FormatError):
            read_velodyne_bin(p)

    def test_rejects_wrong_shape(self, tmp_path):
        with pytest.raises(ValueError):
            write_velodyne_bin(tmp_path / "x.bin", np.zeros((5, 3)))


class TestOxts:
    def _write_record(self, path, accel, gyro, n_fields=30):
        fields = [0.0] * n_fields
        fields[11:14] = accel
        fields[17:20] = gyro
        path.write_text(" ".join(str(v) for v in fields) + "\n")

    def test_field_extraction(self, tmp_path):
        self._write_record(tmp_path / "0000000000.txt", [1.0, 2.0, 3.0],
                           [0.1, 0.2, 0.3])
        self._write_record(tmp_path / "0000000001.txt", [4.0, 5.0, 6.0],
                           [0.4, 0.5, 0.6])
        out = read_oxts(tmp_path)
        np.testing.assert_array_equal(out[0], [1, 2, 3, 0.1, 0.2, 0.3])
        np.testing.assert_array_equal(out[1], [4, 5, 6, 0.4, 0.5, 0.6])

    def test_sorted_name_order(self, tmp_path):
        self._write_record(tmp_path / "b.txt", [2.0, 0, 0], [0, 0, 0])
        self._write_record(tmp_path / "a.txt", [1.0, 0, 0], [0, 0, 0])
        out = read_oxts(tmp_path)
        assert out[0, 0] == 1.0 and out[1, 0] == 2.0

    def test_write_read_round_trip(self, tmp_path):
        records = np.random.default_rng(0).normal(0.0, 5.0, (12, 6))
        write_oxts(tmp_path / "oxts", records)
        # ten significant digits on disk
        np.testing.assert_allclose(read_oxts(tmp_path / "oxts"), records, rtol=1e-9, atol=0)

    def test_too_few_fields(self, tmp_path):
        (tmp_path / "x.txt").write_text("1 2 3\n")
        with pytest.raises(FormatError):
            read_oxts(tmp_path)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(FormatError):
            read_oxts(tmp_path)

    def test_non_numeric_field(self, tmp_path):
        fields = ["0"] * 25
        fields[12] = "abc"
        (tmp_path / "x.txt").write_text(" ".join(fields))
        with pytest.raises(FormatError):
            read_oxts(tmp_path)


class TestWindowImu:
    def _records(self, n):
        t = np.arange(n) * 0.01
        r = np.tile(t[:, None], (1, 6))
        return r, t

    def test_exact_count_passthrough(self):
        r, t = self._records(31)
        scans = np.array([0.0, 0.15, 0.30])
        wins = window_imu(r, t, scans, S=15)
        assert len(wins) == 2
        np.testing.assert_allclose(wins[0][:, 0], t[1:16])
        np.testing.assert_allclose(wins[1][:, 0], t[16:31])

    def test_subsample_by_index(self):
        r, t = self._records(61)
        scans = np.array([0.0, 0.60])
        wins = window_imu(r, t, scans, S=15)
        rows = r[(t > 0.0) & (t <= 0.60)]
        idx = (np.arange(15) * len(rows)) // 15
        np.testing.assert_array_equal(wins[0], rows[idx])

    def test_interpolate_when_sparse(self):
        r, t = self._records(6)
        scans = np.array([0.0, 0.05])
        wins = window_imu(r, t, scans, S=15)
        assert wins[0].shape == (15, 6)
        # endpoints preserved, values monotone between them
        np.testing.assert_allclose(wins[0][0, 0], 0.01)
        np.testing.assert_allclose(wins[0][-1, 0], 0.05)
        assert (np.diff(wins[0][:, 0]) >= -1e-12).all()

    def test_empty_interval_raises(self):
        r, t = self._records(10)
        with pytest.raises(FormatError):
            window_imu(r, t, np.array([5.0, 6.0]), S=15)

    def test_misaligned_inputs(self):
        r, t = self._records(10)
        with pytest.raises(ValueError):
            window_imu(r, t[:5], np.array([0.0, 0.05]), S=15)


class TestTimes:
    def test_equal_times_are_accepted(self, tmp_path):
        path = tmp_path / "times.txt"
        path.write_text("0.0\n0.1\n\n0.1\n0.2\n")
        np.testing.assert_array_equal(read_times(path), [0.0, 0.1, 0.1, 0.2])

    def test_a_decreasing_time_names_its_line(self, tmp_path):
        path = tmp_path / "times.txt"
        path.write_text("0.0\n\n0.2\n0.1\n0.05\n")
        with pytest.raises(FormatError,
                           match=rf"^{re.escape(str(path))}: line 4 has time 0.1, smaller"):
            read_times(path)

    # a file that starts with blank lines is read line by line, any other
    # through one loadtxt call: both name the same line
    @pytest.mark.parametrize("lead", ["", "\n" * 70], ids=["loadtxt", "line-by-line"])
    def test_blank_lines_before_a_decrease_keep_its_line_number(self, tmp_path, lead):
        path = tmp_path / "times.txt"
        path.write_text(f"{lead}0.0\n\n  \n0.3\n\t\n\n0.25\n0.1\n")
        line = lead.count("\n") + 7
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: line {line} has time "
                                              r"0\.25, smaller than the time before it \(0\.3\)$"):
            read_times(path)

    @pytest.mark.parametrize("text", ["", "\n \n"], ids=["empty", "blank"])
    def test_a_file_with_no_time_is_an_empty_array(self, tmp_path, text):
        path = tmp_path / "times.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            times = read_times(path)
        assert times.shape == (0,) and times.dtype == np.float64


def _read_poses_by_lines(path):
    """The per-line pose reader that one loadtxt call replaced, kept as the
    reference for what `read_poses` returns and raises."""
    with open(path, encoding="utf-8") as f:
        lines = [(lineno, fields) for lineno, line in enumerate(f, start=1)
                 if (fields := line.split())]
    if not lines:
        raise FormatError(f"{path}: no poses")
    try:
        rows = np.array([fields for _, fields in lines], dtype=float)
    except ValueError:
        rows = None
    if rows is None or rows.shape[1] != 12 or not np.isfinite(rows).all():
        rows = np.array([_reals(fields, path, lineno, 12) for lineno, fields in lines])
    T = np.zeros((len(rows), 4, 4))
    T[:, :3, :] = rows.reshape(-1, 3, 4)
    T[:, 3, 3] = 1.0
    return T


_G = "1 0 0 0 0 1 0 0 0 0 1 0"
_H = "0.36 0.48 -0.8 -1.5e3 -0.8 0.6 0 2.25 0.48 0.64 0.6 -7"
# KITTI writes 6 significant digits
_KITTI = "\n".join(" ".join(f"{v:.5e}" for v in row)
                   for row in np.random.default_rng(9).normal(0.0, 30.0, (40, 12))) + "\n"
POSE_FILES = {
    "plain": f"{_G}\n{_H}\n",
    "kitti-6-digits": _KITTI,
    "blank-lines": f"\n{_G}\n\n\n{_H}\n\n",
    "whitespace-lines": f"{_G}\n  \t \n{_H}\n   \n",
    "leading-blank-start": "\n" * 70 + f"{_G}\n{_H}\n",
    "crlf": f"{_G}\r\n\r\n{_H}\r\n",
    "cr": f"{_G}\r{_H}\r",
    "tabs": f"{_G}\n{_H}\n".replace(" ", "\t"),
    "form-feed-line": f"{_G}\n\f\n{_H}\n",
    "no-trailing-newline": f"{_G}\n{_H}",
    "nbsp": f"{_G}\n{_H}\n".replace(" ", "\xa0", 5),
    "nbsp-line": f"{_G}\n\xa0\n{_H}\n",
    "bom": f"\ufeff{_G}\n{_H}\n",
    "hash-line": f"{_G}\n# comment\n{_H}\n",
    "hash-suffix": f"{_G} # comment\n",
    "11-fields": " ".join(["0"] * 11) + "\n",
    "mixed-12-11": f"{_G}\n" + " ".join(["0"] * 11) + f"\n{_H}\n",
    "24-fields": f"{_G} {_H}\n",
    "nan": f"{_G}\n{_H.replace('2.25', 'nan')}\n",
    "inf": f"{_G}\n{_H.replace('-7', '-inf')}\n",
    "overflow": f"{_G}\n{_H.replace('-1.5e3', '1e400')}\n",
    "bad-token": f"{_G}\n{_H.replace('2.25', '2.2.5')}\n",
    "underscore": f"{_G}\n{_H.replace('-1.5e3', '-1_500')}\n",
    "empty": "",
    "blank-only": "\n  \n\t\n\f\n",
}


class TestPoseFileTable:
    @pytest.mark.parametrize("name", POSE_FILES)
    def test_matches_the_per_line_reader(self, tmp_path, name):
        path = tmp_path / "poses.txt"
        path.write_bytes(POSE_FILES[name].encode())
        try:
            expected = _read_poses_by_lines(path)
        except FormatError as exc:
            expected = exc
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(expected, FormatError):
                with pytest.raises(FormatError, match=f"^{re.escape(str(expected))}$"):
                    read_poses(path)
            else:
                got = read_poses(path)
                assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()

    def test_the_table_covers_both_outcomes(self, tmp_path):
        outcomes = {}
        for name, text in POSE_FILES.items():
            path = tmp_path / f"{name}.txt"
            path.write_bytes(text.encode())
            try:
                outcomes[name] = len(_read_poses_by_lines(path))
            except FormatError as exc:
                outcomes[name] = str(exc).split(": ", 1)[1]
        assert outcomes["kitti-6-digits"] == 40 and outcomes["underscore"] == 2
        assert outcomes["nbsp"] == outcomes["form-feed-line"] == outcomes["cr"] == 2
        assert outcomes["empty"] == outcomes["blank-only"] == "no poses"
        assert outcomes["bom"].startswith("line 1: could not convert")
        assert outcomes["mixed-12-11"] == "line 2 has 11 fields, need 12"

    def test_a_well_formed_file_is_one_loadtxt_call(self, tmp_path, monkeypatch):
        path = tmp_path / "poses.txt"
        path.write_text(POSE_FILES["kitti-6-digits"])
        expected = _read_poses_by_lines(path)

        def no_per_line_read(path):
            raise AssertionError("read line by line")

        monkeypatch.setattr(dataset_io, "_fields_by_line", no_per_line_read)
        assert read_poses(path).tobytes() == expected.tobytes()


class TestNotUtf8:
    BAD = b"\xff\xfe1 0 0 0 0 1 0 0 0 0 1 0\n"

    @pytest.mark.parametrize("read", [read_poses, read_times, read_calib],
                             ids=["poses", "times", "calib"])
    def test_a_text_file_that_is_not_utf8_is_a_format_error(self, tmp_path, read):
        path = tmp_path / "data.txt"
        path.write_bytes(self.BAD)
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: not UTF-8 text"):
            read(path)

    def test_past_the_first_chunk(self, tmp_path):
        # a bad byte that the loadtxt call meets, not the first read
        path = tmp_path / "poses.txt"
        path.write_bytes(b"1 0 0 0 0 1 0 0 0 0 1 0\n" * 2000 + self.BAD)
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: not UTF-8 text"):
            read_poses(path)

    def test_an_oxts_record(self, tmp_path):
        (tmp_path / "0.txt").write_bytes(b"\xff" + b" 0" * 25)
        with pytest.raises(FormatError, match=rf"^{re.escape(str(tmp_path / '0.txt'))}: not UTF-8"):
            read_oxts(tmp_path)


class TestPoses:
    GOOD = "1 0 0 0 0 1 0 0 0 0 1 0"

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        poses = [Pose(q=rng.uniform(-1, 1, 3), t=rng.uniform(-100, 100, 3))
                 for _ in range(7)]
        path = tmp_path / "poses.txt"
        write_poses(path, poses)
        np.testing.assert_allclose(read_poses(path), np.asarray(poses), atol=1e-9)
        # a pose reads as its matrix, so a list and its stack write the same bytes
        write_poses(tmp_path / "stack.txt", np.asarray(poses))
        assert (tmp_path / "stack.txt").read_bytes() == path.read_bytes()

    def test_format_is_twelve_reals_per_line(self, tmp_path):
        path = tmp_path / "poses.txt"
        write_poses(path, [Pose.identity()])
        fields = path.read_text().split()
        assert len(fields) == 12
        np.testing.assert_allclose(
            np.array(fields, dtype=float).reshape(3, 4),
            np.eye(4)[:3], atol=0)

    def test_rejects_short_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0 0\n")
        with pytest.raises(FormatError):
            read_poses(path)

    @pytest.mark.parametrize("count", [11, 13])
    def test_a_wrong_field_count_names_its_line(self, tmp_path, count):
        path = tmp_path / "poses.txt"
        path.write_text(f"{self.GOOD}\n\n{' '.join(['0'] * count)}\n{self.GOOD}\n")
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: line 3 has "
                                              rf"{count} fields, need 12$"):
            read_poses(path)

    def test_an_unparsable_token_names_its_line(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text(f"{self.GOOD}\n1 0 0 0 0 1 0 0 0 0 1 0x\n")
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: line 2: could not "
                                              r"convert string to float: '0x'$"):
            read_poses(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_value(self, tmp_path, value):
        path = tmp_path / "poses.txt"
        path.write_text(f"1 0 0 0 0 1 0 0 0 0 1 0\n1 0 0 {value} 0 1 0 0 0 0 1 0\n")
        with pytest.raises(FormatError, match=r"poses\.txt: line 2"):
            read_poses(path)

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank"])
    def test_rejects_a_file_with_no_pose(self, tmp_path, text):
        path = tmp_path / "poses.txt"
        path.write_text(text)
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: no poses$"):
            read_poses(path)

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "poses.txt"
        write_poses(path, [Pose.identity()])
        path.write_text(path.read_text() + "\n\n")
        assert len(read_poses(path)) == 1

    def test_accepts_crlf_line_ends(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_bytes(f"{self.GOOD}\r\n\r\n1 0 0 2 0 1 0 0 0 0 1 0\r\n".encode())
        np.testing.assert_array_equal(read_poses(path)[:, :3, 3], [[0, 0, 0], [2, 0, 0]])

    def test_reads_the_values_as_written(self, tmp_path):
        # no Euler round trip: the rows are the parsed tokens bit for bit,
        # even where the 3x3 block is not a rotation
        rng = np.random.default_rng(4)
        rows = [" ".join(format(v, ".17g") for v in rng.normal(0.0, 50.0, 12)) for _ in range(6)]
        rows.append("1 2 3 4 5 6 7 8 9 10 11 12")
        write_poses(tmp_path / "p.txt", [Pose(q=rng.uniform(-1, 1, 3), t=rng.normal(0, 9, 3))
                                         for _ in range(3)])
        rows += (tmp_path / "p.txt").read_text().splitlines()
        path = tmp_path / "poses.txt"
        path.write_text("\n".join(rows) + "\n")
        T = read_poses(path)
        assert T.shape == (len(rows), 4, 4) and T.dtype == np.float64
        assert T[:, 3].tobytes() == np.tile([0.0, 0.0, 0.0, 1.0], (len(rows), 1)).tobytes()
        expected = np.array([np.array(line.split(), float) for line in rows])
        assert T[:, :3, :].reshape(-1, 12).tobytes() == expected.tobytes()


class TestCalib:
    def test_parse(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("P0: 1 0 0 0 0 1 0 0 0 0 1 0\n"
                        "Tr: 0 -1 0 0 0 0 -1 0 1 0 0 0.1\n")
        calib = read_calib(path)
        assert set(calib) == {"P0", "Tr"}
        assert calib["Tr"].shape == (4, 4)
        assert calib["Tr"][2, 3] == pytest.approx(0.1)
        np.testing.assert_array_equal(calib["Tr"][3], [0, 0, 0, 1])

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(FormatError):
            read_calib(path)

    @pytest.mark.parametrize("value", ["abc", "nan", "inf"])
    def test_bad_value_rejected(self, tmp_path, value):
        path = tmp_path / "calib.txt"
        path.write_text("P0: 1 0 0 0 0 1 0 0 0 0 1 0\n"
                        f"Tr: 1 0 0 0 0 1 0 0 0 0 1 {value}\n")
        with pytest.raises(FormatError, match=r"calib\.txt: line 2"):
            read_calib(path)


def test_lidar_to_camera_frame_conjugation():
    Tr = np.eye(4)
    Tr[:3, :3] = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    Tr[:3, 3] = [0.1, -0.05, 0.2]
    poses = [Pose(q=[0.1, 0.0, 0.3], t=[2.0, 1.0, 0.0])]
    out = lidar_to_camera_frame(np.asarray(poses), Tr)
    assert out.shape == (1, 4, 4)
    np.testing.assert_allclose(out[0], Tr @ poses[0].matrix @ np.linalg.inv(Tr), atol=1e-12)
