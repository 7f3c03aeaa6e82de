import re

import numpy as np
import pytest

from liodom.dataset_io import (FormatError, lidar_to_camera_frame, read_calib,
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
