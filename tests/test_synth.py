import numpy as np
import pytest

from liodom.dataset_io import window_imu
from liodom.geometry import Pose, compose, euler_to_matrix
from liodom.synth import (Box, GRAVITY, Plane, SceneSpec, corridor_sequence,
                          imu_records, random_scene_pair, sample_scene,
                          scan_from_pose)


def test_plane_samples_lie_on_plane():
    spec = SceneSpec(planes=(Plane((1.0, 2.0, 3.0), (0.0, 0.0, 1.0), 2.0, 2.0),),
                     density=50.0, seed=0)
    scene = sample_scene(spec)
    assert (np.abs(scene.points[:, 2] - 3.0) < 1e-12).all()
    np.testing.assert_allclose(np.abs(scene.normals[:, 2]), 1.0)


def test_box_faces_have_axis_normals():
    spec = SceneSpec(boxes=(Box(center=(0.0, 0.0, 0.0), size=(4.0, 4.0, 4.0)),),
                     density=20.0, seed=1)
    scene = sample_scene(spec)
    # every normal is a coordinate axis
    axis_count = (np.abs(np.abs(scene.normals) - 1.0) < 1e-12).sum(axis=1)
    assert (axis_count == 1).all()
    assert np.abs(scene.points).max() <= 2.0 + 1e-9


def test_labels_distinguish_surfaces():
    spec = SceneSpec(planes=(Plane((0, 0, 5), (0, 0, 1), 1.0, 1.0),),
                     boxes=(Box(center=(0, 0, 0), size=(2, 2, 2)),),
                     density=30.0, seed=2)
    scene = sample_scene(spec)
    assert len(np.unique(scene.labels)) >= 2


def test_scan_from_pose_inverse_transform():
    spec = SceneSpec(boxes=(Box(center=(0, 0, 2), size=(10, 10, 4)),),
                     density=10.0, seed=3)
    scene = sample_scene(spec)
    pose = Pose(q=[0.05, -0.02, 0.3], t=[1.0, -0.5, 0.1])
    scan = scan_from_pose(scene, pose)
    rebuilt = scan.points @ pose.rotation.T + pose.t
    np.testing.assert_allclose(np.sort(rebuilt, axis=0),
                               np.sort(scene.points, axis=0), atol=1e-9)


def test_scan_normals_face_sensor():
    spec = SceneSpec(boxes=(Box(center=(0, 0, 2), size=(10, 10, 4)),),
                     density=10.0, seed=4)
    scan = scan_from_pose(sample_scene(spec), Pose.identity())
    dots = np.einsum("ni,ni->n", scan.normals, scan.points)
    assert (dots <= 1e-12).all()


class TestImu:
    def test_static_sensor_reads_gravity(self):
        times = np.arange(10) * 0.01
        poses = [Pose.identity() for _ in times]
        rec = imu_records(poses, times)
        np.testing.assert_allclose(rec[:, 0:3], np.tile([0, 0, 9.81], (10, 1)),
                                   atol=1e-9)
        np.testing.assert_allclose(rec[:, 3:6], 0.0, atol=1e-12)

    def test_constant_yaw_rate_recovered(self):
        rate = 0.4  # rad/s
        times = np.arange(50) * 0.01
        poses = [Pose(q=[0.0, 0.0, rate * t], t=[0.0, 0.0, 0.0]) for t in times]
        rec = imu_records(poses, times)
        np.testing.assert_allclose(rec[:, 5], rate, atol=1e-6)
        np.testing.assert_allclose(rec[:, 3:5], 0.0, atol=1e-9)

    def test_constant_acceleration_recovered(self):
        a = 2.0
        times = np.arange(40) * 0.01
        poses = [Pose(q=[0.0, 0.0, 0.0], t=[0.5 * a * t * t, 0.0, 0.0])
                 for t in times]
        rec = imu_records(poses, times)
        np.testing.assert_allclose(rec[:, 0], a, atol=1e-6)
        np.testing.assert_allclose(rec[:, 2], 9.81, atol=1e-9)

    def test_gravity_constant(self):
        np.testing.assert_array_equal(GRAVITY, [0.0, 0.0, -9.81])

    def test_needs_three_poses(self):
        with pytest.raises(ValueError):
            imu_records([Pose.identity()] * 2, [0.0, 0.1])

    def test_synthesize_windows_shape(self):
        times = np.arange(31) * 0.01
        poses = [Pose(q=[0, 0, 0.1 * t], t=[t, 0, 0]) for t in times]
        wins = window_imu(imu_records(poses, times), times, np.array([0.0, 0.15, 0.30]), S=15)
        assert len(wins) == 2
        assert all(w.shape == (15, 6) for w in wins)


def test_random_scene_pair_true_pose_aligns():
    source, target, true = random_scene_pair(seed=11)
    moved = source.points @ true.rotation.T + true.t
    # each moved source point lies on a target surface: nearest target
    # point is close even though sampling differs
    from scipy.spatial import cKDTree

    d, _ = cKDTree(target.points).query(moved)
    assert np.median(d) < 0.3


def test_corridor_sequence_consistency():
    seq = corridor_sequence(n_frames=5, seed=0)
    assert len(seq.scans) == len(seq.poses) == len(seq.times) == 5
    assert len(seq.imu_windows) == 4
    assert all(w.shape == (15, 6) for w in seq.imu_windows)
    assert seq.dense_records.shape[0] == len(seq.dense_times)
    # scans are in the sensor frame: rebuilding frame k against the scene
    # of frame 0 through the ground truth matches scan 0's surfaces
    rel = compose(seq.poses[0].inverse(), seq.poses[1])
    moved = seq.scans[1].points @ rel.rotation.T + rel.t
    from scipy.spatial import cKDTree

    d, _ = cKDTree(seq.scans[0].points).query(moved)
    assert np.median(d) < 0.3


def test_corridor_noise_scale():
    clean = corridor_sequence(n_frames=3, seed=5, sigma=0.0)
    noisy = corridor_sequence(n_frames=3, seed=5, sigma=0.05)
    assert not np.allclose(clean.scans[0].points, noisy.scans[0].points)
