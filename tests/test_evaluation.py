import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liodom.evaluation import (SEGMENT_LENGTHS, accumulate, kitti_relative_errors,
                               path_lengths)
from liodom.geometry import Pose, compose, rotation_angle


def _straight_line(n=1200, step=1.0):
    return [Pose(q=[0.0, 0.0, 0.0], t=[i * step, 0.0, 0.0]) for i in range(n)]


def _random_trajectory(rng, n=900):
    poses = [Pose.identity()]
    for _ in range(n - 1):
        d = Pose(q=rng.normal(0, 0.01, 3), t=[1.0 + rng.normal(0, 0.1),
                                              rng.normal(0, 0.1),
                                              rng.normal(0, 0.02)])
        poses.append(compose(poses[-1], d))
    return poses


def brute_force_errors(estimated, ground_truth, lengths=SEGMENT_LENGTHS,
                       stride=1):
    """Independent reimplementation using explicit 4x4 algebra end to end."""
    def mat(p):
        return p.matrix

    dist = [0.0]
    for i in range(1, len(ground_truth)):
        dist.append(dist[-1] + float(np.linalg.norm(
            ground_truth[i].t - ground_truth[i - 1].t)))
    per = {}
    for L in lengths:
        errs = []
        for s in range(0, len(ground_truth), stride):
            e = None
            for j in range(s + 1, len(ground_truth)):
                if dist[j] >= dist[s] + L:
                    e = j
                    break
            if e is None:
                continue
            gt_rel = np.linalg.inv(mat(ground_truth[s])) @ mat(ground_truth[e])
            es_rel = np.linalg.inv(mat(estimated[s])) @ mat(estimated[e])
            E = np.linalg.inv(gt_rel) @ es_rel
            t_err = np.linalg.norm(E[:3, 3]) / L
            c = max(-1.0, min(1.0, (np.trace(E[:3, :3]) - 1.0) / 2.0))
            r_err = np.arccos(c) / L
            errs.append((t_err, r_err))
        if errs:
            a = np.array(errs)
            per[L] = (100.0 * a[:, 0].mean(),
                      np.degrees(a[:, 1].mean()) * 100.0, len(errs))
    if not per:
        return per, 0.0, 0.0
    t_rel = float(np.mean([v[0] for v in per.values()]))
    r_rel = float(np.mean([v[1] for v in per.values()]))
    return per, t_rel, r_rel


def test_identical_trajectories_zero_error():
    gt = np.asarray(_random_trajectory(np.random.default_rng(0)))
    report = kitti_relative_errors(gt, gt)
    assert report.total_segments > 0
    assert report.t_rel == pytest.approx(0.0, abs=1e-9)
    assert report.r_rel == pytest.approx(0.0, abs=1e-12)


def test_identical_rotations_give_no_rotation_error():
    # eval-long's case: the estimate keeps the ground truth's rotations and
    # scales its positions, so every segment's rotation error is 0
    gt = _random_trajectory(np.random.default_rng(0))
    est = [Pose(q=p.q, t=1.01 * p.t) for p in gt]
    report = kitti_relative_errors(np.asarray(est), np.asarray(gt))
    assert set(report.per_length) == set(SEGMENT_LENGTHS)
    for L, (_, r, _) in report.per_length.items():
        assert r <= 1e-12, f"{L} m: {r} deg/100 m"


def test_scaled_straight_line_gives_one_percent():
    gt = _straight_line()
    est = [Pose(q=p.q, t=1.01 * np.asarray(p.t)) for p in gt]
    report = kitti_relative_errors(np.asarray(est), np.asarray(gt))
    assert report.t_rel == pytest.approx(1.00, abs=0.01)
    assert report.r_rel == pytest.approx(0.0, abs=1e-12)


def test_agrees_with_brute_force_oracle():
    rng = np.random.default_rng(1)
    for trial in range(10):
        gt = _random_trajectory(rng, n=400)
        est = [compose(p, Pose(q=rng.normal(0, 0.002, 3),
                               t=rng.normal(0, 0.05, 3))) for p in gt]
        stride = int(rng.integers(1, 4))
        report = kitti_relative_errors(np.asarray(est), np.asarray(gt), stride=stride)
        per, t_rel, r_rel = brute_force_errors(est, gt, stride=stride)
        assert abs(report.t_rel - t_rel) < 1e-9
        assert abs(report.r_rel - r_rel) < 1e-9
        assert set(report.per_length) == set(per)
        for L in per:
            assert report.per_length[L][2] == per[L][2]
            assert abs(report.per_length[L][0] - per[L][0]) < 1e-9
            assert abs(report.per_length[L][1] - per[L][1]) < 1e-9


def _per_length_by_gather(est, gt, stride):
    """The segment errors with each length's starts and ends gathered by
    index and every 4x4 error formed: the formula that prefix slices and
    3x4 rows replaced, kept as the reference for their floats."""
    dist = path_lengths(gt)
    gt_inv, est_inv = np.linalg.inv(gt), np.linalg.inv(est)
    starts = np.arange(0, len(gt), stride)
    per = {}
    for L in SEGMENT_LENGTHS:
        ends = np.searchsorted(dist, dist[starts] + L)
        has_end = ends < len(gt)
        if not has_end.any():
            continue
        s, e = starts[has_end], ends[has_end]
        err = (gt_inv[e] @ gt[s]) @ (est_inv[s] @ est[e])
        t_mean = 100.0 * np.mean(np.linalg.norm(err[:, :3, 3], axis=1) / L)
        r_mean = np.degrees(np.mean(rotation_angle(err[:, :3, :3]) / L)) * 100.0
        per[L] = (float(t_mean), float(r_mean), len(s))
    return per


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_prefix_slices_give_the_gathered_floats(stride):
    rng = np.random.default_rng(20 + stride)
    for n in (450, 997):
        gt = np.asarray(_random_trajectory(rng, n=n))
        est = gt @ np.asarray([Pose(q=rng.normal(0, 0.002, 3), t=rng.normal(0, 0.05, 3))
                               for _ in range(n)])
        report = kitti_relative_errors(est, gt, stride=stride)
        expected = _per_length_by_gather(est, gt, stride)
        assert list(report.per_length) == list(expected) and len(expected) >= 4
        for L, triple in expected.items():
            assert np.array_equal(report.per_length[L], triple), L
        assert report.t_rel == np.mean([t for t, _, _ in expected.values()])
        assert report.r_rel == np.mean([r for _, r, _ in expected.values()])


def test_short_trajectory_has_no_segments():
    gt = np.asarray(_straight_line(n=50))
    report = kitti_relative_errors(gt, gt)
    assert report.total_segments == 0
    assert report.per_length == {}


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        kitti_relative_errors(np.asarray(_straight_line(5)), np.asarray(_straight_line(6)))


@pytest.mark.parametrize("stride", [0, -1])
def test_non_positive_stride_rejected(stride):
    gt = np.asarray(_straight_line(n=300))
    with pytest.raises(ValueError, match="stride"):
        kitti_relative_errors(gt, gt, stride=stride)


# Angles within 0.4 rad keep every pose and every relative pose (rotation
# angle < 1.4 rad) away from the Euler singularity at |pitch| = pi/2.
_poses = st.builds(Pose, st.lists(st.floats(-0.4, 0.4), min_size=3, max_size=3),
                   st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3))


@settings(max_examples=60, deadline=None)
@given(st.lists(_poses, min_size=1, max_size=20))
def test_accumulate_inverts_deltas(absolute):
    # accumulate(deltas) is the trajectory re-anchored at its first pose
    deltas = [compose(a.inverse(), b) for a, b in zip(absolute, absolute[1:])]
    rebuilt = accumulate(deltas)
    assert isinstance(rebuilt, np.ndarray) and rebuilt.shape == (len(absolute), 4, 4)
    origin = np.linalg.inv(absolute[0].matrix)
    np.testing.assert_allclose(rebuilt, origin @ np.asarray(absolute), atol=1e-9)


def test_csv_and_table_render():
    gt = np.asarray(_straight_line())
    report = kitti_relative_errors(gt, gt)
    csv = report.as_csv()
    assert csv.startswith("length_m,")
    assert "overall" in csv
    assert "t_rel(%)" in report.as_table()
