from dataclasses import replace

import numpy as np
import pytest

from liodom.geometry import Pose, compose, rotation_angle
from liodom.matching import EmptyMatchError, LossWeights
from liodom.preprocess import PreprocessedCloud, VoxelParams, preprocess_cloud
from liodom.registration import RegistrationError, register
from liodom.synth import corridor_sequence, random_scene_pair


def pose_errors(estimated: Pose, true: Pose):
    """(translation error m, rotation error deg) of estimated vs true."""
    err = compose(true.inverse(), estimated)
    return (float(np.linalg.norm(err.t)),
            float(np.degrees(rotation_angle(err.rotation))))


def test_identity_for_identical_clouds():
    _, target, _ = random_scene_pair(seed=0)
    pose, diag = register(target, target)
    t_err, r_err = pose_errors(pose, Pose.identity())
    assert t_err < 1e-9 and r_err < 1e-7
    assert diag.loss_trace[-1] < 1e-6
    # no step lowers a zero cost: the search shrinks the step below the tolerance
    assert diag.converged and diag.outer_iterations == 1


def test_recovers_known_motion_noiseless():
    source, target, true = random_scene_pair(seed=5)
    pose, _ = register(source, target)
    t_err, r_err = pose_errors(pose, true)
    assert t_err < 1e-3
    assert r_err < 0.05


def test_recovers_known_motion_noisy():
    source, target, true = random_scene_pair(seed=6, sigma=0.01)
    pose, _ = register(source, target)
    t_err, r_err = pose_errors(pose, true)
    assert t_err < 0.02
    assert r_err < 0.2


def test_warm_start_converges_faster():
    source, target, true = random_scene_pair(seed=7)
    _, cold = register(source, target)
    _, warm = register(source, target, init=true)
    assert warm.loss_trace[0] <= cold.loss_trace[0]


def test_loss_trace_reports_absolute_form():
    source, target, _ = random_scene_pair(seed=8)
    _, diag = register(source, target)
    assert all(v >= 0.0 for v in diag.loss_trace)
    assert diag.loss_trace[-1] <= diag.loss_trace[0]


def test_disjoint_clouds_raise_with_pose():
    far = np.array([[100.0, 0.0, 0.0], [101.0, 0.0, 0.0], [100.0, 1.0, 0.0]])
    near = -far
    n = np.tile([0.0, 0.0, 1.0], (3, 1))
    mk = lambda p: PreprocessedCloud(points=p, normals=n.copy(),
                                     met_target=True, side_length=0.3, passes=0)
    with pytest.raises(RegistrationError) as exc:
        register(mk(far), mk(near), max_match_dist=1.0)
    assert isinstance(exc.value.pose, Pose)


# A coarse corridor pair whose re-matchings shrink after the first step:
# at 0.05 m the second matching is empty, at 0.1 m they go 113, 22, 2, ...
# Neither may end in a pose reported as a result.
@pytest.mark.parametrize("max_match_dist, message", [(0.05, "no matches"),
                                                     (0.1, "2 matches cannot fix")])
def test_later_matching_too_small_raises_with_init(max_match_dist, message):
    scans = corridor_sequence(n_frames=2, seed=0).scans
    c0, c1 = (preprocess_cloud(s.points, VoxelParams(side_length=0.5, target=256))
              for s in scans)
    init = Pose.identity()
    with pytest.raises(RegistrationError, match=message) as exc:
        register(c1, c0, init=init, max_match_dist=max_match_dist)
    assert exc.value.pose is init


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_initial_pose_raises_with_identity(bad):
    _, target, _ = random_scene_pair(seed=0)
    with pytest.raises(RegistrationError, match="non-finite") as exc:
        register(target, target, init=Pose(t=[0.0, bad, 0.0]))
    np.testing.assert_array_equal(exc.value.pose.matrix, np.eye(4))


def test_respects_loss_weights():
    source, target, true = random_scene_pair(seed=9)
    pose, _ = register(source, target, weights=LossWeights(alpha=1.0, lam=0.0))
    t_err, r_err = pose_errors(pose, true)
    assert t_err < 5e-3 and r_err < 0.2


# Sparse scenes (density 15), noiseless and noisy: each must converge, and
# rounding-level changes to the source normals must not move the stop.
SPARSE_SCENES = [(seed, 0.0) for seed in range(10)] + [(seed + 100, 0.01) for seed in range(10)]


@pytest.mark.parametrize("seed, sigma", SPARSE_SCENES)
def test_converges_on_sparse_scenes(seed, sigma):
    source, target, _ = random_scene_pair(seed=seed, sigma=sigma, density=15)
    _, diag = register(source, target)
    assert diag.converged
    assert diag.outer_iterations == len(diag.loss_trace) == len(diag.match_counts)


@pytest.mark.parametrize("seed, sigma", SPARSE_SCENES)
def test_stopping_insensitive_to_rounding(seed, sigma):
    source, target, _ = random_scene_pair(seed=seed, sigma=sigma, density=15)
    rng = np.random.default_rng(seed)
    scale = 1.0 + rng.uniform(-1e-14, 1e-14, (len(source.normals), 1))
    _, diag = register(source, target)
    _, nudged = register(replace(source, normals=source.normals * scale), target)
    assert (nudged.outer_iterations, nudged.converged) == (diag.outer_iterations,
                                                           diag.converged)
