import numpy as np
import pytest

from liodom.geometry import Pose, compose, rotation_angle
from liodom.matching import EmptyMatchError, LossWeights
from liodom.preprocess import PreprocessedCloud
from liodom.registration import (RegistrationError, RegistrationOptions,
                                 register)
from liodom.synth import random_scene_pair


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
        register(mk(far), mk(near), opts=RegistrationOptions(max_match_dist=1.0))
    assert isinstance(exc.value.pose, Pose)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_initial_pose_raises_with_identity(bad):
    _, target, _ = random_scene_pair(seed=0)
    with pytest.raises(RegistrationError, match="non-finite") as exc:
        register(target, target, init=Pose(t=[0.0, bad, 0.0]))
    np.testing.assert_array_equal(exc.value.pose.matrix, np.eye(4))


def test_respects_loss_weights():
    source, target, true = random_scene_pair(seed=9)
    opts = RegistrationOptions(weights=LossWeights(alpha=1.0, lam=0.0))
    pose, _ = register(source, target, opts=opts)
    t_err, r_err = pose_errors(pose, true)
    assert t_err < 5e-3 and r_err < 0.2
