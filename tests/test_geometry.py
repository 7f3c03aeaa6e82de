import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liodom.geometry import (Pose, apply_to_normal, apply_to_point, compose,
                             euler_to_matrix, matrix_to_euler, rotation_angle,
                             rotation_derivatives)
from liodom.nn import central_difference

angles = st.floats(-1.4, 1.4, allow_nan=False)
coords = st.floats(-50.0, 50.0, allow_nan=False)


def test_euler_to_matrix_frozen_value():
    # Independently evaluated Rz(1.1) @ Ry(-0.2) @ Rx(0.3).
    R = euler_to_matrix((0.3, -0.2, 1.1))
    expected = np.array([
        [0.4445544, -0.8780339, 0.17727903],
        [0.87344255, 0.38101343, -0.30319447],
        [0.19866933, 0.28962948, 0.93629336],
    ])
    np.testing.assert_allclose(R, expected, atol=1e-8)


def test_rotation_is_orthonormal():
    R = euler_to_matrix((0.5, 0.2, -0.9))
    np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


@given(angles, angles, angles)
@settings(max_examples=100, deadline=None)
def test_euler_round_trip(roll, pitch, yaw):
    q = np.array([roll, pitch, yaw])
    R = euler_to_matrix(q)
    np.testing.assert_allclose(euler_to_matrix(matrix_to_euler(R)), R, atol=1e-9)


@given(angles, angles, angles, coords, coords, coords)
@settings(max_examples=60, deadline=None)
def test_inverse_composes_to_identity(roll, pitch, yaw, x, y, z):
    p = Pose(q=[roll, pitch, yaw], t=[x, y, z])
    T = compose(p, p.inverse()).matrix
    np.testing.assert_allclose(T, np.eye(4), atol=1e-8)


def test_compose_matches_matrix_product():
    a = Pose(q=[0.1, -0.3, 0.7], t=[1.0, -2.0, 0.5])
    b = Pose(q=[-0.2, 0.4, 1.2], t=[0.3, 0.1, -0.9])
    np.testing.assert_allclose(compose(a, b).matrix, a.matrix @ b.matrix, atol=1e-12)


def test_apply_to_point_matches_homogeneous():
    p = Pose(q=[0.2, 0.1, -0.5], t=[3.0, -1.0, 2.0])
    v = np.array([1.0, 2.0, 3.0])
    hom = p.matrix @ np.append(v, 1.0)
    np.testing.assert_allclose(apply_to_point(p, v), hom[:3], atol=1e-12)
    # batched form
    vs = np.random.default_rng(3).standard_normal((11, 3))
    out = apply_to_point(p, vs)
    for i in range(11):
        np.testing.assert_allclose(out[i], apply_to_point(p, vs[i]), atol=1e-12)


def test_apply_to_normal_ignores_translation():
    p = Pose(q=[0.2, 0.1, -0.5], t=[30.0, -10.0, 20.0])
    n = np.array([0.0, 0.0, 1.0])
    np.testing.assert_allclose(apply_to_normal(p, n),
                               euler_to_matrix(p.q) @ n, atol=1e-12)


def test_vector_round_trip():
    vec = np.array([0.1, 0.2, 0.3, 4.0, 5.0, 6.0])
    np.testing.assert_allclose(Pose.from_vector(vec).as_vector(), vec, atol=1e-15)


def test_rotation_derivatives_match_finite_differences():
    q = np.array([0.3, -0.4, 0.8])
    derivs = rotation_derivatives(q)
    for axis in range(3):
        fd, kink = central_difference(lambda: euler_to_matrix(q), q, axis, 1e-7)
        assert not kink
        np.testing.assert_allclose(derivs[axis], fd, atol=1e-6)


def test_rotation_angle():
    R = euler_to_matrix((0.3, -0.2, 1.1))
    assert rotation_angle(R) == pytest.approx(np.radians(67.60866224496492), abs=1e-9)
    assert rotation_angle(np.eye(3)) == 0.0
    # exact to rounding near 0, where an arccos of the trace reads 0
    assert rotation_angle(euler_to_matrix((0.0, 0.0, 1e-9))) == pytest.approx(1e-9, rel=1e-12)
    rng = np.random.default_rng(7)
    stack = np.stack([euler_to_matrix(q) for q in rng.uniform(-np.pi, np.pi, (20, 3))])
    angles = rotation_angle(stack)
    assert angles.shape == (20,)
    np.testing.assert_array_equal(angles, [rotation_angle(R) for R in stack])
