import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liodom.geometry import Pose
from liodom.range_image import (NormalMap, ProjectionConfig, compute_normal_map,
                                pixel_coordinates, project,
                                project_with_indices, remap)

DEFAULT = ProjectionConfig()


def test_config_validation():
    with pytest.raises(ValueError):
        ProjectionConfig(W=700)          # 700 * 0.5 != 360
    with pytest.raises(ValueError):
        ProjectionConfig(H=0)


def test_pixel_coordinates_frozen_values():
    # Hand evaluation of w = floor((f_w - atan2deg(y, x)) / eta),
    # h = floor((f_h - asindeg(z / d)) / eta) under the default window.
    pts = np.array([
        [10.0, 1.0, 0.5],       # -> (348, 40), in range
        [-4.0, -3.0, -1.0],     # h = 68, below the vertical window
        [2.0, 0.0, 0.9],        # h = -3, above the vertical window
    ])
    w, h, d, ok = pixel_coordinates(pts, DEFAULT)
    assert (w[0], h[0]) == (348, 40)
    assert d[0] == pytest.approx(10.062305899, abs=1e-8)
    assert h[1] == 68 and h[2] == -3
    assert list(ok) == [True, False, False]


def test_projection_collision_keeps_minimum_depth():
    near = np.array([5.0, 0.1, 0.0])
    far = near * 3.0
    vmap, winner = project_with_indices(np.array([far, near]), DEFAULT)
    w, h, _, _ = pixel_coordinates(near[None], DEFAULT)
    assert winner[h[0], w[0]] == 1
    np.testing.assert_allclose(vmap.grid[h[0], w[0]], near)


def test_invalid_pixels_are_zero():
    vmap = project(np.array([[10.0, 1.0, 0.5]]), DEFAULT)
    assert vmap.valid.sum() == 1
    assert np.count_nonzero(vmap.grid) == 3   # only the single valid vertex


def test_projection_skips_nonfinite_and_origin():
    pts = np.array([[np.nan, 1.0, 0.0], [0.0, 0.0, 0.0], [10.0, 1.0, 0.5]])
    vmap = project(pts, DEFAULT)
    assert vmap.valid.sum() == 1


def test_points_round_trip_through_projection():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.0, 1.0, (500, 3)) * np.array([20.0, 20.0, 2.0])
    pts = pts[np.linalg.norm(pts, axis=1) > 1.0]
    vmap, winner = project_with_indices(pts, DEFAULT)
    idx = winner[vmap.valid]
    np.testing.assert_allclose(vmap.grid[vmap.valid], pts[idx])


def _dense_plane_scan(normal, offset, cfg):
    """Points on the plane n.x = offset covering the projection window."""
    normal = np.asarray(normal) / np.linalg.norm(normal)
    ws = np.arange(cfg.W) + 0.5
    hs = np.arange(cfg.H) + 0.5
    tw = np.radians(cfg.f_w - ws * cfg.eta_w)
    th = np.radians(cfg.f_h - hs[:, None] * cfg.eta_h)
    dirs = np.stack([np.cos(th) * np.cos(tw), np.cos(th) * np.sin(tw),
                     np.broadcast_to(np.sin(th), (cfg.H, cfg.W))], axis=-1)
    denom = dirs @ normal
    pts = []
    for h in range(cfg.H):
        for w in range(cfg.W):
            if denom[h, w] > 0.2:
                pts.append(dirs[h, w] * (offset / denom[h, w]))
    return np.array(pts)


def test_normal_map_recovers_plane_normal():
    cfg = ProjectionConfig(f_w=30.0, f_h=15.0, eta_w=1.0, eta_h=1.0, H=30, W=60)
    n_true = np.array([1.0, 0.2, 0.3])
    n_true /= np.linalg.norm(n_true)
    vmap = project(_dense_plane_scan(n_true, 8.0, cfg), cfg)
    nmap = compute_normal_map(vmap)
    assert nmap.valid.sum() > 100
    dots = np.abs(nmap.grid[nmap.valid] @ n_true)
    assert dots.min() > 0.999


def test_normal_map_border_invalid():
    cfg = ProjectionConfig(f_w=30.0, f_h=15.0, eta_w=1.0, eta_h=1.0, H=30, W=60)
    vmap = project(_dense_plane_scan([1.0, 0.0, 0.0], 5.0, cfg), cfg)
    nmap = compute_normal_map(vmap)
    assert not nmap.valid[0].any() and not nmap.valid[-1].any()
    assert not nmap.valid[:, 0].any() and not nmap.valid[:, -1].any()


def test_normals_are_unit_length():
    cfg = ProjectionConfig(f_w=30.0, f_h=15.0, eta_w=1.0, eta_h=1.0, H=30, W=60)
    vmap = project(_dense_plane_scan([1.0, -0.3, 0.1], 6.0, cfg), cfg)
    nmap = compute_normal_map(vmap)
    norms = np.linalg.norm(nmap.grid[nmap.valid], axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), keep=st.floats(0.3, 1.0),
       yaw=st.floats(-0.5, 0.5), offset=st.floats(2.0, 30.0))
def test_remap_identity_is_reprojection(seed, keep, yaw, offset):
    # a plane scan with random radial noise and a random share of holes
    cfg = ProjectionConfig(f_w=30.0, f_h=15.0, eta_w=1.0, eta_h=1.0, H=30, W=60)
    rng = np.random.default_rng(seed)
    pts = _dense_plane_scan([np.cos(yaw), np.sin(yaw), 0.1], offset, cfg)
    pts = pts * rng.uniform(0.9, 1.1, (len(pts), 1))
    vmap = project(pts[rng.random(len(pts)) < keep], cfg)
    nmap = compute_normal_map(vmap)
    v2, n2 = remap(vmap, nmap, Pose.identity(), cfg)
    np.testing.assert_array_equal(v2.valid, vmap.valid)
    np.testing.assert_array_equal(v2.grid, vmap.grid)
    # every vertex keeps its pixel, so every normal stays where it was
    np.testing.assert_array_equal(n2.valid, nmap.valid)
    np.testing.assert_array_equal(n2.grid, nmap.grid)


def test_remap_moves_points_by_pose():
    cfg = ProjectionConfig(f_w=30.0, f_h=15.0, eta_w=1.0, eta_h=1.0, H=30, W=60)
    vmap = project(_dense_plane_scan([1.0, 0.0, 0.0], 7.0, cfg), cfg)
    nmap = compute_normal_map(vmap)
    T = Pose(q=[0.0, 0.0, 0.02], t=[0.1, 0.0, 0.0])
    v2, _ = remap(vmap, nmap, T, cfg)
    moved = vmap.grid[vmap.valid] @ T.rotation.T + T.t
    got = {tuple(np.round(p, 9)) for p in v2.grid[v2.valid]}
    want = {tuple(np.round(p, 9)) for p in moved}
    # every remapped vertex is one of the transformed inputs
    assert got <= want
    assert len(got) > 0.8 * len(want)
