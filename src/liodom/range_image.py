"""Spherical projection of point clouds onto 2D vertex/normal maps.

The horizontal coordinate uses atan2 so the full 360 degree sweep maps onto
[0, W) with f_w = 180. The vertical window is theta in (f_h - H*eta_h, f_h].
Invalid pixels hold (0, 0, 0) with valid = False. Pixel collisions keep the
point of minimum depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Pose, apply_to_normal, apply_to_point


@dataclass(frozen=True)
class ProjectionConfig:
    """Angular window and density of the spherical projection (degrees)."""

    f_w: float = 180.0
    f_h: float = 23.0
    eta_w: float = 0.5
    eta_h: float = 0.5
    H: int = 52
    W: int = 720

    def __post_init__(self):
        if abs(self.W * self.eta_w - 2.0 * self.f_w) > 1e-9:
            raise ValueError(f"W*eta_w = {self.W * self.eta_w} must equal 2*f_w = {2 * self.f_w}")
        if self.H <= 0 or self.W <= 0:
            raise ValueError("grid dimensions must be positive")

    @classmethod
    def kitti(cls) -> "ProjectionConfig":
        """Upper bound +3 deg, span 26 deg, covering the HDL-64E window."""
        return cls(f_h=3.0)


@dataclass
class VertexMap:
    grid: np.ndarray   # (H, W, 3) meters
    valid: np.ndarray  # (H, W) bool

    @property
    def shape(self):
        return self.valid.shape


@dataclass
class NormalMap:
    grid: np.ndarray   # (H, W, 3) unit vectors
    valid: np.ndarray  # (H, W) bool


def pixel_coordinates(points: np.ndarray, cfg: ProjectionConfig):
    """(w, h, d, in_range) for each point; d = Euclidean depth."""
    points = np.asarray(points, dtype=float)
    d = np.linalg.norm(points, axis=1)
    safe_d = np.where(d > 0, d, 1.0)
    theta_w = np.degrees(np.arctan2(points[:, 1], points[:, 0]))
    theta_h = np.degrees(np.arcsin(np.clip(points[:, 2] / safe_d, -1.0, 1.0)))
    w = np.floor((cfg.f_w - theta_w) / cfg.eta_w).astype(np.int64)
    h = np.floor((cfg.f_h - theta_h) / cfg.eta_h).astype(np.int64)
    in_range = (d > 0) & (w >= 0) & (w < cfg.W) & (h >= 0) & (h < cfg.H)
    return w, h, d, in_range


def project_with_indices(points: np.ndarray, cfg: ProjectionConfig):
    """Project a cloud; also return the winning source index per pixel.

    Returns (VertexMap, winner) where winner is (H, W) int64, -1 where
    invalid. Non-finite points are skipped; collisions keep minimum depth.
    """
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        raise ValueError("cannot project an empty cloud")
    finite = np.isfinite(points).all(axis=1)
    w, h, d, in_range = pixel_coordinates(np.where(finite[:, None], points, 0.0), cfg)
    keep = finite & in_range
    idx = np.flatnonzero(keep)
    flat = h[idx] * cfg.W + w[idx]
    # Sort by descending depth so the last write per pixel is the nearest point.
    order = np.argsort(-d[idx], kind="stable")
    winner = np.full(cfg.H * cfg.W, -1, dtype=np.int64)
    winner[flat[order]] = idx[order]
    winner = winner.reshape(cfg.H, cfg.W)
    grid = np.zeros((cfg.H, cfg.W, 3))
    valid = winner >= 0
    grid[valid] = points[winner[valid]]
    return VertexMap(grid=grid, valid=valid), winner


def project(points: np.ndarray, cfg: ProjectionConfig) -> VertexMap:
    """Spherically project a cloud to a vertex map (minimum-depth collisions)."""
    vmap, _ = project_with_indices(points, cfg)
    return vmap


def compute_normal_map(vmap: VertexMap) -> NormalMap:
    """Per-pixel normals from weighted cross products over the 4-neighborhood.

    Neighbor order is up, right, down, left; consecutive pairs (wrapping
    3 -> 0) are crossed and summed with weights exp(-0.5 |d_a - d_b|) that
    favor neighbors at similar depth. Pixels missing any valid neighbor, or
    whose summed cross product vanishes, are invalid.
    """
    H, W = vmap.shape
    grid, valid = vmap.grid, vmap.valid
    # One zero-padded copy: every neighbor grid is a slice of it, and a
    # neighbor beyond the border is invalid with depth 0.
    padded = np.zeros((H + 2, W + 2, 3))
    padded[1:-1, 1:-1] = grid
    padded_valid = np.zeros((H + 2, W + 2), dtype=bool)
    padded_valid[1:-1, 1:-1] = valid
    padded_depth = np.linalg.norm(padded, axis=2)
    depth = padded_depth[1:-1, 1:-1]

    rows, cols = slice(1, H + 1), slice(1, W + 1)
    # up, right, down, left
    neighbors = [(slice(0, H), cols), (rows, slice(2, W + 2)),
                 (slice(2, H + 2), cols), (rows, slice(0, W))]
    ok = valid.copy()
    for nb in neighbors:
        ok &= padded_valid[nb]
    # depth-weighted offsets to each neighbor
    arms = [np.exp(-0.5 * np.abs(padded_depth[nb] - depth))[..., None] * (padded[nb] - grid)
            for nb in neighbors]
    total = np.zeros_like(grid)
    for i in range(4):
        total += np.cross(arms[i], arms[(i + 1) % 4])

    norms = np.linalg.norm(total, axis=2)
    ok &= norms > 1e-12
    out = np.zeros_like(grid)
    out[ok] = total[ok] / norms[ok][:, None]
    return NormalMap(grid=out, valid=ok)


def remap(vmap: VertexMap, nmap: NormalMap, T: Pose, cfg: ProjectionConfig):
    """Transform a frame into another coordinate and re-project.

    Vertices move by R v + t, normals by R n only; both are scattered into a
    fresh grid of the same shape with minimum-depth collision handling.
    """
    if vmap.shape != nmap.valid.shape:
        raise ValueError("vertex and normal map dimensions differ")
    src_valid = vmap.valid
    pts = apply_to_point(T, vmap.grid[src_valid])
    new_vmap, winner = project_with_indices(pts, cfg)
    # Carry each surviving vertex's normal to its new pixel.
    nrm_flat = apply_to_normal(T, nmap.grid[src_valid])
    nrm_valid_flat = nmap.valid[src_valid]
    out_n = np.zeros_like(new_vmap.grid)
    out_nv = np.zeros_like(new_vmap.valid)
    won = winner >= 0
    out_nv[won] = nrm_valid_flat[winner[won]]
    out_n[out_nv] = nrm_flat[winner[out_nv]]
    return new_vmap, NormalMap(grid=out_n, valid=out_nv)
