"""Classical frame-to-frame registration by minimizing the unsupervised loss.

One ICP loop: each iteration re-matches at the current pose and takes one
Gauss-Newton step on the residuals of `matching.residuals`, the
point-to-plane rows weighted by sqrt(alpha) and the normal rows by
sqrt(lambda), so the squared cost is the loss with the absolute value
replaced by a square. A halving line search keeps each step downhill and
evaluates only the residual values; the absolute-value loss is used only for
reporting. The loop has converged when the norm of the step, the last one
tried if the line search takes none, falls below TOLERANCE.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose
from .matching import (
    EmptyMatchError,
    LossWeights,
    build_index,
    loss_at_pose,
    match_nearest,
    residual_values,
    residuals,
    transformed_cloud,
)
from .preprocess import PreprocessedCloud


MAX_ITERATIONS = 10  # re-matchings, one Gauss-Newton step each
TOLERANCE = 1e-4     # step norm (m, rad) that ends the loop as converged


@dataclass
class RegistrationDiagnostics:
    loss_trace: list = field(default_factory=list)
    match_counts: list = field(default_factory=list)
    outer_iterations: int = 0
    converged: bool = False


class RegistrationError(RuntimeError):
    def __init__(self, message: str, pose: Pose):
        super().__init__(message)
        self.pose = pose


def register(
    source: PreprocessedCloud,
    target: PreprocessedCloud,
    init: Pose = Pose.identity(),
    max_match_dist: float = 1.0,
    weights: LossWeights = LossWeights(),
):
    """Estimate the pose aligning source onto target; returns (Pose, diagnostics).

    Raises RegistrationError, whose .pose is the pose to fall back to: the
    identity when `init` is not finite, `init` when the first matching is
    empty or the result is not finite.
    """
    p = init.as_vector()
    if not np.isfinite(p).all():
        raise RegistrationError("non-finite initial pose", Pose.identity())
    index = build_index(target)
    diag = RegistrationDiagnostics()
    sqrt_alpha, sqrt_lam = np.sqrt(weights.alpha), np.sqrt(weights.lam)

    def stacked(rows1, rows2):
        """Point-to-plane rows weighted by sqrt(alpha) over normal rows by sqrt(lambda)."""
        if sqrt_lam > 0:
            return np.concatenate([sqrt_alpha * rows1, sqrt_lam * rows2])
        return sqrt_alpha * rows1

    def cost(p):
        """Squared weighted residual under the current matches, no Jacobian."""
        r = stacked(*residual_values(p, source, corr))
        return float(r @ r)

    for iteration in range(MAX_ITERATIONS):
        diag.outer_iterations = iteration + 1
        try:
            corr = match_nearest(transformed_cloud(source, Pose.from_vector(p)),
                                 index, max_dist=max_match_dist)
        except EmptyMatchError as exc:
            if iteration == 0:
                raise RegistrationError(str(exc), init) from exc
            break
        diag.match_counts.append(len(corr))
        r1, J1, r2, J2 = residuals(p, source, corr)
        r, J = stacked(r1, r2), stacked(J1, J2)
        cost_p = float(r @ r)
        step = np.linalg.solve(J.T @ J + 1e-9 * np.eye(6), -(J.T @ r))
        for _ in range(12):
            if cost(p + step) < cost_p:
                p = p + step
                break
            step = 0.5 * step
        diag.loss_trace.append(loss_at_pose(p, source, corr, weights))
        if np.linalg.norm(step) < TOLERANCE:
            diag.converged = True
            break
    if not np.isfinite(p).all():
        raise RegistrationError("registration produced a non-finite pose", init)
    return Pose.from_vector(p), diag
