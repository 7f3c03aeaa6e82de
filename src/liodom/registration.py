"""Classical frame-to-frame registration by minimizing the unsupervised loss.

One ICP loop: each iteration re-matches at the current pose and takes one
Gauss-Newton step on the 6x6 normal equations of `matching.residuals`, the
point-to-plane block weighted by alpha and the plane-to-plane block by
lambda, so the squared cost is the loss with the absolute value replaced by
a square. A halving line search keeps each step downhill and evaluates only
the residual values; the absolute-value loss is used only for reporting.
The loop has converged when the norm of the step, the last one tried if
the line search takes none, falls below TOLERANCE. A matching that cannot
fix a pose, empty or with fewer pairs than the pose's POSE_DOF degrees of
freedom, raises EmptyMatchError at any iteration.
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
POSE_DOF = 6         # fewer matches than this cannot fix a pose


@dataclass
class RegistrationDiagnostics:
    loss_trace: list = field(default_factory=list)
    match_counts: list = field(default_factory=list)
    outer_iterations: int = 0
    converged: bool = False


def register(
    source: PreprocessedCloud,
    target: PreprocessedCloud,
    init: Pose = Pose.identity(),
    max_match_dist: float = 1.0,
    weights: LossWeights = LossWeights(),
):
    """Estimate the pose aligning source onto target; returns (Pose, diagnostics).

    Raises EmptyMatchError when the target is empty, or when any matching
    is empty or has fewer than POSE_DOF pairs; FloatingPointError when
    `init` or the result is not finite.
    """
    p = init.as_vector()
    if not np.isfinite(p).all():
        raise FloatingPointError("non-finite initial pose")
    index = build_index(target)
    diag = RegistrationDiagnostics()
    alpha, lam = weights.alpha, weights.lam

    def cost(r1, r2):
        """The loss with its absolute value replaced by a square."""
        return float(alpha * (r1 @ r1) + lam * (r2 @ r2))

    for iteration in range(MAX_ITERATIONS):
        diag.outer_iterations = iteration + 1
        corr = match_nearest(transformed_cloud(source, Pose.from_vector(p)),
                             index, max_dist=max_match_dist)
        if len(corr) < POSE_DOF:
            raise EmptyMatchError(f"{len(corr)} matches cannot fix the pose's "
                                  f"{POSE_DOF} degrees of freedom")
        diag.match_counts.append(len(corr))
        r1, J1, r2, H2, g2 = residuals(p, source, corr)
        cost_p = cost(r1, r2)
        step = np.linalg.solve(alpha * (J1.T @ J1) + lam * H2 + 1e-9 * np.eye(6),
                               -(alpha * (J1.T @ r1) + lam * g2))
        for _ in range(12):
            if cost(*residual_values(p + step, source, corr)) < cost_p:
                p = p + step
                break
            step = 0.5 * step
        diag.loss_trace.append(loss_at_pose(p, source, corr, weights))
        if np.linalg.norm(step) < TOLERANCE:
            diag.converged = True
            break
    if not np.isfinite(p).all():
        raise FloatingPointError("registration produced a non-finite pose")
    return Pose.from_vector(p), diag
