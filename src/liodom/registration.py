"""Classical frame-to-frame registration by minimizing the unsupervised loss.

Gauss-Newton on the residuals of `matching.residuals`: the point-to-plane
rows weighted by sqrt(alpha) and the normal rows by sqrt(lambda), so the
squared cost is the loss with the absolute value replaced by a square. A
halving line search keeps each step downhill; the absolute-value loss is
used only for reporting. Outer iterations re-match, inner iterations
descend under a fixed matching.
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
    residuals,
    transformed_cloud,
)
from .preprocess import PreprocessedCloud


@dataclass(frozen=True)
class RegistrationOptions:
    max_outer: int = 10
    max_inner: int = 5
    tolerance: float = 1e-6
    max_match_dist: float = 1.0
    weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("iteration bounds must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


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
    opts: RegistrationOptions = RegistrationOptions(),
):
    """Estimate the pose aligning source onto target; returns (Pose, diagnostics)."""
    index = build_index(target)
    p = init.as_vector()
    diag = RegistrationDiagnostics()
    sqrt_alpha, sqrt_lam = np.sqrt(opts.weights.alpha), np.sqrt(opts.weights.lam)

    def weighted(p):
        """Stacked weighted residual and Jacobian under the current matches."""
        r1, J1, r2, J2 = residuals(p, source, corr)
        if sqrt_lam > 0:
            return (np.concatenate([sqrt_alpha * r1, sqrt_lam * r2]),
                    np.vstack([sqrt_alpha * J1, sqrt_lam * J2]))
        return sqrt_alpha * r1, sqrt_alpha * J1

    for outer in range(opts.max_outer):
        diag.outer_iterations = outer + 1
        try:
            corr = match_nearest(transformed_cloud(source, Pose.from_vector(p)),
                                 index, max_dist=opts.max_match_dist)
        except EmptyMatchError as exc:
            if outer == 0:
                raise RegistrationError(str(exc), init) from exc
            break
        diag.match_counts.append(len(corr))
        moved_outer = False
        for _ in range(opts.max_inner):
            r, J = weighted(p)
            A = J.T @ J + 1e-9 * np.eye(6)
            delta = np.linalg.solve(A, -(J.T @ r))
            cost = float(r @ r)
            step = 1.0
            for _ in range(12):
                candidate = p + step * delta
                r_c, _ = weighted(candidate)
                if float(r_c @ r_c) < cost:
                    break
                step *= 0.5
            else:
                break
            p = p + step * delta
            moved_outer = True
            if np.linalg.norm(step * delta) < opts.tolerance:
                break
        diag.loss_trace.append(loss_at_pose(p, source, corr, opts.weights))
        if not moved_outer:
            diag.converged = True
            break
    return Pose.from_vector(p), diag
