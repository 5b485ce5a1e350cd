"""Small dense nonlinear least squares in numpy.

Levenberg-Marquardt (Nocedal & Wright, *Numerical Optimization*, 2nd ed.,
section 10.3) with Marquardt's diagonal scaling kept nondecreasing as in
More's MINPACK design.  The caller supplies one callable that returns the
residuals and the Jacobian at a point together, so a model computes the
subexpressions the two share once per trial point.  Box bounds are handled
by an active set: a parameter on a bound whose gradient points outward
stays fixed for that step, and the step is projected back into the box.
Sized for the package's fits: a few parameters, tens of residuals, where
each iteration's small numpy calls cost more than its arithmetic.  So the
loop builds an index set only while a parameter sits on a bound, adds the
damping to the diagonal in place, and skips the active set and the
clipping when the caller gives no bounds; each of these keeps every result
bit for bit.  The covariance inverts the column-scaled J^T J through its
Cholesky factor, and through the pseudo-inverse only when that factor does
not exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# trial steps per solve; the package's fits take at most about 50
_MAX_ITER = 200
# converged when the next scaled step is this small relative to the scaled
# parameters, or when a step the box does not cut would lower the cost by
# this fraction at most (cost differences that small are rounding)
_XTOL = 1e-12
_FTOL = 1e-15


class FitError(RuntimeError):
    """A least-squares fit failed to converge or is ill-posed."""


@dataclass(frozen=True, eq=False)
class Solution:
    x: np.ndarray
    cost: float  # |r(x)|^2 / 2
    jac: np.ndarray  # Jacobian at x
    iterations: int
    converged: bool

    def covariance(self) -> np.ndarray:
        """s^2 (J^T J)^-1 with s^2 = |r|^2 / (m - n).  J^T J is inverted with
        unit-norm columns, so a parameter near 1e6 beside one near 0.03 keeps
        its variance.  The inverse is L^-T L^-1 from the Cholesky factor L of
        the scaled matrix; a matrix that is not numerically positive definite
        (a Jacobian of rank below n) falls back to the pseudo-inverse."""
        m, n = self.jac.shape
        s2 = 2.0 * self.cost / max(m - n, 1)
        A = self.jac.T @ self.jac
        d = np.sqrt(np.diag(A))
        d = np.where(d > 0, d, 1.0)
        outer = np.outer(d, d)
        try:
            inv_l = np.linalg.inv(np.linalg.cholesky(A / outer))
            inv = inv_l.T @ inv_l
        except np.linalg.LinAlgError:
            inv = np.linalg.pinv(A / outer)
        return s2 * inv / outer


def least_squares(
    fun_jac: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0,
    lower=None,
    upper=None,
) -> Solution:
    """Minimize |r(x)|^2 / 2 from x0 within lower <= x <= upper, where
    ``fun_jac(x)`` returns (r(x), the Jacobian of r at x).

    Returns unconverged after ``_MAX_ITER`` trial steps; each caller turns
    that into a FitError naming its fit.
    """
    x = np.array(x0, dtype=float)
    n = x.size
    bounded = lower is not None or upper is not None
    if bounded:
        lo = np.full(n, -np.inf) if lower is None else np.asarray(lower, dtype=float)
        hi = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
        x = np.minimum(np.maximum(x, lo), hi)
    r, J = fun_jac(x)
    cost = 0.5 * float(r @ r)
    scale = np.zeros(n)
    lam, nu = 1e-3, 2.0
    for it in range(1, _MAX_ITER + 1):
        g = J.T @ r
        A = J.T @ J
        scale = np.maximum(scale, np.sqrt(A.diagonal()))
        d = scale if scale.all() else np.where(scale > 0, scale, 1.0)
        # every parameter is free unless one sits on a bound: only then is an
        # active set formed, and only an active bound indexes a sub-problem
        idx = None
        if bounded and ((x <= lo) | (x >= hi)).any():
            free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
            idx = None if free.all() else np.flatnonzero(free)
        gi, di, Ai = (g, d, A) if idx is None else (g[idx], d[idx], A[idx][:, idx])
        if cost == 0.0 or not gi.any():
            return Solution(x, cost, J, it - 1, True)
        M = Ai / (di[:, None] * di)
        M.flat[:: di.size + 1] += lam
        step = _solve(M, -gi / di) / di
        if idx is not None:  # the parameters held on a bound take no step
            step, free_step = np.zeros(n), step
            step[idx] = free_step
        trial = x + step
        x_new = np.minimum(np.maximum(trial, lo), hi) if bounded else trial
        clipped = bounded and bool((x_new != trial).any())
        # not the solved step: (x + step) - x can differ from step in its last bit
        step = x_new - x
        predicted = -(g @ step + 0.5 * step @ A @ step)
        ds, dx = d * step, d * x
        if math.sqrt(ds @ ds) <= _XTOL * (math.sqrt(dx @ dx) + _XTOL) or (
            not clipped and predicted <= _FTOL * cost
        ):
            return Solution(x, cost, J, it, True)
        r_new, J_new = fun_jac(x_new)
        cost_new = 0.5 * float(r_new @ r_new)
        if predicted > 0 and cost_new < cost:
            rho = (cost - cost_new) / predicted
            x, r, J, cost = x_new, r_new, J_new, cost_new
            # Nielsen's damping update: shrink by at most 3 on a good step
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
        else:
            lam *= nu
            nu *= 2.0
    return Solution(x, cost, J, _MAX_ITER, False)


def _solve(M, b) -> np.ndarray:
    """M z = b for the damped normal matrix, which is singular only when
    the damping has shrunk below rounding on a rank-deficient Jacobian."""
    try:
        return np.linalg.solve(M, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(M, b, rcond=None)[0]
