"""The two pieces of the Schrodinger-like map that the solver uses.

The substitution psi = exp(U/2D) W turns the density equation into
d(psi)/dt = D psi'' + Ubar psi with the effective potential

    Ubar = (D/2) U'' - (1/4) (U')^2 + (1/2) dU/dt.

The cascade consumes Ubar order by order in lam,

    Ubar_n = (D/2) U_n'' + (1/2) dU_n/dt - (1/4) sum_{j+k=n} U_j' U_k',

and assembly subtracts the exponent U/2D to map the action back onto W.
"""

import numpy as np

from .errors import TransformOverflowError
from .model import DriftSpec

# |exponent| above this would overflow/underflow exp() in double precision
_EXP_LIMIT = 700.0


def effective_potential_order(drift: DriftSpec, d_coeff: float, n: int, x, t):
    """Coefficient of lam^n in Ubar; zero beyond 2*max_order (the U'^2 reach)."""
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    if n > 2 * drift.max_order:
        return np.zeros_like(x)
    acc = 0.5 * d_coeff * drift.term(n).d2u_dx2(x, t) + 0.5 * drift.term(n).du_dt(x, t)
    conv = np.zeros_like(x)
    for j in range(0, n + 1):
        k = n - j
        if j <= drift.max_order and k <= drift.max_order:
            conv = conv + drift.term(j).du_dx(x, t) * drift.term(k).du_dx(x, t)
    return acc - 0.25 * conv


def potential_exponent(drift: DriftSpec, d_coeff: float, lam: float, grid):
    """U/2D on the whole grid; raises TransformOverflowError naming the first
    node where exp() of it would leave the double range."""
    expo = drift.u_total(np.broadcast_to(grid.x, (grid.nt, grid.nx)), grid.t[:, None], lam)
    expo /= 2.0 * d_coeff
    bad = np.argwhere(np.abs(expo) > _EXP_LIMIT)
    if bad.size:
        j, i = bad[0]
        raise TransformOverflowError(
            f"U/2D = {expo[j, i]:.3e} exceeds the exp() range at node "
            f"(t={grid.t[j]:.6g}, x={grid.x[i]:.6g}); shrink the domain or lam"
        )
    return expo
