"""The two pieces of the Schrodinger-like map that the solver uses.

The substitution psi = exp(U/2D) W turns the density equation into
d(psi)/dt = D psi'' + Ubar psi with the effective potential

    Ubar = (D/2) U'' - (1/4) (U')^2 + (1/2) dU/dt.

With U = lam U_1 the cascade consumes Ubar order by order in lam,

    Ubar_1 = (D/2) U_1'' + (1/2) dU_1/dt,      Ubar_2 = -(1/4) U_1'^2,

zero at every other order, and assembly subtracts the exponent U/2D to map
the action back onto W.
"""

import numpy as np

from .model import DriftSpec


def effective_potential_order(drift: DriftSpec, d_coeff: float, n: int, x, t):
    """Coefficient Ubar_n of lam^n in Ubar, shaped like x broadcast against
    t; nonzero only at n = 1 and 2.  The result may be a read-only view."""
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    vals = 0.0
    if n == 1:
        vals = 0.5 * d_coeff * drift.d2u_dx2(x, t) + 0.5 * drift.du_dt(x, t)
    elif n == 2:
        du = drift.du_dx(x, t)
        vals = -0.25 * (du * du)
    return np.broadcast_to(vals, np.broadcast_shapes(x.shape, np.shape(vals)))


def potential_exponent(drift: DriftSpec, d_coeff: float, lam: float, grid, rows=slice(None)):
    """U/2D on the time slices ``rows`` of the grid (a slice; every slice by
    default); an inf where the divide overflows."""
    t = grid.t[rows]
    expo = np.multiply(drift.u(grid.x, t[:, None]), lam, out=np.empty((len(t), grid.nx)))
    with np.errstate(over="ignore"):  # assembly rejects what an inf leads to
        expo /= 2.0 * d_coeff
    return expo
