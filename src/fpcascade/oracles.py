"""Closed-form ground truth for the three solvable drift families.

Every function here is a direct transcription of an exact formula and does no
numerical integration.  The built-in drift constructors attach the action
terms and the exact density's time to their ``DriftSpec`` (``model``), which
is where the solvers read them.

All functions accept scalars or numpy arrays for ``x`` and ``t``.
"""

from dataclasses import dataclass

import numpy as np

COS = "cos"
SIN = "sin"
CONST = "const"


@dataclass(frozen=True)
class ModulationV:
    """Time modulation V(t) of the linear drift potential x*V(t).

    kind is one of "cos" (V = cos(omega t)), "sin" (V = sin(omega t)) or
    "const" (V = v0).  The antiderivative is fixed by Vbar(0) = 0, which
    renders the first-order action term finite as t -> 0 for every kind.
    """

    kind: str
    omega: float = 1.0
    v0: float = 0.0

    def __post_init__(self):
        if self.kind not in (COS, SIN, CONST):
            raise ValueError(f"unknown modulation kind {self.kind!r}")
        if self.kind in (COS, SIN) and not self.omega > 0:
            raise ValueError("omega must be > 0 for cos/sin modulation")

    def value(self, t):
        """V(t)."""
        if self.kind == COS:
            return np.cos(self.omega * t)
        if self.kind == SIN:
            return np.sin(self.omega * t)
        return self.v0 * np.ones_like(np.asarray(t, dtype=float))

    def derivative(self, t):
        """dV/dt."""
        if self.kind == COS:
            return -self.omega * np.sin(self.omega * t)
        if self.kind == SIN:
            return self.omega * np.cos(self.omega * t)
        return np.zeros_like(np.asarray(t, dtype=float))

    def antiderivative(self, t):
        """Vbar(t), the antiderivative of V with Vbar(0) = 0."""
        if self.kind == COS:
            return np.sin(self.omega * t) / self.omega
        if self.kind == SIN:
            return (1.0 - np.cos(self.omega * t)) / self.omega
        return self.v0 * np.asarray(t, dtype=float)


def w0_diffusion(x, t, d_coeff):
    """Heat kernel (4 pi D t)^(-1/2) exp(-x^2 / 4Dt) for a unit point source at t=0."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # at a tiny D the exponent is -inf, and exp() of it 0
        expo = -(x * x) / (4.0 * d_coeff * t)
    return np.exp(expo) / np.sqrt(4.0 * np.pi * d_coeff * t)


def s0_log_heat_kernel(x, t, d_coeff):
    """Order-0 action S0 = -(D/2) ln(4 pi D t) - x^2/(4t); exp(S0/D) is the heat kernel."""
    x = np.asarray(x, dtype=float)
    return -(d_coeff / 2.0) * np.log(4.0 * np.pi * d_coeff * t) - (x * x) / (4.0 * t)


def example1_action(n, x, t, v: ModulationV):
    """Action term S_n, n >= 1, for the drift x*V(t): S1 = (x/2) V - (x/2t) Vbar,
    S2 = -Vbar^2 / 4t (constant in x), then zero."""
    x = np.asarray(x, dtype=float)
    if n == 1:
        return 0.5 * x * v.value(t) - (x / (2.0 * t)) * v.antiderivative(t)
    if n == 2:
        vbar = v.antiderivative(t)
        return -(vbar * vbar) / (4.0 * t) * np.ones_like(x)
    return np.zeros_like(x)


# S_2k = c_k t^(2k-1) (D t + k x^2) for the quadratic drift, with
# c_k = -B_2k 4^(k-1) / (k (2k)!) (B_2k the Bernoulli numbers), from the
# series in lam of the exact action; the odd orders beyond S_1 vanish
_OU_EVEN_COEFFS = {2: -1.0 / 12.0, 4: 1.0 / 360.0, 6: -1.0 / 5670.0, 8: 1.0 / 75600.0}


def ou_action(n, x, t, d_coeff):
    """Action term S_n, n = 1..8, for the quadratic drift: S_1 = D t / 2, then
    the even orders above."""
    x = np.asarray(x, dtype=float)
    if n == 1:
        return 0.5 * d_coeff * np.asarray(t, dtype=float) * np.ones_like(x)
    if n % 2:
        return np.zeros_like(x)
    # float_power: numpy's vectorized float64 ** can be an ulp off the scalar pow
    return _OU_EVEN_COEFFS[n] * np.float_power(t, n - 1) * (d_coeff * t + (n // 2) * x * x)


def ou_time(t, lam):
    """-expm1(-2 lam t) / (2 lam), lam != 0: the time at which the heat kernel
    is the density of the linearly restoring process with drift -lam*x,
    started from a point.  expm1 keeps it near t as lam t -> 0, where
    1 - exp(-2 lam t) cancels to 0; where 2 lam t is subnormal (below
    2^-1022) it has lost bits to underflow, and the time is t to the last bit."""
    u = 2.0 * lam * np.asarray(t, dtype=float)
    return np.where(np.abs(u) < 2.0 ** -1022, t, -np.expm1(-u) / (2.0 * lam))
