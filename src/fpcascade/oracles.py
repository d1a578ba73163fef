"""Closed-form ground truth for the three solvable drift families.

Every function here is a direct transcription of an exact formula and does no
numerical integration, so these serve as independent references for the
cascade solver and for the finite-difference / Monte Carlo back ends.

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


def example1_s1(x, t, v: ModulationV):
    """First-order action for the drift x*V(t): S1 = (x/2) V - (x/2t) Vbar."""
    x = np.asarray(x, dtype=float)
    return 0.5 * x * v.value(t) - (x / (2.0 * t)) * v.antiderivative(t)


def example1_s2(x, t, v: ModulationV):
    """Second-order action for the drift x*V(t): S2 = -Vbar^2 / 4t (constant in x)."""
    vbar = v.antiderivative(t)
    return -(vbar * vbar) / (4.0 * t) * np.ones_like(np.asarray(x, dtype=float))


def example1_action(n, x, t, v: ModulationV):
    """Action term S_n, n >= 1, for the drift x*V(t): S1, S2, then zero."""
    if n == 1:
        return example1_s1(x, t, v)
    if n == 2:
        return example1_s2(x, t, v)
    return np.zeros_like(np.asarray(x, dtype=float))


def example1_density_exact(x, t, d_coeff, lam, v: ModulationV):
    """Exact density for the drift lam*x*V(t): the heat kernel shifted by lam*Vbar(t)."""
    x = np.asarray(x, dtype=float)
    return w0_diffusion(x + lam * v.antiderivative(t), t, d_coeff)


def ou_s1(t, d_coeff):
    """First-order action for the quadratic drift x^2/2: S1 = D t / 2."""
    return 0.5 * d_coeff * np.asarray(t, dtype=float)


def ou_s2(x, t, d_coeff):
    """Second-order action for the quadratic drift: S2 = -D t^2/12 - x^2 t/12,
    term by term (ou_action evaluates it with the other even orders)."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    return -d_coeff * t * t / 12.0 - x * x * t / 12.0


# S_2k = c_k t^(2k-1) (D t + k x^2) for the quadratic drift, with
# c_k = -B_2k 4^(k-1) / (k (2k)!) (B_2k the Bernoulli numbers), from the
# series in lam of the exact action; the odd orders beyond S_1 vanish
_OU_EVEN_COEFFS = {2: -1.0 / 12.0, 4: 1.0 / 360.0, 6: -1.0 / 5670.0, 8: 1.0 / 75600.0}


def ou_action(n, x, t, d_coeff):
    """Action term S_n, n = 1..8, for the quadratic drift."""
    x = np.asarray(x, dtype=float)
    if n == 1:
        return ou_s1(t, d_coeff) * np.ones_like(x)
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


def ou_density_exact(x, t, d_coeff, lam):
    """Exact density of the linearly restoring process with drift -lam*x: the
    heat kernel at time ou_time(t, lam).

    The lam = 0 limit is the heat kernel; callers must use w0_diffusion there.
    """
    if lam == 0.0:
        raise ValueError("lam = 0 has no closed form here; use w0_diffusion")
    return w0_diffusion(x, ou_time(t, lam), d_coeff)


def resummation_factor(lam, t):
    """1 + lam t + lam^2 t^2 / 3, the resummed width correction (always > 0 for real lam t)."""
    u = lam * t
    return 1.0 + u + u * u / 3.0


def ou_density_pert(x, t, d_coeff, lam):
    """Resummed second-order density for the quadratic drift.

    W = sqrt(f / (4 pi D t)) exp(-(x^2 / 4Dt) f) with f = 1 + lam t + lam^2 t^2/3.
    At lam = 0 this dispatches to the heat kernel so the limit is exact.
    """
    if lam == 0.0:
        return w0_diffusion(x, t, d_coeff)
    f = resummation_factor(lam, t)
    if not np.all(f > 0.0):
        raise ValueError("non-positive resummation factor: lam*t far outside the perturbative regime")
    x = np.asarray(x, dtype=float)
    return np.sqrt(f / (4.0 * np.pi * d_coeff * t)) * np.exp(-(x * x) / (4.0 * d_coeff * t) * f)


def log_resummation_gap(lam, t):
    """|lam t/2 - lam^2 t^2/12 - (1/2) ln(1 + lam t + lam^2 t^2/3)|.

    The distance between the truncated normalization exponent and its resummed
    logarithm form; vanishes at lam = 0.
    """
    f = resummation_factor(lam, t)
    if not np.all(f > 0.0):
        raise ValueError("non-positive resummation factor")
    u = lam * t
    return np.abs(0.5 * u - u * u / 12.0 - 0.5 * np.log(f))
