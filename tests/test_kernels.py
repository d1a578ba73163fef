import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg.lapack import dgtsv

import fpcascade.kernels as K


def _lapack_solve(lower, diag, upper, rhs):
    _, _, _, sol, info = dgtsv(lower, diag, upper, rhs)
    assert info == 0
    return sol


def _cascade_step_loop(x, tm, d_coeff, dt, dx, s_in, qbar):
    """The cascade CN step with its band assembled one row at a time."""
    n = x.shape[0]
    m = n - 2
    alpha = d_coeff * dt / (2.0 * dx * dx)
    lower, diag, upper, rhs = np.empty(m - 1), np.empty(m), np.empty(m - 1), np.empty(m)
    for i in range(1, n - 1):
        beta_i = (-x[i] / tm) * dt / (4.0 * dx)
        rhs[i - 1] = (
            (alpha - beta_i) * s_in[i - 1]
            + (1.0 - 2.0 * alpha) * s_in[i]
            + (alpha + beta_i) * s_in[i + 1]
            + dt * qbar[i]
        )
        diag[i - 1] = 1.0 + 2.0 * alpha
        if i > 1:
            lower[i - 2] = -(alpha - beta_i)
        if i < n - 2:
            upper[i - 1] = -(alpha + beta_i)
    # the extrapolated boundary unknowns folded into the edge rows
    beta_1 = (-x[1] / tm) * dt / (4.0 * dx)
    beta_r = (-x[n - 2] / tm) * dt / (4.0 * dx)
    diag[0] = 1.0 + 2.0 * beta_1
    upper[0] = -2.0 * beta_1
    diag[m - 1] = 1.0 - 2.0 * beta_r
    lower[m - 2] = 2.0 * beta_r
    sol = _lapack_solve(lower, diag, upper, rhs)
    s_out = np.empty(n)
    s_out[1:-1] = sol
    s_out[0] = 2.0 * sol[0] - sol[1]
    s_out[n - 1] = 2.0 * sol[m - 1] - sol[m - 2]
    return s_out


def _fp_step_loop(a_half, d_coeff, dt, dx, w_in, mass_weight=1.0):
    """The compact-flux FP CN step with its band assembled one row at a time,
    in the kernel's operation order."""
    n = w_in.shape[0]
    m = n - 2
    c = d_coeff * dt / (2.0 * dx * dx)

    def interface(a):  # (pr, qr, rl, sl) of one interface; see kernels.fp_band
        p = a * (dx / d_coeff)
        pc = p if abs(p) < 2.0 else 0.0
        q = 12.0 - pc * pc
        k = mass_weight / (12.0 * q) if abs(p) < 2.0 else 0.0
        mw, n6 = k * (2.0 * q - 12.0), (6.0 * k) * pc
        diff, adv = c * (12.0 / q), (0.5 * c) * p
        e, f = diff - adv, diff + adv
        return (mw - n6) + e, (mw - n6) - e, -(mw + n6) - f, -(mw + n6) + f

    lower, diag, upper, rhs = np.empty(m - 1), np.empty(m), np.empty(m - 1), np.empty(m)
    for i in range(1, n - 1):
        pr_l, qr_l, rl_l, sl_l = interface(a_half[i - 1])
        pr_r, qr_r, rl_r, sl_r = interface(a_half[i])
        diag[i - 1] = 1.0 + sl_r - qr_l
        if i < n - 2:
            upper[i - 1] = qr_r
        if i > 1:
            lower[i - 2] = -sl_l
        rhs[i - 1] = -rl_l * w_in[i - 1] + (1.0 + rl_r - pr_l) * w_in[i] + pr_r * w_in[i + 1]
    w_out = np.zeros(n)
    w_out[1:-1] = _lapack_solve(lower, diag, upper, rhs)
    return w_out


def _compact_matrices(a_half, d_coeff, dx, mass_weight=1.0):
    """The compact scheme's mass matrix M and flux operator L on the interior
    nodes, dense, from the interface weights d, s and D_f of its derivation."""
    n = len(a_half) + 1
    mass, op = np.zeros((n, n)), np.zeros((n, n))
    for k, a in enumerate(a_half):  # interface k + 1/2, between nodes k and k + 1
        p = a * dx / d_coeff
        alpha = beta = 0.0
        d_f = d_coeff
        if abs(p) < 2.0:
            d = -p / (12.0 - p * p)
            s = (12.0 - 2.0 * p * p) / (6.0 * (12.0 - p * p))
            alpha, beta = mass_weight * (s + d) / 2.0, -mass_weight * (s - d) / 2.0
            d_f = 12.0 * d_coeff / (12.0 - p * p)
        # phi = alpha w_(k+1) + beta w_k enters row k with + and row k + 1 with -;
        # so does the flux F = D_f (w_(k+1) - w_k) / dx - a (w_k + w_(k+1)) / 2
        for row, sign in ((k, 1.0), (k + 1, -1.0)):
            mass[row, k + 1] += sign * alpha
            mass[row, k] += sign * beta
            op[row, k + 1] += sign * (d_f / dx - a / 2.0) / dx
            op[row, k] += sign * (-d_f / dx - a / 2.0) / dx
    mass += np.eye(n)
    return mass[1:-1, 1:-1], op[1:-1, 1:-1]


def _bits(a):
    return a.view(np.uint64)


class TestTridiag:
    def test_solves_reference_system(self):
        # the second system has a near-zero diagonal; elimination without row
        # interchanges leaves a residual near 1e-8 and an error near 1e-6 on it
        for scale, shift in ((1.0, 4.0), (1e-9, 0.0)):
            rng = np.random.default_rng(3)
            n = 50
            dl, d, du = rng.normal(size=n - 1), scale * rng.normal(size=n) + shift, rng.normal(size=n - 1)
            x_true = rng.normal(size=n)
            a = np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)
            b = a @ x_true
            x = K.tridiag_solve(dl, d, du, b)
            assert np.abs(a @ x - b).max() <= 1e-13
            assert np.abs(x - x_true).max() <= 1e-15 * np.linalg.cond(a)

    def test_singular_raises(self):
        with pytest.raises(ZeroDivisionError):
            K.tridiag_solve(np.zeros(2), np.zeros(3), np.zeros(2), np.ones(3))

    def test_cli_import_skips_scipy_linalg_and_solves_as_scipy_does(self):
        # the start-up cost kernels.py avoids: scipy.linalg's __init__; then
        # scipy's public dgtsv, imported afterwards, solves the pivoting
        # system of test_solves_reference_system with the same bits
        script = textwrap.dedent("""
            import sys
            import numpy as np
            import fpcascade.cli
            import fpcascade.kernels as K
            assert "scipy.linalg" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
            from scipy.linalg.lapack import dgtsv
            rng = np.random.default_rng(3)
            n = 50
            dl, d, du = rng.normal(size=n - 1), 1e-9 * rng.normal(size=n), rng.normal(size=n - 1)
            b = (np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)) @ rng.normal(size=n)
            *_, x_ref, info = dgtsv(dl, d, du, b)
            assert info == 0
            assert np.array_equal(K.tridiag_solve(dl, d, du, b).view(np.uint64), x_ref.view(np.uint64))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(K.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_missing_lapack_extension_names_the_directory(self, tmp_path, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(K, "find_spec", lambda name: SimpleNamespace(submodule_search_locations=[str(tmp_path)]))
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
            K._load_flapack()


class TestStepKernels:
    def test_cascade_step_matches_loop_oracle_bitwise(self):
        # small tm makes the early steps advection-dominated (|beta| >> alpha)
        x = np.linspace(-10, 10, 801)
        dx = x[1] - x[0]
        s = np.sin(x) + 0.1 * x * x
        q = np.cos(x)
        for tm in (0.0105, 0.05, 0.5, 3.0):
            for dt in (0.01, 0.002):
                band = K.cascade_band(x, tm, 1.0, dt, dx)
                out = K.cascade_cn_step(s, band, dt * q, np.empty_like(x))
                assert np.array_equal(_bits(out), _bits(_cascade_step_loop(x, tm, 1.0, dt, dx, s, q)))

    def test_fp_step_matches_loop_oracle_bitwise(self):
        x = np.linspace(-10, 10, 801)
        dx = x[1] - x[0]
        w = np.exp(-x * x)
        w[0] = w[-1] = 0.0
        # lam = 2 puts the cell Peclet number |lam x| dx / D past 2 beyond |x| = 40
        for lam in (0.0, -0.1, 0.3, 2.0):
            a_half = -lam * (x[:-1] + dx / 2)
            # a step shorter than h_min = dx^2 / (6 D) scales the mass weights by dt / h_min
            h_min = K.FD_MIN_STEP * dx * dx  # at D = 1
            for dt in (1e-3, 0.4 * h_min):
                out = K.fp_cn_step(w, K.fp_band(a_half, 1.0, dt, dx), np.empty_like(x))
                expected = _fp_step_loop(a_half, 1.0, dt, dx, w, min(1.0, dt / h_min))
                assert np.array_equal(_bits(out), _bits(expected))

    @pytest.mark.parametrize("lam", [0.0, -0.3, 0.7, 3.0])
    @pytest.mark.parametrize("mass_weight", [1.0, 0.25])
    def test_fp_band_is_the_compact_scheme(self, lam, mass_weight):
        # the band's implicit and explicit matrices are M -+ dt/2 L, built
        # densely from the d, s, D_f weights; at lam = 3 the cell Peclet
        # number passes 2 beyond |x| = 1.33, where the plain flux takes over;
        # a step mass_weight times dx^2 / (6 D) long scales the mass weights by it
        x = np.linspace(-2.0, 2.0, 41)
        dx = x[1] - x[0]
        dt = 0.01 if mass_weight == 1.0 else mass_weight * (K.FD_MIN_STEP * dx * dx / 0.5)
        a_half = -lam * (x[:-1] + dx / 2)
        lower, diag, upper, left, center, right = K.fp_band(a_half, 0.5, dt, dx)
        mass, op = _compact_matrices(a_half, 0.5, dx, mass_weight)
        implicit = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        explicit = np.diag(center) + np.diag(left[1:], -1) + np.diag(right[:-1], 1)
        np.testing.assert_allclose(implicit, mass - dt / 2.0 * op, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(explicit, mass + dt / 2.0 * op, rtol=0.0, atol=1e-13)
        # interface weights: every column of M sums to 1 (but the two next to
        # the edges, whose outer weights belong to the absorbed boundary nodes)
        np.testing.assert_allclose(mass.sum(axis=0)[1:-1], 1.0, rtol=0.0, atol=1e-15)
        if lam == 0.0:  # Douglas's (1, 10, 1) / 12 at P = 0
            np.testing.assert_allclose(np.diag(mass), 1.0 - mass_weight / 6.0, rtol=1e-15)
            np.testing.assert_allclose(np.diag(mass, 1), mass_weight / 12.0, rtol=1e-15)

    def test_fp_band_is_fourth_order_for_constant_coefficients(self):
        # M^-1 L applied to a Fourier mode exp(i k x) against the exact
        # -D k^2 - i a k: the error falls 16x per halving of dx
        errors = []
        for n in (41, 81, 161):
            x = np.linspace(0.0, 2.0 * np.pi, n)
            dx = x[1] - x[0]
            mass, op = _compact_matrices(np.full(n - 1, 0.8), 0.5, dx)
            mode = np.exp(2j * x[1:-1])
            row = n // 2 - 1  # far from the edges
            rate = np.linalg.solve(mass, op @ mode)[row] / mode[row]
            errors.append(abs(rate - (-0.5 * 4.0 - 0.8j * 2.0)))
        assert errors[0] / errors[1] >= 15.0 and errors[1] / errors[2] >= 15.0, errors

    def test_fp_step_conserves_interior_flux_balance(self):
        # with zero drift and symmetric data the step keeps symmetry
        x = np.linspace(-8, 8, 401)
        dx = x[1] - x[0]
        w = np.exp(-x * x)
        w[0] = w[-1] = 0.0
        out = np.empty_like(x)
        K.fp_cn_step(w, K.fp_band(np.zeros(len(x) - 1), 1.0, 1e-3, dx), out)
        assert np.allclose(out, out[::-1], atol=1e-15)

