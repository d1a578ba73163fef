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


def _fp_step_loop(a_half, d_coeff, dt, dx, w_in):
    """The flux-form FP CN step with its band assembled one row at a time."""
    n = w_in.shape[0]
    m = n - 2
    alpha = d_coeff * dt / (2.0 * dx * dx)
    g = dt / (4.0 * dx)
    lower, diag, upper, rhs = np.empty(m - 1), np.empty(m), np.empty(m - 1), np.empty(m)
    for i in range(1, n - 1):
        ar = a_half[i]
        al = a_half[i - 1]
        diag[i - 1] = 1.0 + 2.0 * alpha + g * (ar - al)
        if i < n - 2:
            upper[i - 1] = -(alpha - g * ar)
        if i > 1:
            lower[i - 2] = -(alpha + g * al)
        rhs[i - 1] = (
            (alpha + g * al) * w_in[i - 1]
            + (1.0 - 2.0 * alpha - g * (ar - al)) * w_in[i]
            + (alpha - g * ar) * w_in[i + 1]
        )
    w_out = np.zeros(n)
    w_out[1:-1] = _lapack_solve(lower, diag, upper, rhs)
    return w_out


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
                (band,) = K.cascade_bands(x, np.array([tm]), 1.0, dt, dx)
                out = K.cascade_cn_step(s, band, dt * q, np.empty_like(x))
                assert np.array_equal(_bits(out), _bits(_cascade_step_loop(x, tm, 1.0, dt, dx, s, q)))

    def test_fp_step_matches_loop_oracle_bitwise(self):
        x = np.linspace(-10, 10, 801)
        dx = x[1] - x[0]
        w = np.exp(-x * x)
        w[0] = w[-1] = 0.0
        for lam in (0.0, -0.1, 0.3):
            a_half = -lam * (x[:-1] + dx / 2)
            out = K.fp_cn_step(w, K.fp_band(a_half, 1.0, 1e-3, dx), np.empty_like(x))
            assert np.array_equal(_bits(out), _bits(_fp_step_loop(a_half, 1.0, 1e-3, dx, w)))

    def test_fp_step_conserves_interior_flux_balance(self):
        # with zero drift and symmetric data the step keeps symmetry
        x = np.linspace(-8, 8, 401)
        dx = x[1] - x[0]
        w = np.exp(-x * x)
        w[0] = w[-1] = 0.0
        out = np.empty_like(x)
        K.fp_cn_step(w, K.fp_band(np.zeros(len(x) - 1), 1.0, 1e-3, dx), out)
        assert np.allclose(out, out[::-1], atol=1e-15)

