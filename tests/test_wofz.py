"""The grid kernel's Faddeeva evaluator, ``greens.wofz``.

It is Weideman's rational approximation with N = 40 terms.  The references
are a 40-digit mpmath value, ``scipy.special.wofz`` (which also backs
``complexfn.erfcx``), and the FFT recipe of Weideman's paper for the
coefficients.
"""

import importlib
import math

import numpy as np
import pytest
from scipy import special

from barrierwaves.geometry import PHI_MAX, PHI_MIN, PolarPoint

greens_module = importlib.import_module("barrierwaves.greens")


def _weideman(v):
    """greens.wofz on a copy of ``v`` (it overwrites its argument)."""
    v = np.array(v, dtype=complex)
    out = np.empty((2,) + v.shape, dtype=complex)
    greens_module.wofz(v, out)
    return out[0]


def _upper_half_plane(seed, n_random, n_axis):
    """Log-uniform |v| in [1e-6, 1e4]: random angles in [0, pi], plus
    ``n_axis`` points on each of the positive real, negative real and
    positive imaginary half-axes."""
    rng = np.random.default_rng(seed)
    mag = 10.0 ** rng.uniform(-6.0, 4.0, (4, max(n_random, n_axis)))
    return np.concatenate([
        mag[0, :n_random] * np.exp(1j * rng.uniform(0.0, math.pi, n_random)),
        mag[1, :n_axis], -mag[2, :n_axis], 1j * mag[3, :n_axis],
    ])


def _max_rel_err(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


def test_matches_40_digit_reference():
    mpmath = pytest.importorskip("mpmath")
    v = _upper_half_plane(1, 2000, 200)
    with mpmath.workdps(40):
        want = np.array([
            complex(mpmath.exp(-q * q) * mpmath.erfc(-1j * q))
            for q in (mpmath.mpc(p.real, p.imag) for p in v)
        ])
    assert _max_rel_err(_weideman(v), want) <= 2e-15


def test_matches_scipy_wofz():
    v = _upper_half_plane(2, 20000, 2000)
    assert _max_rel_err(_weideman(v), special.wofz(v)) <= 1.5e-14


def test_coefficients_follow_the_fft_recipe():
    N = 40
    L = math.sqrt(N / math.sqrt(2.0))
    M = 2 * N
    k = np.arange(1 - M, M)
    s = L * np.tan(k * math.pi / (2 * M))
    f = np.concatenate([[0.0], np.exp(-s * s) * (L * L + s * s)])
    a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * M)
    want = a[1:N + 1][::-1]
    got = np.array(greens_module._WEIDEMAN_COEFFS)
    assert greens_module._WEIDEMAN_N == N
    assert greens_module._WEIDEMAN_L == L
    np.testing.assert_allclose(got, want, rtol=0, atol=np.finfo(float).eps * np.abs(want).max())


def _scipy_wofz(v, out):
    out[0] = special.wofz(v)
    return out[0]


# On real radii every argument v = i*w1 lies on the diagonal arg(v) = pi/4,
# where scipy.special.wofz itself errs by up to 1.1e-14 (against mpmath),
# so the reference is held to 2e-14 there.
@pytest.mark.parametrize("alpha, tol", [(0.0, 2e-14), (math.pi / 4, 1e-14), (1.4, 1e-14)])
def test_kernel_grid_matches_scipy_built_kernel(monkeypatch, alpha, tol):
    rng = np.random.default_rng(4)
    for _ in range(12):
        t = rng.uniform(0.3, 3.0)
        x = PolarPoint(rng.uniform(0.05, 4.0), rng.uniform(PHI_MIN, PHI_MAX))
        z = (rng.uniform(0.0, 25.0, 40) * complex(math.cos(alpha), math.sin(alpha)))[:, None]
        theta = rng.uniform(PHI_MIN, PHI_MAX, 30)[None, :]
        with np.errstate(under="ignore"):
            got = greens_module._kernel_grid(t, x.r, x.phi, z, theta)
            with monkeypatch.context() as m:
                m.setattr(greens_module, "wofz", _scipy_wofz)
                want = greens_module._kernel_grid(t, x.r, x.phi, z, theta)
        assert np.isfinite(want).all() and (want != 0).all()
        assert _max_rel_err(got, want) <= tol
