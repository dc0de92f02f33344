"""Tests for the built-in validation suites."""

import importlib

from barrierwaves.validate import SuiteResult, run_suites

greens_module = importlib.import_module("barrierwaves.greens")


def test_all_suites_pass():
    results = run_suites()
    assert len(results) == 8
    assert all(isinstance(r, SuiteResult) for r in results)
    assert all(r.passed for r in results), [
        (r.name, r.max_residual, r.tolerance) for r in results if not r.passed
    ]
    names = [r.name for r in results]
    assert len(set(names)) == len(names)


def test_residuals_are_meaningful():
    results = run_suites()
    for r in results:
        assert 0.0 <= r.max_residual < r.tolerance
        assert r.max_residual > 0.0 or r.name == "geometry"


def test_fault_injection_is_detected():
    # Flipping the sign of the reflected propagator term breaks the
    # boundary conditions; the suites that probe them must notice.
    signs = greens_module._SIGNS
    kind = greens_module.BoundaryKind.DIRICHLET
    original = signs[kind]
    signs[kind] = -original
    try:
        results = {r.name: r for r in run_suites()}
    finally:
        signs[kind] = original
    failed = {name for name, r in results.items() if not r.passed}
    assert "propagator-boundary" in failed
    assert "propagator-pde" in failed
    assert "quadrature-stationary" in failed
    # and the tampering does not leak past the restore
    assert all(r.passed for r in run_suites())


def test_perturbed_grid_faddeeva_coefficient_is_detected(monkeypatch):
    # the special-functions suite checks the evaluator every node grid runs,
    # not only the SciPy reference
    coeffs = list(greens_module._WEIDEMAN_COEFFS)
    coeffs[-1] *= 1.0 + 1e-6
    monkeypatch.setattr(greens_module, "_WEIDEMAN_COEFFS", tuple(coeffs))
    results = {r.name: r for r in run_suites()}
    assert not results["special-functions"].passed
