"""Tests for the numerical fiducial search and the discovery pipeline.

The closed-form orbit potential and its gradient are checked against
the dense frame potential and central differences.  Optimizer calls
stay cheap: a handful of restarts at n <= 6, and one 50-restart
discovery at n = 8 (under a second).  The full-budget discovery runs
at n = 2, 4, 6 live in the acceptance suite.
"""

import numpy as np
import pytest

from reference_rows import row_gram, rows_for
from skewframes import numopt
from skewframes.equiv import _verify_certificate, are_equivalent
from skewframes.frames import (
    DihedralFlavor,
    coherence,
    dihedral_orbit,
    frame_potential,
    is_etf,
    welch_bound,
)
from skewframes.hadamard import hex_decode, is_skew_hadamard
from skewframes.numopt import (
    DiscoveryFailure,
    MinimizeConfig,
    MinimizeResult,
    RestartDiagnostic,
    discover,
    minimize_fiducial,
)
from skewframes.search import SolutionRecord, record_gram
from skewframes.hadamard import assemble


# ---------------------------------------------------------------------------
# configuration validation


def test_config_defaults():
    cfg = MinimizeConfig(n=5)
    assert (cfg.p, cfg.restarts, cfg.max_iterations, cfg.seed) == (4, 50, 4000, 7)


@pytest.mark.parametrize("kwargs", [
    dict(n=1),
    dict(n=4, p=2),
    dict(n=4, p=7),
    dict(n=4, restarts=0),
    dict(n=4, max_iterations=0),
    dict(n=4, seed=-1),
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        MinimizeConfig(**kwargs)


# ---------------------------------------------------------------------------
# closed-form potential


@pytest.mark.parametrize("flavor", list(DihedralFlavor))
@pytest.mark.parametrize("n", range(2, 9))
def test_closed_form_potential_equals_the_dense_orbit_potential(flavor, n):
    R, pi = numopt._orbit_kernel(n, flavor)
    rng = np.random.default_rng(n)
    for p in (3, 4, 5, 6):
        x = 1.7 * rng.standard_normal(2 * n)  # not unit: the scale cancels
        v = (x[:n] + 1j * x[n:]) / np.linalg.norm(x)
        dense = frame_potential(dihedral_orbit(v, flavor), p)
        value, _ = numopt._potential(x, R, pi, p)
        assert abs(value - dense) <= 1e-12 * dense


@pytest.mark.parametrize("flavor", list(DihedralFlavor))
@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_closed_form_gradient_matches_central_differences(flavor, n):
    R, pi = numopt._orbit_kernel(n, flavor)
    rng = np.random.default_rng(100 + n)
    h = 1e-6
    for p in (3, 4, 6):
        x = rng.standard_normal(2 * n)
        _, grad = numopt._potential(x, R, pi, p)
        steps = h * np.eye(2 * n)
        numeric = np.array([
            numopt._potential(x + e, R, pi, p)[0] - numopt._potential(x - e, R, pi, p)[0]
            for e in steps]) / (2 * h)
        assert np.max(np.abs(grad - numeric)) <= 1e-6 * max(1.0, np.max(np.abs(grad)))
        # a stack of points evaluates row by row
        values, grads = numopt._potential(x + steps, R, pi, p)
        for k, e in enumerate(steps):
            value, g = numopt._potential(x + e, R, pi, p)
            assert values[k] == pytest.approx(value, rel=1e-14)
            assert np.max(np.abs(grads[k] - g)) <= 1e-12 * np.max(np.abs(g))


# ---------------------------------------------------------------------------
# L-BFGS


def test_lbfgs_finds_the_minimizer_of_a_convex_quadratic():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((12, 12))
    A = M @ M.T + 12 * np.eye(12)
    c = rng.standard_normal(12)
    x_min = np.linalg.solve(A, c)
    # 0.5 x.A.x - c.x up to a constant, written to be 0 at its minimum so
    # that the value resolves the last digits there
    x = numopt._lbfgs(lambda x: (0.5 * (x - x_min) @ A @ (x - x_min), A @ x - c),
                      rng.standard_normal(12), 200)
    assert np.max(np.abs(x - x_min)) <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 5])
def test_lbfgs_evaluates_at_most_thirty_times_per_iteration(k):
    R, pi = numopt._orbit_kernel(6, DihedralFlavor.PROJECTIVE)
    calls = []

    def fun(x):
        calls.append(x)
        return numopt._potential(x, R, pi, 4)

    numopt._lbfgs(fun, np.random.default_rng(k).standard_normal(12), k)
    assert 1 < len(calls) <= 1 + 30 * k


def test_lbfgs_stops_when_no_trial_step_lowers_the_value():
    # a gradient of the wrong sign points uphill: all 30 trial steps fail
    # the Armijo test, and the start comes back
    x0 = np.array([1.0, -2.0, 3.0])
    calls = []

    def fun(x):
        calls.append(x)
        return float(x @ x), -2 * x

    x = numopt._lbfgs(fun, x0.copy(), 10)
    assert np.array_equal(x, x0) and len(calls) == 31


def test_lbfgs_returns_a_stationary_start_unchanged():
    x0 = np.array([1.0, -2.0, 3.0])
    calls = []

    def fun(x):
        calls.append(x)
        return float(x @ x), np.zeros(3)

    x = numopt._lbfgs(fun, x0.copy(), 10)
    assert np.array_equal(x, x0) and len(calls) == 1


# ---------------------------------------------------------------------------
# minimization


def test_minimize_is_deterministic_and_well_formed():
    cfg = MinimizeConfig(n=2, restarts=4, seed=11)
    r1 = minimize_fiducial(cfg)
    r2 = minimize_fiducial(cfg)
    assert isinstance(r1, MinimizeResult)
    assert r1.value == r2.value
    assert np.allclose(r1.v, r2.v)
    assert abs(np.linalg.norm(r1.v) - 1.0) < 1e-9
    assert len(r1.diagnostics) == 4
    for d in r1.diagnostics:
        assert isinstance(d, RestartDiagnostic)
        assert d.value >= 0.0
        assert d.coherence_gap >= -1e-9


def test_minimize_converges_at_n_2():
    cfg = MinimizeConfig(n=2, restarts=4, seed=7)
    res = minimize_fiducial(cfg)
    assert res.converged
    orbit = dihedral_orbit(res.v, DihedralFlavor.PROJECTIVE)
    assert is_etf(orbit, rel_tol=1e-6)
    assert coherence(orbit) - welch_bound(4, 2) < 1e-6


def test_minimize_keeps_the_least_value_restart_that_passes_the_gate(monkeypatch):
    cfg = MinimizeConfig(n=2, restarts=4, seed=11)
    values = [d.value for d in minimize_fiducial(cfg).diagnostics]
    worst = values.index(max(values))
    verdicts = iter(k == worst for k in range(4))
    # only the highest-value restart passes: it is kept
    monkeypatch.setattr(numopt, "is_etf", lambda orbit, rel_tol: next(verdicts))
    res = minimize_fiducial(cfg)
    assert res.converged and res.value == values[worst]
    # none passes: the least value is kept, unconverged
    monkeypatch.setattr(numopt, "is_etf", lambda orbit, rel_tol: False)
    res = minimize_fiducial(cfg)
    assert not res.converged and res.value == min(values)


def test_minimize_ties_passing_values_within_rounding_to_the_earliest(monkeypatch):
    cfg = MinimizeConfig(n=2, restarts=4, seed=11)
    monkeypatch.setattr(numopt, "is_etf", lambda orbit, rel_tol: True)
    # later restarts are lower by 1e-15 each: tied, so the first is kept
    values = iter([1.0, 1.0 - 1e-15, 1.0 - 2e-15, 1.0 - 3e-15])
    monkeypatch.setattr(numopt, "frame_potential", lambda orbit, p: next(values))
    res = minimize_fiducial(cfg)
    assert res.converged and res.value == 1.0
    # a difference far above rounding is no tie: the least value is kept
    values = iter([1.0, 1.0 - 1e-15, 0.5, 0.5 - 1e-15])
    res = minimize_fiducial(cfg)
    assert res.value == 0.5


def test_passing_restarts_meet_the_welch_bound_far_inside_the_gate():
    # L-BFGS alone leaves angle spreads up to about 1e-7, at the gate;
    # the Newton polish takes every passing restart to rounding level
    res = minimize_fiducial(MinimizeConfig(6, restarts=9, seed=7))
    passing = [d for d in res.diagnostics if d.converged]
    assert res.converged and passing
    for d in passing:
        assert d.coherence_gap < 1e-12


def test_minimize_reports_nonconvergence_with_tiny_budget():
    cfg = MinimizeConfig(n=3, restarts=2, max_iterations=2, seed=1)
    res = minimize_fiducial(cfg)
    assert not res.converged


def test_strict_flavor_minimization_runs():
    # the strict orbit at n = 2 degenerates (the rotation is the
    # identity), so the potential cannot reach the ETF bound; the
    # optimizer must still return a well-formed result
    cfg = MinimizeConfig(n=2, restarts=2, seed=3)
    res = minimize_fiducial(cfg, DihedralFlavor.STRICT)
    assert isinstance(res, MinimizeResult)
    assert res.value > 0.0


# ---------------------------------------------------------------------------
# discovery pipeline


def test_discover_full_pipeline_at_n_2():
    rec = discover(2, MinimizeConfig(n=2, restarts=6, seed=7))
    assert isinstance(rec, SolutionRecord)
    assert rec.n == 2
    # n = 2 has a single class, of Paley type
    assert rec.symmetry_type == "P"
    a = hex_decode(rec.a_hex, 2)
    b = hex_decode(rec.b_hex, 2)
    assert is_skew_hadamard(assemble(a, b))


def test_discover_finds_a_reference_class_at_n_8():
    rec = discover(8, MinimizeConfig(8, p=4, restarts=50, seed=7))
    assert isinstance(rec, SolutionRecord)
    assert rec.symmetry_type is not None
    G = record_gram(rec)
    matches = []
    for row in rows_for(8):
        G_ref = row_gram(row)
        result = are_equivalent(G_ref, G, assume_transitive=True)
        if result.equivalent:
            assert _verify_certificate(result.certificate, G_ref, G)
            matches.append(row)
    assert len(matches) == 1
    assert rec.all_types == matches[0][3]


def test_discover_record_does_not_follow_evaluation_order(monkeypatch):
    # evaluating the polish's stacked gradients row by row moves the last
    # digits of the passing values; the chosen record must stay
    cfg = MinimizeConfig(8, p=4, restarts=50, seed=7)
    stacked = discover(8, cfg)
    potential = numopt._potential

    def row_by_row(x, *args):
        if x.ndim == 1:
            return potential(x, *args)
        values, grads = zip(*(potential(row, *args) for row in x))
        return np.array(values), np.array(grads)

    monkeypatch.setattr(numopt, "_potential", row_by_row)
    assert discover(8, cfg) == stacked


def test_discover_reports_no_convergence():
    out = discover(3, MinimizeConfig(n=3, restarts=2, max_iterations=2, seed=1))
    assert isinstance(out, DiscoveryFailure)
    assert out.stage == "no-convergence"
    assert out.detail


def test_discover_rejects_mismatched_config():
    with pytest.raises(ValueError):
        discover(4, MinimizeConfig(n=2))
