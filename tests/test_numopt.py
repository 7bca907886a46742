"""Tests for the numerical fiducial search and the discovery pipeline.

Kept cheap: every optimizer call here uses a handful of restarts at
n = 2 or 3.  The full-budget discovery runs live in the acceptance
suite.
"""

import numpy as np
import pytest

from skewframes import numopt
from skewframes.frames import DihedralFlavor, coherence, dihedral_orbit, is_etf, welch_bound
from skewframes.hadamard import hex_decode, is_skew_hadamard
from skewframes.numopt import (
    DiscoveryFailure,
    MinimizeConfig,
    MinimizeResult,
    RestartDiagnostic,
    discover,
    minimize_fiducial,
)
from skewframes.search import SolutionRecord
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
    dict(n=4, angle_rel_tol=0.0),
    dict(n=4, angle_rel_tol=0.5),
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        MinimizeConfig(**kwargs)


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


def test_discover_reports_no_convergence():
    out = discover(3, MinimizeConfig(n=3, restarts=2, max_iterations=2, seed=1))
    assert isinstance(out, DiscoveryFailure)
    assert out.stage == "no-convergence"
    assert out.detail


def test_discover_rejects_mismatched_config():
    with pytest.raises(ValueError):
        discover(4, MinimizeConfig(n=2))
