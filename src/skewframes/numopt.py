"""Numerical discovery of dihedral ETFs by frame potential minimization.

A seed vector v in C^n is optimized so that the 2n-vector dihedral
orbit of v/|v| minimizes the p-th frame potential.  The global minimum
of the p-th potential over unit-norm frames is attained by tight
frames with the flattest possible angle distribution, so a dihedral
ETF(2n, n), when one exists, shows up as a minimizer whose coherence
meets the Welch bound.  Optimization runs over 2n real variables (real
and imaginary parts of v) with derivative-free Nelder-Mead restarts.

discover() continues the pipeline to an exact object: extract the sign
blocks from the best orbit's Gram matrix, round them to a
two-negacirculant skew Hadamard matrix, verify it exactly, and match
the resulting class against the Paley-type references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .frames import (
    DihedralFlavor,
    coherence,
    configuration_from_gram,
    dihedral_orbit,
    frame_potential,
    gram,
    is_etf,
    is_regular,
    welch_bound,
)
from .hadamard import (
    AmbiguousEntryError,
    ExactifyFailure,
    block_etf_gram,
    exactify,
    extract_sign_blocks,
    hex_encode,
    NotDihedralETFError,
)
from .search import SolutionRecord, paley_tags


@dataclass(frozen=True)
class MinimizeConfig:
    """Knobs for the restarted Nelder-Mead search."""

    n: int
    p: int = 4
    restarts: int = 50
    max_iterations: int = 4000
    angle_rel_tol: float = 1e-7
    seed: int = 7

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.p not in (3, 4, 5, 6):
            raise ValueError("potential exponent must be 3, 4, 5 or 6")
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.max_iterations < 1:
            raise ValueError("need a positive iteration budget")
        if not 0.0 < self.angle_rel_tol < 1e-2:
            raise ValueError("angle_rel_tol must lie in (0, 1e-2)")


@dataclass(frozen=True)
class RestartDiagnostic:
    value: float
    coherence_gap: float
    converged: bool


@dataclass(frozen=True)
class MinimizeResult:
    """Best restart's unit seed vector, its potential value, whether its
    orbit is an ETF at the configured tolerance, and per-restart
    diagnostics (coherence_gap = coherence - Welch bound)."""

    v: np.ndarray
    value: float
    converged: bool
    diagnostics: List[RestartDiagnostic] = field(default_factory=list)


def _seed_to_vector(x: np.ndarray, n: int) -> np.ndarray:
    v = x[:n] + 1j * x[n:]
    nrm = np.linalg.norm(v)
    if nrm < 1e-12:
        return None
    return v / nrm


def _objective(x, n, p, flavor):
    v = _seed_to_vector(np.asarray(x, dtype=float), n)
    if v is None:
        return 1e9
    return frame_potential(dihedral_orbit(v, flavor), p)


def minimize_fiducial(config: MinimizeConfig,
                      flavor: DihedralFlavor = DihedralFlavor.PROJECTIVE,
                      ) -> MinimizeResult:
    """Restarted Nelder-Mead minimization of the orbit frame potential.

    Deterministic for a fixed config: restarts draw their starting
    points from one seeded generator.  The best restart is the one with
    the smallest objective value among those whose orbit passes the ETF
    gate (is_etf at config.angle_rel_tol), or among all restarts when
    none passes; the earliest restart wins ties.
    """
    # scipy.optimize is most of the package's import time; only this needs it
    from scipy.optimize import minimize

    n = config.n
    rng = np.random.default_rng(config.seed)
    wb = welch_bound(2 * n, n)
    candidates = []  # (fails the gate, value, v) per restart
    diagnostics = []
    for _ in range(config.restarts):
        x0 = rng.standard_normal(2 * n)
        while np.linalg.norm(x0) < 1e-3:
            x0 = rng.standard_normal(2 * n)
        res = minimize(
            _objective, x0, args=(n, config.p, flavor), method="Nelder-Mead",
            options={"maxiter": config.max_iterations,
                     "maxfev": config.max_iterations,
                     "xatol": 1e-10, "fatol": 1e-12})
        v = _seed_to_vector(res.x, n)
        if v is None:
            continue
        orbit = dihedral_orbit(v, flavor)
        gap = coherence(orbit) - wb
        ok = is_etf(orbit, rel_tol=config.angle_rel_tol)
        diagnostics.append(RestartDiagnostic(float(res.fun), float(gap), bool(ok)))
        candidates.append((not ok, float(res.fun), v))
    if not candidates:
        raise RuntimeError("all restarts degenerated to the zero vector")
    failed, value, v = min(candidates, key=lambda c: c[:2])
    return MinimizeResult(v=v, value=value, converged=not failed, diagnostics=diagnostics)


@dataclass(frozen=True)
class DiscoveryFailure:
    """Structured failure from discover(): stage is one of
    'no-convergence', 'rounding-failure', 'verification-failure'."""

    stage: str
    detail: str = ""


def discover(n: int, config: Optional[MinimizeConfig] = None):
    """Numerical-to-exact pipeline at a single n: minimize the projective
    orbit potential, extract and round the sign blocks of the best
    orbit's Gram matrix, verify the exact skew Hadamard matrix, and tag
    the class against the Paley references.  Returns a SolutionRecord or
    a DiscoveryFailure."""
    if config is None:
        config = MinimizeConfig(n=n)
    if config.n != n:
        raise ValueError("config.n disagrees with n")
    result = minimize_fiducial(config, DihedralFlavor.PROJECTIVE)
    if not result.converged:
        return DiscoveryFailure("no-convergence",
                                f"best value {result.value:.6g}")
    G = gram(dihedral_orbit(result.v, DihedralFlavor.PROJECTIVE))
    try:
        P, Q = extract_sign_blocks(G)
        H = np.block([[P, Q], [-Q.T, P.T]])
        rounded = exactify(H)
    except (NotDihedralETFError, AmbiguousEntryError, ValueError) as exc:
        return DiscoveryFailure("rounding-failure", str(exc))
    if isinstance(rounded, ExactifyFailure):
        return DiscoveryFailure("rounding-failure", rounded.check)

    exact_gram = block_etf_gram(rounded.matrix())
    try:
        cfg_exact = configuration_from_gram(exact_gram, n)
        verified = is_etf(cfg_exact, rel_tol=1e-9) and is_regular(cfg_exact)
    except ValueError as exc:
        return DiscoveryFailure("verification-failure", str(exc))
    if not verified:
        return DiscoveryFailure("verification-failure",
                                "rounded matrix fails the ETF checks")
    tags = paley_tags(n, [exact_gram])[0]
    return SolutionRecord(
        n=n,
        a_hex=hex_encode(rounded.a),
        b_hex=hex_encode(rounded.b),
        symmetry_type=tags[0] if tags else None,
        class_id=1,
        all_types=tags,
    )
