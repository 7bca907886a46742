"""Numerical discovery of dihedral ETFs by frame potential minimization.

A seed vector v in C^n is optimized so that the 2n-vector dihedral
orbit of v/|v| minimizes the p-th frame potential.  The global minimum
of the p-th potential over unit-norm frames is attained by tight
frames with the flattest possible angle distribution, so a dihedral
ETF(2n, n), when one exists, shows up as a minimizer whose coherence
meets the Welch bound.  Optimization runs over 2n real variables (real
and imaginary parts of v): restarted L-BFGS on a closed form of the
orbit potential with its exact gradient, then a few Newton steps.

The closed form: with r the flavor's roots (the diagonal of M), pi the
index map of T (root k to its conjugate), R[d, j] = r_j^d (d = 0..n-1),
a = R |w|^2 and b = R (conj(w) * w[pi]), every entry of the orbit Gram
matrix of w is, up to sign and conjugation, a_d or b_d with
d = l - k mod n, and each of the 2n values fills 2n entries.  So the
potential of the orbit of w/|w| is 2n (sum |a_d|^p + sum |b_d|^p) / s^p
with s = |w|^2, at O(n^2) cost and without a Gram matrix.

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
    _orbit_kernel,
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


_TIE_RTOL = 1e-12  # restart values this close, relatively, count as tied
_ANGLE_RTOL = 1e-7  # relative tolerance of the ETF gate (is_etf) on each restart


@dataclass(frozen=True)
class MinimizeConfig:
    """Knobs for the restarted L-BFGS search; max_iterations bounds the
    L-BFGS iterations of each restart."""

    n: int
    p: int = 4
    restarts: int = 50
    max_iterations: int = 4000
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


def _potential(x, R, pi, p):
    """Frame potential of the orbit of w/|w|, w = x[:n] + i x[n:], and its
    gradient in x; x may also be a stack of such vectors, one per row.
    In both flavors pi is an involution and R[:, pi] = conj(R), so b is
    real.  With g = sum |a|^p + sum |b|^p, t_a = R^T (|a|^(p-2) conj(a))
    and t_b = R^T (|b|^(p-2) b), the Wirtinger derivative of g in
    conj(w) is p (w Re(t_a) + w[pi] t_b)."""
    n = pi.size
    w = x[..., :n] + 1j * x[..., n:]
    s = np.sum(x * x, axis=-1)
    a = (w.real ** 2 + w.imag ** 2) @ R.T
    b = ((w.conj() * w[..., pi]) @ R.T).real
    abs_a, abs_b = np.abs(a), np.abs(b)
    g = np.sum(abs_a ** p, axis=-1) + np.sum(abs_b ** p, axis=-1)
    t_a = (abs_a ** (p - 2) * a.conj()) @ R
    t_b = (abs_b ** (p - 2) * b) @ R
    dw = p * (w * t_a.real + w[..., pi] * t_b)
    grad = 2 * np.concatenate([dw.real, dw.imag], axis=-1) - (2 * p * g / s)[..., None] * x
    scale = 2 * n / s ** p
    return scale * g, scale[..., None] * grad


def _newton_polish(x, R, pi, p):
    """Three Newton steps on the exact gradient from a unit x, with the
    Hessian by central differences of the gradient.  Phase and scale make
    the Hessian singular, hence the least-squares solve; x is renormalised
    after each step.  L-BFGS stops where the potential stops resolving,
    at an angle spread of up to about 1e-7; this takes it to about 1e-14."""
    m, h = x.size, 1e-6
    offsets = np.concatenate([np.eye(m), -np.eye(m), np.zeros((1, m))]) * h
    for _ in range(3):
        grads = _potential(x + offsets, R, pi, p)[1]
        hess = (grads[:m] - grads[m:2 * m]).T / (2 * h)
        x = x + np.linalg.lstsq(hess, -grads[-1], rcond=1e-8)[0]
        x = x / np.linalg.norm(x)
    return x


def minimize_fiducial(config: MinimizeConfig,
                      flavor: DihedralFlavor = DihedralFlavor.PROJECTIVE,
                      ) -> MinimizeResult:
    """Restarted L-BFGS minimization of the orbit frame potential, each
    restart polished by Newton steps.

    Deterministic for a fixed config: restarts draw their starting
    points from one seeded generator.  A restart's value is
    frame_potential of the orbit the ETF gate (is_etf at _ANGLE_RTOL)
    judges.  The best restart is the one with the smallest value among
    those that pass the gate, or among all restarts when none passes;
    the earliest restart wins ties.  Passing values within a relative
    1e-12 of the smallest passing value count as tied, so the choice
    does not follow rounding noise.
    """
    # scipy.optimize is most of the package's import time; only this needs it
    from scipy.optimize import minimize

    n = config.n
    args = (*_orbit_kernel(n, flavor), config.p)
    rng = np.random.default_rng(config.seed)
    wb = welch_bound(2 * n, n)
    candidates = []  # (fails the gate, value, v) per restart
    diagnostics = []
    for _ in range(config.restarts):
        x0 = rng.standard_normal(2 * n)
        while np.linalg.norm(x0) < 1e-3:
            x0 = rng.standard_normal(2 * n)
        res = minimize(
            _potential, x0, args=args, jac=True, method="L-BFGS-B",
            options={"maxiter": config.max_iterations, "ftol": 0.0, "gtol": 1e-13})
        nrm = np.linalg.norm(res.x)
        if nrm < 1e-12:
            continue
        x = _newton_polish(res.x / nrm, *args)
        v = x[:n] + 1j * x[n:]
        orbit = dihedral_orbit(v, flavor)
        value = frame_potential(orbit, config.p)
        gap = coherence(orbit) - wb
        ok = is_etf(orbit, rel_tol=_ANGLE_RTOL)
        diagnostics.append(RestartDiagnostic(value, float(gap), bool(ok)))
        candidates.append((not ok, value, v))
    if not candidates:
        raise RuntimeError("all restarts degenerated to the zero vector")
    passing = [c for c in candidates if not c[0]]
    if passing:
        # passing restarts sit at one minimum and differ only in rounding,
        # so values within _TIE_RTOL of the least tie; the earliest wins
        least = min(c[1] for c in passing)
        failed, value, v = next(c for c in passing if c[1] <= least + _TIE_RTOL * abs(least))
    else:
        failed, value, v = min(candidates, key=lambda c: c[1])
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
