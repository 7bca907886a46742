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

discover() continues the pipeline to an exact object: invert
block_etf_gram on the best orbit's Gram matrix, round the result once
to a two-negacirculant skew Hadamard matrix, verify it exactly, and
match the resulting class against the Paley-type references.
"""

from __future__ import annotations

import random
from collections import deque
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
    ExactifyFailure,
    approximate_sign_matrix,
    block_etf_gram,
    exactify,
    hex_encode,
)
from .search import SolutionRecord, paley_tags


_TIE_RTOL = 1e-12  # restart values this close, relatively, count as tied
_ANGLE_RTOL = 1e-7  # relative tolerance of the ETF gate (is_etf) on each restart
_MEMORY = 10  # curvature pairs L-BFGS keeps
_GTOL = 1e-13  # L-BFGS stops once every gradient entry is this small
_TRIALS = 30  # trial steps of each line search, 1 down to 2^-29


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
        if self.seed < 0:
            # random.Random(-s) seeds the same stream as random.Random(s)
            raise ValueError("seed must be non-negative")


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
    the Hessian singular, hence the pseudo-inverse solve on the eigenpairs
    of the symmetrized Hessian with |eigenvalue| above 1e-8 of the largest
    (LAPACK's least-squares SVD fails to converge on some of these
    Hessians from n = 26 on; eigh does not); x is renormalised after each
    step.  L-BFGS stops where the potential stops resolving, at an angle
    spread of up to about 1e-7; this takes it to about 1e-14."""
    m, h = x.size, 1e-6
    offsets = np.concatenate([np.eye(m), -np.eye(m), np.zeros((1, m))]) * h
    for _ in range(3):
        grads = _potential(x + offsets, R, pi, p)[1]
        hess = (grads[:m] - grads[m:2 * m]).T / (2 * h)
        lam, V = np.linalg.eigh((hess + hess.T) / 2)
        keep = np.abs(lam) > 1e-8 * np.max(np.abs(lam))
        x = x - V[:, keep] @ ((V[:, keep].T @ grads[-1]) / lam[keep])
        x = x / np.linalg.norm(x)
    return x


def _lbfgs(fun, x0, max_iterations):
    """Minimize fun, which returns (value, gradient), by L-BFGS from x0
    and return the last iterate.  The two-loop recursion over the last
    _MEMORY curvature pairs gives the direction, with the initial inverse
    Hessian 1/|g| on the first step and s.y / y.y after; a pair enters
    only if s.y > 0.  An Armijo backtracking search (c1 = 1e-4) halves
    the step from 1 until the value drops enough, in at most _TRIALS
    evaluations.  Stops when max |g| <= _GTOL, when no step lowers the
    value (no trial passes, or the one that passes leaves the value as it
    was: the value has stopped resolving), or after max_iterations
    iterations.  Nocedal, Math. Comp. 35 (1980); Liu and Nocedal, Math.
    Program. 45 (1989)."""
    x = x0
    f, g = fun(x)
    pairs = deque(maxlen=_MEMORY)  # (s, y, 1 / s.y), oldest first
    for _ in range(max_iterations):
        if np.max(np.abs(g)) <= _GTOL:
            break
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ q))
            q -= alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            q *= (s @ y) / (y @ y)
        else:
            q /= np.linalg.norm(g)
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            q += (alpha - rho * (y @ q)) * s
        slope = -(g @ q)
        t = 1.0
        for _ in range(_TRIALS):
            x_new = x - t * q
            f_new, g_new = fun(x_new)
            if f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break  # no trial step passes the Armijo test
        if not f_new < f:
            break  # the accepted step leaves the value where it was
        s, y = x_new - x, g_new - g
        sy = s @ y
        if sy > 0:
            pairs.append((s, y, 1.0 / sy))
        x, f, g = x_new, f_new, g_new
    return x


def minimize_fiducial(config: MinimizeConfig,
                      flavor: DihedralFlavor = DihedralFlavor.PROJECTIVE,
                      ) -> MinimizeResult:
    """Restarted L-BFGS minimization of the orbit frame potential, each
    restart polished by Newton steps.

    Deterministic for a fixed config: each restart starts from 2n
    standard Gaussian draws of one random.Random(config.seed), drawn
    again if their norm is below 1e-3.  A restart's value is
    frame_potential of the orbit the ETF gate (is_etf at _ANGLE_RTOL)
    judges.  The best restart is the one with the smallest value among
    those that pass the gate, or among all restarts when none passes;
    the earliest restart wins ties.  Passing values within a relative
    1e-12 of the smallest passing value count as tied, so the choice
    does not follow rounding noise.
    """
    n = config.n
    args = (*_orbit_kernel(n, flavor), config.p)
    rng = random.Random(config.seed)
    wb = welch_bound(2 * n, n)
    candidates = []  # (fails the gate, value, v) per restart
    diagnostics = []
    for _ in range(config.restarts):
        x0 = np.zeros(2 * n)
        while np.linalg.norm(x0) < 1e-3:
            x0 = np.array([rng.gauss(0.0, 1.0) for _ in range(2 * n)])
        x = _lbfgs(lambda x: _potential(x, *args), x0, config.max_iterations)
        nrm = np.linalg.norm(x)
        if nrm < 1e-12:
            continue
        x = _newton_polish(x / nrm, *args)
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
    orbit potential, invert block_etf_gram on the best orbit's Gram
    matrix and round it once, verify the exact skew Hadamard matrix,
    and tag the class against the Paley references.  Returns a
    SolutionRecord or a DiscoveryFailure."""
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
        rounded = exactify(approximate_sign_matrix(G))
    except ValueError as exc:
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
