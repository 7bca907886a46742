"""Spans around the calls into each layer, recorded from outside the program.

install() replaces each target function with a wrapper in the module that
defines it and in every skewframes module that imported it by name, so
calls made through any of those names are seen.  Each call records a span
(name, start, end, parent span); spans stay in memory in flat arrays and
are written out when the run ends.  A target whose name no longer exists
is reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from array import array

import numpy as np


def _outcome(result):
    return bool(result.equivalent)


def _restarts(result):
    return (len(result.diagnostics), sum(bool(d.converged) for d in result.diagnostics))


# (span name, defining module, function, note taken from the return value)
TARGETS = (
    ("search.enumerate", "skewframes.search", "enumerate", len),
    ("search.classify", "skewframes.search", "classify", None),
    ("search.record_gram", "skewframes.search", "record_gram", None),
    # the Paley-type reference Grams; the function lives in search and
    # builds them with the paley module
    ("paley.reference_grams", "skewframes.search", "paley_reference_grams", None),
    ("equiv.are_equivalent", "skewframes.equiv", "are_equivalent", _outcome),
    ("equiv.equivalence_fingerprint", "skewframes.equiv", "equivalence_fingerprint", hash),
    ("numopt.discover", "skewframes.numopt", "discover", None),
    ("numopt.minimize_fiducial", "skewframes.numopt", "minimize_fiducial", _restarts),
    ("frames.frame_potential", "skewframes.frames", "frame_potential", None),
    ("frames.dihedral_orbit", "skewframes.frames", "dihedral_orbit", None),
    ("hadamard.exactify", "skewframes.hadamard", "exactify", None),
    ("algebra.cyclo_matmul", "skewframes.algebra", "cyclo_matmul", None),
    ("algebra.cyclo_equal", "skewframes.algebra", "cyclo_equal", None),
    ("algebra.cyclo_is_zero", "skewframes.algebra", "cyclo_is_zero", None),
    ("algebra.cyclotomic_idempotent_exact", "skewframes.algebra",
     "cyclotomic_idempotent_exact", None),
    ("algebra.nega_cyclotomic_idempotent_exact", "skewframes.algebra",
     "nega_cyclotomic_idempotent_exact", None),
    ("grambuild.tight_idempotent_exact", "skewframes.grambuild",
     "tight_idempotent_exact", None),
)


# metrics of the whole run; the other counts and seconds are per round
WHOLE_RUN = {"equiv.equivalence_fingerprint.distinct"}


class Tracer:
    def __init__(self):
        self.names = [name for name, *_ in TARGETS]
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes = {}
        self.stack = [-1]
        self.recording = False
        self.missing = []
        self._patches = []

    def _wrap(self, kind, fn, note):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.kind.append(kind)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if note is not None:
                self.notes[idx] = note(result)
            return result

        return wrapper

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "skewframes" or name.startswith("skewframes."))]
        for kind, (name, module, attr, note) in enumerate(TARGETS):
            original = getattr(importlib.import_module(module), attr, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(kind, original, note)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patches.append((m, key, original))

    def uninstall(self):
        for m, key, original in reversed(self._patches):
            setattr(m, key, original)
        self._patches.clear()

    def overhead_s(self, probes=20000):
        """Estimated time the recorded spans added to the run: their count
        times the cost of one span, measured here on a wrapped no-op."""
        probe = Tracer()
        noop = lambda: None  # noqa: E731
        wrapped = probe._wrap(0, noop, None)
        probe.recording = True
        t0 = time.perf_counter()
        for _ in range(probes):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(probes):
            noop()
        t2 = time.perf_counter()
        per_span = max(0.0, ((t1 - t0) - (t2 - t1)) / probes)
        return len(self.start) * per_span

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        return (np.array(self.kind, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start), np.array(self.end))

    def summary(self):
        """Per span name: calls, total (inclusive) seconds and self seconds,
        where self time is the duration minus the part covered by child
        spans (children of one span never overlap: one thread)."""
        kind, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        out = {}
        for k, name in enumerate(self.names):
            sel = kind == k
            out[name] = {
                "calls": int(np.count_nonzero(sel)),
                "s": float(dur[sel].sum()),
                "self_s": float((dur[sel] - child[sel]).sum()),
            }
        return out

    def save(self, path):
        """Write every span (times relative to the first start) as .npz."""
        kind, parent, start, end = self.arrays()
        t0 = float(start.min()) if len(start) else 0.0
        np.savez_compressed(path, names=np.array(self.names), kind=kind, parent=parent,
                            start=start - t0, end=end - t0)

    def layer_metrics(self, expected, rounds=1):
        """The per-layer metrics of BENCHMARK.json, counts and seconds per
        round of `rounds` identical rounds.  A metric whose span name is
        missing, or that has no calls where `expected` says calls must
        happen, is left out and its name returned in the second value, so
        it never reads as 0."""
        kind, parent, start, end = self.arrays()
        dur = end - start
        k_of = {name: k for k, name in enumerate(self.names)}
        summary = self.summary()

        def spans(name):
            return np.flatnonzero(kind == k_of[name])

        def calls(name):
            return summary[name]["calls"]

        def secs(name):
            return summary[name]["s"]

        eq = spans("equiv.are_equivalent")
        pos = np.array([i for i in eq if self.notes.get(int(i))], dtype=int)
        neg = np.array([i for i in eq if not self.notes.get(int(i))], dtype=int)
        classify_kind = k_of["search.classify"]

        def inside_classify(i):
            p = parent[i]
            while p >= 0:
                if kind[p] == classify_kind:
                    return True
                p = parent[p]
            return False

        in_classify = [bool(self.notes.get(int(i))) for i in eq if inside_classify(i)]
        # a call that raised has no note
        restarts = [self.notes.get(int(i), (0, 0)) for i in spans("numopt.minimize_fiducial")]
        tried = sum(r[0] for r in restarts)
        passing = sum(r[1] for r in restarts)
        # cyclo_equal calls cyclo_is_zero; count the equality layer once
        equal_kind = k_of["algebra.cyclo_equal"]
        is_zero = spans("algebra.cyclo_is_zero")
        top_is_zero = [i for i in is_zero if parent[i] < 0 or kind[parent[i]] != equal_kind]

        def ratio(num, den):
            return num / den if den else 0.0

        table = [
            ("search.enumerate.calls", calls("search.enumerate"), "count", ["search.enumerate"]),
            ("search.enumerate.s", secs("search.enumerate"), "s", ["search.enumerate"]),
            ("search.enumerate.solutions",
             sum(self.notes.get(int(i), 0) for i in spans("search.enumerate")), "count",
             ["search.enumerate"]),
            ("search.classify.s", secs("search.classify"), "s", ["search.classify"]),
            ("search.record_gram.calls", calls("search.record_gram"), "count", ["search.record_gram"]),
            ("search.record_gram.s", secs("search.record_gram"), "s", ["search.record_gram"]),
            ("equiv.are_equivalent.neg.calls", len(neg), "count", ["equiv.are_equivalent"]),
            ("equiv.are_equivalent.neg.s", float(dur[neg].sum()), "s", ["equiv.are_equivalent"]),
            ("equiv.are_equivalent.neg.p50_ms",
             1000 * statistics.median(dur[neg]) if len(neg) else 0.0, "ms", ["equiv.are_equivalent"]),
            ("equiv.are_equivalent.pos.calls", len(pos), "count", ["equiv.are_equivalent"]),
            ("equiv.are_equivalent.pos.s", float(dur[pos].sum()), "s", ["equiv.are_equivalent"]),
            ("equiv.are_equivalent.pos_ratio", ratio(sum(in_classify), len(in_classify)), "ratio",
             ["equiv.are_equivalent"]),
            ("equiv.equivalence_fingerprint.calls", calls("equiv.equivalence_fingerprint"), "count",
             ["equiv.equivalence_fingerprint"]),
            ("equiv.equivalence_fingerprint.s", secs("equiv.equivalence_fingerprint"), "s",
             ["equiv.equivalence_fingerprint"]),
            ("equiv.equivalence_fingerprint.distinct",
             len({self.notes.get(int(i)) for i in spans("equiv.equivalence_fingerprint")}), "count",
             ["equiv.equivalence_fingerprint"]),
            ("paley.reference_grams.calls", calls("paley.reference_grams"), "count",
             ["paley.reference_grams"]),
            ("paley.reference_grams.s", secs("paley.reference_grams"), "s", ["paley.reference_grams"]),
            ("numopt.minimize_fiducial.s", secs("numopt.minimize_fiducial"), "s",
             ["numopt.minimize_fiducial"]),
            ("numopt.restarts", tried, "count", ["numopt.minimize_fiducial"]),
            ("numopt.restarts_passing", passing, "count", ["numopt.minimize_fiducial"]),
            ("numopt.restart_pass_ratio", ratio(passing, tried), "ratio", ["numopt.minimize_fiducial"]),
            ("frames.frame_potential.calls", calls("frames.frame_potential"), "count",
             ["frames.frame_potential"]),
            ("frames.frame_potential.s", secs("frames.frame_potential"), "s", ["frames.frame_potential"]),
            ("frames.dihedral_orbit.calls", calls("frames.dihedral_orbit"), "count",
             ["frames.dihedral_orbit"]),
            ("frames.dihedral_orbit.s", secs("frames.dihedral_orbit"), "s", ["frames.dihedral_orbit"]),
            ("hadamard.exactify.s", secs("hadamard.exactify"), "s", ["hadamard.exactify"]),
            ("algebra.cyclo_matmul.calls", calls("algebra.cyclo_matmul"), "count",
             ["algebra.cyclo_matmul"]),
            ("algebra.cyclo_matmul.s", secs("algebra.cyclo_matmul"), "s", ["algebra.cyclo_matmul"]),
            ("algebra.cyclo_equal.s", secs("algebra.cyclo_equal") + float(dur[top_is_zero].sum()), "s",
             ["algebra.cyclo_equal", "algebra.cyclo_is_zero"]),
            ("algebra.idempotent_exact.s",
             secs("algebra.cyclotomic_idempotent_exact") + secs("algebra.nega_cyclotomic_idempotent_exact"),
             "s", ["algebra.cyclotomic_idempotent_exact", "algebra.nega_cyclotomic_idempotent_exact"]),
            ("grambuild.tight_idempotent_exact.calls", calls("grambuild.tight_idempotent_exact"), "count",
             ["grambuild.tight_idempotent_exact"]),
            ("grambuild.tight_idempotent_exact.s", secs("grambuild.tight_idempotent_exact"), "s",
             ["grambuild.tight_idempotent_exact"]),
        ]
        metrics, missing = {}, []
        for name, value, unit, deps in table:
            absent = [d for d in deps if d in self.missing or (d in expected and calls(d) == 0)]
            if absent:
                missing.append(name)
                continue
            if unit in ("s", "count") and name not in WHOLE_RUN:
                value /= rounds
            if unit == "count" and float(value).is_integer():
                value = int(value)
            metrics[name] = {"value": float(value) if unit != "count" else value, "unit": unit}
        return metrics, missing
