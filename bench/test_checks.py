"""Fast tests of the benchmark's own checkers: real outputs pass, corrupted
ones are rejected.

    python3 -m pytest bench -q
"""

import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
for path in (BENCH.parent / "src", BENCH.parent / "tests", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from skewframes import search  # noqa: E402
from skewframes.equiv import EquivalenceCertificate  # noqa: E402
from skewframes.frames import DihedralFlavor  # noqa: E402


@pytest.fixture(scope="module")
def pairs16():
    return [(s.a, s.b) for s in search.enumerate(16)]


def refs(n):
    return [(checks.decode_hex(a, n), checks.decode_hex(b, n)) for _, a, b, _ in workloads.table_rows(n)]


def test_real_enumeration_passes(pairs16):
    assert checks.enumeration_problems(16, pairs16, refs(16)) == []


def test_flipped_sign_is_rejected(pairs16):
    a, b = pairs16[5]
    b = (b[0], -b[1]) + b[2:]
    bad = pairs16[:5] + [(a, b)] + pairs16[6:]
    assert checks.enumeration_problems(16, bad, refs(16))


def test_every_dropped_row_is_rejected(pairs16):
    for i in range(len(pairs16)):
        assert checks.enumeration_problems(16, pairs16[:i] + pairs16[i + 1:], refs(16)), i


def test_non_canonical_b_is_rejected(pairs16):
    a, b = pairs16[0]
    bad = [(a, checks.twist(b))] + pairs16[1:]
    assert any("orbit" in p for p in checks.enumeration_problems(16, bad, refs(16)))


def test_unexpected_solutions_are_rejected(pairs16):
    assert checks.enumeration_problems(16, pairs16, expect_empty=True)


def test_canonical_b_agrees_with_the_orbit_definition():
    b = (1, -1, -1, 1, -1, 1)
    orbit = [b]
    for _ in range(11):
        orbit.append(checks.twist(orbit[-1]))
    assert checks.twist(orbit[-1]) == b
    assert tuple(-s for s in b) in orbit
    assert checks.canonical_b(b) == max(orbit, key=checks.encode)


@pytest.fixture(scope="module")
def classes8():
    return search.classify(8)


def test_real_classes_pass(classes8):
    assert checks.class_problems(8, classes8, workloads.table_rows(8),
                                 workloads.program_equivalent) == []


def test_swapped_types_are_rejected(classes8):
    swapped = [replace(r, symmetry_type={"DP": "CDP", "CDP": "DP"}[r.symmetry_type],
                       all_types=({"DP": "CDP", "CDP": "DP"}[r.symmetry_type],))
               for r in classes8]
    assert checks.class_problems(8, swapped, workloads.table_rows(8), workloads.program_equivalent)


def test_missing_class_is_rejected(classes8):
    assert checks.class_problems(8, classes8[:1], workloads.table_rows(8),
                                 workloads.program_equivalent)


def forged(cert, how):
    perm, phases = list(cert.permutation), list(cert.phases)
    if how == "swap":
        perm[1], perm[2] = perm[2], perm[1]
    elif how == "phase":
        phases[3] = -phases[3]
    elif how == "not-a-unit":
        phases[0] = 0.5 * phases[0]
    return EquivalenceCertificate(tuple(perm), tuple(phases))


@pytest.mark.parametrize("how", ["swap", "phase", "not-a-unit"])
def test_forged_certificate_is_rejected(classes8, how):
    row = workloads.table_rows(8)[0]
    K_ref = checks.exact_view(checks.decode_hex(row[1], 8), checks.decode_hex(row[2], 8))
    rec = next(r for r in classes8 if r.all_types == row[3])
    K = checks.exact_view(checks.decode_hex(rec.a_hex, 8), checks.decode_hex(rec.b_hex, 8))
    verdict = workloads.program_equivalent(K_ref, K)
    assert checks.certificate_holds(verdict.certificate, K_ref, K)
    assert not checks.certificate_holds(forged(verdict.certificate, how), K_ref, K)

    def lying(K0, K1):
        return replace(workloads.program_equivalent(K0, K1),
                       certificate=forged(verdict.certificate, how))

    assert checks.class_problems(8, classes8, workloads.table_rows(8), lying)


def test_claimed_equivalence_of_distinct_classes_is_rejected(classes8):
    identity = EquivalenceCertificate(tuple(range(16)), (1 + 0j,) * 16)

    def says_all_equivalent(K0, K1):
        return type(workloads.program_equivalent(K0, K0))(True, identity)

    assert checks.class_problems(8, classes8, workloads.table_rows(8), says_all_equivalent)


@pytest.mark.parametrize("flavor", list(DihedralFlavor))
def test_idempotent_system_check(flavor):
    result = workloads.idempotent_system(4, flavor)
    assert workloads.system_problems(4, flavor, result) == []
    roots, mats, verdicts = result
    bad = [[x for x in row] for row in mats[1]]
    bad[0][1] = -bad[0][1]
    assert workloads.system_problems(4, flavor, (roots, [mats[0], bad] + mats[2:], verdicts))
    assert workloads.system_problems(4, flavor, (roots, mats, {**verdicts, "orthogonal": False}))


def test_builder_check():
    rng = np.random.default_rng(3)
    for part in workloads.builder_partitions(4, DihedralFlavor.PROJECTIVE, rng):
        pairs = workloads.grambuild.random_exact_pairs(part, rng)
        X, verdicts = workloads.tight_idempotent(part, pairs)
        assert workloads.builder_problems("b", part, pairs, (X, verdicts)) == []
        bad = [row[:] for row in X]
        bad[0][0] = bad[0][0] * 2
        assert workloads.builder_problems("b", part, pairs, (bad, verdicts))


def test_tracer_sees_calls_through_imported_names():
    import tracer as tracing
    from skewframes import equiv

    original = equiv.are_equivalent
    t = tracing.Tracer()
    t.install()
    assert search.are_equivalent is equiv.are_equivalent is not original
    t.recording = True
    search.classify(8)
    t.recording = False
    t.uninstall()
    assert search.are_equivalent is equiv.are_equivalent is original
    spans = t.summary()
    assert spans["search.classify"]["calls"] == 1
    assert spans["equiv.are_equivalent"]["calls"] > 0
    assert spans["search.classify"]["self_s"] < spans["search.classify"]["s"]
    metrics, missing = t.layer_metrics(workloads.EXPECTED_SPANS["classify"])
    assert missing == []
    assert metrics["search.enumerate.solutions"]["value"] == 16
    assert metrics["equiv.are_equivalent.pos_ratio"]["value"] > 0


def test_traced_metrics_are_per_round():
    import tracer as tracing

    t = tracing.Tracer()
    t.install()
    t.recording = True
    for _ in range(2):
        search.classify(8)
    t.recording = False
    t.uninstall()
    one, _ = t.layer_metrics(workloads.EXPECTED_SPANS["classify"], rounds=2)
    assert one["search.enumerate.calls"]["value"] == 1
    assert one["search.enumerate.solutions"]["value"] == 16
    assert one["equiv.equivalence_fingerprint.distinct"]["value"] == 1
    assert one["search.classify.s"]["value"] == pytest.approx(t.summary()["search.classify"]["s"] / 2)


def test_checks_run_once_per_distinct_output():
    from types import SimpleNamespace as Rec

    checked = []
    cached = workloads.once_per_output(lambda result: checked.append(result) or [],
                                       workloads.pairs_key)
    real = [Rec(a=s.a, b=s.b) for s in search.enumerate(8)]
    flipped = [Rec(a=(-real[0].a[0],) + tuple(real[0].a[1:]), b=real[0].b)] + real[1:]
    for result in (real, list(real), flipped, real):
        cached(result)
    assert checked == [real, flipped]


def test_tracer_reports_missing_targets_and_silent_layers(monkeypatch):
    import tracer as tracing

    monkeypatch.delattr(search, "record_gram")
    t = tracing.Tracer()
    t.install()
    t.uninstall()
    metrics, missing = t.layer_metrics({"search.classify"})
    assert t.missing == ["search.record_gram"]
    assert {"search.record_gram.calls", "search.record_gram.s", "search.classify.s"} <= set(missing)
    assert "search.record_gram.s" not in metrics
    assert metrics["search.enumerate.calls"]["value"] == 0


def test_metric_names_match_benchmark_json():
    import json

    import tracer as tracing

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    metrics, missing = tracing.Tracer().layer_metrics(set())
    assert missing == []
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {**{k: v["unit"] for k, v in metrics.items()},
                         "trace.overhead_ratio": "ratio"}
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
