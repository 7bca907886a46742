"""Tests for the command line front end.

Most tests call run(argv) in-process and inspect stdout/stderr through
capsys; one test checks the declared console script and runs its entry
point end to end through `python -m skewframes`.
Exit code contract: 0 success/verified, 1 verified-false or empty
result, 2 usage or invalid input, 3 internal failure.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skewframes
from skewframes.cli import format_gram, parse_gram, run
from skewframes.equiv import EquivalenceCertificate
from skewframes.paley import FiniteField, paley_gram
from skewframes.search import classify

from reference_rows import FULL_ROWS, row_gram

ROW_BY_KEY = {(r[0], r[1], r[2]): r for r in FULL_ROWS}


# ---------------------------------------------------------------------------
# gram text format


def test_gram_format_roundtrip_with_exact_section():
    G = paley_gram(FiniteField(3))
    text = format_gram(G)
    assert text.startswith("gram 4\n")
    assert "\nexact\n" in text
    back = parse_gram(text)
    assert np.allclose(back.values, G.values, atol=1e-15)
    assert np.array_equal(back.exact_scaled, G.exact_scaled)


def test_gram_format_roundtrip_without_exact_section():
    G = paley_gram(FiniteField(3))
    text = format_gram(G).split("exact\n")[0]
    assert text.count("\n") == 1 + G.size
    back = parse_gram(text)
    assert back.exact_scaled is None
    assert np.allclose(back.values, G.values, atol=1e-15)


EYE2 = "gram 2\n1+0i 0+0i\n0+0i 1+0i\n"


@pytest.mark.parametrize("text,message", [pytest.param(t, m, id=i or t) for t, m, i in [
    ("not a gram\n", "missing 'gram N' header", None),
    ("gram 1 1\n1+0i\n", "missing 'gram N' header", "extra header token"),
    ("gram 3\n1+0i 0+0i\n", "header says 3", None),           # short row
    ("gram 2\n1+0i 0+0i\n", "header says 2", None),           # missing row
    ("gram 1\nbogus\n", "bad complex token", None),
    # content the header does not announce is an error, not ignored
    (EYE2 + "0+0i 0+0i\n", "expected 'exact' or the end", "extra row"),
    ("gram 8\n" + (" ".join(["1+0i"] * 8) + "\n") * 9, "expected 'exact' or the end",
     "9 rows under gram 8"),
    (EYE2 + "0+0i 0+0i\nexact\n0+0i 0+0i\n0+0i 0+0i\n", "expected 'exact' or the end",
     "exact after an extra row"),
    (EYE2 + "exact\n0+0i 0+0i\n0+0i 0+0i\n0+0i 0+0i\n", "exact section has 3 rows",
     "extra exact row"),
    (EYE2 + "exact\n0+0i 0+0i\n0+0i 0+0i\njunk\n", "exact section has 3 rows",
     "junk after the exact rows"),
    (EYE2 + "exact\n0+0i 0+0i\n0+0i\n", "exact section row length", "ragged exact row"),
    (EYE2 + "exact\n0+0i 0+0i 0+0i\n0+0i 0+0i 0+0i\n", "exact section row length",
     "long exact rows"),
]])
def test_parse_gram_rejects_malformed_input(text, message):
    with pytest.raises(ValueError, match=message):
        parse_gram(text)


# ---------------------------------------------------------------------------
# verify / decode / encode


def test_verify_good_solution(capsys):
    assert run(["verify", "--a", "F77", "--b", "F4D", "--n", "12"]) == 0
    out = capsys.readouterr().out
    assert out == "skew-Hadamard: yes; ETF(24,12): yes; regular: yes\n"


def test_verify_non_solution(capsys):
    # (8, 0) at n = 4 assembles to a skew but non-Hadamard matrix
    assert run(["verify", "--a", "8", "--b", "0", "--n", "4"]) == 1
    out = capsys.readouterr().out
    assert out == ("skew-Hadamard: no; ETF(8,4): not evaluated; "
                   "regular: not evaluated\n")


def test_verify_bad_hex_is_usage_error(capsys):
    assert run(["verify", "--a", "FFFF", "--b", "0", "--n", "2"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("digits,n", [("-1", "8"), ("1_F", "12")])
def test_decode_rejects_a_sign_or_underscore(digits, n, capsys):
    assert run(["decode", "--hex", digits, "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "hex digits" in captured.err


def test_decode_and_encode_are_inverse(capsys):
    assert run(["decode", "--hex", "24", "--n", "6"]) == 0
    signs = capsys.readouterr().out.strip()
    assert signs == "+--+--"
    assert run(["encode", "--signs", signs]) == 0
    assert capsys.readouterr().out.strip() == "24"


def test_encode_rejects_junk(capsys):
    assert run(["encode", "--signs", "+-x"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# paley


def test_paley_writes_parseable_gram(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert run(["paley", "--q", "7", "--out", str(out)]) == 0
    G = parse_gram(out.read_text(encoding="utf-8"))
    assert G.size == 8
    assert run(["paley", "--q", "3", "--double", "--conj"]) == 0
    G2 = parse_gram(capsys.readouterr().out)
    assert G2.size == 8


def test_paley_usage_errors(capsys):
    assert run(["paley", "--q", "5"]) == 2        # 1 mod 4
    assert run(["paley", "--q", "12"]) == 2       # not a prime power
    assert run(["paley", "--q", "7", "--conj"]) == 2  # --conj needs --double
    err = capsys.readouterr().err
    assert err.count("error:") == 3


# ---------------------------------------------------------------------------
# search / classify


def test_search_writes_rows(tmp_path, capsys):
    out = tmp_path / "rows.tsv"
    assert run(["search", "--n", "6", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines == ["6\t24\t3D\t-\t0", "6\t2E\t3D\t-\t0",
                     "6\t31\t3D\t-\t0", "6\t3B\t3D\t-\t0"]


def test_search_empty_n_exits_1(capsys):
    assert run(["search", "--n", "18"]) == 1
    assert capsys.readouterr().out == ""


def test_search_rejects_n_past_the_profile_code(capsys):
    assert run(["search", "--n", "34"]) == 2
    assert "enumeration is supported for even 2 <= n <= 32 only" in capsys.readouterr().err


def test_classify_stdout_and_summary(capsys):
    assert run(["classify", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "4\t8\tD\tP\t1" in out
    assert out.rstrip().endswith("1 classes")


def test_classify_empty_n(capsys):
    assert run(["classify", "--n", "18"]) == 1
    assert capsys.readouterr().out == "0 classes\n"


def test_classify_from_saved_search(tmp_path, capsys):
    rows = tmp_path / "rows.tsv"
    assert run(["search", "--n", "4", "--out", str(rows)]) == 0
    out = tmp_path / "classes.tsv"
    assert run(["classify", "--n", "4", "--in", str(rows),
                "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    direct = classify(4)
    assert lines == [f"{r.n}\t{r.a_hex}\t{r.b_hex}\t{r.symmetry_type}\t{r.class_id}"
                     for r in direct]


def test_classify_rejects_mismatched_input(tmp_path, capsys):
    rows = tmp_path / "rows.tsv"
    rows.write_text("6\t24\t3D\t-\t0\n", encoding="utf-8")
    assert run(["classify", "--n", "4", "--in", str(rows)]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# equiv


def write_gram(path, G):
    path.write_text(format_gram(G), encoding="utf-8")


def test_equiv_detects_equivalent_grams(tmp_path, capsys):
    G = row_gram(ROW_BY_KEY[(6, "24", "02")])
    rng = np.random.default_rng(2)
    perm = tuple(int(x) for x in rng.permutation(G.size))
    phases = tuple(rng.choice([1, -1, 1j, -1j]) for _ in range(G.size))
    H = EquivalenceCertificate(perm, phases).apply(G)
    left, right = tmp_path / "l.txt", tmp_path / "r.txt"
    write_gram(left, G)
    write_gram(right, H)
    assert run(["equiv", "--left", str(left), "--right", str(right)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "equivalent"
    assert out[1].startswith("permutation: ")
    assert out[2].startswith("phases: ")


def test_equiv_detects_inequivalent_grams(tmp_path, capsys):
    left, right = tmp_path / "l.txt", tmp_path / "r.txt"
    write_gram(left, row_gram(ROW_BY_KEY[(8, "F7", "ED")]))
    write_gram(right, row_gram(ROW_BY_KEY[(8, "F7", "E9")]))
    assert run(["equiv", "--left", str(left), "--right", str(right),
                "--transitive"]) == 1
    assert capsys.readouterr().out == "inequivalent\n"


def test_equiv_missing_file(capsys):
    assert run(["equiv", "--left", "/nonexistent/l", "--right", "/nonexistent/r"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# minimize / discover


def test_minimize_converges_quickly(capsys):
    assert run(["minimize", "--n", "2", "--restarts", "3"]) == 0
    out = capsys.readouterr().out
    assert "value: " in out
    assert "coherence-gap: " in out
    assert out.rstrip().endswith("converged: yes")


def test_minimize_nonconvergence(capsys):
    assert run(["minimize", "--n", "3", "--restarts", "1",
                "--max-iterations", "2"]) == 1
    assert "converged: no" in capsys.readouterr().out


def test_discover_prints_record(capsys):
    assert run(["discover", "--n", "2", "--restarts", "5"]) == 0
    out = capsys.readouterr().out.strip()
    n, a_hex, b_hex, t, class_id = out.split("\t")
    assert n == "2"
    assert t == "P"
    assert class_id == "1"


def test_discover_rejects_a_negative_seed(capsys):
    # random.Random(-3) would seed the same stream as random.Random(3)
    assert run(["discover", "--n", "2", "--seed", "-3"]) == 2
    assert "seed" in capsys.readouterr().err


def test_discover_failure_line(capsys):
    assert run(["discover", "--n", "3", "--restarts", "1",
                "--max-iterations", "2"]) == 1
    assert capsys.readouterr().out.startswith("failure: no-convergence")


# ---------------------------------------------------------------------------
# parser level


def test_unknown_command_is_usage_error():
    assert run(["frobnicate"]) == 2


def test_console_script_entry_point():
    # the script is declared in pyproject.toml ...
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    if sys.version_info >= (3, 11):
        import tomllib
        assert tomllib.loads(text)["project"]["scripts"]["skewframes"] == "skewframes.cli:main"
    else:
        section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        assert 'skewframes = "skewframes.cli:main"' in section.splitlines()
    # ... and the same entry point runs end to end through python -m, from
    # the package this suite imports, whether or not the script is installed
    env = dict(os.environ, PYTHONPATH=str(Path(skewframes.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "skewframes", "verify", "--a", "2", "--b", "3", "--n", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "skew-Hadamard: yes; ETF(4,2): yes; regular: yes\n"


def _loaded(code, modules):
    """Run code in a fresh interpreter on the package this suite imports
    and return which of modules it left in sys.modules (a module counts
    with any of its submodules)."""
    env = dict(os.environ, PYTHONPATH=str(Path(skewframes.__file__).resolve().parents[1]))
    probe = (f"{code}\nimport sys\n"
             f"print(' '.join(m for m in {tuple(modules)!r} "
             "if any(k == m or k.startswith(m + '.') for k in sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_pulls_in_neither_numpy_random_nor_scipy_optimize():
    # both add to the start-up time every CLI call pays; only the calls
    # that need them import them
    assert _loaded("import skewframes", ["numpy.random", "scipy.optimize"]) == []


def test_discover_runs_without_scipy():
    # the L-BFGS is in-repo numpy; scipy is no runtime dependency
    code = ("from skewframes import numopt\n"
            "numopt.discover(4, numopt.MinimizeConfig(4, restarts=9, seed=7))")
    assert _loaded(code, ["scipy"]) == []


def test_discover_pulls_in_no_numpy_random():
    # restarts start from the standard library's random, which numpy
    # itself already imports
    code = ("from skewframes.numopt import MinimizeConfig, discover\n"
            "from skewframes.search import SolutionRecord\n"
            "assert isinstance(discover(4, MinimizeConfig(4, restarts=9, seed=7)), SolutionRecord)")
    assert _loaded(code, ["numpy.random"]) == []


def test_classify_pulls_in_no_numpy_random():
    # the equivalence engine and its fingerprint use fixed weights, not a
    # seeded generator, so classification pays no numpy.random import
    assert _loaded("from skewframes import search\nsearch.classify(8)", ["numpy.random"]) == []


def test_serial_calls_pull_in_no_process_pool():
    # only enumerate(..., jobs > 1) imports the process pool
    code = "from skewframes import search\nsearch.enumerate(8)\nsearch.classify(8)"
    assert _loaded(code, ["multiprocessing", "concurrent.futures.process"]) == []
