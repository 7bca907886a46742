"""Command line front end.

Exit codes: 0 success (or verified true), 1 verified false (checks
failed, matrices inequivalent, empty search), 2 usage or invalid input,
3 internal failure.

Gram matrices travel as text files: a header line "gram N", then N rows
of N whitespace-separated entries "re+imi" (full precision repr), then
optionally a line "exact" followed by N rows of the Gaussian-integer
scaled view, which format_gram derives from the float rows and
parse_gram checks against them.  Solution lists are tab-separated rows
"n<TAB>a_hex<TAB>b_hex<TAB>type<TAB>class_id" with "-" for an untyped
class and class_id 0 for not-yet-classified rows.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import frames, hadamard, numopt, paley, search
from .equiv import are_equivalent
from .frames import DihedralFlavor, GramMatrix
from .paley import ConstructionError, FiniteField, prime_power
from .search import SolutionRecord


# ---------------------------------------------------------------------------
# gram file text format


def _format_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    sign = "+" if im >= 0 or np.isnan(im) else "-"
    return f"{re!r}{sign}{abs(im)!r}i"


def _parse_complex(tok: str) -> complex:
    if not tok.endswith("i"):
        raise ValueError(f"bad complex token {tok!r}")
    body = tok[:-1]
    # split at the sign of the imaginary part: the last +/- that is not
    # an exponent sign and not the leading sign.
    for pos in range(len(body) - 1, 0, -1):
        c = body[pos]
        if c in "+-" and body[pos - 1] not in "eE":
            return complex(float(body[:pos]), float(body[pos:]))
    raise ValueError(f"bad complex token {tok!r}")


def format_gram(G: GramMatrix) -> str:
    lines = [f"gram {G.size}"]
    for row in G.values:
        lines.append(" ".join(_format_complex(z) for z in row))
    lines.append("exact")
    for row in G.exact_view:
        lines.append(" ".join(
            f"{int(round(z.real))}{'+' if z.imag >= 0 else '-'}{abs(int(round(z.imag)))}i"
            for z in row))
    return "\n".join(lines) + "\n"


def _parse_rows(lines, N: int, what: str) -> np.ndarray:
    if len(lines) != N:
        raise ValueError(f"{what} has {len(lines)} rows, header says {N}")
    rows = [[_parse_complex(t) for t in ln.split()] for ln in lines]
    if any(len(row) != N for row in rows):
        raise ValueError(f"{what} row length disagrees with header")
    return np.asarray(rows, dtype=complex)


def parse_gram(text: str) -> GramMatrix:
    """The inverse of format_gram: a 'gram N' header, N rows of N complex
    tokens, then nothing or an 'exact' line and N rows of its exact view."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != "gram":
        raise ValueError("missing 'gram N' header")
    N = int(header[1])
    values = _parse_rows(lines[1:N + 1], N, "gram section")
    rest = lines[N + 1:]
    if rest and rest[0] != "exact":
        raise ValueError(f"expected 'exact' or the end after {N} gram rows, got {rest[0]!r}")
    exact = _parse_rows(rest[1:], N, "exact section") if rest else None
    return GramMatrix(values, exact_scaled=exact)


def _write_or_print(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_verify(args) -> int:
    a = hadamard.hex_decode(args.a, args.n)
    b = hadamard.hex_decode(args.b, args.n)
    H = hadamard.assemble(a, b)
    skew = hadamard.is_skew_hadamard(H)
    if not skew:
        print(f"skew-Hadamard: no; ETF({2 * args.n},{args.n}): not evaluated; "
              "regular: not evaluated")
        return 1
    G = hadamard.block_etf_gram(H)
    config = frames.configuration_from_gram(G, args.n)
    etf = frames.is_etf(config, rel_tol=1e-9)
    regular = frames.is_regular(config)
    print(f"skew-Hadamard: yes; ETF({2 * args.n},{args.n}): "
          f"{'yes' if etf else 'no'}; regular: {'yes' if regular else 'no'}")
    return 0 if (etf and regular) else 1


def _cmd_decode(args) -> int:
    v = hadamard.hex_decode(args.hex, args.n)
    print("".join("+" if s == 1 else "-" for s in v))
    return 0


def _cmd_encode(args) -> int:
    if any(c not in "+-" for c in args.signs):
        raise ValueError("signs must be a string of '+' and '-'")
    v = tuple(1 if c == "+" else -1 for c in args.signs)
    print(hadamard.hex_encode(v))
    return 0


def _cmd_paley(args) -> int:
    pp = prime_power(args.q)
    if pp is None:
        raise ValueError(f"{args.q} is not a prime power")
    field = FiniteField(*pp)
    if args.conj and not args.double:
        raise ValueError("--conj requires --double")
    if args.double and args.conj:
        G = paley.conj_double_paley_gram(field)
    elif args.double:
        G = paley.double_paley_gram(field)
    else:
        G = paley.paley_gram(field)
    _write_or_print(format_gram(G), args.out)
    return 0


def _cmd_search(args) -> int:
    sols = search.enumerate(args.n, jobs=args.jobs)
    records = [SolutionRecord(args.n, hadamard.hex_encode(s.a), hadamard.hex_encode(s.b), None, 0)
               for s in sols]
    _write_or_print(search.format_records(records), args.out)
    return 0 if sols else 1


def _cmd_classify(args) -> int:
    solutions = None
    if args.infile:
        rows = search.load_records(args.infile)
        solutions = [
            hadamard.BlockSkewHadamard(
                n=r.n,
                a=hadamard.hex_decode(r.a_hex, r.n),
                b=hadamard.hex_decode(r.b_hex, r.n))
            for r in rows
        ]
        if any(r.n != args.n for r in rows):
            raise ValueError("input rows disagree with --n")
    records = search.classify(args.n, jobs=args.jobs, solutions=solutions)
    _write_or_print(search.format_records(records), args.out)
    print(f"{len(records)} classes")
    return 0 if records else 1


def _cmd_equiv(args) -> int:
    with open(args.left, "r", encoding="utf-8") as fh:
        G0 = parse_gram(fh.read())
    with open(args.right, "r", encoding="utf-8") as fh:
        G1 = parse_gram(fh.read())
    result = are_equivalent(G0, G1, assume_transitive=args.transitive)
    if not result.equivalent:
        print("inequivalent")
        return 1
    cert = result.certificate
    print("equivalent")
    print("permutation: " + " ".join(str(p) for p in cert.permutation))
    print("phases: " + " ".join(_format_complex(f) for f in cert.phases))
    return 0


def _minimize_config(args) -> numopt.MinimizeConfig:
    return numopt.MinimizeConfig(
        n=args.n, p=args.p, restarts=args.restarts,
        max_iterations=args.max_iterations, seed=args.seed)


def _cmd_minimize(args) -> int:
    flavor = DihedralFlavor.STRICT if args.strict else DihedralFlavor.PROJECTIVE
    result = numopt.minimize_fiducial(_minimize_config(args), flavor)
    orbit = frames.dihedral_orbit(result.v, flavor)
    gap = frames.coherence(orbit) - frames.welch_bound(2 * args.n, args.n)
    print(f"value: {result.value!r}")
    print(f"coherence-gap: {gap!r}")
    print(f"converged: {'yes' if result.converged else 'no'}")
    return 0 if result.converged else 1


def _cmd_discover(args) -> int:
    outcome = numopt.discover(args.n, _minimize_config(args))
    if isinstance(outcome, numopt.DiscoveryFailure):
        print(f"failure: {outcome.stage}" +
              (f" ({outcome.detail})" if outcome.detail else ""))
        return 1
    sys.stdout.write(search.format_records([outcome]))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewframes",
        description="Dihedral equiangular tight frames via two-negacirculant "
                    "skew Hadamard matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a hex-encoded solution pair")
    p.add_argument("--a", required=True, help="hex encoding of the first row a")
    p.add_argument("--b", required=True, help="hex encoding of the first row b")
    p.add_argument("--n", required=True, type=int, help="block size n (order 2n)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("decode", help="hex to sign string")
    p.add_argument("--hex", required=True)
    p.add_argument("--n", required=True, type=int)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("encode", help="sign string (e.g. '+--+') to hex")
    p.add_argument("--signs", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("paley", help="write a Paley-type ETF Gram matrix")
    p.add_argument("--q", required=True, type=int, help="prime power, 3 mod 4")
    p.add_argument("--double", action="store_true")
    p.add_argument("--conj", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_paley)

    p = sub.add_parser("search", help="enumerate solutions for one n")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("classify", help="group solutions into equivalence classes")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--in", dest="infile", help="previously saved solution rows")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("equiv", help="decide equivalence of two gram files")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--transitive", action="store_true",
                   help="both grams are vertex-transitive; anchor once")
    p.set_defaults(func=_cmd_equiv)

    # the options of MinimizeConfig, shared by minimize and discover
    optimizer = argparse.ArgumentParser(add_help=False)
    optimizer.add_argument("--n", required=True, type=int)
    optimizer.add_argument("--p", type=int, default=4)
    optimizer.add_argument("--restarts", type=int, default=50)
    optimizer.add_argument("--max-iterations", type=int, default=4000,
                           help="L-BFGS iterations per restart")
    optimizer.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("minimize", parents=[optimizer], help="frame potential minimization")
    p.add_argument("--strict", action="store_true",
                   help="optimize the strict flavor instead of projective")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("discover", parents=[optimizer],
                       help="numerical search followed by exact rounding")
    p.set_defaults(func=_cmd_discover)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConstructionError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())
