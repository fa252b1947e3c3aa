"""Command-line interface: classification, colorings, verification, matrix
traces, and the sweep harness.

Exit codes are a stable contract: 0 success, 1 a verification or
consistency failure, 2 invalid input.  Subcommands raise on failure and never
print ``error:`` themselves; ``main`` is the one place that maps errors to
exit codes: ``InvalidInputError`` exits 2 and ``CertificationError`` exits
1, each with one ``error:`` line on stderr.  Output that cannot be written
because the reader closed standard output (``distchroma ... | head``) is
a failure too: it exits 1 with an ``error:`` line and no traceback.
"""

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import asdict, astuple, dataclass, fields
from itertools import chain
from math import gcd

from .errors import (
    CertificationError,
    InvalidInputError,
    QuotientLoopsError,
    _brief,
    _past_str_limit,
)
from .intmat import COLLAPSE_MOVES, build_heuberger_matrix, collapse_rows, hermite_reduce_step
from .periodic import certify, lower_bound, upper_bound, word_is_proper
from .zhu import (
    ChiBranch,
    DistanceTriple,
    chi_formula,
    normalize_triple,
    orient_for_matrix,
)

BRANCH_TEXT = {
    ChiBranch.ALL_ODD: "all odd",
    ChiBranch.A1_B2_3DIVC: "a=1, b=2, 3|c",
    ChiBranch.SUM_NOT_CONG_MOD3: "a+b=c, a != b (mod 3)",
    ChiBranch.OTHERWISE: "otherwise",
}

@dataclass(frozen=True)
class SweepRow:
    """One sweep result: the classification value against the certified
    one, the certified period, and the generic q*k^q period bound
    (q = max distance, k = chi) for contrast.  The fields, in order, are
    the sweep's CSV columns and JSON keys."""

    a: int
    b: int
    c: int
    chi_formula: int
    chi_certified: "int | None"
    period: "int | None"
    ees_bound: int
    agree: bool


def iter_triples(max_c: int):
    """Normalized triples a <= b <= c <= max_c with coprime entries, in
    lexicographic order."""
    for a in range(1, max_c + 1):
        for b in range(a, max_c + 1):
            for c in range(b, max_c + 1):
                if gcd(a, b, c) == 1:
                    yield DistanceTriple(a, b, c)


def sweep_rows(max_c: int) -> list[SweepRow]:
    """Certify every normalized triple up to max_c and tabulate the outcome.

    A certification failure is recorded as a disagreeing row instead of
    aborting the sweep, so one bad triple cannot hide the rest.
    """
    rows = []
    for t in iter_triples(max_c):
        fchi, _ = chi_formula(t)
        bound = t.c * fchi**t.c
        try:
            cert = certify(t)
        except CertificationError:
            rows.append(SweepRow(t.a, t.b, t.c, fchi, None, None, bound, False))
            continue
        rows.append(
            SweepRow(
                t.a, t.b, t.c, fchi, cert.chi, cert.upper.period, bound, cert.chi == fchi
            )
        )
    return rows


def _note_normalization(args, t: DistanceTriple) -> None:
    if t.scale > 1:
        print(
            f"normalized ({args.a}, {args.b}, {args.c}) -> {t.distances()} with scale {t.scale}"
        )


def _cmd_chi(args) -> int:
    t = normalize_triple(args.a, args.b, args.c)
    if args.json:
        print(json.dumps(certify(t).to_json_dict(), indent=2))
        return 0
    _note_normalization(args, t)
    chi, branch = chi_formula(t)
    print(f"{chi} ({BRANCH_TEXT[branch]})")
    return 0


def _cmd_color(args) -> int:
    t = normalize_triple(args.a, args.b, args.c)
    chi, _ = chi_formula(t)
    k = chi if args.k is None else args.k
    # lower_bound refuses k < 1, before the normalization line is printed.
    lower = lower_bound(t, k) if k < chi else None
    _note_normalization(args, t)
    if lower is not None:
        length = "" if lower.length is None else f" with L = {lower.length}"
        print(
            f"no {k}-coloring: {lower.kind} lower bound{length} (chromatic number is {chi})",
            file=sys.stderr,
        )
        return 1
    pc = upper_bound(t, k)
    print(f"period {pc.period}")
    print(" ".join(str(color) for color in pc.colors))
    return 0


def _cmd_verify(args) -> int:
    # The word is checked against the distances exactly as given; scaled
    # inputs have different edges than their normalized form.
    if min(args.a, args.b, args.c) < 1:
        raise InvalidInputError("distances must be positive integers")
    if args.period < 1:
        raise InvalidInputError("period must be positive")
    try:
        colors = tuple(int(part) for part in args.colors.split(","))
    except ValueError:
        raise InvalidInputError("--colors must be a comma-separated list of integers") from None
    if len(colors) != args.period:
        raise InvalidInputError(f"expected {_brief(args.period)} colors, got {len(colors)}")
    if word_is_proper((args.a, args.b, args.c), colors):
        print("proper")
        return 0
    print("improper")
    return 1


def _print_stage(stage: str, matrix) -> None:
    print(f"  [{stage}] {json.dumps(matrix.to_json_dict())}")
    for j, total in enumerate(matrix.label_column_products()):
        if matrix.modulus:
            reduced = total % matrix.modulus
            detail = f"label.col{j} = {total} = {reduced} (mod {matrix.modulus})"
        else:
            reduced = total
            detail = f"label.col{j} = {total}"
        mark = "ok" if reduced == 0 else "VIOLATED"
        print(f"  [{stage}] {detail} {mark}")


def _cmd_matrix(args) -> int:
    t = normalize_triple(args.a, args.b, args.c)
    a1, a2, a3 = orient_for_matrix(t)
    m = build_heuberger_matrix(a1, a2, a3)
    q, r, reduced = hermite_reduce_step(m)
    collapses = []
    for i, j, sign in COLLAPSE_MOVES:
        try:
            collapses.append((i, j, sign, collapse_rows(m, i, j, sign)))
        except QuotientLoopsError as exc:
            collapses.append((i, j, sign, exc))
    # Entries and products grow past b + c, so every number is checked
    # before the first line is printed.
    shown = [q, r]
    quotients = [quotient for *_, quotient in collapses if not isinstance(quotient, Exception)]
    for matrix in [m, reduced, *quotients]:
        shown += chain(matrix.label, *matrix.entries)
        if args.steps:
            shown += matrix.label_column_products()
    for value in shown:
        if _past_str_limit(value):
            raise InvalidInputError(
                f"the relation matrix of {_brief(t.distances())} holds {_brief(value)}, "
                f"which has more digits than the interpreter converts to text"
            )
    _note_normalization(args, t)
    print(f"oriented: ({a1}, {a2}, {a3})")
    print(f"M: {_fmt_matrix(m)}")
    if args.steps:
        _print_stage("build", m)
    print(f"reduction: q={q} r={r}")
    print(f"M1: {_fmt_matrix(reduced)}")
    if args.steps:
        _print_stage("reduce", reduced)
    for i, j, sign, quotient in collapses:
        if isinstance(quotient, Exception):
            print(f"collapse rows ({i},{j}) sign {sign:+d}: rejected ({quotient})")
            continue
        conn = ",".join(str(v) for v in quotient.label)
        print(
            f"collapse rows ({i},{j}) sign {sign:+d}: "
            f"C_{quotient.modulus}({conn})  {_fmt_matrix(quotient)}"
        )
        if args.steps:
            _print_stage(f"collapse({i},{j},{sign:+d})", quotient)
    return 0


def _fmt_matrix(m) -> str:
    rows = " / ".join(",".join(str(e) for e in row) for row in m.entries)
    label = ",".join(str(v) for v in m.label)
    return f"({rows})  label ({label})  modulus {m.modulus}"


def _cmd_sweep(args) -> int:
    if args.max < 1:
        raise InvalidInputError("--max must be positive")
    rows = sweep_rows(args.max)
    if args.format == "json":
        payload = json.dumps([asdict(row) for row in rows], indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(field.name for field in fields(SweepRow))
        for row in rows:
            # csv writes None as an empty cell; agree is spelled true/false.
            writer.writerow(str(v).lower() if isinstance(v, bool) else v for v in astuple(row))
        payload = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            raise InvalidInputError(f"cannot write {args.out}: {exc}") from None
    else:
        print(payload, end="")
    return 0 if all(row.agree for row in rows) else 1


# Built on the first call rather than at import, then shared by every call.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distchroma",
        description=(
            "Chromatic numbers of integer distance graphs with three "
            "distances: classification, certified periodic colorings, and "
            "relation-matrix traces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chi = sub.add_parser("chi", help="chromatic number of the {a,b,c} distance graph")
    _add_triple(p_chi)
    p_chi.add_argument("--json", action="store_true", help="emit the full certificate as JSON")
    p_chi.set_defaults(func=_cmd_chi)

    p_color = sub.add_parser("color", help="construct a periodic coloring")
    _add_triple(p_color)
    p_color.add_argument("--k", type=_integer, default=None, help="colors to use (default: the chromatic number)")
    p_color.set_defaults(func=_cmd_color)

    p_verify = sub.add_parser("verify", help="check a periodic color word")
    _add_triple(p_verify)
    p_verify.add_argument("--period", type=_integer, required=True)
    p_verify.add_argument("--colors", type=str, required=True, help="comma-separated color word")
    p_verify.set_defaults(func=_cmd_verify)

    p_matrix = sub.add_parser("matrix", help="show the relation-matrix pipeline")
    _add_triple(p_matrix)
    p_matrix.add_argument("--steps", action="store_true", help="trace each stage as JSON with annihilation checks")
    p_matrix.set_defaults(func=_cmd_matrix)

    p_sweep = sub.add_parser("sweep", help="cross-validate all triples up to a bound")
    p_sweep.add_argument("--max", type=_integer, required=True, help="largest distance to sweep")
    p_sweep.add_argument("--out", type=str, default=None, help="write the table to a file instead of stdout")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def _add_triple(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument("a", type=_integer)
    sub_parser.add_argument("b", type=_integer)
    sub_parser.add_argument("c", type=_integer)


def _integer(text: str) -> int:
    """argparse type for int arguments: text that int() refuses, such as a
    number past the interpreter's digit limit, is named in a bounded message."""
    try:
        return int(text)
    except ValueError:
        shown = repr(text) if len(text) <= 100 else f"'{text[:12]}...' ({len(text)} characters)"
        raise argparse.ArgumentTypeError(f"invalid int value: {shown}") from None


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except (InvalidInputError, CertificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InvalidInputError) else 1
    except BrokenPipeError:
        # Point stdout at the null device, so the interpreter's own flush
        # of what is still buffered cannot raise again on the way out.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed before the output was written", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
