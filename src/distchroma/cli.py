"""Command-line interface: classification, colorings, verification, matrix
traces, and the sweep harness.

Exit codes are a stable contract: 0 success, 1 a verification or
consistency failure, 2 invalid input.  The parser, ``parse_args``, is the one
place that maps usage errors to exit 2: it reads the command line once, left
to right, by the grammar that README's ``## CLI`` section states, against the
``COMMANDS`` table.  Help exits 0 as soon as it is read; a refusal raises
``SystemExit(2)`` after a usage line and one ``distchroma [<cmd>]: error:``
line on stderr.  Subcommands raise on failure and never print ``error:``
themselves; ``main`` is the one place that maps library errors to exit
codes: ``InvalidInputError`` exits 2 and ``CertificationError`` exits 1,
each with one ``error:`` line on stderr.
Output that cannot be written because the reader closed standard output
(``distchroma ... | head``) is a failure too: it exits 1 with an ``error:``
line and no traceback.  Every piece of user text in an error line passes
through ``_shown``, so one line stays short whatever the input.
"""

import os
import sys
from collections import namedtuple
from itertools import chain
from math import gcd
from types import SimpleNamespace

from .errors import (
    MAX_DIGITS,
    CertificationError,
    InvalidInputError,
    _brief,
    _past_max_digits,
)
from .intmat import build_heuberger_matrix, collapses, hermite_reduce_step
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

# One sweep result, and one row of the sweep's table: the fields, in order,
# are its CSV columns and JSON keys.  chi_formula is the classification
# value and chi_certified the certified one; period is the certified period;
# both are None when certification fails.  ees_bound is the generic q*k^q
# period bound (q = max distance, k = chi) for contrast, and agree is
# chi_certified == chi_formula.
SweepRow = namedtuple("SweepRow", "a b c chi_formula chi_certified period ees_bound agree")


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
        try:
            cert = certify(t)
            chi, period = cert.chi, cert.upper.period
        except CertificationError:
            chi = period = None
        rows.append(SweepRow(t.a, t.b, t.c, fchi, chi, period, t.c * fchi**t.c, chi == fchi))
    return rows


def _note_normalization(args, t: DistanceTriple) -> None:
    if t.scale > 1:
        print(
            f"normalized ({args.a}, {args.b}, {args.c}) -> {t.distances()} with scale {t.scale}"
        )


def _cmd_chi(args) -> int:
    t = normalize_triple(args.a, args.b, args.c)
    if args.json:
        print(certify(t).to_json())
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
        colors = tuple(map(_integer, args.colors.split(",")))
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
    import json
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
    moves = collapses(m)
    # Entries and products grow past b + c, so every number is checked
    # before the first line is printed.
    shown = [q, r]
    quotients = [quotient for *_, quotient in moves if type(quotient) is not str]
    for matrix in [m, reduced, *quotients]:
        shown += chain(matrix.label, *matrix.entries)
        if args.steps:
            shown += matrix.label_column_products()
    for value in shown:
        if _past_max_digits(value):
            raise InvalidInputError(
                f"the relation matrix of {_brief(t.distances())} holds {_brief(value)}, "
                f"which has more than MAX_DIGITS = {MAX_DIGITS} digits"
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
    for i, j, sign, quotient in moves:
        if type(quotient) is str:
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
        import json
        payload = json.dumps([row._asdict() for row in rows], indent=2) + "\n"
    else:
        # None is an empty cell and agree is spelled true/false; no value,
        # and no column name, needs quoting.
        payload = "".join(
            ",".join("" if v is None else str(v).lower() for v in row) + "\n"
            for row in [SweepRow._fields, *rows]
        )
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            shown = _shown(args.out)
            # the error names the path again unless it is shown abbreviated
            reason = exc if shown == args.out else exc.strerror
            raise InvalidInputError(f"cannot write {shown}: {reason}") from None
    else:
        print(payload, end="")
    return 0 if all(row.agree for row in rows) else 1


def _shown(text: str, quote: bool = False) -> str:
    """User text as an error line shows it: as given, or as its repr when
    quote is set, if it has at most 100 characters, all printable;
    otherwise by the repr of its first 12 characters, with "..." when cut,
    and its length, so one error line stays short whatever the input."""
    if len(text) <= 100 and text.isprintable():
        return repr(text) if quote else text
    head = text if len(text) <= 12 else text[:12] + "..."
    return f"{head!r} ({len(text)} characters)"


def _integer(text: str) -> int:
    """Convert an int argument: text that int() refuses, or that holds more
    than MAX_DIGITS digits, is named in a bounded message.  Longer text is
    refused before int() reads it, whatever the interpreter's own limit."""
    if len(text) <= MAX_DIGITS or sum(map(str.isdecimal, text)) <= MAX_DIGITS:
        try:
            return int(text)
        except ValueError:
            pass
    raise ValueError(f"invalid int value: {_shown(text, quote=True)}")


DESCRIPTION = (
    "Chromatic numbers of integer distance graphs with three distances:\n"
    "classification, certified periodic colorings, and relation-matrix traces."
)

# One entry per subcommand: (help, handler, positionals, options).  Every
# positional is an integer.  An option is (flag, type, default, required,
# help); its destination is the flag without the dashes, and its type is
# _integer, str, a tuple of choices, or None for a flag that stores True.
# A required option has the default None, which no given value equals.
_TRIPLE = ("a", "b", "c")
COMMANDS = {
    "chi": (
        "chromatic number of the {a,b,c} distance graph",
        _cmd_chi,
        _TRIPLE,
        (("--json", None, False, False, "emit the full certificate as JSON"),),
    ),
    "color": (
        "construct a periodic coloring",
        _cmd_color,
        _TRIPLE,
        (("--k", _integer, None, False, "colors to use (default: the chromatic number)"),),
    ),
    "verify": (
        "check a periodic color word",
        _cmd_verify,
        _TRIPLE,
        (
            ("--period", _integer, None, True, None),
            ("--colors", str, None, True, "comma-separated color word"),
        ),
    ),
    "matrix": (
        "show the relation-matrix pipeline",
        _cmd_matrix,
        _TRIPLE,
        (("--steps", None, False, False, "trace each stage as JSON with annihilation checks"),),
    ),
    "sweep": (
        "cross-validate all triples up to a bound",
        _cmd_sweep,
        (),
        (
            ("--max", _integer, None, True, "largest distance to sweep"),
            ("--out", str, None, False, "write the table to a file instead of stdout"),
            ("--format", ("csv", "json"), "csv", False, None),
        ),
    ),
}

_HELP = ("--help", None, None, False, "show this help message and exit")
# Every long option each subcommand reads, by its full name.
_OPTIONS = {name: {o[0]: o for o in (*entry[3], _HELP)} for name, entry in COMMANDS.items()}


def _spelling(option) -> str:
    flag, kind = option[:2]
    if kind is None:
        return flag
    return f"{flag} {{{','.join(kind)}}}" if type(kind) is tuple else f"{flag} {flag[2:].upper()}"


def _usage(command) -> str:
    if command is None:
        return f"usage: distchroma [-h] {{{','.join(COMMANDS)}}} ..."
    _, _, positionals, options = COMMANDS[command]
    words = [f"usage: distchroma {command} [-h]"]
    words += (_spelling(o) if o[3] else f"[{_spelling(o)}]" for o in options)
    return " ".join([*words, *positionals])


def _help(command) -> str:
    """Usage, what the command does, and one line per subcommand or option."""
    if command is None:
        about, rows = DESCRIPTION, [(name, entry[0]) for name, entry in COMMANDS.items()]
    else:
        about, _, _, options = COMMANDS[command]
        rows = [(_spelling(o), o[4] or "") for o in options]
    rows.append(("-h, --help", _HELP[4]))
    width = max(len(left) for left, _ in rows) + 2
    lines = [f"  {left:<{width}}{text}".rstrip() for left, text in rows]
    return "\n".join([_usage(command), "", about, "", *lines])


def _exit_with_help(command):
    print(_help(command))
    raise SystemExit(0)


def _refuse(command, message):
    """Print the usage line and one error line on stderr, and exit 2."""
    prog = "distchroma" if command is None else f"distchroma {command}"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _convert(command, name, kind, text):
    if type(kind) is tuple:
        if text not in kind:
            choices = ", ".join(map(repr, kind))
            shown = _shown(text, quote=True)
            _refuse(command, f"argument {name}: invalid choice: {shown} (choose from {choices})")
        return text
    try:
        return kind(text)
    except ValueError as exc:
        _refuse(command, f"argument {name}: {exc}")


def parse_args(argv: "list[str]"):
    """The handler and the arguments that a command line names, read left
    to right by the grammar that README's ``## CLI`` section states.

    Help exits 0 as soon as it is read; any other refusal prints a usage
    line and one error line on stderr and exits 2.
    """
    if not argv:
        _refuse(None, "the following arguments are required: command")
    command = argv[0]
    if command == "-h" or command[:3] == "--h" and "--help".startswith(command):
        _exit_with_help(None)
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        shown = _shown(command, quote=True)
        _refuse(None, f"argument command: invalid choice: {shown} (choose from {choices})")
    _, handler, positionals, options = COMMANDS[command]
    table = _OPTIONS[command]
    args = {o[0][2:]: o[2] for o in options}
    words = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            words += tokens  # every later token, which ends the loop
        elif token == "-h":
            _exit_with_help(command)
        elif token[:2] != "--":
            words.append(token)
        else:
            name, eq, value = token.partition("=")
            matches = [name] if name in table else [flag for flag in table if flag.startswith(name)]
            if len(matches) > 1:
                _refuse(command, f"ambiguous option: {_shown(token)} could match {', '.join(matches)}")
            if not matches:
                _refuse(command, f"unrecognized arguments: {_shown(token)}")
            flag, kind = table[matches[0]][:2]
            if kind is None:
                if eq:
                    names = "-h/--help" if flag == "--help" else flag
                    _refuse(command, f"argument {names}: ignored explicit argument {_shown(value, quote=True)}")
                if flag == "--help":
                    _exit_with_help(command)
                args[flag[2:]] = True
                continue
            if not eq:
                value = next(tokens, "--")  # a missing value reads like an option
                if value[:2] == "--":
                    _refuse(command, f"argument {flag}: expected one argument")
            args[flag[2:]] = _convert(command, flag, kind, value)
    args.update({name: _convert(command, name, _integer, word) for name, word in zip(positionals, words)})
    missing = list(positionals[len(words) :])
    missing += [o[0] for o in options if o[3] and args[o[0][2:]] is None]
    if missing:
        _refuse(command, f"the following arguments are required: {', '.join(missing)}")
    if len(words) > len(positionals):
        _refuse(command, f"unrecognized arguments: {_shown(' '.join(words[len(positionals) :]))}")
    return handler, SimpleNamespace(**args)


def main(argv: "list[str] | None" = None) -> int:
    handler, args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code = handler(args)
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
