"""The command-line parser against the argparse parser it replaced, the help
and usage output, and the README's CLI examples."""

import argparse
import contextlib
import functools
import io
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distchroma.cli import (
    _cmd_chi,
    _cmd_color,
    _cmd_matrix,
    _cmd_sweep,
    _cmd_verify,
    main,
    parse_args,
)

# ------------------------------------------------- the argparse reference

# The argparse parser the command line had before, verbatim.
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


def reference_outcome(argv):
    """The exit code the argparse parser raised, or its handler and values."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code
    values = vars(args)
    del values["command"]
    return values.pop("func"), values


def outcome(argv):
    """The exit code ``parse_args`` raised, or its handler and values; a
    refusal must print a usage line and one error line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            handler, args = parse_args(argv)
        except SystemExit as exc:
            if exc.code == 0:
                assert out.getvalue().startswith("usage: ") and err.getvalue() == ""
            else:
                usage, error = err.getvalue().splitlines()
                assert usage.startswith("usage: distchroma") and ": error: " in error
                assert out.getvalue() == ""
            return exc.code
    assert out.getvalue() == err.getvalue() == ""
    return handler, vars(args)


# ------------------------------------------------------ the token grammar

COMMANDS = ["chi", "color", "verify", "matrix", "sweep"]
LONG = ["--json", "--k", "--period", "--colors", "--steps", "--max", "--out", "--format", "--help"]
PREFIXES = sorted({name[:n] for name in LONG for n in range(3, len(name))})
JUNK = ["frob", "x", "", "-", "-x", "-hx", "-h=x", "--frob", "---", "a b", "--js on", "csv", "json", "xml"]
VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.integers(-(10**6), -1).map(str),
    st.sampled_from(["one", "1.5", "-1.5", "-.5", "0x10", "0,1", "0,x", "-1,2", "1,-2", "9" * 4301]),
)
TOKENS = st.one_of(
    st.sampled_from(COMMANDS),
    st.sampled_from(JUNK),
    st.sampled_from([*LONG, "-h"]),
    st.sampled_from(PREFIXES),
    st.builds("{}={}".format, st.sampled_from(["--", *LONG, *PREFIXES]), st.one_of(VALUES, st.sampled_from(JUNK))),
    st.just("--"),
    VALUES,
    VALUES,
)
OPTION_VALUES = {
    "--json": None,
    "--k": VALUES,
    "--period": VALUES,
    "--colors": st.sampled_from(["0,1", "0,1,2", "0,x", "-1,2", "", "0"]),
    "--steps": None,
    "--max": VALUES,
    "--out": st.sampled_from(["rows.csv", "-", ""]),
    "--format": st.sampled_from(["csv", "json", "xml", "-1"]),
}
COMMAND_OPTIONS = {
    "chi": ["--json"],
    "color": ["--k"],
    "verify": ["--period", "--colors"],
    "matrix": ["--steps"],
    "sweep": ["--max", "--out", "--format"],
}


@st.composite
def command_lines(draw):
    """A subcommand with its positionals and options, each option absent,
    given once or repeated, spelled in full or by a prefix, with its value
    separate or after "=", all in any order, and up to two tokens inserted
    anywhere."""
    command = draw(st.sampled_from(COMMANDS))
    count = 0 if command == "sweep" else 3
    words = [[draw(st.one_of(st.integers(1, 30).map(str), VALUES))] for _ in range(count)]
    for name in COMMAND_OPTIONS[command]:
        for _ in range(draw(st.integers(0, 2))):
            spelling = draw(st.sampled_from([name[:n] for n in range(3, len(name) + 1)]))
            values = OPTION_VALUES[name]
            if values is None:
                words.append([spelling])
            elif draw(st.booleans()):
                words.append([f"{spelling}={draw(values)}"])
            else:
                words.append([spelling, draw(values)])
    argv = [command, *(word for group in draw(st.permutations(words)) for word in group)]
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(TOKENS))
    return argv


ARGVS = st.one_of(
    st.lists(TOKENS, max_size=8),
    st.builds(
        lambda before, command, after: [*before, command, *after],
        st.lists(TOKENS, max_size=2),
        st.sampled_from(COMMANDS),
        st.lists(TOKENS, max_size=9),
    ),
    command_lines(),
    command_lines(),
)


@settings(max_examples=1500, deadline=None)
@given(ARGVS)
# accepted syntax: options before, between and after positionals, = values,
# unique prefixes, --, negative numbers, repeats
@example(["chi", "--json", "1", "2", "3"])
@example(["chi", "1", "--json", "2", "3"])
@example(["verify", "--colors=0,1", "1", "3", "--period", "2", "5"])
@example(["chi", "1", "2", "3", "--js"])
@example(["sweep", "--form", "json", "--ma=4"])
@example(["chi", "--", "1", "2", "3"])
@example(["chi", "1", "2", "--", "-3"])
@example(["color", "1", "2", "3", "--k", "-3"])
@example(["chi", "1", "2", "-3"])
@example(["color", "1", "2", "3", "--k", "2", "--k", "4"])
@example(["verify", "1", "2", "3", "--period", "2", "--colors=-1,2"])
# refusals and help
@example(["chi", "x", "-h"])
@example(["chi", "1", "2", "3", "4", "-h"])
@example(["verify", "1", "2", "3", "--period", "2", "--colors", "-1,2"])
@example(["--frob", "chi", "-h"])
@example(["chi", "-h", "--=x"])
@example(["--", "chi", "1", "2", "3"])
@example(["chi", "1", "2", "3", "--json", "--"])
@example(["sweep", "--max", "3", "--"])
@example(["sweep", "--max", "9" * 4301])
def test_parser_matches_argparse(argv):
    expected = reference_outcome(argv)
    if isinstance(expected, tuple) and any(type(v) is list for v in expected[1].values()):
        # The one deliberate difference in this grammar: argparse read a
        # second "--" that stood alone as a positional as [].
        assert outcome(argv) == 2
    else:
        assert outcome(argv) == expected


@pytest.mark.parametrize(
    "argv, error",
    [
        # argparse removed "--" from each positional's words, so a second
        # "--" alone became the value [] and the handler raised a TypeError.
        (["chi", "1", "--", "--", "3"], "distchroma chi: error: argument b: invalid int value: '--'"),
        # argparse read -hh as -h -h and printed the help; the grammar above
        # has no such token.
        (["chi", "-hh"], "distchroma chi: error: argument -h/--help: ignored explicit argument 'h'"),
    ],
)
def test_deliberate_differences(capsys, argv, error):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == error


# ------------------------------------------------------- help and usage

def _help_strings(parser):
    return [action.help for action in parser._actions if action.help]


@pytest.mark.parametrize(
    "argv, code, named",
    [
        ([], 2, "command"),
        (["frob"], 2, "'frob'"),
        (["chi", "1", "2"], 2, "required: c"),
        (["sweep", "--max", "3", "--format", "xml"], 2, "--format: invalid choice: 'xml'"),
        (["--help"], 0, None),
        *(([command, "-h"], 0, command) for command in COMMANDS),
    ],
)
def test_help_and_usage(capsys, argv, code, named):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        usage, error = captured.err.splitlines()
        assert usage.startswith("usage: distchroma") and "error:" not in usage
        assert re.match(r"distchroma( \w+)?: error: ", error)
        assert named in error
        return
    assert captured.err == ""
    reference = build_parser()
    subparsers = reference._subparsers._group_actions[0]
    if named is None:
        wanted = _help_strings(reference) + COMMANDS
        wanted += [action.help for action in subparsers._choices_actions]
    else:
        wanted = _help_strings(subparsers.choices[named])
    for text in wanted:
        assert text in captured.out, text


# ------------------------------------------------------ README examples

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_cli_examples():
    """(argv, documented exit code) for each command in the README's CLI
    block; a line's own comment names its exit code, or it exits 0."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    for line in block.splitlines():
        if line.startswith("distchroma "):
            command, _, comment = line.partition("#")
            documented = re.search(r"\bexit (\d)\b", comment)
            yield shlex.split(command)[1:], int(documented.group(1)) if documented else 0


@pytest.mark.parametrize("argv, code", list(_readme_cli_examples()))
def test_readme_cli_example(capsys, monkeypatch, tmp_path, argv, code):
    monkeypatch.chdir(tmp_path)  # an example may write a file
    try:
        result = main(argv)
    except SystemExit as exc:
        result = exc.code
    assert result == code


# --------------------------------------------------- bounded error lines

TOKENS_TO_BOUND = {"long": "9" * 5000, "newline": "a\nb"}


# Each refusal that echoes user text, as its command line for a token and
# whether a usage line comes first: the parser's refusals print one, and
# sweep's unwritable --out prints only its error line.
REFUSALS = [
    pytest.param(lambda token: ["chi", "1", "2", "3", token], True, id="unrecognized"),
    pytest.param(lambda token: [f"-{token}", "chi", "1", "2", "3"], True, id="unrecognized-top"),
    pytest.param(lambda token: [token], True, id="command-choice"),
    pytest.param(lambda token: ["sweep", "--max", "3", "--format", token], True, id="format-choice"),
    pytest.param(lambda token: ["chi", "1", "2", "3", f"--={token}"], True, id="ambiguous"),
    pytest.param(lambda token: ["chi", "1", "2", "3", f"--json={token}"], True, id="explicit-argument"),
    pytest.param(lambda token: ["chi", "1", "2", token], True, id="int"),
    pytest.param(
        lambda token: ["sweep", "--max", "3", "--out", f"/nonexistent/{token}"], False, id="cannot-write"
    ),
]


@pytest.mark.parametrize("token", TOKENS_TO_BOUND)
@pytest.mark.parametrize("command, usage", REFUSALS)
def test_error_lines_are_bounded(capsys, token, command, usage):
    try:
        code = main(command(TOKENS_TO_BOUND[token]))
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    if usage:
        assert len(lines) == 2 and lines[0].startswith("usage: distchroma")
    else:
        assert len(lines) == 1
    assert re.match(r"(distchroma( \w+)?: )?error: ", lines[-1])
    assert all(len(line.encode()) < 1024 for line in lines), lines
