"""The command-line parser against its golden outcomes and the exit-code
contract, the help and usage output, and the README's CLI examples."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest
from cli_golden import HUGE, SAMPLE
from hypothesis import given, settings
from hypothesis import strategies as st

from distchroma.cli import main, parse_args


def outcome(argv):
    """The exit code ``parse_args`` raised, or its handler's name and its
    values.  Help must go to stdout alone; a refusal must print exactly a
    usage line and one error line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            handler, args = parse_args(argv)
        except SystemExit as exc:
            if exc.code == 0:
                assert out.getvalue().startswith("usage: ") and err.getvalue() == ""
            else:
                assert exc.code == 2
                usage, error = err.getvalue().splitlines()
                assert usage.startswith("usage: distchroma") and ": error: " in error
                assert out.getvalue() == ""
            return exc.code
    assert out.getvalue() == err.getvalue() == ""
    return handler.__name__, vars(args)


# ------------------------------------------------------ the token grammar

COMMANDS = ["chi", "color", "verify", "matrix", "sweep"]
LONG = ["--json", "--k", "--period", "--colors", "--steps", "--max", "--out", "--format", "--help"]
PREFIXES = sorted({name[:n] for name in LONG for n in range(3, len(name))})
JUNK = ["frob", "x", "", "-", "-x", "-hx", "-h=x", "--frob", "---", "a b", "--js on", "csv", "json", "xml"]
VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.integers(-(10**6), -1).map(str),
    st.sampled_from(["one", "1.5", "-1.5", "-.5", "0x10", "0,1", "0,x", "-1,2", "1,-2", HUGE]),
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


# ------------------------------------------------------ golden outcomes

# The grammar's own examples, first recorded from the argparse parser the
# CLI had before; a comment names each row where the grammar answers
# differently, with argparse's answer.
GRAMMAR = [
    # options before, between and after the positionals, "=" values, unique
    # prefixes, "--", negative numbers, a repeated option
    (["chi", "--json", "1", "2", "3"], ("_cmd_chi", {"a": 1, "b": 2, "c": 3, "json": True})),
    (["chi", "1", "--json", "2", "3"], ("_cmd_chi", {"a": 1, "b": 2, "c": 3, "json": True})),
    (
        ["verify", "--colors=0,1", "1", "3", "--period", "2", "5"],
        ("_cmd_verify", {"a": 1, "b": 3, "c": 5, "period": 2, "colors": "0,1"}),
    ),
    (["chi", "1", "2", "3", "--js"], ("_cmd_chi", {"a": 1, "b": 2, "c": 3, "json": True})),
    (["sweep", "--form", "json", "--ma=4"], ("_cmd_sweep", {"max": 4, "out": None, "format": "json"})),
    (["chi", "--", "1", "2", "3"], ("_cmd_chi", {"a": 1, "b": 2, "c": 3, "json": False})),
    (["chi", "1", "2", "--", "-3"], ("_cmd_chi", {"a": 1, "b": 2, "c": -3, "json": False})),
    (["color", "1", "2", "3", "--k", "-3"], ("_cmd_color", {"a": 1, "b": 2, "c": 3, "k": -3})),
    (["chi", "1", "2", "-3"], ("_cmd_chi", {"a": 1, "b": 2, "c": -3, "json": False})),
    (["color", "1", "2", "3", "--k", "2", "--k", "4"], ("_cmd_color", {"a": 1, "b": 2, "c": 3, "k": 4})),
    (
        ["verify", "1", "2", "3", "--period", "2", "--colors=-1,2"],
        ("_cmd_verify", {"a": 1, "b": 2, "c": 3, "period": 2, "colors": "-1,2"}),
    ),
    # help and refusals that argparse answered alike
    (["chi", "1", "2", "3", "4", "-h"], 0),
    (["--", "chi", "1", "2", "3"], 2),
    (["sweep", "--max", HUGE], 2),
    # help is printed as soon as it is read; argparse converted the
    # positionals first (2)
    (["chi", "x", "-h"], 0),
    # a value is the next token unless it starts with "--"; argparse took
    # "-1,2" for an option (2)
    (
        ["verify", "1", "2", "3", "--period", "2", "--colors", "-1,2"],
        ("_cmd_verify", {"a": 1, "b": 2, "c": 3, "period": 2, "colors": "-1,2"}),
    ),
    # the first token is a subcommand or -h/--help; argparse refused --frob
    # only after the rest, and printed help (0)
    (["--frob", "chi", "-h"], 2),
    # help is printed as soon as it is read; argparse refused the ambiguous
    # --=x first (2)
    (["chi", "-h", "--=x"], 0),
    # "--" ends the options; argparse refused one that no positional took (2)
    (["chi", "1", "2", "3", "--json", "--"], ("_cmd_chi", {"a": 1, "b": 2, "c": 3, "json": True})),
    (["sweep", "--max", "3", "--"], ("_cmd_sweep", {"max": 3, "out": None, "format": "csv"})),
    # after "--" a second "--" is a positional word, not an int; argparse
    # gave b the value []
    (["chi", "1", "--", "--", "3"], 2),
    # only -h itself is help, so -hh is a positional word, not an int;
    # argparse read it as -h -h (0)
    (["chi", "-hh"], 2),
]

@pytest.mark.parametrize("argv, expected", GRAMMAR + SAMPLE)
def test_golden_outcome(argv, expected):
    assert outcome(argv) == expected


@settings(max_examples=1500, deadline=None)
@given(ARGVS)
def test_parser_keeps_the_exit_code_contract(argv):
    # outcome asserts the output of help and of a refusal
    assert type(outcome(argv)) in (int, tuple)


# ------------------------------------------------------- help and usage

# The help texts each help output lists, besides "show this help message
# and exit".
HELP_TEXTS = {
    None: [
        "Chromatic numbers of integer distance graphs with three distances:",
        "classification, certified periodic colorings, and relation-matrix traces.",
        "chromatic number of the {a,b,c} distance graph",
        "construct a periodic coloring",
        "check a periodic color word",
        "show the relation-matrix pipeline",
        "cross-validate all triples up to a bound",
        *COMMANDS,
    ],
    "chi": ["emit the full certificate as JSON"],
    "color": ["colors to use (default: the chromatic number)"],
    "verify": ["--period PERIOD", "comma-separated color word"],
    "matrix": ["trace each stage as JSON with annihilation checks"],
    "sweep": [
        "largest distance to sweep",
        "write the table to a file instead of stdout",
        "--format {csv,json}",
    ],
}


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
    for text in ["show this help message and exit", *HELP_TEXTS[named]]:
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
