"""Digests of everything the CLI prints over a fixed corpus of command
lines, one sha256 per subcommand, so a change that moves any output byte
names the subcommand it moved.

The corpus runs ``cli.main`` in process over:

- every coprime triple with c <= 30: ``chi --json``, ``matrix --steps``
  and ``color --k k`` for k = 1 .. chi + 1;
- the cost-cliff triples that CI runs, and a 40-digit relation matrix;
- ``sweep --max 12`` as CSV and as JSON;
- ``verify`` on a proper and an improper word, and its refusals;
- every class of usage error the parser has, help, and a 4,301-digit
  argument (one digit past ``MAX_DIGITS``) in every place one can stand.

Each command line is hashed with its exit code, stdout and stderr.  A
change that moves output on purpose updates the digest it moves, and
CHANGES.md names it and says why.

Run as a script (``PYTHONPATH=src python tests/test_corpus.py``) to print
the digests, for instance under an interpreter that has no pytest.
"""

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import gcd

from distchroma.cli import main
from distchroma.zhu import DistanceTriple, chi_formula

MAX_C = 30
HUGE = "9" * 4301
X, X1 = "9" * 4299 + "8", "9" * 4300  # 1 + X + X1 has 4,301 digits

EXTRA = {
    "chi": [
        ["chi", "1", "6561", "13122", "--json"],
        ["chi", "1", "177147", "354294", "--json"],
        ["chi", "1", "3486784401", "6973568802", "--json"],
        ["chi", "19", "20", "39", "--json"],
        ["chi", "29", "30", "59", "--json"],
        ["chi", "35", "141", "176", "--json"],
        ["chi", "72", "295", "367", "--json"],
        ["chi", "9663", "9851", "19514", "--json"],
        ["chi", "1", "2", "999996", "--json"],
        ["chi", "1", "2", "999999", "--json"],
        ["chi", "1", "3", str(10**12), "--json"],
        ["chi", "2", "4", "6"],
        ["chi", "2", "4", "6", "--json"],
        ["chi", "0", "2", "3"],
        ["chi", "1", X, X1, "--json"],
    ],
    "color": [
        ["color", "19", "20", "39", "--k", "3"],
        ["color", "72", "295", "367", "--k", "3"],
        ["color", "1", "2", "3000", "--k", "3"],
        ["color", "1", "2", "1000000000000", "--k", "2"],
        ["color", "1", str(3**20), str(2 * 3**20)],
        ["color", "2", "4", "6"],
        ["color", "1", "2", "3", "--k", "0"],
        ["color", "1", "2", "3", "--k", "-3"],
        ["color", "1", X, X1, "--k", "3"],
    ],
    "matrix": [
        ["matrix", "3", str(10**39 + 1), str(10**39 + 4), "--steps"],
        ["matrix", "2", "4", "6"],
        ["matrix", "0", "2", "3"],
        ["matrix", X, X1, "3"],
    ],
    "verify": [
        ["verify", "1", "2", "3", "--period", "4", "--colors", "0,1,2,3"],
        ["verify", "1", "2", "3", "--period", "4", "--colors", "0,1,1,0"],
        ["verify", "1", "3", "5", "--period", "2", "--colors", "0,1"],
        ["verify", "2", "4", "6", "--period", "2", "--colors", "0,1"],
        ["verify", "1", "3", "5", "--period", "2", "--colors", "0,x"],
        ["verify", "1", "3", "5", "--period", "3", "--colors", "0,1"],
        ["verify", "1", "3", "5", "--period", "0", "--colors", "0"],
        ["verify", "0", "3", "5", "--period", "1", "--colors", "0"],
    ],
    "sweep": [
        ["sweep", "--max", "12"],
        ["sweep", "--max", "12", "--format", "json"],
        ["sweep", "--max", "0"],
    ],
    "usage": [
        [],
        ["frob"],
        ["--frob", "chi", "1", "2", "3"],
        ["chi", "1", "2"],
        ["chi", "1", "2", "x"],
        ["chi", "1", "2", "1.5"],
        ["chi", "1", "2", "3", "4"],
        ["chi", "1", "2", "3", "--frob"],
        ["chi", "1", "2", "3", "--json=yes"],
        ["color", "1", "2", "3", "--k"],
        ["color", "1", "2", "3", "--k", "--k"],
        ["sweep", "--max", "3", "--format", "xml"],
        ["sweep", "--max", "3", "--o", "x", "--f=csv", "--", "4"],
        ["sweep", "--", "--max", "3"],
        ["verify", "1", "2", "3", "--colors", "0,1"],
        ["verify", "1", "2", "3", "--p", "2", "--c", "0,1"],
        ["matrix", "1", "2", "3", "--s=1"],
        ["chi", "--", "1", "2", "3", "--json"],
        ["chi", "1", HUGE, "3"],
        ["color", "1", "2", "3", "--k", HUGE],
        ["sweep", "--max", HUGE],
        ["verify", "1", "2", "3", "--period", HUGE, "--colors", "0"],
        ["chi", "1", "2", "3", "x" * 200],
        ["-h"],
        ["--help"],
        ["chi", "-h"],
        ["color", "--help"],
        ["verify", "x", "-h"],
        ["matrix", "--he"],
        ["sweep", "-h"],
    ],
}


def corpus() -> "dict[str, list[list[str]]]":
    """Every command line, grouped by the digest that covers it."""
    groups = {name: [] for name in EXTRA}
    for c in range(1, MAX_C + 1):
        for b in range(1, c + 1):
            for a in range(1, b + 1):
                if gcd(a, b, c) != 1:
                    continue
                abc = [str(a), str(b), str(c)]
                chi, _ = chi_formula(DistanceTriple(a, b, c))
                groups["chi"].append(["chi", *abc, "--json"])
                groups["matrix"].append(["matrix", *abc, "--steps"])
                groups["color"] += [["color", *abc, "--k", str(k)] for k in range(1, chi + 2)]
    for name, lines in EXTRA.items():
        groups[name] += lines
    return groups


def run(argv: "list[str]") -> bytes:
    """The command line, its exit code, stdout and stderr, as hashed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # the parser's own exits
            code = exc.code
    return repr((argv, code, out.getvalue(), err.getvalue())).encode()


def digests() -> "dict[str, str]":
    out = {}
    for name, lines in corpus().items():
        hasher = hashlib.sha256()
        for argv in lines:
            hasher.update(run(argv))
        out[name] = hasher.hexdigest()
    return out


DIGESTS = {
    "chi": "57f4cf2099a4235ad2e204007c153ca478e64ed72f5b97d43a44c7e18f2f79f7",
    "color": "63a71996582a0f245ac5e3af67a1452e4609edb157819c252f432d003ef68ed0",
    "matrix": "42cb9c6148de84228b7e687188bba9c56eb46d68eb398023446a90c9ab2891e1",
    "verify": "d8293461af626311e6b4e71856331692eb34803a44fff7a8006f3306c7f737e6",
    "sweep": "c06c10bfd969f18b58bf679e3a4ca89326193235339d80060fa6b5ca46eb0e63",
    "usage": "cb34e8678d68808776ba14bd022ed64766ffde17b1410c4676b791861b589515",
}


def test_corpus_digests():
    assert digests() == DIGESTS


if __name__ == "__main__":
    found = digests()
    for name, digest in found.items():
        print(f"{name:6} {digest}")
    sys.exit(found != DIGESTS)
