"""End-to-end tests of the command-line surface and its exit-code contract."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import distchroma
from distchroma.cli import iter_triples, main, sweep_rows
from distchroma.errors import MAX_DIGITS, CertificationError, InvalidInputError
from distchroma.periodic import ChiCertificate, PeriodicColoring, certify
from distchroma.zhu import normalize_triple


def refusal(capsys) -> str:
    """The one stderr line of a run that printed nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    return line


# ----------------------------------------------------------------- chi

def test_chi_all_odd(capsys):
    assert main(["chi", "1", "3", "5"]) == 0
    assert capsys.readouterr().out.strip() == "2 (all odd)"


def test_chi_reports_normalization(capsys):
    assert main(["chi", "2", "4", "6"]) == 0
    out = capsys.readouterr().out
    assert "normalized (2, 4, 6) -> (1, 2, 3) with scale 2" in out
    assert "4 (a=1, b=2, 3|c)" in out


def test_chi_rejects_nonpositive(capsys):
    assert main(["chi", "0", "2", "3"]) == 2
    assert "error" in capsys.readouterr().err


def test_chi_rejects_non_integer():
    with pytest.raises(SystemExit) as excinfo:
        main(["chi", "one", "2", "3"])
    assert excinfo.value.code == 2


def test_chi_json_round_trips(capsys):
    assert main(["chi", "2", "4", "6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert ChiCertificate.from_json_dict(payload) == certify(normalize_triple(2, 4, 6))
    assert payload["scale"] == 2


def test_chi_json_huge_distance(capsys):
    assert main(["chi", "1", "3", str(10**12), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["chi"], payload["period"]) == (3, 9)


def test_chi_json_collapse_modulus(capsys):
    # The first word of (1, 3^8, 2 * 3^8) has period b + c = 3^9, found at
    # that sum modulus.
    assert main(["chi", "1", "6561", "13122", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["chi"], payload["period"]) == (3, 19683)


@pytest.mark.parametrize("command", [["chi", "--json"], ["color"]])
def test_word_beyond_envelope_is_refused(capsys, command):
    # The word for (1, 3^20, 2 * 3^20) would have 3^21 entries.
    name, *flags = command
    assert main([name, "1", str(3**20), str(2 * 3**20), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and str(3**21) in line


@pytest.mark.parametrize(
    "distances, length", [(("1", "2", "999"), 1002), (("2", "499", "501"), 1002)]
)
def test_chi_json_long_segment(capsys, distances, length):
    assert main(["chi", *distances, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["chi"], payload["lower"]) == (4, {"type": "segment", "L": length})


def test_chi_json_segment_envelope(capsys, monkeypatch):
    # a + b + c = 1002 lies past this envelope, so b + c = 1001 is tried
    # first, and that is refused too.
    monkeypatch.setattr("distchroma.periodic.MAX_WORD_LENGTH", 1000)
    assert main(["chi", "1", "2", "999", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: segment") and "L = 1001" in line


# --------------------------------------------------------------- color

def test_color_golden(capsys):
    assert main(["color", "1", "2", "4"]) == 0
    assert capsys.readouterr().out.splitlines() == ["period 3", "0 1 2"]


def test_color_all_odd(capsys):
    assert main(["color", "1", "3", "5"]) == 0
    assert capsys.readouterr().out.splitlines() == ["period 2", "0 1"]


def test_color_period_does_not_grow_with_distance(capsys):
    assert main(["color", "1", "2", "999"]) == 0
    assert capsys.readouterr().out.splitlines() == ["period 4", "0 1 2 3"]


@pytest.mark.parametrize(
    "distances, k, chi, kind",
    [
        ((1, 2, 3), 3, 4, "segment"),
        ((1, 3, 10**12), 1, 3, "trivial"),
        ((1, 2, 10**12), 2, 3, "parity"),
        ((1, 2, 999), 3, 4, "segment"),
        ((2, 499, 501), 3, 4, "segment"),
    ],
    ids=["1-2-3-k3", "1-3-1e12-k1", "1-2-1e12-k2", "1-2-999-k3", "2-499-501-k3"],
)
def test_color_below_chromatic_number(capsys, distances, k, chi, kind):
    # Below the chromatic number the lower-bound witness decides, whatever
    # the size of the distances.
    assert main(["color", *map(str, distances), "--k", str(k)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"chromatic number is {chi}" in captured.err
    assert kind in captured.err


def test_color_invalid_k(capsys):
    assert main(["color", "1", "2", "3", "--k", "0"]) == 2
    assert refusal(capsys) == "error: number of colors must be positive"


@pytest.mark.parametrize(
    "k, code, out, err",
    [
        ("0", 2, "", "error: number of colors must be positive"),
        (
            "3",
            1,
            "normalized (2, 4, 6) -> (1, 2, 3) with scale 2\n",
            "no 3-coloring: segment lower bound with L = 6 (chromatic number is 4)",
        ),
    ],
)
def test_color_scaled_k_below_chi(capsys, k, code, out, err):
    # An invalid k is refused before the normalization line; a valid k
    # below the chromatic number is refuted after it.
    assert main(["color", "2", "4", "6", "--k", k]) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err.splitlines() == [err]


def test_color_missing_word_is_a_certification_failure(capsys, monkeypatch):
    monkeypatch.setattr("distchroma.periodic.find_periodic_coloring", lambda t, k: None)
    assert main(["color", "1", "2", "4"]) == 1
    assert refusal(capsys) == (
        "error: no verified rotation 3-coloring word with period <= 6 for (1, 2, 4)"
    )


def test_color_improper_word_is_a_certification_failure(capsys, monkeypatch):
    # The word is re-verified before it is printed: "0 0" puts both ends of
    # every odd distance on color 0.
    monkeypatch.setattr(
        "distchroma.periodic.find_periodic_coloring",
        lambda t, k: PeriodicColoring(2, (0, 0), 2, 2),
    )
    assert main(["color", "1", "3", "5"]) == 1
    assert refusal(capsys) == (
        "error: no verified rotation 2-coloring word with period <= 8 for (1, 3, 5)"
    )


# -------------------------------------------------------------- verify

def test_verify_proper(capsys):
    assert main(["verify", "1", "3", "5", "--period", "2", "--colors", "0,1"]) == 0
    assert capsys.readouterr().out.strip() == "proper"


def test_verify_improper(capsys):
    assert main(["verify", "1", "2", "3", "--period", "5", "--colors", "0,1,2,0,1"]) == 1
    assert capsys.readouterr().out.strip() == "improper"


def test_verify_length_mismatch(capsys):
    assert main(["verify", "1", "2", "3", "--period", "4", "--colors", "0,1,2"]) == 2
    assert refusal(capsys) == "error: expected 4 colors, got 3"


def test_verify_malformed_colors(capsys):
    assert main(["verify", "1", "2", "3", "--period", "2", "--colors", "0,x"]) == 2
    assert refusal(capsys) == "error: --colors must be a comma-separated list of integers"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["0", "2", "3", "--period", "2", "--colors", "0,1"], "distances must be positive integers"),
        (["1", "2", "3", "--period", "0", "--colors", "0"], "period must be positive"),
    ],
    ids=["nonpositive-distance", "period-0"],
)
def test_verify_refuses_invalid_input(capsys, argv, err):
    assert main(["verify", *argv]) == 2
    assert refusal(capsys) == f"error: {err}"


def test_verify_checks_raw_distances(capsys):
    # (2, 6, 10) is not normalized; the word [0, 1] fails at distance 2.
    assert main(["verify", "2", "6", "10", "--period", "2", "--colors", "0,1"]) == 1


# -------------------------------------------------------------- matrix

def test_matrix_shows_pipeline(capsys):
    assert main(["matrix", "1", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert "oriented: (1, 2, 3)" in out
    assert "M: (1,0 / 0,-1 / -3,2)  label (3,2,1)  modulus 0" in out
    assert "reduction: q=0 r=0" in out
    assert "C_5(" in out and "C_4(" in out
    assert "rejected" in out  # the loop-forming collapses are reported


def test_matrix_steps_trace(capsys):
    assert main(["matrix", "1", "2", "3", "--steps"]) == 0
    out = capsys.readouterr().out
    assert '"entries"' in out and '"label"' in out and '"modulus"' in out
    assert "label.col0 = 0 ok" in out
    assert "VIOLATED" not in out
    # traced matrices parse back as JSON
    traced = [line for line in out.splitlines() if line.lstrip().startswith("[build] {")]
    assert json.loads(traced[0].split("] ", 1)[1]) == {
        "entries": [[1, 0], [0, -1], [-3, 2]],
        "label": [3, 2, 1],
        "modulus": 0,
    }


@pytest.mark.parametrize(
    "triple, digest",
    [
        ((1, 2, 3), "1c1e93e0ded23870b5cb49e54d2a7f456e068e3e1357475c0a6d3e998c13e0b2"),
        ((2, 3, 5), "4c2e6b13179cd0f2646524f844753bdfd05cca5dc54ef50f97ee84648ff6580f"),
        ((3, 10**39 + 1, 10**39 + 4), "a27094add96710ad2a771043f5e56673a00120925d1319abad983773660fa569"),
    ],
)
def test_matrix_steps_golden(capsys, triple, digest):
    # The whole --steps trace, byte for byte; the last triple is the
    # 40-digit one CI runs.
    assert main(["matrix", *map(str, triple), "--steps"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_closed_stdout_exits_1_without_traceback():
    # The reader is gone before the first write, as in `distchroma ... | head`
    # when head has already exited.
    src = str(Path(distchroma.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "distchroma.cli", "matrix", "1", "2", "3", "--steps"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("error: ")


def test_importing_the_cli_leaves_csv_unloaded():
    # cli writes its CSV and the chi --json certificate itself, so csv never
    # loads, and json loads only inside the matrix trace and the sweep.
    src = str(Path(distchroma.__file__).resolve().parents[1])
    check = (
        "import sys, distchroma.cli; distchroma.cli.main(['chi', '2', '4', '6', '--json']); "
        "sys.exit('csv' in sys.modules or 'json' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", check], env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(b'{\n  "a": 1,')


def _near_power_of_ten(digits: int) -> tuple[str, str]:
    """10**digits - 2 and 10**digits - 1 as text, built without str(int)."""
    return "9" * (digits - 1) + "8", "9" * digits


@pytest.mark.parametrize("digits", [4290, 4299, 4300, 4301, 4310])
def test_huge_numbers_keep_the_exit_code_contract(capsys, digits):
    # Around the interpreter's 4,300-digit int-to-str limit every command
    # exits 0, 1 or 2 without a traceback, and no error line spells out a
    # huge number.  (1, x, x + 1) has chi = 4.
    x, x1 = _near_power_of_ten(digits)
    commands = [
        ["chi", "1", x, x1],
        ["chi", "1", x, x1, "--json"],
        ["color", "1", x, x1],
        ["color", "1", x, x1, "--k", "3"],
        ["color", "1", x, x1, "--k", "2"],
        ["color", "1", "2", "3", "--k", x],
        ["verify", "1", x, x1, "--period", "2", "--colors", "0,1"],
        ["verify", "1", "2", "3", "--period", x, "--colors", "0,1"],
        ["matrix", x, x1, "3"],
        ["matrix", x, x1, "3", "--steps"],
    ]
    if digits > MAX_DIGITS:
        # the parser refuses this bound; one it accepts is swept for as long
        # as it is large
        commands.append(["sweep", "--max", x])
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:  # the parser's own refusal
            code = exc.code
        assert code in (0, 1, 2), argv
        assert len(capsys.readouterr().err) < 1024, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["chi", "1", "X", "X1", "--json"],
        ["color", "1", "X", "X1", "--k", "3"],
        ["matrix", "X", "X1", "3"],
    ],
)
def test_triple_past_digit_limit_is_refused(capsys, argv):
    # With x = 10**4300 - 2, b + c has 4,301 digits: one error line names
    # it by its leading digits and digit count, and nothing is printed.
    x, x1 = _near_power_of_ten(4300)
    assert main([{"X": x, "X1": x1}.get(arg, arg) for arg in argv]) == 2
    assert refusal(capsys) == (
        "error: b + c = 199999999999... (4301 digits) has more than MAX_DIGITS = 4300 digits"
    )


@pytest.mark.parametrize("limit", [0, 10_000])
def test_digit_bound_does_not_follow_the_interpreter(capsys, limit):
    # MAX_DIGITS decides what is refused, whether the interpreter's own
    # int-to-str limit is off (0) or raised past it.
    x, x1 = _near_power_of_ten(4300)
    setting = getattr(sys, "set_int_max_str_digits", None)  # before 3.10.7: none
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if setting:
        setting(limit)
    try:
        assert main(["chi", "1", x, x1, "--json"]) == 2
        assert refusal(capsys) == (
            "error: b + c = 199999999999... (4301 digits) has more than MAX_DIGITS = 4300 "
            "digits"
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--max", "9" * (MAX_DIGITS + 1)])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --max: invalid int value: '999999999999...' (4301 characters)\n"
        )
        colors = "9" * (MAX_DIGITS + 1)
        assert main(["verify", "1", "2", "3", "--period", "1", "--colors", colors]) == 2
        assert refusal(capsys) == "error: --colors must be a comma-separated list of integers"
        with pytest.raises(InvalidInputError, match="4301 digits"):
            normalize_triple(1, int(x), int(x1))
        t = normalize_triple(1, 10 ** (MAX_DIGITS - 1), 10 ** (MAX_DIGITS - 1) + 1)
        assert (t.b + t.c).bit_length() == 14282  # 4,300 digits
    finally:
        if setting:
            setting(saved)


@pytest.mark.parametrize("digits, plain, steps", [(1500, 0, 2), (2200, 2, 2)])
def test_matrix_past_digit_limit_prints_nothing(capsys, digits, plain, steps):
    # Matrix entries reach about twice the digits of the distances and the
    # --steps products about three times; a number past the limit is named
    # briefly before anything is printed.
    rng = random.Random(1)
    triple = [str(rng.randrange(10 ** (digits - 1), 10**digits)) for _ in range(3)]
    for argv, code in ((["matrix", *triple], plain), (["matrix", *triple, "--steps"], steps)):
        assert main(argv) == code
        if code == 2:
            line = refusal(capsys)
            assert line.startswith("error: the relation matrix of (")
            assert line.endswith("which has more than MAX_DIGITS = 4300 digits")
            assert len(line) < 300
        else:
            assert capsys.readouterr().err == ""


def test_matrix_normalizes_scaled_input(capsys):
    assert main(["matrix", "2", "4", "6"]) == 0
    scaled = capsys.readouterr().out
    assert main(["matrix", "1", "2", "3"]) == 0
    plain = capsys.readouterr().out
    assert scaled.endswith(plain)
    assert "normalized (2, 4, 6)" in scaled


# --------------------------------------------------------------- sweep

def test_sweep_tiny_range(capsys):
    assert main(["sweep", "--max", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "a,b,c,chi_formula,chi_certified,period,ees_bound,agree"
    assert len(lines) == 4  # (1,1,1), (1,1,2), (1,2,2); (2,2,2) drops out
    assert lines[1].startswith("1,1,1,2,2,")
    assert all(line.endswith("true") for line in lines[1:])


def test_sweep_desk_scale(capsys):
    assert main(["sweep", "--max", "6"]) == 0


def test_sweep_json_round_trips(capsys):
    assert main(["sweep", "--max", "4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == [r._asdict() for r in sweep_rows(4)]


@pytest.mark.parametrize(
    "extra, lines, digest",
    [
        ([], 288, "8589a61356616fad9d06f80fab6e55b18cb34f81367b53dba23dcb2fb8a8157e"),
        (["--format", "json"], None, "44a2f6a2f52410586bf426100e09949cbe291be5382f00ddf2057a3e7b45bb25"),
    ],
)
def test_sweep_table_golden(capsys, extra, lines, digest):
    # The whole table, byte for byte: column order, cell spelling, JSON layout.
    assert main(["sweep", "--max", "12", *extra]) == 0
    out = capsys.readouterr().out
    if lines is not None:
        assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sweep_invalid_input_exits_2(capsys, monkeypatch):
    def refuse(t):
        raise InvalidInputError(f"refused {t.distances()}")

    monkeypatch.setattr("distchroma.cli.certify", refuse)
    assert main(["sweep", "--max", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error:")


def test_sweep_records_a_failed_certificate_as_a_disagreeing_row(capsys, monkeypatch):
    expected = [row._asdict() for row in sweep_rows(3)]

    def fail_one(t):
        if t.distances() == (1, 2, 3):
            raise CertificationError("no certificate for (1, 2, 3)")
        return certify(t)

    monkeypatch.setattr("distchroma.cli.certify", fail_one)
    assert main(["sweep", "--max", "3", "--format", "json"]) == 1
    rows = json.loads(capsys.readouterr().out)
    failed = next(row for row in expected if (row["a"], row["b"], row["c"]) == (1, 2, 3))
    failed.update(chi_certified=None, period=None, agree=False)
    assert rows == expected
    assert main(["sweep", "--max", "3"]) == 1
    assert "1,2,3,4,,,192,false" in capsys.readouterr().out.splitlines()


def test_sweep_writes_file(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--max", "3", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0].startswith("a,b,c,")
    assert capsys.readouterr().out == ""


def test_sweep_unwritable_path(capsys):
    assert main(["sweep", "--max", "3", "--out", "/nonexistent-dir/rows.csv"]) == 2
    assert refusal(capsys).startswith("error: cannot write /nonexistent-dir/rows.csv: ")


def test_sweep_rejects_bad_max(capsys):
    assert main(["sweep", "--max", "0"]) == 2
    assert refusal(capsys) == "error: --max must be positive"


def test_sweep_known_row_values():
    rows = {(r.a, r.b, r.c): r for r in sweep_rows(6)}
    row = rows[(1, 2, 6)]
    assert row.period <= 8
    assert row.ees_bound == 6 * 4**6 == 24576
    assert row.agree


def test_iter_triples_excludes_common_factors():
    listed = [t.distances() for t in iter_triples(2)]
    assert listed == [(1, 1, 1), (1, 1, 2), (1, 2, 2)]


def test_csv_formatting_is_stable(capsys):
    assert main(["sweep", "--max", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "1,1,1,2,2,2,2,true"
