"""Tests of the benchmark itself: failure accounting, the correctness gate,
exact trace counts and the metric tables.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bench
import tracer
import workloads
from workloads import Request


@pytest.fixture(scope="module")
def prog():
    return bench.load_program()


def _certify_requests(*triples):
    return [Request("certify", t, t) for t in triples]


def test_every_failure_kind_is_counted_and_the_run_goes_on(prog):
    real_certify = prog.periodic.certify

    def faulty_certify(t):
        if t.distances() == (1, 2, 4):
            raise RecursionError("deep search")
        cert = real_certify(t)
        if t.distances() == (1, 2, 5):  # corrupted certificate: a clashing word
            colors = (0,) * cert.upper.period
            return dataclasses.replace(cert, upper=dataclasses.replace(cert.upper, colors=colors))
        return cert

    fake = types.SimpleNamespace(
        zhu=prog.zhu, periodic=types.SimpleNamespace(certify=faulty_certify)
    )
    tally = bench.Tally()
    bench.serve(fake, _certify_requests((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4)), tally)
    assert tally.attempted == 4
    assert tally.failed == 2
    assert tally.failures == {
        "certify: raised RecursionError": 1,
        "certify: upper witness is improper": 1,
    }


def test_real_program_failures_are_counted(prog):
    requests = _certify_requests((1, 2, 999)) + [
        Request("cli", ("chi", "0", "1", "2", "--json"), (0, 1, 2, 1)),
        Request("cli", ("chi", "x", "--json"), (0, 0, 0, 1)),
        Request("cli", ("chi", "2", "4", "6", "--json"), (1, 2, 3, 2)),
    ]
    tally = bench.Tally()
    bench.serve(prog, requests, tally)
    assert tally.attempted == 4
    assert tally.failures == {
        "certify: raised RecursionError": 1,
        "cli: exit code 2": 2,
    }


def test_gate_passes_real_outputs_and_catches_corruptions(prog):
    batches = workloads.build("matrix-verify", 3, prog).first_pass[:6]
    cli_requests = workloads.build_mixed(3).warmup[:50]
    tally = bench.Tally()
    bench.serve(prog, batches + cli_requests, tally)
    assert tally.attempted == 56 and tally.failed == 0
    requests = [item for batch in batches for item in batch.args] + cli_requests

    pipe = next(r for r in requests if r.kind == "pipeline")
    out = workloads.execute(prog, pipe)
    assert workloads.check(pipe, out) is None
    wrong_r = out[:5] + (out[5] - 1,) + out[6:]
    assert workloads.check(pipe, wrong_r) is not None
    wrong_collapses = out[:7] + (out[7][:-1],)
    assert workloads.check(pipe, wrong_collapses) is not None

    verdict = next(r for r in requests if r.kind in ("cert", "word"))
    assert workloads.check(verdict, not verdict.expect[0]) is not None
    batch = batches[0]
    outs = workloads.execute(prog, batch)
    assert workloads.check(batch, outs) is None
    assert workloads.check(batch, outs[:-1]) is not None

    cli = next(r for r in requests if r.kind == "cli")
    code, text = workloads.execute(prog, cli)
    data = json.loads(text)
    assert workloads.check(cli, (code, text)) is None
    for bad in (dict(data, chi=data["chi"] + 1), dict(data, scale=data["scale"] + 1)):
        assert workloads.check(cli, (0, json.dumps(bad))) is not None
    segment = dict(data, lower={"type": "segment", "L": 9})
    assert workloads.check(cli, (0, json.dumps(segment))) is not None


def test_segment_witness_recheck(prog):
    segments = []
    reason = workloads.check(
        _certify_requests((1, 2, 3))[0], prog.periodic.certify(prog.zhu.DistanceTriple(1, 2, 3)), segments
    )
    assert reason is None and len(segments) == 1
    tally = bench.Tally()
    bench.recheck_segments(prog, segments, tally)
    assert tally.failed == 0
    bench.recheck_segments(prog, [(1, 2, 3, 2)], tally)  # 0..2 is 3-colorable
    assert tally.failed == 1


def _traced_counts(requests):
    prog = bench.load_program()
    tr = tracer.Tracer()
    tr.install(prog)
    try:
        bench.serve(prog, requests, bench.Tally(), None, tr)
    finally:
        tr.uninstall()
    assert prog.periodic.certify.__module__ == "distchroma.periodic"
    durations = [s[tracer.END] - s[tracer.START] for s in tr.spans]
    assert all(own >= -1e-6 for own in tracer.self_times(tr.spans, durations))
    metrics = tracer.layer_metrics(tr.spans)
    return {k: metrics[k] for k in bench.EXACT if k in metrics}


def test_traced_counts_repeat_exactly(prog):
    requests = (
        workloads.build_mixed(5).first_pass[:60]
        + _certify_requests((1, 2, 3), (2, 3, 5), (3, 5, 13))
        + workloads.build("matrix-verify", 5, prog).first_pass[:4]
    )
    items = [i for r in requests for i in (r.args if r.kind == "batch" else [r])]
    first = _traced_counts(requests)
    assert first == _traced_counts(requests)
    assert first["cli.calls"] == 60
    assert first["periodic.certify_calls"] == 63
    assert first["intmat.calls"] == 3 * sum(r.kind == "pipeline" for r in items)
    assert first["periodic.segment_calls"] > 0


def test_workloads_are_seeded_and_sized(prog):
    mixed = workloads.build_mixed(7)
    assert mixed.first_pass == workloads.build_mixed(7).first_pass
    assert mixed.first_pass != workloads.build_mixed(8).first_pass
    assert mixed.population == 1252 and len(mixed.first_pass) == 2 * 1252
    assert sum(workloads.repeat_flags(mixed.first_pass)) == 1252
    # The seed orders and scales requests; which triples repeat is fixed.
    asked = sorted(r.expect[:3] for r in mixed.first_pass)
    assert asked == sorted(r.expect[:3] for r in workloads.build_mixed(8).first_pass)
    # Warm-up leaves a result cache cold for every search workload.
    searched = {r.expect[:3] for r in mixed.first_pass}
    searched |= {r.args for r in workloads.build_upper(1).first_pass + workloads.build_lower(1).first_pass}
    warm = mixed.warmup + workloads.build_upper(1).warmup + workloads.build_lower(1).warmup
    assert not searched & {r.expect[:3] for r in warm}
    chis = [workloads.zhu_chi(*t) for t in workloads.coprime_triples(20)]
    assert [chis.count(k) for k in (2, 3, 4)] == [202, 999, 51]
    assert len(workloads.build_upper(1).first_pass) == 593
    assert len(workloads.build_lower(1).first_pass) == 51
    assert sorted(workloads.build_upper(1).first_pass, key=lambda r: r.args) == sorted(
        workloads.build_upper(2).first_pass, key=lambda r: r.args
    )


def test_tail_percentile_leaves_ten_samples():
    for n in (51, 593, 2504, 125):
        p = bench.tail_percentile(n)
        assert n - math.ceil(p * n / 100 - 1e-9) == 10
    # matrix-verify keeps one pass's percentile over its five passes
    p = bench.tail_percentile(125)
    assert 625 - math.ceil(p * 625 / 100 - 1e-9) == 50


def test_metric_tables_match_benchmark_json():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        bench.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        bench.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    layer = set(tracer.layer_metrics([]))
    extra = {
        "trace.requests",
        "trace.overhead_s",
        "trace.overhead_frac",
        "trace.span_cost_us",
        "trace.counts_repeat",
    }
    assert {name for name, _, _ in bench.PER_LAYER} == layer | extra


@pytest.mark.parametrize("trace", ["0", "1"])
def test_refuses_to_run_without_the_program(tmp_path, trace):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        Path(bench.__file__).parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed", "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
