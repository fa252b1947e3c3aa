"""Timed and traced runs of one workload against the program under ``src``.

One client, one thread, closed loop: each request is sent when the previous
one has returned.  Each request is timed on its own, wall and process CPU,
and its output is checked afterwards, outside the timed region.  A request
that raises, exits non-zero or fails its check is counted as failed and the
run carries on.
"""

import gc
import importlib
import math
import json
import resource
import subprocess
import statistics
import sys
import time
import types
from collections import Counter
from pathlib import Path

import workloads
from speed import SpeedProbe
from tracer import END, START, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".bench_trace"
RUN_PY = Path(__file__).resolve().parent / "run.py"
PHASES = ("untraced", "traced", "traced-again")
# Set-up is timed as SETUP_GROUPS intervals of back-to-back set-ups, each
# about SETUP_GROUP_S long: a single set-up takes 20-40 ms on a 2-vCPU VM,
# short enough for one host stall to decide it.
SETUP_GROUPS = 7
SETUP_GROUP_S = 0.2
SETUP_MAX_BATCH = 10
WARMUP_S = 1.0  # first passes ran up to a quarter slower than later ones
MIN_BEYOND = 10  # samples a tail percentile must leave above it
SPAN_COST_CALLS = 20000

END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Per-layer metrics of a traced run.  The spans' counts and ratios
# ("count", "1") are exact for a seed and must repeat across two traced runs.
PER_LAYER = (
    ("circulant.search_calls", "count", "lower"),
    ("circulant.search_found", "count", "higher"),
    ("circulant.search_refuted", "count", "lower"),
    ("circulant.search_vertices", "count", "lower"),
    ("circulant.search_busy_s", "s", "lower"),
    ("circulant.refute_busy_s", "s", "lower"),
    ("circulant.backtrack_busy_s", "s", "lower"),
    ("circulant.self_s", "s", "lower"),
    ("periodic.certify_calls", "count", "higher"),
    ("periodic.candidates_per_cert", "1", "lower"),
    ("periodic.upper_hit_ratio", "1", "higher"),
    ("periodic.upper_busy_s", "s", "lower"),
    ("periodic.segment_calls", "count", "lower"),
    ("periodic.segment_wasted_calls", "count", "lower"),
    ("periodic.segment_vertices", "count", "lower"),
    ("periodic.segment_busy_s", "s", "lower"),
    ("periodic.verify_calls", "count", "lower"),
    ("periodic.verify_busy_s", "s", "lower"),
    ("periodic.certify_self_s", "s", "lower"),
    ("periodic.self_s", "s", "lower"),
    ("intmat.calls", "count", "lower"),
    ("intmat.busy_s", "s", "lower"),
    ("intmat.collapses_ok", "count", "higher"),
    ("intmat.collapses_rejected", "count", "lower"),
    ("intmat.self_s", "s", "lower"),
    ("zhu.calls", "count", "lower"),
    ("zhu.busy_s", "s", "lower"),
    ("zhu.self_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.busy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("request.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.requests", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "1", "lower"),
    ("trace.span_cost_us", "us", "lower"),
    ("trace.counts_repeat", "1", "higher"),
)
EXACT = frozenset(name for name, unit, _ in PER_LAYER if unit in ("count", "1"))


class ProgramMissing(RuntimeError):
    """The checkout holds no importable program to measure."""


def load_program() -> types.SimpleNamespace:
    """Import distchroma afresh from ``src`` and return its modules."""
    src = ROOT / "src"
    package = src / "distchroma"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no distchroma package at {package}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "distchroma" or n.startswith("distchroma.")]:
        del sys.modules[name]
    pkg = importlib.import_module("distchroma")
    if Path(pkg.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"distchroma imported from {pkg.__file__}, not {package}")
    modules = ("cli", "periodic", "circulant", "intmat", "zhu")
    return types.SimpleNamespace(**{m: importlib.import_module(f"distchroma.{m}") for m in modules})


def _set_up_once(name: str, seed: int):
    prog = load_program()
    return prog, workloads.build(name, seed, prog)


def set_up(name: str, seed: int, groups: int):
    """Import the program and build the workload once, which also sizes the
    batches, then ``groups`` batches of set-ups, each timed as one interval.
    Returns the last build and each batch's (start, end, set-ups)."""
    start = time.perf_counter()
    prog, wl = _set_up_once(name, seed)
    first = time.perf_counter() - start
    batch = max(1, min(SETUP_MAX_BATCH, round(SETUP_GROUP_S / first)))
    intervals = []
    for _ in range(groups):
        gc.collect()  # the garbage of earlier builds is not this batch's
        start = time.perf_counter()
        for _ in range(batch):
            prog, wl = _set_up_once(name, seed)
        intervals.append((start, time.perf_counter(), batch))
    return prog, wl, intervals


class Tally:
    """Start, end and CPU seconds of every request served, and failures."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self.cpu = []
        self.failures = Counter()

    @property
    def attempted(self) -> int:
        return len(self.starts)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def scaled(self, probe: SpeedProbe):
        """Per-request latencies and CPU seconds at the reference speed."""
        pairs = [probe.scaled(s, e, e - s, c) for s, e, c in zip(self.starts, self.ends, self.cpu)]
        return [p[0] for p in pairs], [p[1] for p in pairs]


def serve(prog, requests, tally: Tally, segments=None, tracer=None, probe=None):
    """Send ``requests`` one after another, timing and then checking each."""
    call = workloads.execute if tracer is None else tracer.wrap("request", workloads.execute)
    probe = probe or SpeedProbe()  # an inactive probe never samples
    for req in requests:
        if tracer is not None:
            tracer.request_id = tally.attempted
        w0, c0 = time.perf_counter(), time.process_time()
        probe.request_start = w0
        try:
            out = call(prog, req)
            reason = None
        except Exception as exc:  # counted against this request; the run goes on
            reason = f"raised {type(exc).__name__}"
        probe.request_start = None
        c1, w1 = time.process_time(), time.perf_counter()
        probe.between_requests()
        tally.starts.append(w0)
        tally.ends.append(w1)
        tally.cpu.append(c1 - c0)
        if reason is None:
            try:
                reason = workloads.check(req, out, segments)
            except Exception as exc:  # output the gate cannot even read
                reason = f"check raised {type(exc).__name__}"
        if reason is not None:
            tally.failures[f"{req.kind}: {reason}"] += 1


def recheck_segments(prog, segments, tally: Tally):
    """Confirm each segment witness is uncolorable with chi - 1 = 3 colors."""
    for a, b, c, length in segments:
        if prog.periodic.segment_colorable(prog.zhu.DistanceTriple(a, b, c), length, 3):
            tally.failures[f"certify: segment {length} of {(a, b, c)} is 3-colorable"] += 1


def warm_up(prog, wl, probe) -> Tally:
    """Serve the warm-up requests, repeated until WARMUP_S has passed."""
    tally = Tally()
    start = time.perf_counter()
    while time.perf_counter() - start < WARMUP_S:
        serve(prog, wl.warmup, tally, probe=probe)
    return tally


def tail_percentile(n: int) -> float:
    """Highest percentile of n samples with MIN_BEYOND samples above it."""
    return 100 * (n - MIN_BEYOND) / n


def _end_to_end(latencies, cpu, setups, rank, peak_rss_mb) -> dict:
    lat = sorted(latencies)
    return {
        "ops_per_s": len(lat) / sum(lat),
        "cpu_ms_per_op": 1000 * sum(cpu) / len(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_tail_ms": 1000 * lat[rank - 1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }


def run_timed(name: str, seed: int, seconds: float):
    """Set up, warm up, then serve whole passes until the next one would
    overrun ``seconds``; workloads with a single pass serve exactly that."""
    with SpeedProbe(name in workloads.OBJECT_HEAVY) as probe:
        prog, wl, setups = set_up(name, seed, SETUP_GROUPS)
        warm = warm_up(prog, wl, probe)
        tally = Tally()
        start = time.perf_counter()
        requests, index = wl.first_pass, 0
        while True:
            pass_start = time.perf_counter()
            serve(prog, requests, tally, probe=probe)
            now = time.perf_counter()
            if wl.next_pass is None or now - start + (now - pass_start) > seconds:
                break
            index += 1
            requests = wl.next_pass(index)

    n = tally.attempted
    p = tail_percentile(len(wl.first_pass))
    rank = math.ceil(p * n / 100 - 1e-9)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = _end_to_end(
        [e - s for s, e in zip(tally.starts, tally.ends)],
        tally.cpu,
        [(e - s) / k for s, e, k in setups],
        rank,
        peak_rss_mb,
    )
    latencies, cpu = tally.scaled(probe)
    setup_values = [probe.scaled(s, e, e - s)[0] / k for s, e, k in setups]
    values = _end_to_end(latencies, cpu, setup_values, rank, peak_rss_mb)
    batch = setups[0][2]
    notes = {
        "latency_tail_ms": f"p{p:.4g}, {n - rank} of {n} samples beyond",
        "setup_s": f"median of {SETUP_GROUPS} batches of {batch} imports and input builds",
    }
    first = len(wl.first_pass)
    flags = workloads.repeat_flags(wl.first_pass)
    repeat_busy = sum(t for t, hit in zip(latencies, flags) if hit) / sum(latencies[:first])
    report = [f"workload {name}  seed {seed}  passes {index + 1}  requests {n}"]
    report += [
        f"  {key:<16} {values[key]:<12.6g} {unit:<3} raw {raw[key]:.6g}"
        + (f"  ({notes[key]})" if key in notes else "")
        for key, unit, _ in END_TO_END
    ]
    report.append(f"  {'failed_frac':<16} {tally.failed / n:<12.6g} 1   ({tally.failed} of {n})")
    report.append(f"  host speed: {probe.summary()}")
    report.append(
        f"  population {wl.population}; repeats of an earlier triple in the first pass: "
        f"{sum(flags) / first:.4f} of requests, {repeat_busy:.4f} of busy time; "
        f"warm-up {warm.attempted} requests ({warm.failed} failed)"
    )
    report += [f"  failure x{count}: {reason}" for reason, count in tally.failures.most_common(10)]
    result = {
        "correct": tally.failed == 0 and warm.failed == 0,
        "attempted": n,
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit, _ in END_TO_END},
    }
    return report, result


def span_cost() -> float:
    """Seconds one span wrapper adds to a call, timed on a no-op function."""

    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)

    def timed(fn):
        start = time.perf_counter()
        for _ in range(SPAN_COST_CALLS):
            fn()
        return time.perf_counter() - start

    extra = statistics.median(timed(wrapped) - timed(noop) for _ in range(5))
    return max(extra, 0.0) / SPAN_COST_CALLS


def trace_phase(name: str, seed: int, traced: bool, first: bool) -> dict:
    """One fixed-size run in this process: the workload's traced passes,
    wrapped in spans when ``traced``.  The first traced run also re-checks
    segment witnesses (after unwrapping) and writes its spans out."""
    prog, wl, _ = set_up(name, seed, 0)
    requests = list(wl.first_pass)
    for index in range(1, wl.traced_passes):
        requests += wl.next_pass(index)
    tally = Tally()
    segments = [] if traced and first else None
    tracer = Tracer()
    with SpeedProbe(name in workloads.OBJECT_HEAVY) as probe:
        warm_up(prog, wl, probe)
        if traced:
            tracer.install(prog)
        try:
            serve(prog, requests, tally, segments, tracer if traced else None, probe)
        finally:
            tracer.uninstall()
    recheck_segments(prog, segments or [], tally)
    metrics = {}
    if traced:
        if first:
            tracer.write(TRACE_DIR / f"{name}-seed{seed}.json")
        durations = [probe.scaled(s[START], s[END], s[END] - s[START])[0] for s in tracer.spans]
        metrics = layer_metrics(tracer.spans, durations)
        metrics["trace.span_cost_us"] = 1e6 * span_cost()
    return {
        "wall_s": sum(tally.scaled(probe)[0]),
        "attempted": tally.attempted,
        "failures": dict(tally.failures),
        "metrics": metrics,
    }


def run_phase(name: str, seed: int, phase: str) -> dict:
    """One phase of a traced run in a fresh process, waited for to the end;
    the child prints the phase's result as its last line of output."""
    argv = [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(argv + ["--phase", phase], stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode == 2:
        raise ProgramMissing(f"phase {phase} found no program to measure")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"phase {phase} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_traced(name: str, seed: int):
    """Untraced, traced and traced again, each in a fresh process so that
    no state carries over; the two traced runs must count identically."""
    plain, first, second = (run_phase(name, seed, phase) for phase in PHASES)
    metrics = dict(first["metrics"])
    mismatched = [k for k in metrics if k in EXACT and metrics[k] != second["metrics"][k]]
    metrics["trace.requests"] = first["attempted"]
    metrics["trace.overhead_s"] = first["wall_s"] - plain["wall_s"]
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / plain["wall_s"]
    metrics["trace.counts_repeat"] = 0.0 if mismatched else 1.0
    failures = Counter()
    for phase in (plain, first, second):
        failures.update(phase["failures"])
    attempted = sum(phase["attempted"] for phase in (plain, first, second))

    report = [f"workload {name}  seed {seed}  traced: {first['attempted']} requests per run"]
    report += [f"  {key:<30} {metrics[key]:.6g} {unit}" for key, unit, _ in PER_LAYER]
    report.append(f"  untraced {plain['wall_s']:.6g} s, traced {first['wall_s']:.6g} s busy")
    report += [f"  counts differ between traced runs: {key}" for key in mismatched]
    report += [f"  failure x{count}: {reason}" for reason, count in failures.most_common(10)]
    report.append(f"  spans written to {TRACE_DIR / f'{name}-seed{seed}.json'}")
    result = {
        "correct": not failures and not mismatched,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit, _ in PER_LAYER},
    }
    return report, result
