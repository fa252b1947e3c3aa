"""Host speed probe: scales measured times to a fixed reference speed.

Shared virtual machines change speed by up to 2x within seconds, as other
tenants come and go on the same cores, and process CPU time changes with
wall time, so raw timings of identical work spread by a third from one run
to the next.  The probe times a fixed reference loop every PROBE_EVERY_S
from a timer signal.  A request that has run that long already is sampled
from inside, so speed changes within long requests are seen; a shorter one
is never interrupted, its probe runs once it has returned.  A
measured interval is reported as its length minus the probes that ran
inside it, times PROBE_REF_S over the median duration of the probes around
it: the seconds it would have taken on a host where the reference loop
takes PROBE_REF_S.
"""

import argparse
import json
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 0.25  # probes this close to an interval give its speed
PROBE_REF_S = 0.001

_CYCLE = 9
_CYCLE_ADJ = tuple(((v - 1) % _CYCLE, (v + 1) % _CYCLE) for v in range(_CYCLE))


def reference_loop(objects: bool) -> int:
    """Fixed work shaped like the program's: count the proper 3-colorings
    of the 9-cycle by backtracking (there are 2**9 - 2), as the searches
    do; with ``objects``, also parse arguments and format JSON, as requests
    that mostly build and format objects do.  Contention on a shared core
    slows the two kinds of work by different factors."""
    colors = [-1] * _CYCLE

    def count(v: int) -> int:
        if v == _CYCLE:
            return 1
        taken = {colors[u] for u in _CYCLE_ADJ[v] if colors[u] >= 0}
        total = 0
        for c in range(3):
            if c not in taken:
                colors[v] = c
                total += count(v + 1)
        colors[v] = -1
        return total

    found = count(0)
    if objects:
        parser = argparse.ArgumentParser(prog="probe")
        for name in "abc":
            parser.add_argument(name, type=int)
        parser.add_argument("--json", action="store_true")
        args = parser.parse_args(["3", "5", "7", "--json"])
        json.dumps({"args": vars(args), "found": found, "colors": colors}, indent=2)
    return found


class SpeedProbe:
    """Context manager sampling the reference loop on SIGALRM while active."""

    def __init__(self, objects: bool = False):
        self.objects = objects
        self.starts = []
        self.ends = []
        self.cpu = []
        self._busy = False
        self._due = False
        self._previous = None
        self.request_start = None  # set by the caller while a request runs

    def _on_timer(self, *_signal_args):
        started = self.request_start
        if started is not None and time.perf_counter() - started < PROBE_EVERY_S:
            self._due = True
        else:
            self.sample()

    def between_requests(self):
        """Take the probe that fell due while a short request ran."""
        if self._due:
            self._due = False
            self.sample()

    def sample(self):
        if self._busy:
            return
        self._busy = True
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            reference_loop(self.objects)
            t1, c1 = time.perf_counter(), time.process_time()
        finally:
            self._busy = False
        self.starts.append(t0)
        self.ends.append(t1)
        self.cpu.append(c1 - c0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scaled(self, start: float, end: float, wall: float, cpu: float = 0.0):
        """``wall`` and ``cpu`` seconds measured over [start, end], without
        the probes that ran inside, at the reference speed."""
        first = bisect_left(self.starts, start)
        stop = bisect_right(self.ends, end)
        for k in range(first, stop):
            wall -= self.ends[k] - self.starts[k]
            cpu -= self.cpu[k]
        lo = max(min(bisect_left(self.starts, start - PROBE_WINDOW_S), first - 1), 0)
        hi = min(max(bisect_right(self.starts, end + PROBE_WINDOW_S), stop + 1), len(self.starts))
        probe = statistics.median(self.ends[k] - self.starts[k] for k in range(lo, hi))
        speed = PROBE_REF_S / probe
        return wall * speed, cpu * speed

    def summary(self) -> str:
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        q = statistics.quantiles(durations, n=4)  # entering and leaving both sample
        return (
            f"{len(durations)} probes, median {1e3 * statistics.median(durations):.4g} ms, "
            f"quartiles {1e3 * q[0]:.4g}..{1e3 * q[2]:.4g} ms "
            f"(reference {1e3 * PROBE_REF_S:g} ms)"
        )
