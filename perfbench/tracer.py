"""Spans around the program's public functions, and per-layer metrics.

The tracer replaces the module attributes the program looks up at call
time with wrappers that record one span per call: name, start, end, the
enclosing span and the request id.  Spans stay in memory and are written
out when the run ends.  Nothing is wrapped in an untraced run.
"""

import json
import time
from collections import defaultdict

# (module, attribute, span name).  The span is named after the layer that
# defines the function, whichever module the caller resolved it through.
# periodic.backtrack_coloring is only reached from segment_colorable; the
# circulant search resolves its own module's binding, which stays unwrapped.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "certify", "periodic.certify"),
    ("cli", "normalize_triple", "zhu.normalize_triple"),
    ("cli", "chi_formula", "zhu.chi_formula"),
    ("periodic", "certify", "periodic.certify"),
    ("periodic", "find_periodic_coloring", "periodic.find_periodic_coloring"),
    ("periodic", "segment_colorable", "periodic.segment_colorable"),
    ("periodic", "verify_periodic", "periodic.verify_periodic"),
    ("periodic", "exists_coloring", "circulant.exists_coloring"),
    ("periodic", "backtrack_coloring", "circulant.backtrack_coloring"),
    ("periodic", "chi_formula", "zhu.chi_formula"),
    ("periodic", "is_bipartite", "zhu.is_bipartite"),
    ("zhu", "normalize_triple", "zhu.normalize_triple"),
    ("zhu", "chi_formula", "zhu.chi_formula"),
    ("zhu", "orient_for_matrix", "zhu.orient_for_matrix"),
    ("zhu", "is_bipartite", "zhu.is_bipartite"),
    ("intmat", "build_heuberger_matrix", "intmat.build_heuberger_matrix"),
    ("intmat", "hermite_reduce_step", "intmat.hermite_reduce_step"),
    ("intmat", "admissible_collapses", "intmat.admissible_collapses"),
)

# What a span keeps of its call, for counts that need more than the call.
INFO = {
    "circulant.exists_coloring": lambda args, res: (args[0].n, res is not None),
    "periodic.segment_colorable": lambda args, res: (args[1] + 1, bool(res)),
    "intmat.admissible_collapses": lambda args, res: len(res),
}

COLLAPSES_PER_MATRIX = 6  # three row pairs, two signs

NAME, START, END, PARENT, REQUEST, DATA = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.request_id = -1
        self._stack = []
        self._saved = []

    def wrap(self, name, fn):
        """``fn`` recording one span per call."""
        spans, stack, info = self.spans, self._stack, INFO.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[DATA] = info(args, result)
            return result

        return traced

    def install(self, prog):
        for module, attr, name in WRAPPED:
            mod = getattr(prog, module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def write(self, path):
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[NAME]], s[START], s[END], s[PARENT], s[REQUEST]] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "request"], "names": names, "spans": rows}, handle)


def self_times(spans, durations) -> list:
    """Each span's duration minus the part its direct children cover."""
    own = list(durations)
    for s, d in zip(spans, durations):
        if s[PARENT] >= 0:
            own[s[PARENT]] -= d
    return own


def layer_metrics(spans, durations=None) -> dict:
    """Per-layer counts and busy times from one run's spans; ``durations``
    replaces the spans' own end minus start where given."""
    if durations is None:
        durations = [s[END] - s[START] for s in spans]
    calls = defaultdict(int)
    busy = defaultdict(float)
    layer_self = defaultdict(float)
    by_name = defaultdict(list)
    for s, d, own in zip(spans, durations, self_times(spans, durations)):
        name = s[NAME]
        calls[name] += 1
        busy[name] += d
        layer_self[name.split(".")[0]] += own
        by_name[name].append((s, d, own))

    def total(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    search = by_name["circulant.exists_coloring"]
    found = sum(1 for s, _, _ in search if s[DATA][1])
    segments = [s for s, _, _ in by_name["periodic.segment_colorable"]]
    certs = calls["periodic.certify"]
    collapse_calls = calls["intmat.admissible_collapses"]
    collapses_ok = sum(s[DATA] for s, _, _ in by_name["intmat.admissible_collapses"])
    return {
        "circulant.search_calls": len(search),
        "circulant.search_found": found,
        "circulant.search_refuted": len(search) - found,
        "circulant.search_vertices": sum(s[DATA][0] for s, _, _ in search),
        "circulant.search_busy_s": busy["circulant.exists_coloring"],
        "circulant.refute_busy_s": sum(d for s, d, _ in search if not s[DATA][1]),
        "circulant.backtrack_busy_s": busy["circulant.backtrack_coloring"],
        "periodic.certify_calls": certs,
        "periodic.candidates_per_cert": len(search) / certs if certs else 0.0,
        "periodic.upper_hit_ratio": found / len(search) if search else 0.0,
        "periodic.upper_busy_s": busy["periodic.find_periodic_coloring"],
        "periodic.segment_calls": len(segments),
        "periodic.segment_wasted_calls": sum(1 for s in segments if s[DATA][1]),
        "periodic.segment_vertices": sum(s[DATA][0] for s in segments),
        "periodic.segment_busy_s": busy["periodic.segment_colorable"],
        "periodic.verify_calls": calls["periodic.verify_periodic"],
        "periodic.verify_busy_s": busy["periodic.verify_periodic"],
        "periodic.certify_self_s": sum(own for _, _, own in by_name["periodic.certify"]),
        "intmat.calls": total("intmat.", calls),
        "intmat.busy_s": total("intmat.", busy),
        "intmat.collapses_ok": collapses_ok,
        "intmat.collapses_rejected": COLLAPSES_PER_MATRIX * collapse_calls - collapses_ok,
        "zhu.calls": total("zhu.", calls),
        "zhu.busy_s": total("zhu.", busy),
        "cli.calls": calls["cli.main"],
        "cli.busy_s": busy["cli.main"],
        "cli.self_s": layer_self["cli"],
        "circulant.self_s": layer_self["circulant"],
        "periodic.self_s": layer_self["periodic"],
        "intmat.self_s": layer_self["intmat"],
        "zhu.self_s": layer_self["zhu"],
        "request.self_s": layer_self["request"],
        "trace.spans": len(spans),
    }
