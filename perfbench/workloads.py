"""Workload inputs, request execution and the correctness gate.

Every workload is a list of requests built from the seed alone; the program
only ever sees the generated inputs.  A request is executed by looking the
program's public functions up on their modules at call time, so the tracer
can interpose on them, and its output is checked afterwards against a
reference that shares no code with the program: Zhu's classification, a
direct properness check of the color word, label annihilation of every
matrix, and truths known from how a supplied word was built.

README.md in this directory records why each workload exists, the
population it draws from and the cost cliffs that bound its ranges.
"""

import contextlib
import io
import json
import random
from dataclasses import dataclass
from math import gcd
from typing import Callable

NAMES = ("mixed", "upper-chi3", "lower-chi4", "matrix-verify")
# Workloads whose requests mostly build and format objects (the command
# line, JSON, matrices, certificates) rather than search; their speed probe
# does such work too (see speed.py).
OBJECT_HEAVY = frozenset({"mixed", "matrix-verify"})

# Populations, kept below the known cost cliffs (see README.md).
MIXED_MAX_C = 20
UPPER_MIN_C, UPPER_MAX_C = 19, 22
LOWER_MAX_C = 20
# Cheap triples that supply matrix-verify's certificates.
SMALL_MAX_C = 12
# Warm-up triples, outside every search workload's population: (1, 2, c)
# has chi 3 or 4 and (1, 3, c) with c odd has chi 2; each certifies in
# under a millisecond.
WARMUP_C = range(23, 63)
WARMUP_TRIPLES = tuple((1, 2, c) for c in WARMUP_C) + tuple((1, 3, c) for c in WARMUP_C if c % 2)

# Popularity is an assumption: no traffic has been observed.  The ranking is
# one fixed permutation of the population, the same for every seed, so that
# repeats fall on every cost class while a run's work does not depend on
# its seed.
MIXED_POPULARITY_KEY = "distchroma-popularity"
MIXED_ZIPF_S = 1.1  # popularity exponent over that ranking
MIXED_MAX_SCALE = 999
WARMUP_REQUESTS = 200
# Items per matrix-verify pass: 5/8 pipeline, 3/16 certificates, 3/16
# words, sent as batches.  A single item takes about 0.1 ms, the scale of
# the host's own scheduling stalls, which then set its tail latency.
MATRIX_PASS = 8000
MATRIX_PIPELINE, MATRIX_CERTS = 5000, 1500
MATRIX_BATCH = 64
MATRIX_MAX_EXP = 12  # raw distances up to 10**12


@dataclass(frozen=True)
class Request:
    kind: str  # "cli", "certify", "pipeline", "cert", "word" or "batch"
    args: tuple  # a batch's args are its item requests
    expect: tuple  # what the gate compares the output against


@dataclass
class Workload:
    warmup: list
    first_pass: list
    # Later passes for time-bounded workloads; None where one pass is the
    # whole run (repeating it would hand a result cache free hits).
    next_pass: "Callable[[int], list] | None"
    # Passes a traced run serves; fixed, so its counts repeat exactly.
    traced_passes: int
    population: int


# ---------------------------------------------------------------- reference


def zhu_chi(a: int, b: int, c: int) -> int:
    """Zhu's classification for a normalized coprime triple."""
    if a % 2 == b % 2 == c % 2 == 1:
        return 2
    if a == 1 and b == 2 and c % 3 == 0:
        return 4
    if a + b == c and a % 3 != b % 3:
        return 4
    return 3


def word_proper(distances, colors) -> bool:
    p = len(colors)
    return p >= 1 and all(
        colors[i] != colors[(i + s) % p] for i in range(p) for s in distances
    )


def coprime_triples(max_c: int):
    for a in range(1, max_c + 1):
        for b in range(a, max_c + 1):
            for c in range(b, max_c + 1):
                if gcd(a, b, c) == 1:
                    yield (a, b, c)


def normalized(x: int, y: int, z: int) -> tuple:
    g = gcd(x, y, z)
    return tuple(sorted(v // g for v in (x, y, z))) + (g,)


LOWER_KIND = {2: "trivial", 3: "parity", 4: "segment"}


def check_certificate(expect, triple, chi, period, colors, kind, length):
    """Failure reason for a certificate of the normalized ``expect`` triple,
    or None.  Returns the segment to re-check as a second value."""
    a, b, c = expect[:3]
    if triple != expect:
        return f"triple {triple} != {expect}", None
    want = zhu_chi(a, b, c)
    if chi != want:
        return f"chi {chi} != {want}", None
    if not (1 <= period <= b + c) or len(colors) != period:
        return f"period {period} outside [1, {b + c}] or word length {len(colors)}", None
    if not all(isinstance(v, int) and 0 <= v < chi for v in colors):
        return "color outside [0, chi)", None
    if not word_proper((a, b, c), colors):
        return "upper witness is improper", None
    if kind != LOWER_KIND[chi]:
        return f"lower kind {kind} for chi {chi}", None
    if chi == 4:
        if not isinstance(length, int) or length < 1:
            return f"segment length {length!r}", None
        return None, (a, b, c, length)
    return None, None


def check_certificate_json(expect, d):
    """check_certificate for the JSON form of a certificate."""
    return check_certificate(
        expect,
        (d["a"], d["b"], d["c"]),
        d["chi"],
        d["period"],
        d["colors"],
        d["lower"]["type"],
        d["lower"].get("L"),
    )


def annihilated(m) -> bool:
    for j in range(len(m.entries[0])):
        total = sum(lab * row[j] for lab, row in zip(m.label, m.entries))
        if (total if m.modulus == 0 else total % m.modulus) != 0:
            return False
    return True


def expected_collapses(label) -> list:
    found = []
    for i in range(3):
        for j in range(i + 1, 3):
            for sign in (-1, 1):
                n = abs(label[i] - sign * label[j])
                if n >= 2 and all(v % n for v in label):
                    found.append((i, j, sign, n))
    return found


def check_pipeline(expect, out):
    a, b, c, scale = expect
    t, chi, orient, m, q, r, m1, collapses = out
    if (t.a, t.b, t.c, t.scale) != expect:
        return "normalization"
    if chi != zhu_chi(a, b, c):
        return "chi"
    o1, o2, o3 = orient
    if sorted(map(abs, orient)) != [a, b, c] or (o1 + o2) % 3 or -o1 > o2 or abs(o1) > abs(o2):
        return "orientation"
    if m.label != (o3, o2, o1) or m.modulus != 0 or m.entries[0][1] != 0:
        return "relation matrix shape"
    pivot = m.entries[1][1]
    if not (-abs(pivot) < r <= 0) or m1.entries[1][0] != r:
        return "reduction window"
    if [row[1] for row in m1.entries] != [row[1] for row in m.entries] or [
        row[0] for row in m1.entries
    ] != [x - q * y for x, y in m.entries]:
        return "reduction is not the column move"
    got = [(i, j, sign, quo.modulus) for i, j, sign, quo in collapses]
    if got != expected_collapses(m.label):
        return "admissible collapses"
    if not all(annihilated(x) for x in [m, m1] + [quo for *_, quo in collapses]):
        return "label annihilation"
    return None


def check(req: Request, out, segments: "list | None" = None) -> "str | None":
    """Failure reason for ``out``, or None.  Segment witnesses are appended
    to ``segments`` when given, for an uncolorability re-check."""
    if req.kind == "cli":
        code, text = out
        if code != 0:
            return f"exit code {code}"
        try:
            d = json.loads(text)
            reason, seg = check_certificate_json(req.expect[:3], d)
            if reason is None and d["scale"] != req.expect[3]:
                reason = f"scale {d['scale']} != {req.expect[3]}"
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable certificate: {exc!r}"
    elif req.kind == "certify":
        try:
            reason, seg = check_certificate(
                req.expect,
                (out.triple.a, out.triple.b, out.triple.c),
                out.chi,
                out.upper.period,
                tuple(out.upper.colors),
                out.lower.kind,
                out.lower.length,
            )
        except (AttributeError, TypeError) as exc:
            return f"unreadable certificate: {exc!r}"
    elif req.kind == "pipeline":
        return check_pipeline(req.expect, out)
    elif req.kind == "batch":
        if len(out) != len(req.args):
            return f"{len(out)} results for {len(req.args)} items"
        for item, item_out in zip(req.args, out):
            reason = check(item, item_out, segments)
            if reason is not None:
                return f"{item.kind}: {reason}"
        return None
    else:  # "cert" and "word": the verdict must equal the known truth
        return None if out == req.expect[0] else f"verdict {out!r} != {req.expect[0]}"
    if reason is None and seg is not None and segments is not None:
        segments.append(seg)
    return reason


def repeat_flags(requests) -> list:
    """Whether each request asks for a normalized triple an earlier one in
    ``requests`` asked for already: a hit for a result cache."""
    seen, flags = set(), []
    for req in requests:
        key = req.expect[:3] if req.kind in ("cli", "certify") else None
        flags.append(key is not None and key in seen)
        seen.add(key)
    return flags


# ---------------------------------------------------------------- execution


def _serve_cli(prog, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = prog.cli.main(argv)
        except SystemExit as exc:  # argparse rejects arguments this way
            code = exc.code
    return code, out.getvalue()


def _certify(prog, triple):
    return prog.periodic.certify(prog.zhu.DistanceTriple(*triple))


def _pipeline(prog, raw):
    zhu, intmat = prog.zhu, prog.intmat
    t = zhu.normalize_triple(*raw)
    chi, _ = zhu.chi_formula(t)
    orient = zhu.orient_for_matrix(t)
    m = intmat.build_heuberger_matrix(*orient)
    q, r, m1 = intmat.hermite_reduce_step(m)
    return t, chi, orient, m, q, r, m1, intmat.admissible_collapses(m)


def _verify_cert(prog, data):
    cert = prog.periodic.ChiCertificate.from_json_dict(data)
    return prog.periodic.verify_periodic(cert.triple, cert.upper)


def _verify_word(prog, triple, colors, k):
    word = prog.periodic.PeriodicColoring(len(colors), colors, k, len(colors))
    return prog.periodic.verify_periodic(prog.zhu.DistanceTriple(*triple), word)


def execute(prog, req: Request):
    kind, args = req.kind, req.args
    if kind == "cli":
        return _serve_cli(prog, args)
    if kind == "certify":
        return _certify(prog, args)
    if kind == "pipeline":
        return _pipeline(prog, args)
    if kind == "cert":
        return _verify_cert(prog, *args)
    if kind == "word":
        return _verify_word(prog, *args)
    return [execute(prog, item) for item in args]


# ---------------------------------------------------------------- generation


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed, *parts)))


def _cli_request(rng, triple) -> Request:
    scale = rng.randint(1, MIXED_MAX_SCALE)
    raw = [scale * v for v in triple]
    rng.shuffle(raw)
    return Request("cli", ("chi", *map(str, raw), "--json"), triple + (scale,))


def _certify_requests(triples) -> list:
    return [Request("certify", t, t) for t in triples]


def _warmup(seed: int, kind: str) -> list:
    """Cheap requests outside every workload's population, served before
    timing starts, so a result cache starts cold."""
    rng = _rng(seed, "warmup")
    picked = [rng.choice(WARMUP_TRIPLES) for _ in range(WARMUP_REQUESTS)]
    if kind == "cli":
        return [_cli_request(rng, t) for t in picked]
    return _certify_requests(picked)


def _zipf_repeats(n_ranks: int, total: int, s: float) -> list:
    """Repeat counts per popularity rank, apportioned to a Zipf law by
    largest remainders, so a seed cannot change how much work repeats."""
    weights = [1 / r**s for r in range(1, n_ranks + 1)]
    scale = total / sum(weights)
    quotas = [w * scale for w in weights]
    counts = [int(q) for q in quotas]
    order = sorted(range(n_ranks), key=lambda r: (counts[r] - quotas[r], r))
    for r in order[: total - sum(counts)]:
        counts[r] += 1
    return counts


def build_mixed(seed: int) -> Workload:
    population = list(coprime_triples(MIXED_MAX_C))
    ranked = list(population)
    random.Random(MIXED_POPULARITY_KEY).shuffle(ranked)
    rng = _rng(seed, "mixed")
    repeats = _zipf_repeats(len(ranked), len(ranked), MIXED_ZIPF_S)
    triples = [t for t, extra in zip(ranked, repeats) for _ in range(1 + extra)]
    rng.shuffle(triples)
    requests = [_cli_request(rng, t) for t in triples]
    return Workload(
        _warmup(seed, "cli"),
        requests,
        None,
        1,
        len(population),
    )


def _single_pass(name: str, seed: int, triples: list) -> Workload:
    triples = list(triples)
    _rng(seed, name).shuffle(triples)
    return Workload(_warmup(seed, "certify"), _certify_requests(triples), None, 1, len(triples))


def build_upper(seed: int) -> Workload:
    pop = [
        t
        for t in coprime_triples(UPPER_MAX_C)
        if t[2] >= UPPER_MIN_C and zhu_chi(*t) == 3
    ]
    return _single_pass("upper-chi3", seed, pop)


def build_lower(seed: int) -> Workload:
    pop = [t for t in coprime_triples(LOWER_MAX_C) if zhu_chi(*t) == 4]
    return _single_pass("lower-chi4", seed, pop)


def _conflict(rng, colors: list, distances) -> list:
    """Copy of a word with one forced clash: vertex i and i + s share a color."""
    colors = list(colors)
    i = rng.randrange(len(colors))
    colors[(i + rng.choice(distances)) % len(colors)] = colors[i]
    return colors


def supplied_certificates(prog) -> list:
    """Certificates of every coprime triple with c <= SMALL_MAX_C, as JSON
    dicts, each checked by the reference before it is supplied."""
    pool = []
    for t in coprime_triples(SMALL_MAX_C):
        data = json.loads(json.dumps(_certify(prog, t).to_json_dict()))
        reason, _ = check_certificate_json(t, data)
        if reason is not None:
            raise RuntimeError(f"supplied certificate for {t} is wrong: {reason}")
        pool.append(data)
    return pool


def _matrix_pass(seed: int, index: int, pool: list) -> list:
    rng = _rng(seed, "matrix", index)
    out = []
    for _ in range(MATRIX_PIPELINE):
        # Magnitudes spread from 10 to 10**12, so that small triples, whose
        # quotients can put a loop on a vertex, occur too.
        top = 10 ** rng.randint(1, MATRIX_MAX_EXP)
        f = rng.randint(1, min(1000, top))
        raw = tuple(f * rng.randint(1, top // f) for _ in range(3))
        out.append(Request("pipeline", raw, normalized(*raw)))
    for n in range(MATRIX_CERTS):
        data = rng.choice(pool)
        truth = n % 2 == 0
        if not truth:
            dist = (data["a"], data["b"], data["c"])
            data = dict(data, colors=_conflict(rng, data["colors"], dist))
        out.append(Request("cert", (data,), (truth,)))
    for n in range(MATRIX_PASS - MATRIX_PIPELINE - MATRIX_CERTS):
        data = rng.choice(pool)
        dist, k = (data["a"], data["b"], data["c"]), data["chi"]
        # Renaming colors, rotating and repeating the word keep it proper.
        rename = list(range(k))
        rng.shuffle(rename)
        shift = rng.randrange(data["period"])
        word = [rename[v] for v in data["colors"][shift:] + data["colors"][:shift]]
        word *= rng.randint(1, 3)
        truth = n % 2 == 0
        if not truth:
            word = _conflict(rng, word, dist)
        out.append(Request("word", (dist, tuple(word), k), (truth,)))
    rng.shuffle(out)
    return [
        Request("batch", tuple(out[i : i + MATRIX_BATCH]), ())
        for i in range(0, len(out), MATRIX_BATCH)
    ]


def build_matrix(seed: int, prog) -> Workload:
    pool = supplied_certificates(prog)
    return Workload(
        _matrix_pass(seed, -1, pool),
        _matrix_pass(seed, 0, pool),
        lambda index: _matrix_pass(seed, index, pool),
        2,
        len(pool),
    )


def build(name: str, seed: int, prog) -> Workload:
    if name == "mixed":
        return build_mixed(seed)
    if name == "upper-chi3":
        return build_upper(seed)
    if name == "lower-chi4":
        return build_lower(seed)
    if name == "matrix-verify":
        return build_matrix(seed, prog)
    raise ValueError(f"unknown workload {name!r}")
