"""Periodic colorings of the three-distance graph on the integers.

A color word w of length p colors vertex n with w[n mod p]; it is proper
exactly when w[i] != w[(i + s) mod p] for every residue i and distance s,
that is, when the word differs in every position from its rotation by
s mod p.  The constructor builds the rotation word behind Zhu's circular
colorings: vertex x gets color floor(k * (j*x mod m) / m), which cuts the
cycle Z_m into k arcs.  The word is proper exactly when every distance s
moves j*x at least one full arc, that is
ceil(m/k) <= (j*s mod m) <= m - ceil(m/k), an O(1) test per pair (m, j).

The search for (m, j) has two steps.  Every modulus up to
SMALL_MODULUS_LIMIT is decided by three lookups in a table of multiplier
bitmasks, one per residue of a distance, whose lowest common bit is the
least passing multiplier; there is one such table per number of colors,
and every k >= SMALL_MODULUS_LIMIT shares one.  Beyond it only the sum
moduli a + b, a + c and b + c are tried: at s + t the distances s and t
coincide up to sign, two window constraints are left, and a Euclid-style
descent finds a multiplier in O(log m) or proves there is none.  No
search over colorings runs, and no word longer than MAX_WORD_LENGTH is
ever built.

A certificate bundles the classification answer with one witness per
bound, each from one function: upper_bound gives a re-verified rotation
word with period at most b + c, and lower_bound gives an edge, a parity
argument or an uncolorable segment 0..L with L = a + b + c, or b + c
when a + b + c lies past MAX_WORD_LENGTH.  A segment is refuted by its
forced-equal classes alone: the vertices that every 3-coloring forces to
share a color are merged, and an edge inside a class is the whole
refutation, so no search runs on this side either.  The same two
functions answer `color --k` for any number of colors, above or below the
chromatic number.

A certificate is written out here and nowhere else: as a dict by
ChiCertificate.to_json_dict, and as the text `chi --json` prints by
ChiCertificate.to_json.
"""

from dataclasses import dataclass
from itertools import islice
from math import gcd
from operator import eq, ne

from .circulant import backtrack_coloring  # not called; perfbench --trace 1 rebinds it here
from .circulant import exists_coloring  # not called; perfbench --trace 1 rebinds it here
from .errors import CertificationError, InvalidInputError, _brief
from .zhu import ChiBranch, DistanceTriple, _slot_setters, chi_formula, is_bipartite

LOWER_TRIVIAL = "trivial"
LOWER_PARITY = "parity"
LOWER_SEGMENT = "segment"

# Every modulus up to this one is decided by a bitmask lookup over all its
# multipliers, which keeps the first word in (m, j) order; past it only the
# sum moduli are tried.
SMALL_MODULUS_LIMIT = 64

# Words of a small modulus with at most this many colors are built once and
# shared: chi <= 4 for every triple, so certify never asks for more.
_SHARED_WORD_COLORS = 4

# The multiplier bitmasks of every small modulus, one table per number of
# colors k <= SMALL_MODULUS_LIMIT, built whole by _color_tables; every larger
# k reads the table of SMALL_MODULUS_LIMIT.  At most 63 tables of 63 lists.
_COLOR_TABLES = {}

# The shared words, one per (m, j, k) with m <= SMALL_MODULUS_LIMIT,
# 1 <= j <= m // 2 and 2 <= k <= _SHARED_WORD_COLORS: at most 3,072 words.
# PeriodicColoring is frozen, so every caller may hold the same one.
_SHARED_WORDS = {}

# Longest color word the constructor builds, and longest segment 0..L the
# lower bound refutes.  Anything longer is refused with InvalidInputError
# before any memory is allocated for it.
MAX_WORD_LENGTH = 10**6


@dataclass(frozen=True, init=False, slots=True)
class PeriodicColoring:
    """Finite color word encoding a coloring of the integers by residue.

    Colors given as another sequence are stored as a tuple.  Equality,
    hashing, ``repr`` and immutability are the dataclass's.
    """

    period: int
    colors: tuple[int, ...]
    k: int
    modulus_origin: int  # quotient modulus that produced the word; equals period

    def __init__(self, period, colors, k, modulus_origin):
        _set_period(self, period)
        _set_colors(self, colors if type(colors) is tuple else tuple(colors))
        _set_k(self, k)
        _set_modulus_origin(self, modulus_origin)


_set_period, _set_colors, _set_k, _set_modulus_origin = _slot_setters(PeriodicColoring)


@dataclass(frozen=True)
class LowerBound:
    """Machine-checkable reason the chromatic number is not smaller.

    kind "trivial": the graph has an edge, so one color cannot suffice.
    kind "parity": not every distance is odd, which yields an odd closed
    walk, so two colors cannot suffice.
    kind "segment": the vertices 0..length admit no 3-coloring, established
    by segment_colorable: an edge between two vertices that every
    3-coloring forces to share a color is the whole refutation.  length is
    a + b + c, or b + c when a + b + c lies past MAX_WORD_LENGTH.
    """

    kind: str
    length: "int | None" = None


# The two witnesses that carry no length; frozen, so every certificate can
# share them.
_TRIVIAL = LowerBound(LOWER_TRIVIAL)
_PARITY = LowerBound(LOWER_PARITY)


@dataclass(frozen=True, init=False, slots=True)
class ChiCertificate:
    """Chromatic number with witnesses for both bounds."""

    triple: DistanceTriple
    chi: int
    branch: ChiBranch
    upper: PeriodicColoring
    lower: LowerBound

    def __init__(self, triple, chi, branch, upper, lower):
        _set_triple(self, triple)
        _set_chi(self, chi)
        _set_branch(self, branch)
        _set_upper(self, upper)
        _set_lower(self, lower)

    def to_json_dict(self) -> dict:
        t, upper, lower = self.triple, self.upper, self.lower
        witness = {"type": lower.kind}
        if lower.length is not None:
            witness["L"] = lower.length
        return {
            "a": t.a,
            "b": t.b,
            "c": t.c,
            "scale": t.scale,
            "chi": self.chi,
            "branch": self.branch._value_,  # .value, without the property's cost
            "period": upper.period,
            "colors": list(upper.colors),
            "lower": witness,
        }

    def to_json(self) -> str:
        """json.dumps(self.to_json_dict(), indent=2), byte for byte, from one
        template over the fixed shape, without loading json: the branch and
        the lower-bound kind are plain ASCII identifiers, never escaped."""
        t, lower = self.triple, self.lower
        length = "" if lower.length is None else f',\n    "L": {lower.length}'
        colors = ",\n    ".join(map(int.__repr__, self.upper.colors))  # up to 10**6 of them
        return f"""{{
  "a": {t.a},
  "b": {t.b},
  "c": {t.c},
  "scale": {t.scale},
  "chi": {self.chi},
  "branch": "{self.branch._value_}",
  "period": {self.upper.period},
  "colors": [
    {colors}
  ],
  "lower": {{
    "type": "{lower.kind}"{length}
  }}
}}"""

    @classmethod
    def from_json_dict(cls, data: dict) -> "ChiCertificate":
        triple = DistanceTriple(data["a"], data["b"], data["c"], data["scale"])
        upper = PeriodicColoring(
            period=data["period"],
            colors=tuple(data["colors"]),
            k=data["chi"],
            modulus_origin=data["period"],
        )
        lower = LowerBound(data["lower"]["type"], data["lower"].get("L"))
        return cls(triple, data["chi"], ChiBranch(data["branch"]), upper, lower)


_set_triple, _set_chi, _set_branch, _set_upper, _set_lower = _slot_setters(ChiCertificate)


def find_periodic_coloring(t: DistanceTriple, k: int) -> "PeriodicColoring | None":
    """A rotation k-coloring word with period at most b + c, or None.

    The first proper word x -> floor(k * (j*x mod m) / m) is returned from:

    1. every modulus m = 2 .. min(b + c, SMALL_MODULUS_LIMIT) with every
       multiplier j = 1 .. m // 2, in that order, each modulus decided by
       three lookups in its table of multiplier bitmasks (_window_masks):
       the least j is the lowest bit the three residues' masks share;
    2. the sum moduli a + b, a + c and b + c that lie above
       SMALL_MODULUS_LIMIT, in that (ascending) order, each decided in
       O(log m) by _collapse_multiplier.

    Below the chromatic number the result is None, and lower_bound proves
    why; at or above it, no triple is known to give None.

    Memory: the first call with k builds the table of step 1 for
    min(k, SMALL_MODULUS_LIMIT) colors and keeps it; certify's k = 2, 3, 4
    keep three tables, about 125 kB, and a process that asks every k keeps
    at most 63, about 3 MB.  A word of step 1 with k <= 4 colors is built
    on first use and then shared, at most 3,072 words.  No word with more
    colors, and none of step 2, is kept.

    Raises InvalidInputError when k is not an int (``bool`` refused), and,
    naming the triple and the period, when the word found is longer than
    MAX_WORD_LENGTH; that check comes before any shared word is read.
    """
    if type(k) is not int:
        raise InvalidInputError("number of colors must be an integer")
    if k < 2:
        return None  # the window [m, 0] of one color is empty
    a, b, c = t.a, t.b, t.c
    bound = b + c
    tables = _COLOR_TABLES.get(k) or _color_tables(k)
    for m in range(2, min(bound, SMALL_MODULUS_LIMIT) + 1):
        masks = tables[m]
        hit = masks[a % m] & masks[b % m] & masks[c % m]
        if hit:
            return _rotation_word(t, m, (hit & -hit).bit_length() - 1, k)
    for m in (a + b, a + c, bound):  # ascending, since a <= b <= c
        if m > SMALL_MODULUS_LIMIT:
            # The window is symmetric under r -> m - r, so a residue and its
            # negative impose the same constraint; at the sum modulus s + t
            # the distance t is -s, so at most two residues are left.
            folded = sorted({min(r, m - r) for r in (a % m, b % m, c % m)})
            j = _collapse_multiplier(m, k, folded[0], folded[-1])
            if j is not None:
                return _rotation_word(t, m, j, k)
    return None


def _color_tables(k: int) -> list:
    """The table of every small modulus for k colors: entry m, for
    2 <= m <= SMALL_MODULUS_LIMIT, is _window_masks(m, ceil(m/k)).  It is
    built at the first call and kept in _COLOR_TABLES under
    min(k, SMALL_MODULUS_LIMIT): ceil(m/k) = 1 at every small modulus once
    k >= SMALL_MODULUS_LIMIT, so every such k reads one table."""
    key = min(k, SMALL_MODULUS_LIMIT)
    tables = _COLOR_TABLES.get(key)
    if tables is None:
        tables = [None, None]
        tables += [_window_masks(m, -(-m // key)) for m in range(2, SMALL_MODULUS_LIMIT + 1)]
        _COLOR_TABLES[key] = tables
    return tables


def _window_masks(m: int, lo: int) -> list:
    """The multiplier bitmasks of modulus m and window [lo, m - lo], with
    1 <= lo <= (m + 1)/2: bit j of masks[r] is set exactly when
    lo <= j*r mod m <= m - lo, for 1 <= j <= m // 2.

    Bit 0 is never set, because 0 lies outside the window, so masks[0] == 0
    and a distance divisible by m (a loop on Z_m) leaves no bit.  The window
    is symmetric under r -> m - r, so j and m - j pass or fail together and
    the least passing multiplier is at most m // 2; for the same reason
    masks[m - r] == masks[r].  Each mask is read in one go: the window
    pattern, repeated, sliced from j = m // 2 down to 0 with step r.
    """
    half = m // 2
    window = "0" * lo + "1" * (m - 2 * lo + 1) + "0" * (lo - 1)
    # long enough that position half * r exists for every r <= half
    cycle = window * (half * half // m + 1)
    masks = [0] * m
    for r in range(1, half + 1):
        masks[r] = masks[m - r] = int(cycle[half * r :: -r], 2)
    return masks


def _rotation_word(t: DistanceTriple, m: int, j: int, k: int) -> PeriodicColoring:
    if m > MAX_WORD_LENGTH:
        raise InvalidInputError(
            f"the rotation {_brief(k)}-coloring word for {_brief(t.distances())} "
            f"has period {_brief(m)}, above MAX_WORD_LENGTH = {MAX_WORD_LENGTH}"
        )
    key = (m, j, k)
    word = _SHARED_WORDS.get(key)
    if word is None:
        word = PeriodicColoring(m, tuple([k * (j * x % m) // m for x in range(m)]), k, m)
        if m <= SMALL_MODULUS_LIMIT and k <= _SHARED_WORD_COLORS:
            _SHARED_WORDS[key] = word
    return word


def _collapse_multiplier(m: int, k: int, r1: int, r2: int) -> "int | None":
    """Some j in [1, m) with both j*r1 mod m and j*r2 mod m in the window
    [ceil(m/k), m - ceil(m/k)], or None when there is none.

    Dividing m, r1, r2 by d = gcd(r1, r2, m) scales every value j*r mod m
    by d, so the window shrinks to its multiples of d and the reduced
    residues have no common factor with the modulus.  With g = gcd(r1, m)
    and n = m / g, j*r1 mod m = g*y where y = j*(r1/g) mod n, so the first
    constraint asks for y in [ceil(lo/g), floor(hi/g)].  Every j with a
    given y is j0 + n*t, and j*r2 mod m then runs over all values congruent
    to j0*r2 mod n, because t*r2 mod g runs over all of Z_g once g and r2
    are coprime.  The second constraint therefore asks for q*y mod n, with
    q = r2 / (r1/g) mod n, to fall in the window taken mod n: one or two
    intervals, each searched by _least_multiple_in.  The least such y is
    lifted back to j through t.  O(log m) arithmetic operations.
    """
    lo = -(-m // k)
    hi = m - lo
    d = gcd(r1, r2, m)
    m, r1, r2 = m // d, r1 // d, r2 // d
    lo, hi = -(-lo // d), hi // d
    g = gcd(r1, m)
    n = m // g
    y_lo, y_hi = -(-lo // g), hi // g
    if y_lo > y_hi:
        return None
    inverse = pow(r1 // g, -1, n)
    q = inverse * r2 % n
    width = hi - lo + 1
    if width >= n:
        x = 0
    else:
        start = (lo - q * y_lo) % n
        end = start + width - 1
        if end < n:
            x = _least_multiple_in(q, n, start, end)
        else:
            hits = (_least_multiple_in(q, n, start, n - 1), _least_multiple_in(q, n, 0, end - n))
            x = min((h for h in hits if h is not None), default=None)
        if x is None:
            return None
    y = y_lo + x
    if y > y_hi:
        return None
    j0 = y * inverse % n
    base = j0 * r2 % m
    # the least value in the window congruent to base mod n; it is <= hi
    # because q*y mod n fell in the window taken mod n
    value = lo + (base - lo) % n
    t = (value - base) // n * pow(r2, -1, g) % g
    return j0 + n * t


def _least_multiple_in(a: int, m: int, lo: int, hi: int) -> "int | None":
    """The least x >= 0 with lo <= a*x mod m <= hi, or None; needs
    0 <= lo <= hi < m.

    If some multiple of a lies in [lo, hi] itself, the answer is
    ceil(lo/a).  Otherwise a*x - m*y falls in the window for the least y
    with m*y mod a in [a - hi mod a, a - lo mod a], a problem of the same
    shape on (m mod a, a), and x = ceil((lo + m*y)/a).  The descent follows
    Euclid's algorithm on (a, m), so it takes O(log m) steps; they are
    stacked and unwound iteratively.
    """
    a %= m
    frames = []
    while True:
        if lo == 0:
            x = 0
            break
        if a == 0:
            return None
        x = -(-lo // a)
        if a * x <= hi:
            break
        frames.append((a, m, lo))
        a, m, lo, hi = m % a, a, a - hi % a, a - lo % a
    for a, m, lo in reversed(frames):
        x = -(-(lo + m * x) // a)
    return x


def word_is_proper(distances: tuple[int, ...], colors: tuple[int, ...]) -> bool:
    """Properness of the periodic coloring a color word induces on the
    integers, checked over one period: the word must differ in every
    position from its rotation by each distance.  An empty word colors
    nothing and is not proper."""
    if not colors:
        return False
    p = len(colors)
    doubled = colors * 2  # doubled[s % p:] starts with the rotation by s
    for s in distances:
        if not all(map(ne, colors, doubled[s % p:])):
            return False
    return True


def verify_periodic(t: DistanceTriple, pc: PeriodicColoring) -> bool:
    """Independent properness check of a periodic coloring for the triple.

    One period suffices: vertices n and n + s collide exactly when the
    residues i and (i + s) mod p do.  A distance divisible by the period
    compares a color with itself and fails, so loop-freeness needs no
    separate check.  k and the colors must be integers, the colors in
    [0, k): a word with other colors than it claims proves nothing about k.
    """
    colors, k = pc.colors, pc.k
    if type(k) is not int or len(colors) != pc.period or not colors:
        return False
    for color in colors:
        if type(color) is not int or not 0 <= color < k:
            return False
    return word_is_proper((t.a, t.b, t.c), colors)


def segment_colorable(t: DistanceTriple, length: int, k: int) -> bool:
    """False when vertices 0..length with the triple's distances provably
    admit no proper 3-coloring; True when the segment is not refuted.

    Any induced finite subgraph bounds the chromatic number of the whole
    graph from below; a refuted segment is therefore a lower-bound witness.

    The two ends of an edge x ~ x + s take two of the three colors, so
    every vertex adjacent to both takes the third: the vertices x + e with
    e and e - s in +-D share a color.  One union-find pass over the edges
    merges them, every proper 3-coloring is constant on each class, and an
    edge inside a class is the whole refutation; no search runs.  True
    means only "not refuted", but it has matched 3-colorability, decided by
    an exact solver, on every coprime triple with c <= 40 and every
    length <= 2(b + c) + 2.

    Only k = 3 is defined.  A length or k that is not an int (``bool``
    refused), any other k, and a length above MAX_WORD_LENGTH raise
    InvalidInputError; the last two name the triple, so lower_bound passes
    them on as the segment stage's errors.
    """
    if type(length) is not int or type(k) is not int:
        raise InvalidInputError("segment length and number of colors must be integers")
    if k != 3:
        raise InvalidInputError(
            f"segment stage for {_brief(t.distances())}: refutation is defined for 3 colors, "
            f"not {_brief(k)}"
        )
    if length > MAX_WORD_LENGTH:
        raise InvalidInputError(
            f"segment stage for {_brief(t.distances())}: L = {_brief(length)} exceeds "
            f"MAX_WORD_LENGTH = {MAX_WORD_LENGTH}"
        )
    distances = set(t.distances())
    signed = distances | {-s for s in distances}
    # Each vertex points to a lower vertex of its class, or to itself.
    parent = list(range(length + 1))
    for s in distances:
        common = sorted(e for e in signed if e - s in signed)
        # A chain of neighbours is enough: every x that would merge e0 with
        # a later member merges each consecutive pair between them too.
        for e0, e1 in zip(common, common[1:]):
            # x ~ x + s is an edge, and x + e0 < x + e1 lie in 0..length
            for x in range(max(0, -e0), min(length - s, length - e1) + 1):
                u, v = x + e0, x + e1
                while parent[u] != u:
                    parent[u] = u = parent[parent[u]]
                while parent[v] != v:
                    parent[v] = v = parent[parent[v]]
                if u < v:
                    parent[v] = u
                elif v < u:
                    parent[u] = v
    # Pointers only go down, so one ascending pass points every vertex at
    # the least vertex of its class.
    for v, p in enumerate(parent):
        parent[v] = parent[p]
    return not any(any(map(eq, parent, islice(parent, s, None))) for s in distances)


def upper_bound(t: DistanceTriple, k: int) -> PeriodicColoring:
    """The witness that the triple's graph has a proper k-coloring: the
    word from find_periodic_coloring, checked to have period at most b + c
    and re-verified by verify_periodic.

    Raises CertificationError, naming the triple, when either check fails,
    and InvalidInputError for k that is not a positive int (``bool``
    refused) or a word longer than MAX_WORD_LENGTH.
    """
    if type(k) is not int:
        raise InvalidInputError("number of colors must be an integer")
    if k < 1:
        raise InvalidInputError("number of colors must be positive")
    pc = find_periodic_coloring(t, k)
    if pc is None or pc.period > t.b + t.c or not verify_periodic(t, pc):
        raise CertificationError(
            f"no verified rotation {_brief(k)}-coloring word with period "
            f"<= {_brief(t.b + t.c)} for {_brief(t.distances())}"
        )
    return pc


def lower_bound(t: DistanceTriple, k: int) -> LowerBound:
    """The witness that the triple's graph has no proper k-coloring, for
    1 <= k < chi: an edge, parity, or an uncolorable segment 0..L at
    L = a + b + c.  For (1, 2, c) with 3 | c that segment is refuted by
    proof: x - 1 and x + 2 are adjacent to both ends of the edge x ~ x + 1,
    so they share the third color, the classes have period 3 on 0..L, and
    the edge 0 ~ c lies inside one class.  For (a, b, a + b) it is tested:
    the tests refute every chi = 4 triple with c <= 200 there, and every
    one with c <= 400 and 700 random ones with 10**3 <= c < 5 * 10**5 were
    refuted when measured.  Past MAX_WORD_LENGTH, b + c is tried first; if
    that segment stands, segment_colorable refuses a + b + c.

    Raises CertificationError when the witness fails, which for k < chi
    would contradict the classification, and InvalidInputError for k that
    is not a positive int (``bool`` refused).  Past k = 2 the segment
    stage runs, and segment_colorable refuses k other than 3 and a segment
    longer than MAX_WORD_LENGTH.
    """
    if type(k) is not int:
        raise InvalidInputError("number of colors must be an integer")
    if k < 1:
        raise InvalidInputError("number of colors must be positive")
    if k == 1:
        return _TRIVIAL
    if k == 2:
        if is_bipartite(t):
            raise CertificationError(f"parity lower bound unsound for {_brief(t.distances())}")
        return _PARITY
    length = t.a + t.b + t.c
    if length > MAX_WORD_LENGTH and not segment_colorable(t, t.b + t.c, k):
        return LowerBound(LOWER_SEGMENT, t.b + t.c)
    if not segment_colorable(t, length, k):  # past the envelope, this refuses
        return LowerBound(LOWER_SEGMENT, length)
    raise CertificationError(
        f"no uncolorable segment at L = {_brief(length)} for {_brief(t.distances())}"
    )


def certify(t: DistanceTriple) -> ChiCertificate:
    """Classify the triple and wrap the answer in its two witnesses:
    upper_bound(t, chi) and lower_bound(t, chi - 1).  Failure of either
    would contradict the classification, so it raises CertificationError
    rather than degrade.
    """
    chi, branch = chi_formula(t)
    return ChiCertificate(t, chi, branch, upper_bound(t, chi), lower_bound(t, chi - 1))
