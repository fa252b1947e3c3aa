"""Periodic colorings of the three-distance graph on the integers.

A color word w of length p colors vertex n with w[n mod p]; it is proper
exactly when w[i] != w[(i + s) mod p] for every residue i and distance s.
The constructor builds the rotation word behind Zhu's circular colorings:
vertex x gets color floor(k * (j*x mod m) / m), which cuts the cycle Z_m
into k arcs.  The word is proper exactly when every distance s moves j*x at
least one full arc, that is ceil(m/k) <= (j*s mod m) <= m - ceil(m/k), an
O(1) test per pair (m, j).  Only when no such word with m <= b + c exists
does it fall back to exact search over the circulants on Z_m, whose
colorings pull back along reduction mod m; that search is also what proves
no periodic coloring exists below the chromatic number.

A certificate bundles the classification answer with re-verified witnesses
in both directions: a periodic coloring for the upper bound, and a parity
argument or an exhaustively uncolorable segment for the lower bound.
"""

from dataclasses import dataclass

from .circulant import backtrack_coloring, exists_coloring, make_circulant
from .errors import CertificationError
from .zhu import ChiBranch, DistanceTriple, chi_formula, is_bipartite

LOWER_TRIVIAL = "trivial"
LOWER_PARITY = "parity"
LOWER_SEGMENT = "segment"

# Segment lengths are scanned from b+c, doubling, up to this multiple of
# b+c; an uncolorable segment has always appeared well before the cap on
# every swept instance, and running past it aborts rather than guessing.
SEGMENT_CAP_FACTOR = 6


@dataclass(frozen=True)
class PeriodicColoring:
    """Finite color word encoding a coloring of the integers by residue."""

    period: int
    colors: tuple[int, ...]
    k: int
    modulus_origin: int  # quotient modulus that produced the word; equals period

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(self.colors))


@dataclass(frozen=True)
class LowerBound:
    """Machine-checkable reason the chromatic number is not smaller.

    kind "trivial": the graph has an edge, so one color cannot suffice.
    kind "parity": not every distance is odd, which yields an odd closed
    walk, so two colors cannot suffice.
    kind "segment": the vertices 0..length admit no coloring with one color
    fewer, established by exhausted search.
    """

    kind: str
    length: "int | None" = None


@dataclass(frozen=True)
class ChiCertificate:
    """Chromatic number with witnesses for both bounds."""

    triple: DistanceTriple
    chi: int
    branch: ChiBranch
    upper: PeriodicColoring
    lower: LowerBound

    def to_json_dict(self) -> dict:
        out = {
            "a": self.triple.a,
            "b": self.triple.b,
            "c": self.triple.c,
            "scale": self.triple.scale,
            "chi": self.chi,
            "branch": self.branch.value,
            "period": self.upper.period,
            "colors": list(self.upper.colors),
            "lower": {"type": self.lower.kind},
        }
        if self.lower.length is not None:
            out["lower"]["L"] = self.lower.length
        return out

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


def find_periodic_coloring(t: DistanceTriple, k: int) -> "PeriodicColoring | None":
    """A periodic k-coloring with period at most b + c, or None.

    Rotation words are scanned by modulus m = 2 .. b + c, then by
    multiplier j = 1 .. m - 1, and the first proper one is returned.  Only
    after a miss are the circulants on every loop-free Z_m with m <= b + c
    searched exactly, in ascending order; a proper coloring of the
    circulant with connection set {a, b, c} pulls back to a proper coloring
    of the integers with period m, so any result is sound.  Returns None
    when both fail, which for k below the chromatic number is guaranteed.
    """
    if k < 1:
        return None
    distances = t.distances()
    bound = t.b + t.c
    for m in range(2, bound + 1):
        arc = -(-m // k)
        residues = [s % m for s in distances]
        for j in range(1, m):
            if all(arc <= j * r % m <= m - arc for r in residues):
                colors = tuple(k * (j * x % m) // m for x in range(m))
                return PeriodicColoring(m, colors, k, m)
    for m in range(2, bound + 1):
        if all(s % m for s in distances):
            witness = exists_coloring(make_circulant(m, list(distances)), k)
            if witness is not None:
                return PeriodicColoring(m, witness.colors, k, m)
    return None


def word_is_proper(distances: tuple[int, ...], colors: tuple[int, ...]) -> bool:
    """Properness of the periodic coloring a color word induces on the
    integers, checked over one period."""
    p = len(colors)
    return all(colors[i] != colors[(i + s) % p] for i in range(p) for s in distances)


def verify_periodic(t: DistanceTriple, pc: PeriodicColoring) -> bool:
    """Independent properness check of a periodic coloring for the triple.

    One period suffices: vertices n and n + s collide exactly when the
    residues i and (i + s) mod p do.  A distance divisible by the period
    compares a color with itself and fails, so loop-freeness needs no
    separate check.
    """
    if len(pc.colors) != pc.period or pc.period < 1:
        return False
    return word_is_proper(t.distances(), pc.colors)


def segment_colorable(t: DistanceTriple, length: int, k: int) -> bool:
    """Whether vertices 0..length with the triple's distances admit a
    proper k-coloring, decided by the exact solver.

    Any induced finite subgraph bounds the chromatic number of the whole
    graph from below; an uncolorable segment is therefore a lower-bound
    witness.
    """
    distances = set(t.distances())
    adjacency = [[] for _ in range(length + 1)]
    for v in range(length + 1):
        for s in distances:
            if v + s <= length:
                adjacency[v].append(v + s)
                adjacency[v + s].append(v)
    return backtrack_coloring(adjacency, k) is not None


def certify(t: DistanceTriple) -> ChiCertificate:
    """Classify the triple and wrap the answer in re-verified witnesses.

    The upper witness is a periodic chi-coloring with period at most
    b + c; the lower witness rules out chi - 1 colors (trivially for
    chi = 2, by parity for chi = 3, by an uncolorable segment for
    chi = 4).  Failure of either search would contradict the
    classification, so it raises CertificationError rather than degrade.
    """
    chi, branch = chi_formula(t)
    a, b, c = t.distances()

    upper = find_periodic_coloring(t, chi)
    if upper is None or upper.period > b + c:
        raise CertificationError(
            f"no periodic {chi}-coloring with period <= {b + c} for {t.distances()}"
        )
    if not verify_periodic(t, upper):
        raise CertificationError(
            f"periodic coloring failed re-verification for {t.distances()}"
        )

    if chi == 2:
        lower = LowerBound(LOWER_TRIVIAL)
    elif chi == 3:
        if is_bipartite(t):
            raise CertificationError(
                f"parity lower bound unsound for {t.distances()}"
            )
        lower = LowerBound(LOWER_PARITY)
    else:
        cap = SEGMENT_CAP_FACTOR * (b + c)
        length = b + c
        while segment_colorable(t, length, chi - 1):
            if length >= cap:
                raise CertificationError(
                    f"no uncolorable segment up to {cap} for {t.distances()}"
                )
            length = min(2 * length, cap)
        lower = LowerBound(LOWER_SEGMENT, length)

    return ChiCertificate(t, chi, branch, upper, lower)
