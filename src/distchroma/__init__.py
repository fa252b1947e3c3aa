"""Chromatic numbers of integer distance graphs with three distances.

The library classifies the chromatic number of Cay(Z, {+-a, +-b, +-c}),
constructs periodic proper colorings with period at most b + c as rotation
words, and certifies every answer with witnesses for both bounds: the
periodic upper witness is re-verified independently, while the lower one
rests on the segment refutation that found it: the vertices every
3-coloring forces to share a color are merged, and an edge inside a class
is the whole refutation.  No search runs.  The lower witness also refutes
any number of colors below the chromatic number.

The package root exports this certificate API.  The exact coloring solver,
which only the tests run, stays in distchroma.circulant, and the
relation-matrix pipeline in distchroma.intmat.
"""

from .errors import CertificationError, InvalidInputError
from .periodic import (
    ChiCertificate,
    LowerBound,
    PeriodicColoring,
    certify,
    find_periodic_coloring,
    lower_bound,
    verify_periodic,
)
from .zhu import ChiBranch, DistanceTriple, chi_formula, normalize_triple

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "ChiBranch",
    "ChiCertificate",
    "DistanceTriple",
    "InvalidInputError",
    "LowerBound",
    "PeriodicColoring",
    "certify",
    "chi_formula",
    "find_periodic_coloring",
    "lower_bound",
    "normalize_triple",
    "verify_periodic",
]
