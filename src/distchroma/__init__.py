"""Chromatic numbers of integer distance graphs with three distances.

The library classifies the chromatic number of Cay(Z, {+-a, +-b, +-c}),
constructs periodic proper colorings with period at most b + c as rotation
words, and certifies every answer with witnesses for both bounds: the
periodic upper witness is re-verified independently, while the lower one
rests on the exact solver that found it.  The lower witness also refutes
any number of colors below the chromatic number.
"""

from .circulant import (
    Circulant,
    Coloring,
    backtrack_coloring,
    chromatic_number,
    exists_coloring,
    is_proper,
    make_circulant,
)
from .errors import CertificationError, InvalidInputError, QuotientLoopsError
from .intmat import (
    LabeledMatrix,
    admissible_collapses,
    build_heuberger_matrix,
    col_combine,
    collapse_rows,
    egcd,
    hermite_reduce_step,
    solve_bezout,
)
from .periodic import (
    ChiCertificate,
    LowerBound,
    PeriodicColoring,
    certify,
    find_periodic_coloring,
    lower_bound,
    segment_colorable,
    verify_periodic,
    word_is_proper,
)
from .zhu import (
    ChiBranch,
    DistanceTriple,
    chi_formula,
    is_bipartite,
    normalize_triple,
    orient_for_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "ChiBranch",
    "ChiCertificate",
    "Circulant",
    "Coloring",
    "DistanceTriple",
    "InvalidInputError",
    "LabeledMatrix",
    "LowerBound",
    "PeriodicColoring",
    "QuotientLoopsError",
    "admissible_collapses",
    "backtrack_coloring",
    "build_heuberger_matrix",
    "certify",
    "chi_formula",
    "chromatic_number",
    "col_combine",
    "collapse_rows",
    "egcd",
    "exists_coloring",
    "find_periodic_coloring",
    "hermite_reduce_step",
    "is_bipartite",
    "is_proper",
    "lower_bound",
    "make_circulant",
    "normalize_triple",
    "orient_for_matrix",
    "segment_colorable",
    "solve_bezout",
    "verify_periodic",
    "word_is_proper",
]
