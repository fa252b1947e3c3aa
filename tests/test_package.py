"""The package root exports the certificate API and nothing else."""

import distchroma

ROOT_API = {
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
}


def test_root_exports_the_certificate_api():
    assert len(distchroma.__all__) == len(ROOT_API)
    assert set(distchroma.__all__) == ROOT_API
    assert all(hasattr(distchroma, name) for name in ROOT_API)
