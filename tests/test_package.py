"""The package root exports the certificate API and nothing else, and every
public name in the package is reached from the package itself."""

import ast
from pathlib import Path

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


# Public names that no src statement reaches, each kept because perfbench
# binds it by name (ROADMAP item 1b unties perfbench from these internals):
#   circulant.exists_coloring    perfbench/tracer.py:26 wraps it where
#                                periodic imports it
#   intmat.admissible_collapses  perfbench/workloads.py:276 calls it, and
#                                perfbench/tracer.py:36 wraps it
PINNED_BY_PERFBENCH = {"circulant.exists_coloring", "intmat.admissible_collapses"}


def _names_used(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name and attribute name in tree, outside skip and import lines."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip or isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def test_every_public_name_is_reached_from_src():
    # The north star keeps no public API that only tests use: each public
    # top-level function or class must be referenced by some src statement
    # other than its own definition and import lines.
    package = Path(distchroma.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unreached = set()
    for module, tree in trees.items():
        others = set().union(*(_names_used(t) for m, t in trees.items() if m != module))
        for node in tree.body:
            if isinstance(node, kinds) and not node.name.startswith("_"):
                if node.name not in others | _names_used(tree, skip=node):
                    unreached.add(f"{module}.{node.name}")
    assert unreached == PINNED_BY_PERFBENCH
