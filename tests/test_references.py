"""The independent references live beside the tests, out of the library's
reach: none of them is defined in or exported by ``groupdom``, and no
library module imports a test module.  ``groups`` is the library's bottom
layer: of its own package it imports only ``errors``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import groupdom

SRC = Path(groupdom.__file__).parent
TESTS = Path(__file__).parent

# every name here is defined in a tests/*_reference.py module
REFERENCES = {
    "lattice_reference": ("enumerate_subgroups_allpairs", "subgroups_bruteforce",
                          "_close_join", "cyclic_subgroup_masks", "_join"),
    "domination_reference": ("domination_oracle", "is_dominating",
                             "lower_bound_visiting_every_point"),
    "burnside_reference": ("double_cosets", "DoubleCosetSet", "pooled_index_bound",
                           "reference_meets_matrix", "abelian_marks"),
    "collapse_reference": ("greedy_collapse",),
    "derived_series_reference": ("derived_series_all_commutators",
                                 "lower_central_series_all_commutators"),
    "graphs_reference": ("adjacency_from_masks", "pair_loop_edges"),
}
NAMES = {name for names in REFERENCES.values() for name in names}


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_references_are_defined_in_the_tests():
    for module, names in REFERENCES.items():
        reference = importlib.import_module(module)
        assert Path(reference.__file__).parent == TESTS
        for name in names:
            assert getattr(reference, name).__module__ == module, name


def test_no_reference_is_an_attribute_of_the_library():
    modules = [groupdom] + [importlib.import_module(f"groupdom.{m.name}")
                            for m in pkgutil.iter_modules(groupdom.__path__)]
    for module in modules:
        assert not NAMES & set(dir(module)), module.__name__


def test_no_reference_is_defined_in_the_library():
    for filename, tree in _trees().items():
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not NAMES & defined, filename


def test_no_library_module_imports_a_test_module():
    test_modules = {path.stem for path in TESTS.glob("*.py")} | {"tests"}
    for filename, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = {node.module.split(".")[0]}
            else:
                continue
            assert not roots & test_modules, (filename, roots)


def test_groups_imports_no_groupdom_module_but_errors():
    imported = set()
    for node in ast.walk(_trees()["groups.py"]):  # function-local imports too
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level:  # relative: inside groupdom
            imported |= ({f"groupdom.{node.module}"} if node.module
                         else {f"groupdom.{alias.name}" for alias in node.names})
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    own = {name for name in imported if name.split(".")[0] == "groupdom"}
    assert own == {"groupdom.errors"}, own
