"""The package import is lazy: ``import groupdom`` loads no submodule and
not numpy, and each public name resolves, on first use, to the object its
submodule defines."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the public names the package has always exported, by defining submodule
EXPORTS = {
    "burnside": {"BurnsideRing", "GSetDecomposition"},
    "complexes": {"HomologyProfile", "SimplicialComplex", "atom_nerve", "betti",
                  "coatom_nerve", "intersection_complex", "lattice_f_vectors", "nerve",
                  "order_complex", "poset_core", "topology_report"},
    "domination": {"ALEPH0", "CoverResult", "DominationCertificate", "Gamma", "gamma_exact",
                   "gamma_graph", "min_set_cover", "set_cover_lower_bound", "sum_number"},
    "errors": {"BudgetExceeded", "CapExceeded", "SpecError"},
    "formulas": {"TheoremReport", "detect_frobenius", "gamma_abelian_formula",
                 "gamma_dihedral_formula", "symmetric_cover_bound", "verify_bounds"},
    "graphs": {"IntersectionGraph", "graphs_equal", "gset_intersection_graph",
               "intersection_graph", "p_subgroup_indices", "restricted_graph", "to_dot"},
    "groups": {"DEFAULT_ELEMENT_CAP", "GroupSpec", "GroupTable", "Permutation", "build_group",
               "is_normal", "parse_group_spec", "quotient_group"},
    "lattice": {"CharacteristicSubgroups", "GroupClassification", "Lattice", "Subgroup",
                "SubgroupClass", "characteristic_subgroups", "classify_group", "close_subset",
                "enumerate_subgroups", "generated_subgroup", "mobius", "subgroup_classes"},
}

# run in a fresh interpreter, so that no earlier import has loaded anything
CHILD = """
import json, sys
from importlib import import_module
import groupdom
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("groupdom."))
listed = dir(groupdom)
exports = json.loads(sys.argv[1])
mismatched = [name for home, names in exports.items() for name in names
              if getattr(groupdom, name) is not getattr(import_module("groupdom." + home), name)]
print(json.dumps({"loaded": loaded, "all": groupdom.__all__, "dir": listed,
                  "mismatched": mismatched, "version": groupdom.__version__,
                  "unknown": hasattr(groupdom, "no_such_name")}))
"""


def test_package_import_is_lazy_and_exports_its_names():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    exports = {home: sorted(names) for home, names in EXPORTS.items()}
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(exports)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    names = set().union(*EXPORTS.values())
    assert len(names) == 58
    assert got["loaded"] == []
    assert set(got["all"]) == names
    assert names <= set(got["dir"])
    assert got["mismatched"] == []
    assert got["version"] == "0.1.0"
    assert got["unknown"] is False
