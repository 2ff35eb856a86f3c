"""groupdom: finite groups, their subgroup intersection graphs, exact
domination numbers, Burnside ring arithmetic, and subgroup complexes.

The public names below are loaded from their submodules on first use
(PEP 562), so ``import groupdom`` alone loads neither numpy nor any
submodule; the command line relies on this to set BLAS threading before
numpy starts."""

from importlib import import_module

# the public names, by the submodule that defines them
_EXPORTS = {
    "burnside": ("BurnsideRing", "GSetDecomposition"),
    "complexes": ("HomologyProfile", "SimplicialComplex", "atom_nerve", "betti",
                  "coatom_nerve", "intersection_complex", "lattice_f_vectors", "nerve",
                  "order_complex", "poset_core", "topology_report"),
    "domination": ("ALEPH0", "CoverResult", "DominationCertificate", "Gamma", "gamma_exact",
                   "gamma_graph", "min_set_cover", "set_cover_lower_bound", "sum_number"),
    "errors": ("BudgetExceeded", "CapExceeded", "SpecError"),
    "formulas": ("TheoremReport", "detect_frobenius", "gamma_abelian_formula",
                 "gamma_dihedral_formula", "symmetric_cover_bound", "verify_bounds"),
    "graphs": ("IntersectionGraph", "graphs_equal", "gset_intersection_graph",
               "intersection_graph", "p_subgroup_indices", "restricted_graph", "to_dot"),
    "groups": ("DEFAULT_ELEMENT_CAP", "GroupSpec", "GroupTable", "Permutation", "build_group",
               "is_normal", "parse_group_spec", "quotient_group"),
    "lattice": ("CharacteristicSubgroups", "GroupClassification", "Lattice", "Subgroup",
                "SubgroupClass", "characteristic_subgroups", "classify_group", "close_subset",
                "enumerate_subgroups", "generated_subgroup", "mobius", "subgroup_classes"),
}
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOMES))
