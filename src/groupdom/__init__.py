"""groupdom: finite groups, their subgroup intersection graphs, exact
domination numbers, Burnside ring arithmetic, and subgroup complexes."""

from .burnside import BurnsideRing, GSetDecomposition
from .complexes import (HomologyProfile, SimplicialComplex, atom_nerve, betti,
                        coatom_nerve, intersection_complex, lattice_f_vectors,
                        nerve, order_complex, poset_core, topology_report)
from .domination import (ALEPH0, CoverResult, DominationCertificate, Gamma,
                         gamma_exact, gamma_graph, min_set_cover,
                         set_cover_lower_bound, sum_number)
from .errors import BudgetExceeded, CapExceeded, SpecError
from .formulas import (TheoremReport, detect_frobenius, gamma_abelian_formula,
                       gamma_dihedral_formula, symmetric_cover_bound,
                       verify_bounds)
from .graphs import (IntersectionGraph, graphs_equal, gset_intersection_graph,
                     intersection_graph, p_subgroup_indices, restricted_graph,
                     to_dot)
from .groups import (DEFAULT_ELEMENT_CAP, GroupSpec, GroupTable, Permutation,
                     build_group, is_normal, parse_group_spec, quotient_group)
from .lattice import (CharacteristicSubgroups, GroupClassification, Lattice,
                      Subgroup, SubgroupClass, characteristic_subgroups,
                      classify_group, close_subset, enumerate_subgroups,
                      generated_subgroup, mobius, subgroup_classes)

__version__ = "0.1.0"
