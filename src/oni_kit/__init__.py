"""Exact combinatorics of open neighborhood ideals.

Sperner-family dualization, square-free monomial ideals, simplicial
complexes with vertex-decomposability certificates, balanced-tree
domination theory, and geometric vertex decomposition, all over exact
bitmask arithmetic with canonical JSON encodings.
"""

from types import ModuleType as _Module

from .complexes import (
    EMPTY,
    ORDINARY,
    VOID,
    Leaf,
    Shed,
    SimplicialComplex,
    cycle_order,
    deletion,
    facet_ideal,
    find_leaf,
    is_connected_complex,
    is_cycle,
    is_shedding_vertex,
    is_simplicial_forest,
    is_simplicial_tree,
    is_vertex_decomposable,
    join,
    link,
    minimal_vertex_covers,
    shedding_certificate_from_json,
    shedding_certificate_to_json,
    stanley_reisner_complex,
    stanley_reisner_ideal,
    validate_shedding_certificate,
)
from .errors import CapExceeded, InputError
from .fixtures import beg_a, fixture_document, fixture_names, p6, t_a, twin_broom
from .graphs import (
    Graph,
    HeightProfile,
    TreeDecomposition,
    edge_join,
    even_stable_complex,
    find_split_vertex,
    heights,
    induced_odd_oni,
    is_chordal,
    is_structurally_td_unmixed,
    is_td_unmixed,
    minimal_odd_td_sets,
    minimal_td_sets,
    o_extend,
    o_sequence,
    odd_oni,
    oni,
    path_graph,
    realize_as_oni,
    search_decomposition,
    stable_complex,
    verify_decomposition,
)
from .gvd import (
    BASE_UNIT,
    BASE_VARIABLES,
    BASE_ZERO,
    Base,
    Split,
    certificate_from_json_obj,
    certificate_to_json_obj,
    certify_tree_gvd,
    is_gvd,
    is_valid_geometric_decomposition,
    split,
    validate_certificate,
)
from .ideals import SquareFreeIdeal
from .universe import (
    BRUTE_FORCE_SUPPORT_CAP,
    SpernerFamily,
    Universe,
    brute_force_transversals,
    minimal_transversals,
)
from .verify import run_verification

__version__ = "0.1.0"

# the public API is every name bound above that is neither private nor a submodule
__all__ = sorted(n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _Module))
