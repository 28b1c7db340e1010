"""alphax: extremal alpha-index search over minimally connected graph classes."""

__version__ = "0.1.0"  # the one version source: pyproject and reports read it

from .canonical import CanonicalForm, CapabilityError, are_isomorphic, canonical_form
from .connectivity import (
    ClassMembership,
    bridges,
    classify,
    cut_vertices,
    edge_connectivity,
    is_k_connected,
    is_k_edge_connected,
    is_minimally_k_connected,
    is_minimally_k_edge_connected,
    vertex_connectivity,
)
from .enumeration import ClassFilter, dedup_by_isomorphism, enumerate_class, ingest_class
from .families import (
    disjoint_union,
    join,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_friendship,
    make_path,
    make_wheel,
    parse_family_spec,
    rho_complete_bipartite,
    rho_friendship,
    rho_join_regular,
)
from .graph import (
    Graph,
    all_cycles,
    avg_neighbor_degree,
    format_edge_list,
    has_chorded_cycle,
    neighbor_degree_sum,
    parse_edge_list,
)
from .graph6 import Graph6Error, parse_graph6, parse_graph6_lines, write_graph6
from .spectral import (
    ConvergenceError,
    SpectralResult,
    alpha_indices,
    bound_lower_delta,
    bound_upper_degree,
    bound_upper_edge,
    build_alpha_matrix,
    column_sum_certificate,
    spectral_radius,
)
