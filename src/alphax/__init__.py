"""alphax: extremal alpha-index search over minimally connected graph classes."""

import os

# No matrix here exceeds 64x64, so BLAS worker threads only cost start-up CPU;
# set before numpy is first imported, and a value the user set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"  # the one version source: pyproject and reports read it

from .canonical import CanonicalForm, canonical_form
from .connectivity import (
    ClassMembership,
    classify,
    edge_connectivity,
    has_chorded_cycle,
    is_k_connected,
    is_k_edge_connected,
    is_minimally_k_connected,
    is_minimally_k_edge_connected,
    vertex_connectivity,
)
from .enumeration import ClassFilter, dedup_by_isomorphism, enumerate_class, ingest_class
from .families import (
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_friendship,
    make_path,
    make_wheel,
    parse_family_spec,
    rho_join_regular,
)
from .graph import Graph, neighbor_degree_sum, parse_edge_list
from .graph6 import Graph6Error, parse_graph6, parse_graph6_lines, write_graph6
from .spectral import (
    ConvergenceError,
    SpectralResult,
    alpha_indices,
    bound_lower_delta,
    bound_upper_degree,
    bound_upper_edge,
    column_sum_certificate,
    spectral_radius,
)
