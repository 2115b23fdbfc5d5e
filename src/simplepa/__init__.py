"""Simple permutoassociahedra: exact combinatorics, geometry and exports.

The package builds the family PA_n of simple polytopes whose vertices are
the completely bracketed permuted products of the labels 0..n.  The
combinatorial side (chains, nested sets, bracketings, the rewrite graph)
lives in :mod:`simplepa.nestedsets` and :mod:`simplepa.brackets`; the exact
rational halfspace realization and its verification in
:mod:`simplepa.geometry`; the coherence-diagram classification of 2-faces
in :mod:`simplepa.classify`; serialization and the ``pa`` command in
:mod:`simplepa.cli`.
"""

from .brackets import (
    ALPHA,
    SIGMA,
    BracketSyntaxError,
    Bracketing,
    RewriteGraph,
    all_bracketings,
    alpha_neighbors,
    build_graph,
    from_nested,
    parse_bracketing,
    print_bracketing,
    sigma_neighbor,
    to_nested,
)
from .classify import (
    DiagramCensus,
    DiagramType,
    boundary_cycle,
    classify_2_face,
    diagram_census,
)
from .geometry import (
    AffineMap,
    Hyperplane,
    SingularSystemError,
    VertexReport,
    affine_dimension,
    ambient_plane,
    f_vector,
    facet_inequality,
    facet_rhs,
    fractional_offset,
    h_representation,
    normalization_map,
    polytope_graph,
    realization_report,
    solve_exact,
    vertex_coordinates,
    vertex_point,
    verify_vertex,
)
from .limits import DEFAULT_MAX_N, ResourceCapError
from .nestedsets import (
    Chain,
    NestedSet,
    comparable,
    enumerate_chains,
    enumerate_vertices,
    faces,
    is_full_chain,
    is_nested,
    superficial_count,
    vertex_keys,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "SIGMA",
    "AffineMap",
    "BracketSyntaxError",
    "Bracketing",
    "Chain",
    "DEFAULT_MAX_N",
    "DiagramCensus",
    "DiagramType",
    "Hyperplane",
    "NestedSet",
    "ResourceCapError",
    "RewriteGraph",
    "SingularSystemError",
    "VertexReport",
    "affine_dimension",
    "all_bracketings",
    "alpha_neighbors",
    "ambient_plane",
    "boundary_cycle",
    "build_graph",
    "classify_2_face",
    "comparable",
    "diagram_census",
    "enumerate_chains",
    "enumerate_vertices",
    "f_vector",
    "faces",
    "facet_inequality",
    "facet_rhs",
    "fractional_offset",
    "from_nested",
    "h_representation",
    "is_full_chain",
    "is_nested",
    "normalization_map",
    "parse_bracketing",
    "polytope_graph",
    "print_bracketing",
    "realization_report",
    "sigma_neighbor",
    "solve_exact",
    "superficial_count",
    "to_nested",
    "vertex_coordinates",
    "vertex_keys",
    "vertex_point",
    "verify_vertex",
]
