"""Exact arborescence counts and Kauffman state sums on balanced-weight
directed multigraphs.

The layers, bottom up:

  graph      directed multigraphs, balance/connectivity, subdivision
  spanning   rooted spanning trees: enumeration and Laplacian counts
  laurent    exact Laurent polynomials in t with half-integer exponents
  planar     rotation systems, faces, decorated plane diagrams
  kauffman   states, the state-sum polynomial, the tree/state bijection
  skein      crossing resolutions and the t = 1 relation
  graphfile  the shared JSON document format
  generate   seeded random instances
  cli        the moytree command
"""

from .graph import (
    DirectedMultigraph,
    Edge,
    fresh_id,
    is_balanced,
    is_connected,
    is_strongly_connected,
    subdivide_edge,
)
from .graphfile import FormatError, GraphDocument, build_map, document_text, load_document, map_text, parse_document
from .kauffman import (
    DualEdge,
    dual_edges,
    dual_tree,
    enumerate_states,
    local_weight,
    state_sum,
    state_to_tree,
    state_weight,
    tree_to_state,
)
from .laurent import (
    ONE,
    ZERO,
    HalfLaurent,
    canonical_shift,
    equal_up_to_shift,
    monomial,
    quantum_integer,
)
from .planar import (
    CORNERS,
    EAST,
    NORTH,
    WEST,
    CombinatorialMap,
    Crossing,
    Dart,
    DecoratedDiagram,
    DiagramError,
    MapStructureError,
    MapViolation,
    Region,
    decorate,
    validate_map,
)
from .skein import (
    CrossingPattern,
    SkeinCheck,
    resolve_G1,
    resolve_G2,
    verify_main_theorem,
    verify_skein_t1,
)
from .spanning import (
    EnumerationLimitError,
    Laplacian,
    SpanningTree,
    balanced_count,
    cofactor,
    count_by_determinant,
    count_by_enumeration,
    det_bareiss,
    enumerate_trees,
    laplacian,
    tree_weight,
)

__version__ = "0.1.0"

__all__ = [
    "CORNERS",
    "CombinatorialMap",
    "Crossing",
    "CrossingPattern",
    "Dart",
    "DecoratedDiagram",
    "DiagramError",
    "DirectedMultigraph",
    "DualEdge",
    "EAST",
    "Edge",
    "EnumerationLimitError",
    "FormatError",
    "GraphDocument",
    "HalfLaurent",
    "Laplacian",
    "MapStructureError",
    "MapViolation",
    "NORTH",
    "ONE",
    "Region",
    "SkeinCheck",
    "SpanningTree",
    "WEST",
    "ZERO",
    "balanced_count",
    "build_map",
    "canonical_shift",
    "cofactor",
    "count_by_determinant",
    "count_by_enumeration",
    "decorate",
    "det_bareiss",
    "document_text",
    "dual_edges",
    "dual_tree",
    "enumerate_states",
    "enumerate_trees",
    "equal_up_to_shift",
    "fresh_id",
    "is_balanced",
    "is_connected",
    "is_strongly_connected",
    "laplacian",
    "load_document",
    "local_weight",
    "map_text",
    "monomial",
    "parse_document",
    "quantum_integer",
    "resolve_G1",
    "resolve_G2",
    "state_sum",
    "state_to_tree",
    "state_weight",
    "subdivide_edge",
    "tree_to_state",
    "tree_weight",
    "validate_map",
    "verify_main_theorem",
    "verify_skein_t1",
]
