"""Exact toolkit for polytopes of partial alternating sign matrices.

Builds the polytope attached to a pair of nested partitions, verifies its
inequality description, face dimension, and integral equivalences with the
order polytope and flow polytope of the skew cell poset, and counts its
volume and Ehrhart polynomial by independent methods.
"""

from .shapes import Cell, Partition, SkewShape, border_strip, cells, contains, enumerate_between
from .matrices import (
    Matrix,
    corner_sums,
    inverse_corner_sums,
    is_asm,
    is_partial_asm,
    vertex_matrix,
)
from .skewposet import (
    SkewPoset,
    UniPoly,
    build_poset,
    count_linear_extensions,
    enumerate_filters,
    in_order_polytope,
    interpolate_polynomial,
    order_polynomial_value,
)
from .hooklength import excited_diagrams, hooks, naruse_count
from .polytope import DilateCount, PasmPolytope, ResourceLimit, is_extreme
from .equivalences import (
    certify_integral_equivalence,
    complete_to_asm,
    from_order_point,
    to_order_point,
)
from .facelattice import (
    basic_sum_labeling,
    face_labeling,
    outline_edges,
    region_count,
    union_sum_labeling,
)
from .flowpoly import (
    BOTTOM,
    TOP,
    FlowGraph,
    PlanarHasse,
    build_flow_graph,
    count_integer_flows,
    is_flow,
    order_point_to_flow,
    planar_hasse,
    truncated_dual,
)

__all__ = [
    "BOTTOM",
    "Cell",
    "DilateCount",
    "FlowGraph",
    "Matrix",
    "Partition",
    "PasmPolytope",
    "PlanarHasse",
    "ResourceLimit",
    "SkewPoset",
    "SkewShape",
    "TOP",
    "UniPoly",
    "basic_sum_labeling",
    "border_strip",
    "build_flow_graph",
    "build_poset",
    "cells",
    "certify_integral_equivalence",
    "complete_to_asm",
    "contains",
    "corner_sums",
    "count_integer_flows",
    "count_linear_extensions",
    "enumerate_between",
    "enumerate_filters",
    "excited_diagrams",
    "face_labeling",
    "from_order_point",
    "hooks",
    "in_order_polytope",
    "interpolate_polynomial",
    "inverse_corner_sums",
    "is_asm",
    "is_extreme",
    "is_flow",
    "is_partial_asm",
    "naruse_count",
    "order_point_to_flow",
    "order_polynomial_value",
    "outline_edges",
    "planar_hasse",
    "region_count",
    "to_order_point",
    "truncated_dual",
    "union_sum_labeling",
    "vertex_matrix",
]

__version__ = "0.1.0"
