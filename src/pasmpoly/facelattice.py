"""Grid-graph sum-labelings and region counting.

The grid graph of an m x n matrix has vertices (i, j) for i <= m+1,
j <= n+1.  Edge ("H", i, j) joins (i, j) to (i, j+1) and carries the row-i
partial sum through column j; edge ("V", i, j) joins (i, j) to (i+1, j) and
carries the column-j partial sum through row i.  H before V, each row-major,
is the flat order of matrices._partial_sums and of the polytope's bound
lists.  A labeling assigns each edge a nonempty subset of {0, 1}; the edges
labeled by both values span a planar subgraph whose bounded-region count
is the dimension of the corresponding face.
"""

from __future__ import annotations

from .matrices import Matrix, _partial_sums, is_partial_asm
from .polytope import PasmPolytope
from .shapes import Partition

Edge = tuple[str, int, int]
Labeling = dict[Edge, frozenset[int]]


def _grid_edges(m: int, n: int) -> list[Edge]:
    """The grid edges of an m x n matrix in the flat order of _partial_sums."""
    return [(kind, i, j) for kind in "HV" for i in range(1, m + 1) for j in range(1, n + 1)]


def edge_endpoints(edge: Edge) -> tuple[tuple[int, int], tuple[int, int]]:
    kind, i, j = edge
    if kind == "H":
        return (i, j), (i, j + 1)
    if kind == "V":
        return (i, j), (i + 1, j)
    raise ValueError(f"bad edge {edge!r}")


def outline_edges(mu: Partition, m: int, n: int) -> frozenset[Edge]:
    """The edge set outlining mu in the grid graph.

    Horizontals ("H", i, j) for mu_i + 1 <= j <= mu_{i-1} (with mu_0 = n);
    verticals ("V", i, mu_i + 1) for 1 <= i <= m.
    """
    if len(mu) > m - 1 or mu.part(1) > n - 1:
        raise ValueError(f"{mu!r} does not fit inside ({n-1})^({m-1})")
    edges: set[Edge] = set()
    for i in range(1, m + 1):
        upper = n if i == 1 else mu.part(i - 1)
        for j in range(mu.part(i) + 1, upper + 1):
            edges.add(("H", i, j))
        edges.add(("V", i, mu.part(i) + 1))
    return frozenset(edges)


def basic_sum_labeling(M: Matrix) -> Labeling:
    """Singleton labeling of every grid edge by the matching partial sum."""
    return union_sum_labeling([M])


def union_sum_labeling(mats: list[Matrix]) -> Labeling:
    """Edgewise union of the basic sum-labelings of the given partial ASMs."""
    if not mats:
        raise ValueError("need at least one matrix")
    m, n = mats[0].m, mats[0].n
    if any(M.m != m or M.n != n for M in mats):
        raise ValueError("mixed dimensions")
    if not all(map(is_partial_asm, mats)):
        raise ValueError("basic sum-labelings are defined for partial ASMs")
    sums = [h + v for h, v in (_partial_sums(M.rows) for M in mats)]
    return {edge: frozenset(labels) for edge, *labels in zip(_grid_edges(m, n), *sums)}


def face_labeling(poly: PasmPolytope) -> Labeling:
    """The explicit labeling encoding the polytope as a grid-graph face.

    Each edge is labeled by the integers between its bounds in the
    polytope's inequality description, the flat lists that its membership
    test and its integer-point scan read.  The common outline edges of lam
    and nu get {1}; the other edges of the outlines of the partitions
    between them get {0,1}; every other edge gets {0}.
    """
    lo_h, hi_h, lo_v, hi_v = poly._bounds()
    return {edge: frozenset(range(lo, hi + 1))
            for edge, lo, hi in zip(_grid_edges(poly.m, poly.n), lo_h + lo_v, hi_h + hi_v)}


def region_count(labeling: Labeling) -> int:
    """Bounded regions of the subgraph of edges labeled by both 0 and 1.

    Computed as the cycle rank E - V + C, which equals the bounded face
    count of any plane embedding.
    """
    both = [e for e, lab in labeling.items() if lab == frozenset({0, 1})]
    verts = set()
    for e in both:
        u, v = edge_endpoints(e)
        verts.add(u)
        verts.add(v)
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    components = len(verts)
    for e in both:
        u, v = edge_endpoints(e)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return len(both) - len(verts) + components


def labeling_to_json(labeling: Labeling) -> dict[str, list[int]]:
    return {
        f"{i},{j},{kind}": sorted(lab)
        for (kind, i, j), lab in sorted(labeling.items())
    }


def labeling_to_dot(labeling: Labeling) -> str:
    """DOT rendering: {0,1} edges bold, {1} edges solid, {0} edges dotted."""
    styles = {
        frozenset({0}): "dotted",
        frozenset({1}): "solid",
        frozenset({0, 1}): "bold",
    }
    lines = ["graph sumlabeling {", "  node [shape=point];"]
    for edge, lab in sorted(labeling.items()):
        (i1, j1), (i2, j2) = edge_endpoints(edge)
        style = styles.get(lab, "dashed")
        lines.append(f'  "{i1},{j1}" -- "{i2},{j2}" [style={style}];')
    lines.append("}")
    return "\n".join(lines)
