"""Grid-graph sum-labelings and region counting.

The grid graph of an m x n matrix has vertices (i, j) for i <= m+1,
j <= n+1.  Edge ("H", i, j) joins (i, j) to (i, j+1) and carries the row-i
partial sum through column j; edge ("V", i, j) joins (i, j) to (i+1, j) and
carries the column-j partial sum through row i.  A labeling assigns each
edge a nonempty subset of {0, 1}; the edges labeled by both values span a
planar subgraph whose bounded-region count is the dimension of the
corresponding face.
"""

from __future__ import annotations

from .matrices import Matrix, column_partial_sums, is_partial_asm, row_partial_sums
from .polytope import Edge, PasmPolytope
from .shapes import Partition

Labeling = dict[Edge, frozenset[int]]


def grid_edges(m: int, n: int) -> list[Edge]:
    """All 2mn edges of the grid graph, horizontals first."""
    hs = [("H", i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    vs = [("V", i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    return hs + vs


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
    if not is_partial_asm(M):
        raise ValueError("basic sum-labelings are defined for partial ASMs")
    lab: Labeling = {}
    for i in range(1, M.m + 1):
        sums = row_partial_sums(M, i)
        for j in range(1, M.n + 1):
            lab[("H", i, j)] = frozenset({sums[j - 1]})
    for j in range(1, M.n + 1):
        sums = column_partial_sums(M, j)
        for i in range(1, M.m + 1):
            lab[("V", i, j)] = frozenset({sums[i - 1]})
    return lab


def union_sum_labeling(mats: list[Matrix]) -> Labeling:
    """Edgewise union of the basic sum-labelings of the given matrices."""
    if not mats:
        raise ValueError("need at least one matrix")
    if any(M.m != mats[0].m or M.n != mats[0].n for M in mats):
        raise ValueError("mixed dimensions")
    out: Labeling = {}
    for M in mats:
        for edge, label in basic_sum_labeling(M).items():
            out[edge] = out.get(edge, frozenset()) | label
    return out


def face_labeling(poly: PasmPolytope) -> Labeling:
    """The explicit labeling encoding the polytope as a grid-graph face.

    Each edge is labeled by the integers between its bounds in the
    polytope's inequality description, the table that its membership test
    and its integer-point scan read.  The common outline edges of lam and nu
    get {1}; the other edges of the outlines of the partitions between them
    get {0,1}; every other edge gets {0}.
    """
    return {edge: frozenset(range(lo, hi + 1)) for edge, (lo, hi) in poly._bounds().items()}


def region_count(labeling: Labeling) -> int:
    """Bounded regions of the subgraph of edges labeled by both 0 and 1.

    Computed as the cycle rank E - V + C, which equals the bounded face
    count of any plane embedding.
    """
    both = [e for e, lab in labeling.items() if lab == frozenset({0, 1})]
    if not both:
        return 0
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
