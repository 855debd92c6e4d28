"""Flow polytopes from skew-shape posets.

The poset with adjoined bottom and top is drawn in the plane with cell
(i, j) at x = j - i and height i + j, the bottom sentinel below everything,
the top above, and two extra bottom-to-top arcs routed around the left and
right of the drawing.  Skew-shape posets are always strongly planar in this
sense.  The flow graph is the dual with the outer face removed: one vertex
per bounded face and one directed edge per non-arc diagram edge, oriented
so that the larger poset element sits on the left while traversing.  With
this orientation the face east of the left arc is the source and the face
west of the right arc is the sink.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .matrices import Scalar
from .shapes import Cell, _int
from .skewposet import SkewPoset, in_order_polytope

BOTTOM = "bottom"
TOP = "top"

Node = object  # a Cell or one of the sentinels
Dart = tuple[int, bool]  # (edge index, traversed low-to-high?)


class HasseEdge(NamedTuple):
    lo: Node
    hi: Node
    kind: str  # "cover", "left" or "right"


class PlanarHasse:
    """Hasse diagram of the augmented poset with a planar rotation system.

    Raises ValueError unless the diagram has one ``left`` and one ``right``
    arc, each from BOTTOM to TOP; has both endpoints of every edge among its
    nodes; lists in each node's rotation the node's incident edges, once
    each, so every face orbit closes; is connected; has Euler
    characteristic 2, so is planar; and its outer face, left of the upward
    left arc, holds no cover edge, so is the digon of the two arcs.
    """

    __slots__ = ("poset", "nodes", "edges", "rotations", "faces", "_face_at", "outer_face")

    def __init__(self, poset: SkewPoset, nodes, edges, rotations):
        self.poset = poset
        self.nodes: tuple[Node, ...] = tuple(nodes)
        self.edges: tuple[HasseEdge, ...] = tuple(edges)
        self.rotations: dict[Node, tuple[int, ...]] = {
            v: tuple(r) for v, r in rotations.items()
        }
        arcs = [(edge.kind, edge.lo, edge.hi) for edge in self.edges if edge.kind != "cover"]
        if len(arcs) != 2 or set(arcs) != {("left", BOTTOM, TOP), ("right", BOTTOM, TOP)}:
            raise ValueError("diagram needs one left and one right arc from bottom to top")
        incident: dict[Node, list[int]] = {v: [] for v in self.nodes}
        for k, edge in enumerate(self.edges):
            for w in edge[:2]:
                if w not in incident:
                    raise ValueError(f"edge {k} has endpoint {w!r}, which is not a node")
                incident[w].append(k)
        for v in self.nodes:
            rotation = self.rotations.get(v, ())
            if len(set(rotation)) != len(rotation) or sorted(rotation) != incident[v]:
                raise ValueError(f"rotation at node {v!r} does not list its incident edges once each")
        reached, frontier = {BOTTOM}, [BOTTOM]
        while frontier:
            for e in self.rotations[frontier.pop()]:
                for w in self.edges[e][:2]:
                    if w not in reached:
                        reached.add(w)
                        frontier.append(w)
        if reached != set(self.nodes):
            raise ValueError("diagram is disconnected")
        self.faces: tuple[tuple[Dart, ...], ...] = self._trace_faces()
        self._face_at: dict[Dart, int] = {
            d: k for k, face in enumerate(self.faces) for d in face
        }
        euler = len(self.nodes) - len(self.edges) + len(self.faces)
        if euler != 2:
            raise ValueError(f"rotation system is not planar (Euler characteristic {euler})")
        self.outer_face = self._face_at[([edge.kind for edge in self.edges].index("left"), True)]
        if any(self.edges[e].kind == "cover" for e, _ in self.faces[self.outer_face]):
            raise ValueError("outer face touches a non-arc edge")

    def _next_dart(self, dart: Dart) -> Dart:
        """Continue the boundary walk of the face on the left of the dart."""
        e, forward = dart
        edge = self.edges[e]
        w = edge.hi if forward else edge.lo
        rot = self.rotations[w]
        pos = rot.index(e)
        e2 = rot[pos - 1]
        return (e2, self.edges[e2].lo == w)

    def _trace_faces(self) -> tuple[tuple[Dart, ...], ...]:
        faces = []
        seen: set[Dart] = set()
        for e in range(len(self.edges)):
            for forward in (True, False):
                start = (e, forward)
                if start in seen:
                    continue
                orbit, d = [start], self._next_dart(start)
                while d != start:
                    orbit.append(d)
                    d = self._next_dart(d)
                seen.update(orbit)
                faces.append(tuple(orbit))
        return tuple(faces)

    def face_of(self, dart: Dart) -> int:
        return self._face_at[dart]

    def bounded_face_count(self) -> int:
        return len(self.faces) - 1


def planar_hasse(P: SkewPoset) -> PlanarHasse:
    """Planar rotation system for the augmented Hasse diagram of P."""
    cells = P.elements
    nodes: list[Node] = [BOTTOM, *cells, TOP]
    edges: list[HasseEdge] = []
    edge_at: dict[tuple[Node, Node], int] = {}

    def add(lo: Node, hi: Node, kind: str) -> int:
        edges.append(HasseEdge(lo, hi, kind))
        if kind == "cover":
            edge_at[(lo, hi)] = len(edges) - 1
        return len(edges) - 1

    minimals = [cells[k] for k in P.minimal_indices()]
    maximals = [cells[k] for k in P.maximal_indices()]
    for c in minimals:
        add(BOTTOM, c, "cover")
    for a, b in P.covers:
        add(cells[a], cells[b], "cover")
    for c in maximals:
        add(c, TOP, "cover")
    if not cells:
        add(BOTTOM, TOP, "cover")
    left = add(BOTTOM, TOP, "left")
    right = add(BOTTOM, TOP, "right")

    def x(c: Cell) -> int:
        return c[1] - c[0]

    rotations: dict[Node, list[int]] = {}
    # Bottom sentinel, counterclockwise from east: right arc, then the fan to
    # minimal cells from east to west, then the left arc.
    fan_down = sorted(minimals, key=x, reverse=True)
    rotations[BOTTOM] = (
        [right]
        + ([edge_at[(BOTTOM, TOP)]] if not cells else [edge_at[(BOTTOM, c)] for c in fan_down])
        + [left]
    )
    fan_up = sorted(maximals, key=x)
    rotations[TOP] = (
        [left]
        + ([edge_at[(BOTTOM, TOP)]] if not cells else [edge_at[(c, TOP)] for c in fan_up])
        + [right]
    )
    for c in cells:
        i, j = c
        # Counterclockwise from up-right: up-right, straight up, up-left,
        # down-left, straight down, down-right.
        keys = ((c, (i, j + 1)), (c, TOP), (c, (i + 1, j)),
                ((i, j - 1), c), (BOTTOM, c), ((i - 1, j), c))
        rotations[c] = [edge_at[k] for k in keys if k in edge_at]
    return PlanarHasse(P, nodes, edges, rotations)


class FlowEdge(NamedTuple):
    tail: int
    head: int
    crossed: tuple[Node, Node]  # the diagram edge (lower, higher) it crosses


class FlowGraph:
    """Truncated dual of the planar diagram, oriented west to east.  The
    vertices are 0..num_vertices - 1; an edge endpoint, source or sink
    outside them is refused with a ValueError that names it."""

    __slots__ = ("poset", "num_vertices", "edges", "source", "sink", "_out", "_in")

    def __init__(self, poset: SkewPoset, num_vertices: int, edges, source: int, sink: int):
        self.poset = poset
        self.num_vertices = num_vertices
        self.edges: tuple[FlowEdge, ...] = tuple(edges)
        self.source = source
        self.sink = sink
        for name, v in (("source", source), ("sink", sink)):
            if not 0 <= v < num_vertices:
                raise ValueError(f"{name} {v} is not a vertex 0..{num_vertices - 1}")
        # Edge indices leaving and entering each vertex, in increasing order.
        self._out: list[list[int]] = [[] for _ in range(num_vertices)]
        self._in: list[list[int]] = [[] for _ in range(num_vertices)]
        for k, e in enumerate(self.edges):
            if not (0 <= e.tail < num_vertices and 0 <= e.head < num_vertices):
                raise ValueError(f"edge {k} ({e.tail} -> {e.head}) has an endpoint "
                                 f"that is not a vertex 0..{num_vertices - 1}")
            self._out[e.tail].append(k)
            self._in[e.head].append(k)

    def out_edges(self, v: int) -> list[int]:
        return list(self._out[v])

    def in_edges(self, v: int) -> list[int]:
        return list(self._in[v])

    def topological_order(self) -> list[int]:
        indeg = [0] * self.num_vertices
        for e in self.edges:
            indeg[e.head] += 1
        ready = [v for v in range(self.num_vertices) if indeg[v] == 0]
        order = []
        while ready:
            v = ready.pop()
            order.append(v)
            for k in self._out[v]:
                w = self.edges[k].head
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        if len(order) != self.num_vertices:
            raise ValueError("flow graph is not acyclic")
        return order

    def __repr__(self) -> str:
        return (
            f"FlowGraph({self.num_vertices} vertices, {len(self.edges)} edges, "
            f"source={self.source}, sink={self.sink})"
        )

    def to_json(self) -> dict:
        def node(nd: Node):
            return list(nd) if isinstance(nd, tuple) else nd

        return {
            "vertices": self.num_vertices,
            "source": self.source,
            "sink": self.sink,
            "edges": [
                {"tail": e.tail, "head": e.head, "crossed": [node(e.crossed[0]), node(e.crossed[1])]}
                for e in self.edges
            ],
        }

    def to_dot(self) -> str:
        def node(nd: Node) -> str:
            return f"({nd[0]},{nd[1]})" if isinstance(nd, tuple) else str(nd)

        lines = ["digraph flowgraph {"]
        lines.append(f'  f{self.source} [label="source (f{self.source})"];')
        lines.append(f'  f{self.sink} [label="sink (f{self.sink})"];')
        for e in self.edges:
            label = f"{node(e.crossed[0])}->{node(e.crossed[1])}"
            lines.append(f'  f{e.tail} -> f{e.head} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


def truncated_dual(H: PlanarHasse) -> FlowGraph:
    """One dual vertex per bounded face, one dual edge per non-arc edge.

    The dual edge crossing a diagram edge runs from the face on the west
    side to the face on the east side, putting the higher poset element on
    the left during traversal.  The dual is connected: H is connected and
    planar with the digon of the arcs as its outer face, so a path inside
    the digon joins any two bounded faces and crosses only cover edges.
    """
    face_ids: dict[int, int] = {}
    for k in range(len(H.faces)):
        if k != H.outer_face:
            face_ids[k] = len(face_ids)
    dual_edges: list[FlowEdge] = []
    for e, edge in enumerate(H.edges):
        if edge.kind != "cover":
            continue
        west = H.face_of((e, True))
        east = H.face_of((e, False))
        dual_edges.append(FlowEdge(face_ids[west], face_ids[east], (edge.lo, edge.hi)))
    kinds = [edge.kind for edge in H.edges]
    source = face_ids[H.face_of((kinds.index("left"), False))]
    sink = face_ids[H.face_of((kinds.index("right"), True))]
    G = FlowGraph(H.poset, len(face_ids), dual_edges, source, sink)
    if G.in_edges(G.source):
        raise ValueError("source face has incoming dual edges")
    if G.out_edges(G.sink):
        raise ValueError("sink face has outgoing dual edges")
    G.topological_order()  # raises if cyclic
    return G


def build_flow_graph(P: SkewPoset) -> FlowGraph:
    return truncated_dual(planar_hasse(P))


def order_point_to_flow(f: Mapping[Cell, Scalar], G: FlowGraph) -> dict[int, Scalar]:
    """Flow whose value on each dual edge is the increase of f across the
    crossed diagram edge, with the sentinels pinned to 0 and 1."""
    if not in_order_polytope(G.poset, f):
        raise ValueError("point is not in the order polytope")
    extended: dict[Node, Scalar] = dict(f)
    extended[BOTTOM] = 0
    extended[TOP] = 1
    return {
        k: extended[e.crossed[1]] - extended[e.crossed[0]] for k, e in enumerate(G.edges)
    }


def is_flow(fl: Mapping[int, Scalar], G: FlowGraph) -> bool:
    """Size-one flow test: nonnegative, conserving, unit throughput."""
    if set(fl.keys()) != set(range(len(G.edges))):
        raise ValueError("flow must assign a value to every edge")
    if any(fl[k] < 0 for k in fl):
        return False
    out_sum = [0] * G.num_vertices
    in_sum = [0] * G.num_vertices
    for k, e in enumerate(G.edges):
        out_sum[e.tail] += fl[k]
        in_sum[e.head] += fl[k]
    if out_sum[G.source] != 1 or in_sum[G.sink] != 1:
        return False
    return all(
        in_sum[v] == out_sum[v]
        for v in range(G.num_vertices)
        if v not in (G.source, G.sink)
    )


def count_integer_flows(G: FlowGraph, t: int) -> int:
    """Number of nonnegative integer flows of size t (lattice points of the
    t-th dilate of the flow polytope).

    A level walk over the edges, grouped by tail in topological order,
    keeping the number of partial flows that reach each state.  A state is
    the supply still held at each vertex, and the walk starts with t at
    the source.  At each vertex other than the sink, each out-edge but the
    last carries any amount 0..s of the tail's remaining supply s to its
    head, and the last carries what is left.  The flows of size t are the
    partial flows that end with all t at the sink.  A t that is not an int,
    a bool among them, raises TypeError.
    """
    t = _int(t, "flow size")
    if t < 0:
        raise ValueError("flow size must be nonnegative")
    start = [0] * G.num_vertices
    start[G.source] = t
    counts = {tuple(start): 1}
    for v in G.topological_order():
        outs = [] if v == G.sink else G.out_edges(v)
        for n, k in enumerate(outs, start=1):
            h = G.edges[k].head
            level: dict[tuple[int, ...], int] = {}
            for state, c in counts.items():
                s = state[v]
                for a in range(s + 1) if n < len(outs) else (s,):
                    key = state
                    if a:
                        nxt = list(state)
                        nxt[v] -= a
                        nxt[h] += a
                        key = tuple(nxt)
                    level[key] = level.get(key, 0) + c
            counts = level
    end = [0] * G.num_vertices
    end[G.sink] = t
    return counts.get(tuple(end), 0)
