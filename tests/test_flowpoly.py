import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterator

import pytest

from pasmpoly import (
    BOTTOM,
    TOP,
    Partition,
    SkewShape,
    build_flow_graph,
    build_poset,
    count_integer_flows,
    enumerate_filters,
    is_flow,
    order_point_to_flow,
    order_polynomial_value,
    planar_hasse,
    truncated_dual,
)
from pasmpoly.flowpoly import FlowEdge, FlowGraph, HasseEdge, PlanarHasse
from pasmpoly.skewposet import SkewPoset

from families import all_skew_shapes
from golden import ORDER_POINT_422_31
from points import filter_indicator

F = Fraction

EXAMPLE = SkewShape(Partition([4, 2, 2]), Partition([3, 1]), 4, 5)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The ordered ways to write total as a sum of parts nonnegative
    integers, by stars and bars: each weakly increasing choice of parts - 1
    cut points in 0..total splits 0..total into the parts."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        bounds = (0, *cuts, total)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


# A vertex-by-vertex recursion over compositions, kept as the count's oracle:
# it shares no code with the level walk over the edges.
def _count_integer_flows_unmemoized(G: FlowGraph, t: int) -> int:
    """Number of nonnegative integer flows of size t (lattice points of the
    t-th dilate of the flow polytope)."""
    if t < 0:
        raise ValueError("flow size must be nonnegative")
    order = G.topological_order()
    out_lists = [G.out_edges(v) for v in range(G.num_vertices)]
    supply = [0] * G.num_vertices
    supply[G.source] = t

    def rec(pos: int) -> int:
        if pos == len(order):
            return 1
        v = order[pos]
        if v == G.sink:
            return rec(pos + 1)
        total = 0
        outs = out_lists[v]
        for combo in _compositions(supply[v], len(outs)):
            for k, val in zip(outs, combo):
                supply[G.edges[k].head] += val
            total += rec(pos + 1)
            for k, val in zip(outs, combo):
                supply[G.edges[k].head] -= val
        return total

    return rec(0)


def single_element_poset():
    return SkewPoset([(1, 1)], [])


def test_planar_hasse_single_element():
    H = planar_hasse(single_element_poset())
    assert len(H.nodes) == 3
    assert len(H.edges) == 4  # bottom-p, p-top, two arcs
    assert len(H.faces) == 3
    assert H.bounded_face_count() == 2


def test_planar_hasse_empty_poset():
    H = planar_hasse(SkewPoset([], []))
    assert len(H.nodes) == 2
    assert len(H.edges) == 3  # one chain edge plus two arcs
    assert H.bounded_face_count() == 2


def test_planar_hasse_worked_example():
    P = build_poset(EXAMPLE)
    H = planar_hasse(P)
    assert len(H.nodes) == 6
    # 2 covers + 3 minimal + 2 maximal attachments + 2 arcs
    assert len(H.edges) == 9
    # Euler: F = 2 - V + E = 5 total faces, so 4 bounded.
    assert len(H.faces) == 5
    assert H.bounded_face_count() == 4


def test_planar_hasse_euler_sweep():
    # The Euler check runs in the constructor; also verify the bounded face
    # count formula covers + #min + #max - |P| + 1.
    for shape in all_skew_shapes(6):
        P = build_poset(shape)
        H = planar_hasse(P)
        expected = (
            len(P.covers)
            + len(P.minimal_indices())
            + len(P.maximal_indices())
            - len(P)
            + 1
        ) if len(P) else 2
        assert H.bounded_face_count() == expected


def test_truncated_dual_single_element():
    G = truncated_dual(planar_hasse(single_element_poset()))
    assert G.num_vertices == 2
    assert len(G.edges) == 2
    assert all(e.tail == G.source and e.head == G.sink for e in G.edges)
    crossed = {e.crossed for e in G.edges}
    assert crossed == {(BOTTOM, (1, 1)), ((1, 1), TOP)}


def test_truncated_dual_empty_poset():
    G = truncated_dual(planar_hasse(SkewPoset([], [])))
    assert G.num_vertices == 2
    assert len(G.edges) == 1
    assert G.edges[0].crossed == (BOTTOM, TOP)


def test_truncated_dual_worked_example():
    P = build_poset(EXAMPLE)
    H = planar_hasse(P)
    G = truncated_dual(H)
    assert G.num_vertices == 4
    # one dual edge per non-arc diagram edge
    assert len(G.edges) == 7
    assert not G.in_edges(G.source)
    assert not G.out_edges(G.sink)
    G.topological_order()


def is_connected(G: FlowGraph) -> bool:
    reached = {G.source}
    for _ in range(G.num_vertices):
        reached |= {v for e in G.edges if {e.tail, e.head} & reached for v in (e.tail, e.head)}
    return len(reached) == G.num_vertices


def test_dual_is_connected_despite_disconnected_poset():
    # The example poset has an isolated element; the sentinels join all
    # components, so the diagram and its dual stay connected.
    P = build_poset(EXAMPLE)
    assert len(P.minimal_indices()) == 3
    assert is_connected(build_flow_graph(P))


def edited_dual(nu, lam, rotations, reverse, kinds) -> FlowGraph:
    """The flow graph of planar_hasse's diagram of nu/lam after replacing
    some rotations, reversing the edges numbered in reverse and relabelling
    the kind of the edges numbered in kinds."""
    P = build_poset(SkewShape(Partition(nu), Partition(lam)))
    H = planar_hasse(P)
    edges = [e._replace(kind=kinds.get(k, e.kind)) for k, e in enumerate(H.edges)]
    edges = [e._replace(lo=e.hi, hi=e.lo) if k in reverse else e for k, e in enumerate(edges)]
    return truncated_dual(PlanarHasse(P, H.nodes, edges, {**H.rotations, **rotations}))


# The diagram of (1) has edges 0 = bottom -> (1,1), 1 = (1,1) -> top, 2 = the
# left arc and 3 = the right arc, with rotations bottom (3, 0, 2) and top
# (2, 1, 3).  Each edit below fails one check of PlanarHasse or
# truncated_dual, named by its message.
@pytest.mark.parametrize("message, nu, lam, rotations, reverse, kinds", [
    ("not planar", [1], [], {BOTTOM: (0, 3, 2)}, (), {}),
    ("outer face", [1], [], {BOTTOM: (2, 0, 3), TOP: (1, 2, 3)}, (), {}),
    ("source face", [1], [], {}, (1,), {}),
    ("sink face", [2, 1], [], {}, (1,), {}),
    ("not acyclic", [3, 3, 1], [1], {}, (7,), {}),
    ("one left and one right arc", [1], [], {}, (), {2: "right"}),
    ("one left and one right arc", [1], [], {}, (), {3: "left"}),
    ("one left and one right arc", [1], [], {}, (3,), {}),
], ids=["euler", "outer-face", "source", "sink", "acyclic",
        "left-arc-relabelled", "right-arc-relabelled", "right-arc-reversed"])
def test_each_flow_graph_check_rejects_an_edited_diagram(message, nu, lam, rotations, reverse, kinds):
    with pytest.raises(ValueError, match=message):
        edited_dual(nu, lam, rotations, reverse, kinds)


def test_planar_hasse_rejects_a_non_planar_second_component():
    # Two extra nodes joined by five edges, embedded on the torus: V - E + F
    # is 2 - 5 + 3 = 0 there, so the total stays 2 and only the
    # connectivity check can refuse it.
    P = build_poset(SkewShape(Partition([1]), Partition()))
    H = planar_hasse(P)
    x, y = (9, 9), (9, 10)
    extra = [(y, x), (x, y), (x, y), (x, y), (y, x)]
    edges = [*H.edges, *(HasseEdge(lo, hi, "cover") for lo, hi in extra)]
    rotations = {**H.rotations, x: (4, 7, 5, 8, 6), y: (6, 4, 7, 8, 5)}
    with pytest.raises(ValueError, match="disconnected"):
        PlanarHasse(P, [*H.nodes, x, y], edges, rotations)


@pytest.mark.parametrize("edit, node", [
    ("append", (1, 1)), ("drop", BOTTOM), ("delete", (1, 2)),
], ids=["non-incident-edge-appended", "incident-edge-dropped", "rotation-deleted"])
def test_planar_hasse_rejects_a_rotation_that_is_not_its_nodes_edges(edit, node):
    # Without the check, the first edit never closes its face orbit, the
    # second fails inside tuple.index and the third with a KeyError.
    P = build_poset(SkewShape(Partition([2, 1]), Partition()))
    H = planar_hasse(P)
    rotations = dict(H.rotations)
    if edit == "append":
        rotations[node] += (next(k for k, e in enumerate(H.edges) if node not in e[:2]),)
    elif edit == "drop":
        rotations[node] = rotations[node][1:]
    else:
        del rotations[node]
    with pytest.raises(ValueError, match=re.escape(f"rotation at node {node!r} does not list its incident edges")):
        PlanarHasse(P, H.nodes, H.edges, rotations)


def test_planar_hasse_rejects_an_edge_to_a_stray_node():
    # Without the check, the connectivity walk raised a bare KeyError on the
    # stray node's missing rotation.
    P = build_poset(SkewShape(Partition([1]), Partition()))
    H = planar_hasse(P)
    edges = [*H.edges, HasseEdge((1, 1), (5, 5), "cover")]
    rotations = {**H.rotations, (1, 1): (*H.rotations[(1, 1)], len(H.edges))}
    with pytest.raises(ValueError, match=re.escape(f"edge {len(H.edges)} has endpoint (5, 5), which is not a node")):
        PlanarHasse(P, H.nodes, edges, rotations)


def test_planar_hasse_rejects_a_loop():
    # A loop is incident to its node twice, so no rotation lists its edges
    # once each, and the face walk could not tell the loop's two darts apart.
    P = build_poset(SkewShape(Partition([1]), Partition()))
    H = planar_hasse(P)
    edges = [*H.edges, HasseEdge((1, 1), (1, 1), "cover")]
    rotations = {**H.rotations, (1, 1): (*H.rotations[(1, 1)], 4, 4)}
    with pytest.raises(ValueError, match=re.escape("rotation at node (1, 1) does not list")):
        PlanarHasse(P, H.nodes, edges, rotations)


def test_every_accepted_edited_diagram_has_a_connected_dual():
    # Shuffle one to three rotations or reverse one to three cover edges of
    # planar_hasse's diagram: every refusal must be a ValueError, and every
    # diagram accepted must give a connected flow graph.
    rng = random.Random(7)
    shapes = list(all_skew_shapes(4))
    accepted = 0
    for _ in range(600):
        shape = rng.choice(shapes)
        H = planar_hasse(build_poset(shape))
        rotations, reverse = {}, set()
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                v = rng.choice(H.nodes)
                rotations[v] = tuple(rng.sample(H.rotations[v], len(H.rotations[v])))
            else:
                reverse.add(rng.choice([k for k, e in enumerate(H.edges) if e.kind == "cover"]))
        try:
            G = edited_dual(shape.nu.parts, shape.lam.parts, rotations, reverse, {})
        except ValueError:
            continue
        accepted += 1
        assert is_connected(G)
    assert accepted > 0


def test_order_point_to_flow_single_element():
    G = build_flow_graph(single_element_poset())
    fl = order_point_to_flow({(1, 1): F(1, 3)}, G)
    assert sorted(fl.values()) == [F(1, 3), F(2, 3)]
    assert is_flow(fl, G)


def test_order_point_to_flow_rejects_outsiders():
    G = build_flow_graph(single_element_poset())
    with pytest.raises(ValueError):
        order_point_to_flow({(1, 1): 2}, G)


def test_filter_indicators_give_unit_path_flows():
    for shape in all_skew_shapes(5):
        P = build_poset(shape)
        G = build_flow_graph(P)
        for filt in enumerate_filters(P):
            fl = order_point_to_flow(filter_indicator(P, filt), G)
            assert is_flow(fl, G)
            assert all(v in (0, 1) for v in fl.values())
            # unit 0/1 flow is supported on a single source-sink path
            support = [k for k, v in fl.items() if v == 1]
            walk, at = 0, G.source
            while at != G.sink:
                outs = [k for k in support if G.edges[k].tail == at]
                assert len(outs) == 1
                at = G.edges[outs[0]].head
                walk += 1
            assert walk == len(support)


def test_worked_example_flow_values():
    P = build_poset(EXAMPLE)
    G = build_flow_graph(P)
    fl = order_point_to_flow(ORDER_POINT_422_31, G)
    assert is_flow(fl, G)
    values = sorted(fl.values())
    assert values == [F(1, 5), F(3, 10), F(3, 10), F(3, 10), F(2, 5), F(1, 2), F(7, 10)]
    outflow = sum(fl[k] for k in G.out_edges(G.source))
    assert outflow == 1


def test_is_flow_examples():
    G = build_flow_graph(single_element_poset())
    assert is_flow({0: F(1, 2), 1: F(1, 2)}, G)
    assert not is_flow({0: 1, 1: F(1, 5)}, G)
    assert not is_flow({0: F(-1, 2), 1: F(3, 2)}, G)
    with pytest.raises(ValueError):
        is_flow({0: 1}, G)


def test_random_order_points_map_to_flows():
    rng = random.Random(7)
    for shape in all_skew_shapes(5):
        P = build_poset(shape)
        G = build_flow_graph(P)
        cells = list(P.elements)
        for _ in range(20):
            f = {c: F(rng.randrange(0, 101), 100) for c in cells}
            for a, b in P.covers:
                if f[cells[b]] < f[cells[a]]:
                    f[cells[b]] = f[cells[a]]
            fl = order_point_to_flow(f, G)
            assert is_flow(fl, G)


def test_order_point_to_flow_is_injective():
    P = build_poset(EXAMPLE)
    G = build_flow_graph(P)
    seen = {}
    for filt in enumerate_filters(P):
        f = filter_indicator(P, filt)
        key = tuple(sorted(order_point_to_flow(f, G).items()))
        assert key not in seen
        seen[key] = filt


def test_integer_flow_counts_match_order_polynomial():
    for shape in all_skew_shapes(5, max_skew_size=5):
        P = build_poset(shape)
        G = build_flow_graph(P)
        for t in (0, 1, 2):
            assert count_integer_flows(G, t) == order_polynomial_value(P, t + 1), (shape, t)


def test_memoized_flow_count_matches_oracle():
    for shape in all_skew_shapes(5, max_skew_size=6):
        P = build_poset(shape)
        G = build_flow_graph(P)
        for t in range(5):
            count = count_integer_flows(G, t)
            assert count == _count_integer_flows_unmemoized(G, t), (shape, t)
            assert count == order_polynomial_value(P, t + 1), (shape, t)


def test_flow_count_on_hand_built_graphs():
    from pasmpoly.flowpoly import FlowEdge

    def graph(n, arcs, source, sink):
        edges = [FlowEdge(a, b, (BOTTOM, TOP)) for a, b in arcs]
        return FlowGraph(single_element_poset(), n, edges, source, sink)

    cases = [
        ("dead end", graph(3, [(0, 1), (0, 2)], 0, 1), [1, 1, 1, 1]),
        ("sink with an out-edge", graph(3, [(0, 1), (1, 2)], 0, 1), [1, 1, 1, 1]),
        ("two parallel edges", graph(2, [(0, 1), (0, 1)], 0, 1), [1, 2, 3, 4]),
        ("one vertex", graph(1, [], 0, 0), [1, 1, 1, 1]),
    ]
    for name, G, counts in cases:
        assert [count_integer_flows(G, t) for t in range(4)] == counts, name
        assert [_count_integer_flows_unmemoized(G, t) for t in range(4)] == counts, name


def test_count_integer_flows_validates():
    G = build_flow_graph(single_element_poset())
    with pytest.raises(ValueError):
        count_integer_flows(G, -1)


def test_count_integer_flows_refuses_a_bool_or_a_non_int_size():
    # True once counted the flows of size 1, and 2.0 failed inside range.
    G = build_flow_graph(build_poset(EXAMPLE))
    assert count_integer_flows(G, 1) == 10
    for bad in (True, 2.0, "2"):
        with pytest.raises(TypeError):
            count_integer_flows(G, bad)


def test_flow_graph_dot_and_json():
    P = build_poset(EXAMPLE)
    G = build_flow_graph(P)
    dot = G.to_dot()
    assert "digraph" in dot and "->" in dot and "bottom" in dot
    data = G.to_json()
    assert data["vertices"] == 4
    assert len(data["edges"]) == 7


@pytest.mark.parametrize("arc, sink, message", [
    ((0, 5), 1, r"edge 0 \(0 -> 5\) has an endpoint that is not a vertex 0\.\.1"),
    ((0, 1), 7, r"sink 7 is not a vertex 0\.\.1"),
    ((-1, 1), 1, r"edge 0 \(-1 -> 1\) has an endpoint that is not a vertex 0\.\.1"),
])
def test_flow_graph_refuses_out_of_range_vertices(arc, sink, message):
    # Unchecked, a head of 5 is a bare IndexError, a sink of 7 fails only
    # inside the count, and a tail of -1 indexes vertex 1.
    with pytest.raises(ValueError, match=message):
        FlowGraph(single_element_poset(), 2, [FlowEdge(*arc, (BOTTOM, TOP))], 0, sink)


def test_flow_graph_rejects_tampering():
    # A graph with an edge into the source is rejected by the dual builder;
    # simulate by constructing the FlowGraph directly and checking is_flow
    # still behaves.
    from pasmpoly.flowpoly import FlowEdge

    G = FlowGraph(single_element_poset(), 2, [FlowEdge(0, 1, (BOTTOM, TOP))], 0, 1)
    assert is_flow({0: 1}, G)
