"""Workload operations, their seeded draws, and the checks of their outputs.

Each workload is a fixed anchor list plus seeded draws.  A draw is bounded,
before any timing, by the property that sets its cost: the shape for
``check``/``phi``/``extreme``, e(P) for ``ehrhart`` (the extension sum the
seed walks is e(P) terms long), and the dilate points sum(L(1..t)) for
``certify``/``flow-count``.  That keeps every seed's pass close to the same
work and keeps draws short of the d = 13 ``ehrhart`` cliff.

Expected values come from ``oracle`` (independent of the program) and,
for anchor shapes, must also equal the values pinned in ``PINNED``.
Frontier probes are operations the seed refuses with a guardrail; they are
attempted and checked like the rest but stay out of the timed sums.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

import oracle

Shape = tuple[tuple[int, ...], tuple[int, ...]]  # (nu, lam)

# (nu, lam): (|nu/lam|, vertices, e(P), (L(1), ..., L(4)))
PINNED = {
    ((4, 2, 2), (3, 1)): (4, 10, 8, (10, 42, 120, 275)),
    ((4, 4, 4), ()): (12, 35, 462, (35, 490, 4116, 24696)),
    ((5, 4, 3, 2, 1), ()): (15, 132, 292864, (132, 4719, 81796, 884884)),
    ((5, 5, 5, 5), ()): (20, 126, 1662804, (126, 5292, 116424, 1646568)),
    ((6, 6, 6, 6), (2, 2)): (20, 185, 13856700, (185, 10129, 270480, 4435200)),
    ((6, 6, 6, 6, 6), ()): (30, 462, 396499770810, (462, 60984, 3737448, 133613766)),
    ((7, 7, 7, 7, 7), ()): (35, 792, 278607172289160, (792, 169884, 16195608, 868489479)),
    ((3, 3, 2), (1,)): (7, 18, 42, (18, 136, 650, 2331)),
    ((3, 3, 2), ()): (8, 19, 42, (19, 155, 805, 3136)),
    ((3, 3, 3), ()): (9, 20, 42, (20, 175, 980, 4116)),
    ((4, 3, 1), ()): (8, 23, 70, (23, 205, 1120, 4508)),
    ((4, 3, 2, 1), ()): (10, 42, 768, (42, 594, 4719, 26026)),
    ((5, 4, 3, 2), (1,)): (13, 89, 48048, (89, 2385, 32560, 286013)),
    ((8, 8, 8, 8, 8, 8), (4, 4, 4)): (
        36, 2114, 214331629762111680, (2114, 917210, 149915682, 12370436442)),
    ((9, 9, 9, 9, 9, 9), (4, 4, 4)): (
        42, 3850, 1765051589895241415040, (3850, 2950920, 817972344, 110076862896)),
}

LADDER: tuple[Shape, ...] = (
    ((4, 2, 2), (3, 1)),
    ((4, 4, 4), ()),
    ((5, 4, 3, 2, 1), ()),
    ((5, 5, 5, 5), ()),
    ((6, 6, 6, 6), (2, 2)),
    ((6, 6, 6, 6, 6), ()),
)
STAIRCASE: Shape = ((5, 4, 3, 2, 1), ())

# Draw bounds, each on the property that sets the drawn operation's cost.
EHRHART_DRAWS, EHRHART_D, EHRHART_E = 3, (8, 12), (300, 600)
CERTIFY_DRAWS, CERTIFY_D, CERTIFY_T, CERTIFY_POINTS = 3, (4, 8), (2, 4), (1000, 1600)
EXTREME_DRAWS, PHI_DRAWS = 10, 6

WORKLOADS = {
    "construct": "vertices/dim/face-labeling/flow-graph on the shape ladder, check, phi "
                 "and extreme: exact rank and vertex work, no order-polynomial or hook work",
    "count": "ehrhart up to the d = 13 cliff and volume up to (9^6)/(4,4,4): order "
             "polynomial, interpolation and the excited-diagram hook sum, no rank work",
    "certify": "certify and flow-count for t <= 4 on d <= 8: the dilate scan, corner sums "
               "and order-preserving maps over many small matrices",
}


@dataclass(frozen=True)
class Op:
    """One operation: a CLI subcommand, or ``extreme``/``flow-count``, which
    call the library because no subcommand reaches their layer."""

    command: str
    shape: Shape
    args: tuple[str, ...] = ()
    expect: dict = field(default_factory=dict, compare=False, hash=False)
    payload: tuple = ()            # matrix rows for check / phi / extreme
    probe: bool = False

    @property
    def label(self) -> str:
        nu, lam = self.shape
        text = f"{self.command} {_parts(nu)}/{_parts(lam)}"
        return " ".join((text,) + self.args)

    def argv(self) -> list[str]:
        nu, lam = self.shape
        return [self.command, "--nu", _parts(nu), "--lambda", _parts(lam), *self.args]


def _parts(parts) -> str:
    return ",".join(str(p) for p in parts)


def skew_data(nu, lam=()) -> tuple[int, int, int, tuple[int, ...]]:
    """(|nu/lam|, vertices, e(P), L(1..4)) from the oracle, equal to the
    pinned row when the shape has one."""
    row = (oracle.skew_size(nu, lam), len(oracle.interval(nu, lam)),
           oracle.linear_extensions(nu, lam), tuple(oracle.dilate_counts(nu, lam, 4)[1:]))
    pinned = PINNED.get((tuple(nu), tuple(lam)))
    if pinned is not None and pinned != row:
        raise AssertionError(f"oracle disagrees with pinned values for {nu}/{lam}")
    return row


def box(shape: Shape) -> tuple[int, int]:
    nu, _ = shape
    return len(nu) + 1, nu[0] + 1


# -- generators ----------------------------------------------------------------

def _random_shape(rng: random.Random, rows: int, cols: int) -> Shape:
    nu = tuple(sorted((rng.randint(1, cols) for _ in range(rng.randint(2, rows))),
                      reverse=True))
    lam = sorted((rng.randint(0, p) for p in nu), reverse=True)
    lam = tuple(min(a, b) for a, b in zip(lam, nu) if min(a, b))
    return nu, lam


def _member(rng: random.Random, shape: Shape) -> list[list[Fraction]]:
    """A rational convex combination of 3 to 5 distinct profile matrices."""
    m, n = box(shape)
    verts = rng.sample(oracle.interval(*shape), rng.randint(3, 5))
    weights = [rng.randint(1, 9) for _ in verts]
    total = sum(weights)
    rows = [[Fraction(0)] * n for _ in range(m)]
    for w, mu in zip(weights, verts):
        for i, row in enumerate(oracle.profile_matrix(mu, m, n)):
            for j, x in enumerate(row):
                rows[i][j] += Fraction(w * x, total)
    return rows


def _non_member(rng: random.Random, shape: Shape) -> list[list[Fraction]]:
    """A member moved by +delta and -delta in two columns of one row: row
    sums hold, but both column totals leave their required values."""
    rows = _member(rng, shape)
    m, n = box(shape)
    i = rng.randrange(m)
    j, k = rng.sample(range(n), 2)
    delta = Fraction(rng.randint(1, 9), rng.randint(2, 9))
    rows[i][j] += delta
    rows[i][k] -= delta
    return rows


def _stratified(rng: random.Random, items: list, count: int) -> list:
    """One item from each of ``count`` equal slices, in order."""
    return [items[rng.randrange(k * len(items) // count, (k + 1) * len(items) // count)]
            for k in range(count)]


def construct(rng: random.Random) -> list[Op]:
    ops = []
    for shape in LADDER:
        d, nverts, _, _ = skew_data(*shape)
        edges = oracle.flow_edge_count(*shape)
        ops += [
            Op("vertices", shape, expect={"count": nverts}),
            Op("dim", shape, expect={"dim": d}),
            Op("face-labeling", shape, expect={"regions": d}),
            Op("flow-graph", shape, args=("--format", "json"),
               expect={"edges": edges, "vertices": edges - d + 1}),
        ]
    ops.append(Op("dim", ((7, 7, 7, 7, 7), ()), expect={"dim": skew_data((7,) * 5)[0]}))
    for shape in LADDER:
        for member, make in ((True, _member), (False, _non_member)):
            ops.append(Op("check", shape, expect={"member": member},
                          payload=_frozen(make(rng, shape))))
    m, n = box(STAIRCASE)
    staircase = oracle.interval(*STAIRCASE)
    for mu in _stratified(rng, staircase, PHI_DRAWS):
        rows = oracle.profile_matrix(mu, m, n)
        completed = [list(r) for r in rows]
        for i in range(1, n):
            completed[i][n - i] += 1   # (i+1, n-i+1), 1-based
        ops.append(Op("phi", STAIRCASE, args=("--format", "json"),
                      expect={"matrix": completed}, payload=_frozen(rows)))
    for mu in _stratified(rng, staircase, EXTREME_DRAWS):
        ops.append(Op("extreme", STAIRCASE, expect={"extreme": True},
                      payload=_frozen(oracle.profile_matrix(mu, m, n))))
    return ops


def _ehrhart(shape: Shape, probe: bool = False) -> Op:
    d, _, e, _ = skew_data(*shape)
    return Op("ehrhart", shape, probe=probe,
              expect={"values": oracle.dilate_counts(*shape, d), "e": e, "d": d})


def count(rng: random.Random) -> list[Op]:
    anchors = [((4, 2, 2), (3, 1)), ((3, 3, 2), (1,)), ((4, 3, 2, 1), ()), ((4, 4, 4), ()),
               ((5, 4, 3, 2), (1,))]
    ops = [_ehrhart(s) for s in anchors]
    drawn: list[Shape] = []
    while len(drawn) < EHRHART_DRAWS:
        shape = _random_shape(rng, 5, 6)
        d = oracle.skew_size(*shape)
        if (EHRHART_D[0] <= d <= EHRHART_D[1] and shape not in drawn + anchors
                and EHRHART_E[0] <= oracle.linear_extensions(*shape) <= EHRHART_E[1]):
            drawn.append(shape)
    ops += [_ehrhart(s) for s in drawn]
    for shape in [((6, 6, 6, 6), (2, 2)), ((6, 6, 6, 6, 6), ()),
                  ((8, 8, 8, 8, 8, 8), (4, 4, 4)), ((9, 9, 9, 9, 9, 9), (4, 4, 4))]:
        ops.append(Op("volume", shape, expect={"e": skew_data(*shape)[2]}))
    ops += [_ehrhart(((5, 5, 5, 5), ()), probe=True),
            _ehrhart(((6, 6, 6, 6, 6), ()), probe=True)]
    return ops


def _certify_pair(shape: Shape, t: int, probe: bool = False) -> list[Op]:
    values = oracle.dilate_counts(*shape, t)
    ops = [Op("certify", shape, args=("--tmax", str(t)), probe=probe,
              expect={"dilate_counts": [[k, values[k], values[k]] for k in range(1, t + 1)]})]
    if not probe:
        ops.append(Op("flow-count", shape, args=("--t", str(t)), expect={"count": values[t]}))
    return ops


def certify(rng: random.Random) -> list[Op]:
    anchors = [(((4, 2, 2), (3, 1)), 4), (((3, 3, 2), ()), 4), (((4, 3, 1), ()), 3)]
    for shape, _ in anchors:
        skew_data(*shape)   # the oracle's L(t) must match the pinned values
    drawn: list[tuple[Shape, int]] = []
    while len(drawn) < CERTIFY_DRAWS:
        shape, t = _random_shape(rng, 4, 5), rng.randint(*CERTIFY_T)
        d = oracle.skew_size(*shape)
        if (CERTIFY_D[0] <= d <= CERTIFY_D[1] and all(shape != s for s, _ in drawn + anchors)
                and CERTIFY_POINTS[0] <= sum(oracle.dilate_counts(*shape, t)[1:])
                <= CERTIFY_POINTS[1]):
            drawn.append((shape, t))
    ops = [op for shape, t in anchors + drawn for op in _certify_pair(shape, t)]
    ops += _certify_pair(((3, 3, 3), ()), 2, probe=True)
    return ops


GENERATORS = {"construct": construct, "count": count, "certify": certify}


def generate(workload: str, seed: int) -> list[Op]:
    """The workload's operations for this seed; equal seeds give equal lists."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def _frozen(rows) -> tuple:
    return tuple(tuple(r) for r in rows)


def matrix_json(rows) -> dict:
    def enc(x):
        x = Fraction(x)
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    return {"m": len(rows), "n": len(rows[0]), "entries": [[enc(x) for x in r] for r in rows]}


# -- output checks --------------------------------------------------------------

LIMIT_WORDS = re.compile(r"guardrail|capped|limit", re.IGNORECASE)


def classify(op: Op, code: int, out: str, err: str) -> tuple[str, str]:
    """("ok" | "fail" | "limit", message) for one result of ``op``.

    ``code``/``out``/``err`` are the exit code and captured streams; a
    library operation reports its return value in ``out``.  A refusal is an
    exit code above 1 whose message names a guardrail or limit.
    """
    expected_code = 1 if op.command == "check" and not op.expect["member"] else 0
    if code != expected_code:
        message = err.strip() or f"exit code {code}"
        kind = "limit" if code > 1 and LIMIT_WORDS.search(err) else "fail"
        return kind, message
    try:
        problem = CHECKS[op.command](op.expect, out)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        problem = f"unparseable output: {exc!r}"
    return ("fail", problem) if problem else ("ok", "")


def _last_int(text: str, prefix: str) -> int:
    for line in reversed(text.splitlines()):
        if line.startswith(prefix):
            return int(line[len(prefix):])
    raise ValueError(f"no line starting {prefix!r}")


def _check_vertices(expect, out):
    got = _last_int(out, "count: ")
    return None if got == expect["count"] else f"count {got} != {expect['count']}"


def _check_dim(expect, out):
    got = int(out)
    return None if got == expect["dim"] else f"dimension {got} != {expect['dim']}"


def _check_regions(expect, out):
    got = _last_int(out, "regions: ")
    return None if got == expect["regions"] else f"regions {got} != {expect['regions']}"


def _check_flow_graph(expect, out):
    data = json.loads(out)
    got = {"edges": len(data["edges"]), "vertices": data["vertices"]}
    return None if got == expect else f"flow graph {got} != {expect}"


def _check_member(expect, out):
    got = out.strip() == "member"
    return None if got == expect["member"] else f"membership {out.strip()!r}"


def _check_phi(expect, out):
    rows = [[Fraction(x) for x in r] for r in json.loads(out)["entries"]]
    if rows != expect["matrix"]:
        return "image differs from the antidiagonal completion"
    return None if oracle.is_asm(rows) else "image is not an alternating sign matrix"


def _check_extreme(expect, out):
    return None if out == str(expect["extreme"]) else f"is_extreme returned {out}"


def _check_volume(expect, out):
    got = [int(line.rpartition(": ")[2]) for line in out.splitlines() if line.strip()]
    return None if got == [expect["e"]] * 2 else f"volumes {got} != {expect['e']}"


def _check_ehrhart(expect, out):
    lines = out.splitlines()
    values = [int(line.partition(" = ")[2]) for line in lines if line.startswith("L(")]
    if values != expect["values"]:
        return f"L(t) values {values[:6]}... differ"
    coeffs = [Fraction(c) for c in json.loads(lines[-1].partition(": ")[2].replace("'", '"'))]
    if any(oracle.evaluate(coeffs, t) != v for t, v in enumerate(expect["values"])):
        return "the polynomial does not interpolate L(t)"
    d = expect["d"]
    lead = Fraction(expect["e"], 1)
    for k in range(2, d + 1):
        lead /= k
    return None if len(coeffs) == d + 1 and coeffs[-1] == lead else "leading coefficient != e/d!"


def _check_certify(expect, out):
    fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    if fields.get("result") != "pass":
        return f"result: {fields.get('result')}"
    got = json.loads(fields["dilate_counts"])
    return None if got == expect["dilate_counts"] else f"dilate counts {got}"


def _check_flow_count(expect, out):
    return None if int(out) == expect["count"] else f"flow count {out} != {expect['count']}"


CHECKS = {
    "vertices": _check_vertices,
    "dim": _check_dim,
    "face-labeling": _check_regions,
    "flow-graph": _check_flow_graph,
    "check": _check_member,
    "phi": _check_phi,
    "extreme": _check_extreme,
    "volume": _check_volume,
    "ehrhart": _check_ehrhart,
    "certify": _check_certify,
    "flow-count": _check_flow_count,
}
