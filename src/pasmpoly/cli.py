"""Command-line interface.

Subcommands construct, verify, count, and export the objects of the
library.  Exit codes: 0 success/pass, 1 verification failure, 2 usage
error, 3 resource limit (a guardrail refused the instance).  All numeric
output is exact (integers or "p/q" strings).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .equivalences import certificate_passes, certify_integral_equivalence, complete_to_asm
from .facelattice import face_labeling, labeling_to_dot, labeling_to_json, region_count
from .flowpoly import build_flow_graph
from .hooklength import naruse_count
from .matrices import Matrix, _pretty
from .polytope import PasmPolytope, ResourceLimit
from .shapes import Partition, SkewShape
from .skewposet import _aitken_count, _gessel_viennot_values, build_poset, interpolate_polynomial

USAGE_ERROR = 2
VERIFICATION_FAILURE = 1
RESOURCE_LIMIT = 3


def _parse_partition(text: str | None) -> Partition:
    if text is None or text.strip() == "":
        return Partition()
    try:
        return Partition(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad partition {text!r}: {exc}") from exc


def _tmax(args, default: int, least: int) -> int:
    if args.tmax is None:
        return default
    if args.tmax < least:
        raise ValueError(f"--tmax must be >= {least}, got {args.tmax}")
    return args.tmax


def _shape_from_args(args) -> SkewShape:
    lam = _parse_partition(args.lam)
    nu = _parse_partition(args.nu)
    return SkewShape(nu, lam, args.m, args.n)


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}") from exc
    else:
        print(text)


def _load_matrix(path: str) -> Matrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return Matrix.from_json_dict(json.load(fh))
    except (OSError, ValueError, TypeError) as exc:
        raise ValueError(f"cannot read matrix from {path}: {exc}") from exc


def _cmd_vertices(args) -> int:
    poly = PasmPolytope(_shape_from_args(args))
    verts = poly.vertices()
    if args.format == "json":
        _emit(args, json.dumps(
            {"spec": poly.shape.to_json(), "vertices": [v.to_json_dict() for v in verts]},
            indent=2,
        ))
    else:
        # A profile row has at most two nonzeros, so the vertices share few
        # distinct rows: one cache serves the whole list.
        cache: dict = {}
        _emit(args, "\n\n".join(_pretty(v.rows, cache) for v in verts)
              + f"\n\ncount: {len(verts)}")
    return 0


def _cmd_check(args) -> int:
    poly = PasmPolytope(_shape_from_args(args))
    M = _load_matrix(args.matrix)
    ok = poly.satisfies_inequalities(M)
    _emit(args, json.dumps({"member": ok}) if args.format == "json" else
          ("member" if ok else "not a member"))
    return 0 if ok else VERIFICATION_FAILURE


def _cmd_dim(args) -> int:
    poly = PasmPolytope(_shape_from_args(args))
    dim = poly.dimension()
    _emit(args, json.dumps({"dimension": dim}) if args.format == "json" else str(dim))
    return 0


def _cmd_volume(args) -> int:
    shape = _shape_from_args(args)
    try:
        by_extensions = _aitken_count(shape.nu, shape.lam)
        by_hooks = naruse_count(shape.nu, shape.lam)
    except ArithmeticError as exc:
        # Aitken's count or the hook sum was not an integer: the two
        # methods cannot agree.
        print(f"error: {exc}", file=sys.stderr)
        return VERIFICATION_FAILURE
    if args.format == "json":
        _emit(args, json.dumps(
            {"linear_extensions": by_extensions, "hook_formula": by_hooks,
             "agree": by_extensions == by_hooks}))
    else:
        _emit(args, f"normalized volume by linear extensions: {by_extensions}\n"
                    f"normalized volume by hook-length formula: {by_hooks}")
    return 0 if by_extensions == by_hooks else VERIFICATION_FAILURE


def _cmd_ehrhart(args) -> int:
    shape = _shape_from_args(args)
    t_max = _tmax(args, shape.size, least=0)
    # L(t) = Omega(P, t + 1); the polynomial needs L(0..|P|).
    counts = list(enumerate(_gessel_viennot_values(shape.nu, shape.lam,
                                                   max(t_max, shape.size) + 1)))
    values = counts[:t_max + 1]
    ehrhart = interpolate_polynomial(counts[:shape.size + 1])
    if args.format == "json":
        poly = PasmPolytope(shape)
        _emit(args, json.dumps({
            "spec": shape.to_json(),
            "vertices": [v.to_json_dict() for v in poly.vertices()],
            "dimension": poly.dimension(),
            "ehrhart_values": [[t, v] for t, v in values],
            "ehrhart_poly": ehrhart.to_json(),
        }, indent=2))
    else:
        lines = [f"L({t}) = {v}" for t, v in values]
        lines.append(f"Ehrhart polynomial coefficients (constant first): {ehrhart.to_json()}")
        _emit(args, "\n".join(lines))
    return 0


def _cmd_face_labeling(args) -> int:
    poly = PasmPolytope(_shape_from_args(args))
    lab = face_labeling(poly)
    regions = region_count(lab)
    if args.format == "dot":
        _emit(args, labeling_to_dot(lab))
    elif args.format == "json":
        _emit(args, json.dumps({"labeling": labeling_to_json(lab), "regions": regions}, indent=2))
    else:
        _emit(args, f"regions: {regions}")
    return 0


def _cmd_flow_graph(args) -> int:
    shape = _shape_from_args(args)
    G = build_flow_graph(build_poset(shape))
    if args.format == "dot":
        _emit(args, G.to_dot())
    else:
        _emit(args, json.dumps(G.to_json(), indent=2))
    return 0


def _cmd_phi(args) -> int:
    M = _load_matrix(args.matrix)
    image = complete_to_asm(M)
    _emit(args, json.dumps(image.to_json_dict()) if args.format == "json" else image.pretty())
    return 0


def _cmd_certify(args) -> int:
    poly = PasmPolytope(_shape_from_args(args))
    # With no dilate to scan, a pass would check nothing of the counts.
    t_max = _tmax(args, 2, least=1)
    report = certify_integral_equivalence(poly, t_max)
    ok = certificate_passes(report)
    if args.format == "json":
        _emit(args, json.dumps(report, indent=2))
    else:
        _emit(args, f"affine_unimodular: {report['affine_unimodular']}\n"
                    f"vertex_bijection: {report['vertex_bijection']}\n"
                    f"dilate_counts: {report['dilate_counts']}\n"
                    f"result: {'pass' if ok else 'FAIL'}")
    return 0 if ok else VERIFICATION_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pasmpoly",
        description="Construct and verify polytopes of partial alternating sign matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_shape=True, formats=("text", "json")):
        if needs_shape:
            p.add_argument("--lambda", dest="lam", default="", metavar="PARTS",
                           help="inner partition, e.g. 3,1 (empty by default)")
            p.add_argument("--nu", dest="nu", default="", metavar="PARTS",
                           help="outer partition, e.g. 4,2,2")
            p.add_argument("--m", type=int, default=None, help="ambient rows (default: minimal box)")
            p.add_argument("--n", type=int, default=None, help="ambient columns (default: minimal box)")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", default=None, metavar="PATH", help="write output to a file")

    p = sub.add_parser("vertices", help="list the vertex matrices")
    add_common(p)
    p.set_defaults(func=_cmd_vertices)

    p = sub.add_parser("check", help="test membership of a matrix (JSON file)")
    add_common(p)
    p.add_argument("--matrix", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("dim", help="affine dimension of the polytope")
    add_common(p)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("volume", help="normalized volume, by two independent methods")
    add_common(p)
    p.set_defaults(func=_cmd_volume)

    p = sub.add_parser("ehrhart", help="lattice point counts of dilates and the Ehrhart polynomial")
    add_common(p)
    p.add_argument("--tmax", type=int, default=None)
    p.set_defaults(func=_cmd_ehrhart)

    p = sub.add_parser("face-labeling", help="grid-graph labeling encoding the polytope as a face")
    add_common(p, formats=("text", "json", "dot"))
    p.set_defaults(func=_cmd_face_labeling)

    p = sub.add_parser("flow-graph", help="the dual flow graph of the cell poset")
    add_common(p, formats=("text", "json", "dot"))
    p.set_defaults(func=_cmd_flow_graph)

    p = sub.add_parser("phi", help="translate a square matrix by the antidiagonal completion")
    add_common(p, needs_shape=False)
    p.add_argument("--matrix", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("certify", help="integral-equivalence certificate against the order polytope")
    add_common(p)
    p.add_argument("--tmax", type=int, default=None)
    p.set_defaults(func=_cmd_certify)

    return parser


# Building the parser costs more than a small command; parse_args keeps no
# state in it, so one parser serves every call in the process.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RESOURCE_LIMIT if isinstance(exc, ResourceLimit) else USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
