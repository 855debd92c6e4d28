import argparse
import json
import random
from fractions import Fraction
from math import factorial

import pytest

import pasmpoly.cli
import pasmpoly.hooklength
import pasmpoly.skewposet
from pasmpoly import (
    Matrix,
    Partition,
    PasmPolytope,
    SkewShape,
    build_poset,
    count_linear_extensions,
    enumerate_between,
    vertex_matrix,
)
from pasmpoly.cli import build_parser, main
from pasmpoly.skewposet import _aitken_count

from families import all_skew_shapes
from golden import COMPLETED_4, PARTIAL_4, RATIONAL_POINT_422_31
from points import narrowed_bounds
from test_linalg import fraction_rank
from test_matrices import reference_pretty


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_vertices_json(capsys):
    code, out = run(capsys, "vertices", "--lambda", "3,1", "--nu", "4,2,2",
                    "--m", "4", "--n", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["spec"] == {"lambda": [3, 1], "nu": [4, 2, 2], "m": 4, "n": 5}
    assert len(data["vertices"]) == 10
    mats = {Matrix.from_json_dict(v) for v in data["vertices"]}
    assert len(mats) == 10


def test_vertices_text(capsys):
    code, out = run(capsys, "vertices", "--lambda", "3,1", "--nu", "4,2,2")
    assert code == 0
    assert "count: 10" in out


def test_vertex_commands_match_output_rendered_from_the_oracle(capsys):
    # Every command that lists or counts the vertices, byte for byte against
    # output rendered from vertex_matrix over enumerate_between.
    for shape in all_skew_shapes(6) + [SkewShape(Partition([6] * 5), Partition())]:
        verts = [vertex_matrix(mu, shape.m, shape.n)
                 for mu in enumerate_between(shape.lam, shape.nu)]
        flat = [v.flatten() for v in verts]
        dim = fraction_rank([[x - b for x, b in zip(p, flat[0])] for p in flat[1:]])
        listed = [v.to_json_dict() for v in verts]
        args = ["--nu", ",".join(map(str, shape.nu)), "--lambda", ",".join(map(str, shape.lam))]
        text = "\n\n".join(reference_pretty(v) for v in verts) + f"\n\ncount: {len(verts)}\n"
        assert run(capsys, "vertices", *args) == (0, text)
        listing = {"spec": shape.to_json(), "vertices": listed}
        assert run(capsys, "vertices", *args, "--format", "json") == (
            0, json.dumps(listing, indent=2) + "\n")
        assert run(capsys, "dim", *args) == (0, f"{dim}\n")
        code, out = run(capsys, "ehrhart", *args, "--format", "json")
        report = {**json.loads(out), "vertices": listed, "dimension": dim}
        assert (code, out) == (0, json.dumps(report, indent=2) + "\n")
        count = len(verts)
        assert run(capsys, "certify", *args, "--tmax", "1") == (
            0, f"affine_unimodular: True\nvertex_bijection: True\n"
               f"dilate_counts: [[1, {count}, {count}]]\nresult: pass\n")


def test_volume(capsys):
    code, out = run(capsys, "volume", "--lambda", "3,1", "--nu", "4,2,2")
    assert code == 0
    assert out.count("8") >= 2
    code, out = run(capsys, "volume", "--lambda", "3,1", "--nu", "4,2,2", "--format", "json")
    assert code == 0
    assert out == '{"linear_extensions": 8, "hook_formula": 8, "agree": true}\n'


def test_volume_at_scale(capsys):
    # 4116 excited diagrams; e(P) pinned from the ideal-lattice chain count.
    code, out = run(capsys, "volume", "--nu", "8,8,8,8,8,8", "--lambda", "4,4,4")
    assert code == 0
    assert out == ("normalized volume by linear extensions: 214331629762111680\n"
                   "normalized volume by hook-length formula: 214331629762111680\n")


def test_volume_reports_non_integral_hook_sum(capsys, monkeypatch):
    true_hooks = pasmpoly.hooklength.hooks

    def perturbed(nu):
        table = true_hooks(nu)
        table[(1, 1)] += 1
        return table

    monkeypatch.setattr(pasmpoly.hooklength, "hooks", perturbed)
    code = main(["volume", "--nu", "2,1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: hook sum produced non-integer")


def test_volume_reports_methods_that_disagree(capsys, monkeypatch):
    # Aitken's count is 2 on (2,1); one more than that must be printed
    # beside the hook sum and fail the command.
    monkeypatch.setattr(pasmpoly.cli, "_aitken_count", lambda nu, lam: 3)
    code, out = run(capsys, "volume", "--nu", "2,1")
    assert code == 1
    assert out == ("normalized volume by linear extensions: 3\n"
                   "normalized volume by hook-length formula: 2\n")
    code, out = run(capsys, "volume", "--nu", "2,1", "--format", "json")
    assert code == 1
    assert out == '{"linear_extensions": 3, "hook_formula": 2, "agree": false}\n'


def test_dim(capsys):
    code, out = run(capsys, "dim", "--lambda", "3,1", "--nu", "4,2,2", "--m", "4", "--n", "5")
    assert code == 0
    assert out.strip() == "4"


def test_ehrhart_json(capsys):
    code, out = run(capsys, "ehrhart", "--lambda", "3,1", "--nu", "4,2,2",
                    "--tmax", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 4
    assert len(data["vertices"]) == 10
    assert data["ehrhart_values"] == [[0, 1], [1, 10], [2, 42]]
    # degree-4 polynomial with leading coefficient 1/3
    assert data["ehrhart_poly"][-1] == "1/3"
    assert len(data["ehrhart_poly"]) == 5


def test_ehrhart_json_at_dimension_twenty(capsys):
    code, out = run(capsys, "ehrhart", "--nu", "5,5,5,5", "--tmax", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 20
    assert len(data["vertices"]) == 126
    assert data["ehrhart_values"] == [[0, 1], [1, 126]]


def test_ehrhart_beyond_fifteen_cells(capsys):
    code, out = run(capsys, "ehrhart", "--nu", "4,4,4,4")
    assert code == 0
    coeffs = json.loads(out.splitlines()[-1].partition(": ")[2].replace("'", '"'))
    e = count_linear_extensions(build_poset(SkewShape(Partition([4, 4, 4, 4]), Partition())))
    assert len(coeffs) == 17
    assert Fraction(coeffs[-1]) == Fraction(e, factorial(16))


def test_ehrhart_leading_coefficient_is_aitkens_count_on_random_shapes(capsys):
    # The Gessel-Viennot values, their interpolation and UniPoly against
    # Aitken's determinant, an independent formula, on seeded shapes of up
    # to 8 rows and 12 columns, d from 20 to 56, past the d <= 8 sweeps.
    rng = random.Random(42)
    sizes = []
    for _ in range(20):
        nu = sorted((rng.randint(3, 12) for _ in range(rng.randint(3, 8))), reverse=True)
        lam = [min(a, b) for a, b in zip(sorted((rng.randint(0, p // 2) for p in nu), reverse=True), nu)]
        nu, lam = Partition(nu), Partition(lam)
        d = nu.size - lam.size
        code, out = run(capsys, "ehrhart", "--nu", ",".join(map(str, nu)),
                        "--lambda", ",".join(map(str, lam)), "--tmax", "0")
        assert code == 0
        coeffs = json.loads(out.splitlines()[-1].partition(": ")[2].replace("'", '"'))
        assert len(coeffs) == d + 1, (nu, lam)
        assert Fraction(coeffs[-1]) * factorial(d) == _aitken_count(nu, lam), (nu, lam)
        sizes.append(d)
    assert max(sizes) >= 50


def test_ehrhart_rejects_negative_tmax(capsys):
    code, out = run(capsys, "ehrhart", "--nu", "4,2,2", "--lambda", "3,1", "--tmax", "-3")
    assert code == 2
    assert out == ""


def test_check_member_and_nonmember(tmp_path, capsys):
    member = tmp_path / "member.json"
    member.write_text(json.dumps(RATIONAL_POINT_422_31.to_json_dict()))
    code, _ = run(capsys, "check", "--lambda", "3,1", "--nu", "4,2,2",
                  "--m", "4", "--n", "5", "--matrix", str(member))
    assert code == 0

    outside = tmp_path / "outside.json"
    bad = [[0] * 5 for _ in range(4)]
    bad[0][0] = 1  # lands on a fixed-zero cell of lambda
    outside.write_text(json.dumps({"m": 4, "n": 5, "entries": bad}))
    code, out = run(capsys, "check", "--lambda", "3,1", "--nu", "4,2,2",
                    "--m", "4", "--n", "5", "--matrix", str(outside))
    assert code == 1
    assert "not a member" in out


def test_check_missing_file(capsys):
    code = main(["check", "--lambda", "3,1", "--nu", "4,2,2",
                 "--matrix", "/nonexistent/file.json"])
    capsys.readouterr()
    assert code == 2


def test_matrix_with_zero_denominator_is_a_usage_error(tmp_path, capsys):
    src = tmp_path / "matrix.json"
    src.write_text(json.dumps({"m": 2, "n": 2, "entries": [["1/0", 0], [0, 1]]}))
    for argv in (["check", "--nu", "2,1"], ["phi"]):
        code = main(argv + ["--matrix", str(src)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: cannot read matrix from {src}: "
                                "bad matrix entry '1/0': zero denominator\n")


def test_matrix_with_float_entry_is_a_usage_error(tmp_path, capsys):
    # Entries are exact: a JSON float is refused at the input boundary.
    src = tmp_path / "matrix.json"
    src.write_text('{"m": 2, "n": 2, "entries": [[0.5, 0], [0, 1]]}')
    code = main(["check", "--nu", "2,1", "--matrix", str(src)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot read matrix from {src}: bad matrix entry 0.5\n"


def test_matrix_with_string_rows_is_a_usage_error(tmp_path, capsys):
    # Each string row would be taken apart into its digits: ["10", "01"]
    # is not the 2 x 2 identity.
    src = tmp_path / "matrix.json"
    src.write_text('{"entries": ["10", "01"]}')
    code = main(["phi", "--matrix", str(src)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot read matrix from {src}: bad matrix row 1: '10' is not a list\n"


@pytest.mark.parametrize("text, message", [
    ('[[1, 0], [0, 1]]', "matrix must be an object with entries, got list"),
    ('{"m": "2", "n": 2, "entries": [[1, 0], [0, 1]]}', "m must be an int, got str"),
    ('{"m": 2.0, "n": 2, "entries": [[1, 0], [0, 1]]}', "m must be an int, got float"),
    ('{"m": 2}', "matrix has no entries field"),
], ids=["top-level list", "string m", "float m", "no entries"])
def test_malformed_matrix_file_names_the_field(tmp_path, capsys, text, message):
    src = tmp_path / "matrix.json"
    src.write_text(text)
    code = main(["phi", "--matrix", str(src)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot read matrix from {src}: {message}\n"


def test_phi(tmp_path, capsys):
    src = tmp_path / "matrix.json"
    src.write_text(json.dumps(PARTIAL_4.to_json_dict()))
    code, out = run(capsys, "phi", "--matrix", str(src), "--format", "json")
    assert code == 0
    assert Matrix.from_json_dict(json.loads(out)) == COMPLETED_4


def test_phi_rejects_non_square(tmp_path, capsys):
    src = tmp_path / "matrix.json"
    src.write_text(json.dumps({"m": 1, "n": 2, "entries": [[1, 0]]}))
    code = main(["phi", "--matrix", str(src)])
    capsys.readouterr()
    assert code == 2


def test_face_labeling(capsys):
    code, out = run(capsys, "face-labeling", "--lambda", "3,1", "--nu", "4,2,2",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["regions"] == 4
    assert data["labeling"]["1,5,H"] == [1]
    code, out = run(capsys, "face-labeling", "--lambda", "3,1", "--nu", "4,2,2",
                    "--format", "dot")
    assert code == 0
    assert "style=bold" in out
    # The text form is the line that bench parses for the region count.
    code, out = run(capsys, "face-labeling", "--lambda", "3,1", "--nu", "4,2,2")
    assert code == 0
    assert out == "regions: 4\n"


def test_flow_graph(capsys):
    code, out = run(capsys, "flow-graph", "--lambda", "3,1", "--nu", "4,2,2",
                    "--format", "dot")
    assert code == 0
    assert "digraph" in out
    code, out = run(capsys, "flow-graph", "--lambda", "3,1", "--nu", "4,2,2",
                    "--format", "json")
    data = json.loads(out)
    assert data["vertices"] == 4 and len(data["edges"]) == 7


def test_certify(capsys):
    code, out = run(capsys, "certify", "--lambda", "3,1", "--nu", "4,2,2",
                    "--tmax", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["affine_unimodular"] and data["vertex_bijection"]
    assert data["dilate_counts"] == [[1, 10, 10], [2, 42, 42]]


def test_certify_rejects_negative_tmax(capsys):
    code, out = run(capsys, "certify", "--nu", "4,2,2", "--lambda", "3,1", "--tmax", "-1")
    assert code == 2
    assert out == ""


def test_certify_rejects_tmax_zero(capsys):
    code, out = run(capsys, "certify", "--nu", "4,2,2", "--lambda", "3,1", "--tmax", "0")
    assert code == 2
    assert out == ""
    code, out = run(capsys, "ehrhart", "--nu", "4,2,2", "--lambda", "3,1", "--tmax", "0")
    assert code == 0
    assert out.startswith("L(0) = 1\n")


def test_certify_guardrail_is_a_resource_limit(capsys):
    code = main(["certify", "--nu", "3,3,3", "--tmax", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "guardrail" in captured.err
    assert "|nu/lam| = 9" in captured.err
    # The default --tmax is 2, which the guardrail refuses beyond 8 cells.
    assert main(["certify", "--nu", "3,3,3"]) == 3
    assert "guardrail" in capsys.readouterr().err


def test_certify_tmax_one_runs_on_any_shape(capsys):
    code, out = run(capsys, "certify", "--nu", "7,7,7,7,7,7", "--tmax", "1")
    assert code == 0
    assert out.endswith("result: pass\n")


def test_certify_vertex_outside_h_description_is_a_failure(capsys, monkeypatch):
    # Pinning H(2, 4) to 0 forces the entry (2, 5) = -H(2, 4) to 0, which
    # cuts off a vertex: that is a certificate failure (exit 1), not a
    # usage error.
    poly = PasmPolytope(SkewShape(Partition([4, 2, 2]), Partition([3, 1])))
    narrowed = narrowed_bounds(poly, ("H", 2, 4), 0, 0)
    monkeypatch.setattr(PasmPolytope, "_bounds", lambda self: narrowed)
    code = main(["certify", "--nu", "4,2,2", "--lambda", "3,1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert captured.out.startswith("affine_unimodular: False\n")
    assert captured.out.endswith("result: FAIL\n")


def test_dot_format_only_for_drawing_subcommands(capsys):
    code, out = run(capsys, "vertices", "--nu", "4,2,2", "--lambda", "3,1", "--format", "dot")
    assert code == 2
    assert out == ""


def test_usage_errors(capsys):
    assert main(["dim", "--lambda", "2,2", "--nu", "3,1"]) == 2  # not nested
    capsys.readouterr()
    assert main(["dim", "--lambda", "x", "--nu", "3,1"]) == 2  # unparsable
    capsys.readouterr()
    assert main(["frobnicate"]) == 2  # unknown subcommand
    capsys.readouterr()


def test_unknown_flag(capsys):
    code = main(["dim", "--bogus"])
    capsys.readouterr()
    assert code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["dim", "--lambda", "3,1", "--nu", "4,2,2", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text().strip() == "4"


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    # A directory, or a path whose parent is missing, cannot be written.
    for target in (tmp_path, tmp_path / "missing" / "report.txt"):
        for command in ("dim", "certify"):
            code = main([command, "--lambda", "3,1", "--nu", "4,2,2", "--out", str(target)])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith(f"error: cannot write {target}: ")
            assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_empty_lambda_defaults(capsys):
    code, out = run(capsys, "dim", "--nu", "2,1")
    assert code == 0
    assert out.strip() == "3"


def test_repeated_calls_share_no_state(tmp_path, capsys):
    shape = ["--lambda", "3,1", "--nu", "4,2,2"]
    code, out = run(capsys, "ehrhart", *shape, "--tmax", "3")
    assert code == 0 and out.count("L(") == 4
    code, out = run(capsys, "ehrhart", *shape)  # back to the default, t <= |nu/lam|
    assert code == 0 and out.count("L(") == 5
    target = tmp_path / "dim.txt"
    code, out = run(capsys, "dim", *shape, "--out", str(target))
    assert (code, out, target.read_text()) == (0, "", "4\n")
    code, out = run(capsys, "dim", *shape)
    assert (code, out, target.read_text()) == (0, "4\n", "4\n")
    assert main(["dim", "--bogus"]) == 2
    assert main(["dim", "--lambda", "2,2", "--nu", "3,1"]) == 2
    capsys.readouterr()
    assert run(capsys, "dim", *shape) == (0, "4\n")


def test_no_command_walks_the_ideal_lattice(tmp_path, capsys, monkeypatch):
    # The commands count by determinants; J(P) is walked only by the oracles
    # that the tests hold those determinants to.  One run of every
    # subcommand must print the same with the lattice walk made to raise.
    member = tmp_path / "member.json"
    member.write_text(json.dumps(RATIONAL_POINT_422_31.to_json_dict()))
    square = tmp_path / "square.json"
    square.write_text(json.dumps(PARTIAL_4.to_json_dict()))
    shape = ["--lambda", "3,1", "--nu", "4,2,2"]
    argvs = [["vertices", *shape], ["check", *shape, "--matrix", str(member)], ["dim", *shape],
             ["volume", *shape], ["ehrhart", *shape], ["face-labeling", *shape],
             ["flow-graph", *shape], ["phi", "--matrix", str(square)],
             ["certify", *shape, "--tmax", "2"]]
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(argv[0] for argv in argvs) == sorted(subcommands)
    expected = [run(capsys, *argv) for argv in argvs]
    assert all(code == 0 for code, _ in expected)

    def walk(P):
        raise AssertionError("a command walked the ideal lattice J(P)")

    monkeypatch.setattr(pasmpoly.skewposet, "_ideal_lattice", walk)
    for argv, outcome in zip(argvs, expected):
        assert run(capsys, *argv) == outcome, argv[0]
