import json
from fractions import Fraction
from math import factorial

import pasmpoly.hooklength
from pasmpoly import (
    Matrix,
    Partition,
    PasmPolytope,
    SkewShape,
    build_poset,
    count_linear_extensions,
)
from pasmpoly.cli import main

from golden import COMPLETED_4, PARTIAL_4, RATIONAL_POINT_422_31


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


def test_volume(capsys):
    code, out = run(capsys, "volume", "--lambda", "3,1", "--nu", "4,2,2")
    assert code == 0
    assert out.count("8") >= 2


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
    real = PasmPolytope._bounds
    monkeypatch.setattr(PasmPolytope, "_bounds",
                        lambda self: {**real(self), ("H", 2, 4): (0, 0)})
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
