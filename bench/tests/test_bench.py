"""Self-tests of the benchmark: generator, checks, failure accounting and
tracing wrappers.  Run with ``python -m pytest bench/tests``."""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

import calibrate
import oracle
import run
import spans
import workloads
from workloads import Op, classify

import pasmpoly.cli
from pasmpoly import Partition, SkewShape, build_poset, order_polynomial_value

ROOT = Path(__file__).resolve().parents[2]


def _snapshot(ops):
    return [(op, op.expect) for op in ops]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed_and_varies_across_seeds(workload):
    first = _snapshot(workloads.generate(workload, 1))
    assert first == _snapshot(workloads.generate(workload, 1))
    assert first != _snapshot(workloads.generate(workload, 2))


def test_draws_stay_within_their_cost_bounds():
    for workload, command in (("count", "ehrhart"), ("certify", "certify")):
        anchors = set(workloads.generate(workload, 0)) & set(workloads.generate(workload, 1))
        for seed in range(4):
            draws = [op for op in workloads.generate(workload, seed)
                     if op.command == command and op not in anchors]
            assert len(draws) == 3
            for op in draws:
                d = oracle.skew_size(*op.shape)
                if command == "ehrhart":
                    assert workloads.EHRHART_D[0] <= d <= workloads.EHRHART_D[1]
                    lo, hi = workloads.EHRHART_E
                    assert lo <= op.expect["e"] <= hi
                else:
                    t = int(op.args[-1])
                    assert workloads.CERTIFY_D[0] <= d <= workloads.CERTIFY_D[1]
                    assert workloads.CERTIFY_T[0] <= t <= workloads.CERTIFY_T[1]
                    lo, hi = workloads.CERTIFY_POINTS
                    assert lo <= sum(oracle.dilate_counts(*op.shape, t)[1:]) <= hi


def test_pinned_values_agree_with_the_oracle():
    for nu, lam in workloads.PINNED:
        workloads.skew_data(nu, lam)   # raises on disagreement


def test_oracle_agrees_with_the_program_on_small_shapes():
    for nu, lam in [((3, 2), ()), ((3, 3, 1), (1,)), ((2, 2, 2), (1,)), ((4, 1), (2,))]:
        P = build_poset(SkewShape(Partition(nu), Partition(lam)))
        assert oracle.dilate_counts(nu, lam, 4) == [order_polynomial_value(P, t + 1)
                                                    for t in range(5)]


def _cli(argv, capsys):
    code = pasmpoly.cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _op(workload, command, probe=False):
    return next(op for op in workloads.generate(workload, 0)
                if op.command == command and op.probe == probe)


@pytest.mark.parametrize("command,alter", [
    ("dim", lambda out: str(int(out) + 1) + "\n"),
    ("vertices", lambda out: out.replace("count: 10", "count: 11")),
    ("face-labeling", lambda out: out.replace("regions: 4", "regions: 3")),
])
def test_checker_flags_an_altered_construct_output(command, alter, capsys):
    op = _op("construct", command)
    code, out, err = _cli(op.argv(), capsys)
    assert classify(op, code, out, err) == ("ok", "")
    assert classify(op, code, alter(out), err)[0] == "fail"


def test_checker_flags_altered_count_and_certify_outputs(capsys):
    op = _op("count", "ehrhart")
    code, out, err = _cli(op.argv(), capsys)
    assert classify(op, code, out, err)[0] == "ok"
    assert classify(op, code, out.replace("L(2) = 42", "L(2) = 43"), err)[0] == "fail"
    op = _op("certify", "certify")
    code, out, err = _cli(op.argv(), capsys)
    assert classify(op, code, out, err)[0] == "ok"
    assert classify(op, code, out.replace("result: pass", "result: FAIL"), err)[0] == "fail"
    assert classify(op, 1, out, err)[0] == "fail"


def test_probe_refusal_is_a_limit(capsys):
    op = _op("count", "ehrhart", probe=True)
    code, out, err = _cli(op.argv(), capsys)
    kind, message = classify(op, code, out, err)
    assert kind == "limit" and "capped" in message


def test_limit_counts_in_fail_share_and_stays_out_of_timed_sums(tmp_path):
    dim = _op("construct", "dim")
    probe = _op("count", "ehrhart", probe=True)
    runner = run.Runner([dim, probe], tmp_path)
    wall, ref = runner.run_pass()
    runner.run_probes()
    assert runner.outcome(1)[0] == "limit"
    assert runner.tally() == {"failed": 0, "limited": 1, "fail_share": 0.5}
    sums = run.command_sums(runner)
    assert set(sums) == {"dim_s", "wall_s"} and sums["wall_s"] == sums["dim_s"] == ref
    assert runner.times[0] == [(wall, runner.times[0][0][1], ref)]
    assert len(runner.times[1]) == 1


def test_limit_of_a_timed_operation_is_a_failure(tmp_path):
    probe = _op("count", "ehrhart", probe=True)
    timed = Op(probe.command, probe.shape, expect=probe.expect)
    runner = run.Runner([timed], tmp_path)
    runner.run_pass()
    assert runner.tally() == {"failed": 1, "limited": 0, "fail_share": 1.0}


def _bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "pasmpoly" or name.startswith("pasmpoly."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    out.update({(name, attr, k): v for k, v in vars(value).items()})
    return out


def test_wrappers_record_spans_and_restore_every_attribute(capsys):
    before = _bindings()
    tracer = spans.Tracer()
    with tracer:
        assert _bindings() != before
        _cli(["dim", "--nu", "4,2,2", "--lambda", "3,1"], capsys)
        _cli(["certify", "--nu", "3,2", "--tmax", "2"], capsys)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    stats = tracer.metrics()
    assert stats["linalg.rank.calls"] == 1
    assert stats["polytope.dimension.self_s"] > 0
    assert stats["skewposet.enumerate_order_preserving_maps.maps"] == sum(
        oracle.dilate_counts((3, 2), (), 2)[1:])
    assert stats["skewposet.enumerate_order_preserving_maps.calls"] == 2


def test_traced_pass_spans_cover_the_pass_without_sampler_time(tmp_path):
    ops = [op for op in workloads.generate("construct", 0)
           if op.command == "dim" and op.shape == workloads.STAIRCASE]
    runner = run.Runner(ops, tmp_path)
    tracer = spans.Tracer()
    wall, _ = runner.run_pass(tracer)
    assert runner.traced == [True] and runner.outcome(0)[0] == "ok"
    assert 0.9 * wall < tracer.total_self_s() <= wall


def test_missing_target_is_absent_not_a_crash(capsys):
    targets = spans.TARGETS + (spans.Target("pasmpoly._linalg", "no_such_kernel"),
                               spans.Target("pasmpoly.no_such_module", "f"))
    with spans.Tracer(targets) as tracer:
        _cli(["dim", "--nu", "2,1"], capsys)
    assert tracer.missing == ["linalg.no_such_kernel", "no_such_module.f"]
    assert not any(k.startswith(("linalg.no_such", "no_such")) for k in tracer.metrics())


def test_benchmark_json_matches_the_metrics_run_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_calibration_kernel_runs_no_program_code():
    with spans.Tracer() as tracer:
        assert calibrate.kernel_seconds() > 0
    assert all(v == 0 for k, v in tracer.metrics().items() if k.endswith(".calls"))


def test_sampler_spreads_samples_over_time_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler(interval=0.01) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 5
    assert 0 < sampler.busy_between(t0, t1) <= sampler.busy < t1 - t0
    assert calibrate.speed_factor(sampler.kernels()) > 0


def test_a_crash_is_a_failed_operation(tmp_path):
    runner = run.Runner([_op("construct", "dim")], tmp_path)
    runner.calls[0] = lambda: 1 / 0
    runner.run_pass()
    kind, message = runner.outcome(0)
    assert kind == "fail" and "ZeroDivisionError" in message
    assert runner.tally()["failed"] == 1
