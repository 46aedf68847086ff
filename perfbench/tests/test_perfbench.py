"""Tests of the benchmark's own code: span arithmetic, output checks, input
determinism and wrapper installation.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import hashlib
import importlib
import json
import time

import numpy as np
import pytest

import spans
import worker
import workloads
from speckleqi import McEstimate, TrendPoint


def installed() -> list:
    """Bindings in the wrapped modules that currently hold a span wrapper."""
    found = []
    for modname in spans.MODULES:
        module = importlib.import_module(modname)
        found.extend(f"{modname}.{attr}" for attr, obj in vars(module).items()
                     if getattr(obj, "__traced__", False))
    return found


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_synthetic_span_tree():
    # op [0, 10]: a [1, 6] holding b [2, 3] and c [4, 5.5]; d [7, 9]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5.5, 6, 7, 9, 10]))
    op = tracer.enter(spans.ROOT)
    a = tracer.enter("a")
    b = tracer.enter("b")
    tracer.exit(b)
    c = tracer.enter("c")
    tracer.exit(c)
    tracer.exit(a)
    d = tracer.enter("d")
    tracer.exit(d)
    tracer.exit(op)
    t = tracer.table()
    np.testing.assert_allclose(spans.self_times(t["parent"], t["start"], t["end"]),
                               [10 - 5 - 2, 5 - 1 - 1.5, 1, 1.5, 2])


def test_layer_entries_and_totals_count_a_layer_calling_itself_once():
    # op [0, 10] > x [1, 9] > x [2, 8] > y [3, 4]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 8, 9, 10]))
    op = tracer.enter(spans.ROOT)
    outer = tracer.enter("x")
    inner = tracer.enter("x")
    leaf = tracer.enter("y")
    tracer.count("work", 7)
    for idx in (leaf, inner, outer, op):
        tracer.exit(idx)
    (summary,) = spans.layer_summary(tracer)
    assert summary["layers"]["x"] == [1, 2 + 5, 8]
    assert summary["layers"]["y"] == [1, 1, 1]
    assert summary["counts"] == {"work": 7}


def test_spans_closed_out_of_order_are_refused():
    tracer = spans.Tracer()
    first = tracer.enter(spans.ROOT)
    tracer.enter("a")
    with pytest.raises(RuntimeError):
        tracer.exit(first)


def _trend_points(rows):
    return [TrendPoint(copies=c, helstrom_exponent=h, chernoff_exponent=q) for c, h, q in rows]


def test_trend_check_flags_a_point_moved_by_1e_9(tmp_path):
    trend = workloads.Trend(0, tmp_path)
    assert trend.check(_trend_points(trend.reference)) == []
    moved = [list(r) for r in trend.reference]
    moved[1][2] += 1e-9
    assert trend.check(_trend_points(moved))


def test_trend_check_flags_a_non_decreasing_helstrom_exponent(tmp_path):
    trend = workloads.Trend(0, tmp_path)
    flat = [list(r) for r in trend.reference]
    flat[2][1] = flat[1][1]
    trend.reference = flat
    assert any("strictly decreasing" in p for p in trend.check(_trend_points(flat)))


def test_figures_check_flags_one_flipped_csv_byte(tmp_path):
    figures = workloads.Figures(0, tmp_path)
    for i, path in enumerate(figures.outputs()):
        path.write_bytes(f"x,y\n{i},1.0000000000000000e+00\n".encode())
    figures.reference = {p.name: hashlib.md5(p.read_bytes()).hexdigest()
                         for p in figures.outputs()}
    codes = [0] * len(figures.inputs["argv"])
    assert figures.check(codes) == []
    victim = figures.outputs()[3]
    data = bytearray(victim.read_bytes())
    data[5] ^= 0x01
    victim.write_bytes(bytes(data))
    problems = figures.check(codes)
    assert len(problems) == 1 and victim.name in problems[0]


def test_figures_reference_covers_every_output(tmp_path):
    figures = workloads.Figures(0, tmp_path)
    assert sorted(p.name for p in figures.outputs()) == sorted(figures.reference)


def test_montecarlo_check_flags_an_altered_estimate(tmp_path):
    mc = workloads.MonteCarlo(3, tmp_path)
    first = mc.run()
    assert mc.check(first) == []
    assert mc.check(mc.run()) == []  # the same seed reproduces bit for bit
    altered = [list(row) for row in first]
    est = altered[2][0]
    altered[2][0] = dataclasses.replace(est, value=np.nextafter(est.value, 1.0))
    assert mc.check([tuple(r) for r in altered]) == ["re-run with the same seed is not "
                                                     "bit-identical"]
    fresh = workloads.MonteCarlo(3, tmp_path)
    far = [list(row) for row in first]
    target = fresh.cases[0]["targets"][1]
    far[0][1] = McEstimate(value=target + 0.01, ci_low=0.0, ci_high=1.0, trials=10 ** 6)
    assert any("p_detect" in p for p in fresh.check([tuple(r) for r in far]))


def test_validate_check_flags_a_failed_report(tmp_path):
    validate = workloads.Validate(0, tmp_path)
    passing = {"all_pass": True,
               "checks": [{"name": n, "passed": True} for n in workloads.VALIDATE_CHECKS]}
    failing = dict(passing, all_pass=False,
                   checks=[dict(c, passed=c["name"] != "thermal-weld") for c in passing["checks"]])
    assert validate.check((0, passing)) == []
    assert "thermal-weld" in validate.check((1, failing))[0]
    assert "expected" in validate.check((0, dict(passing, checks=passing["checks"][1:])))[0]


def test_validate_workload_runs_every_check_but_the_known_failing_ones():
    from speckleqi.validate import run_validation

    every = [c["name"] for c in run_validation(seed=0)["checks"]]
    assert [n for n in every if n not in workloads.KNOWN_FAILING_CHECKS] == list(
        workloads.VALIDATE_CHECKS)


@pytest.mark.xfail(strict=True, reason="known defect: mc-coverage fails for seeds 7, 10, 23, "
                                       "26; once fixed, return it to the validate workload")
def test_mc_coverage_holds_for_seeds_0_to_29():
    from speckleqi.validate import check_mc_coverage

    failing = [seed for seed in range(30) if not check_mc_coverage(200, seed).passed]
    assert failing == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_are_deterministic_in_the_seed(name, tmp_path):
    make = workloads.WORKLOADS[name]
    a, b = make(5, tmp_path), make(5, tmp_path)
    assert json.dumps(a.inputs) == json.dumps(b.inputs)
    if name in ("validate", "montecarlo"):
        assert json.dumps(make(6, tmp_path).inputs) != json.dumps(a.inputs)


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import speckleqi
    import speckleqi.cli
    import speckleqi.oracle

    original = speckleqi.oracle.helstrom
    assert installed() == []
    uninstall = spans.install(spans.Tracer())
    try:
        found = installed()
        for binding in ("speckleqi.helstrom", "speckleqi.oracle.helstrom",
                        "speckleqi.cli.run_validation", "speckleqi.validate.run_validation",
                        "speckleqi.validate.check_mc_coverage", "speckleqi.cli.main",
                        "numpy.linalg.eigh", "numpy.linalg.eigvalsh", "scipy.linalg.eigh"):
            assert binding in found
    finally:
        uninstall()
    assert installed() == []
    assert speckleqi.oracle.helstrom is original


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch, capsys):
    def refuse(tracer):
        raise AssertionError("an untraced run installed wrappers")

    monkeypatch.setattr(spans, "install", refuse)
    assert worker.main(["montecarlo", "1", "0.1", "run", repr(time.perf_counter()),
                        str(tmp_path)]) == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["failed"] == 0 and "layers" not in record
    assert installed() == []


def test_traced_trend_operation_repeats_half_its_helstrom_calls(tmp_path):
    trend = workloads.Trend(0, tmp_path)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert worker.Loop(trend).op(tracer) > 0
    finally:
        uninstall()
    (summary,) = spans.layer_summary(tracer)
    layers, counts = summary["layers"], summary["counts"]
    assert layers["oracle.helstrom"][0] == 6 and layers["oracle.qcb"][0] == 3
    assert counts["oracle.helstrom.repeats"] == 3
    assert counts["oracle.max_dim"] == 27 ** 2
    # per copy count: Helstrom twice (once inside qcb), two solves in qcb; plus
    # the 16-node Gauss-Legendre rule, whose nodes are a companion eigensolve
    assert counts["oracle.eig_work"] == sum(4 * (9 ** m) ** 3 for m in (1, 2, 3)) + 16 ** 3


def test_eig_work_adds_up_the_matrices_actually_decomposed():
    import scipy.linalg

    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        op = tracer.enter(spans.ROOT)
        np.linalg.eigvalsh(np.eye(5))
        np.linalg.eigh(np.stack([np.eye(3)] * 4))  # four 3 x 3 solves
        scipy.linalg.eigh(np.eye(2))
        tracer.exit(op)
    finally:
        uninstall()
    assert tracer.counts[-1]["oracle.eig_work"] == 5 ** 3 + 4 * 3 ** 3 + 2 ** 3
