"""The benchmark under perfbench/ finds every speckleqi name it uses.

perfbench/spans.py wraps speckleqi functions by name for the traced run, and
perfbench/workloads.py builds each workload from the package's entry points.
Loading both here makes a deleted or renamed function fail this suite rather
than the benchmark run. Neither file is changed by loading it.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_wrappers_find_every_traced_function():
    spans = load("spans")
    wrapped = {fn.__name__ for fn in spans.wrappers(spans.Tracer())}
    assert set(spans.ORACLE_LAYERS) | {"displacement_operator", "run_validation", "main"} <= wrapped


def test_every_workload_builds_its_inputs(tmp_path):
    workloads = load("workloads")
    for name, workload in workloads.WORKLOADS.items():
        assert workload(0, tmp_path).inputs, name


def test_every_workload_passes_its_own_check_once(tmp_path):
    """A smoke run, not the benchmark: each workload's operation runs once, at
    seed 0, and its output must pass the workload's own check. A drifted
    trend, a moved CSV md5 or a renamed validate check then fails this suite."""
    workloads = load("workloads")
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        bench = workload(0, workdir)
        assert bench.check(bench.run()) == [], name
