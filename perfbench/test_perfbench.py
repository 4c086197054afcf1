"""Tests of the benchmark itself: smoke runs, pinned seed counts, wrappers.

The smoke runs use 16 x 16 grids and one round per loop, so the whole file
runs in seconds rather than minutes.
"""

import inspect
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(args, cwd=ROOT, timeout=170):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)


_smoke_cache = {}


def smoke(workload, trace):
    """Result line and stdout of a smoke run, cached per test process."""
    key = (workload, trace)
    if key not in _smoke_cache:
        proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--smoke"])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        _smoke_cache[key] = (json.loads(lines[-1]), proc.stdout)
    return _smoke_cache[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    result, stdout = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert f"perfbench {m['name']} = {got['value']!r} {m['unit']}\n" in stdout
    assert "perfbench failed_ratio = 0.0 (ratio;" in stdout
    facts = json.loads(next(line for line in stdout.splitlines()
                            if line.startswith("perfbench facts "))[16:])
    assert facts["seed"] == 3 and facts["workload"] == workload
    assert {"git_sha", "python", "numpy", "nproc", "threads_env"} <= set(facts)


# exact counts of the seed program; a change that moves one on purpose
# updates the pin and reports the count before and after
SEED_COUNTS = [
    ("panel", "scan.field_evals_per_request", 15 / 70),
    ("cli_maps", "scan.field_evals_per_request", 13 / 45),
    ("points", "special.clebsch_gordan.calls_per_point_query", 11.0),
    ("points", "jets.block_bytes_per_point.o1", 64.0),
    ("points", "jets.block_bytes_per_point.o2", 208.0),
    ("points", "jets.block_bytes_per_point.o3", 640.0),
]


@pytest.mark.parametrize("workload, name, value", SEED_COUNTS)
def test_seed_counts(workload, name, value):
    result, _ = smoke(workload, 1)
    assert result["metrics"][name]["value"] == value


def test_wrappers_keep_signatures_and_restore():
    import vectorlight.cli as cli
    import vectorlight.coupling as coupling
    import vectorlight.scan as scan

    originals = {(m, f): getattr(sys.modules[f"vectorlight.{m}"], f)
                 for m, f in tracer_mod.FUNCTIONS}
    evaluates = {c: getattr(scan, c).__dict__["evaluate"]
                 for c in tracer_mod.OBSERVABLES}
    cfgs = workloads.panel_configs(4)
    t = tracer_mod.Tracer()
    with t:
        for (m, f), orig in originals.items():
            wrapped = getattr(sys.modules[f"vectorlight.{m}"], f)
            assert wrapped is not orig
            assert inspect.signature(wrapped) == inspect.signature(orig)
        # wrapped where imported, not only where defined
        assert scan.field_sample_upto is not originals[("beams", "field_sample_upto")]
        assert coupling.clebsch_gordan is not originals[("special", "clebsch_gordan")]
        for cfg in cfgs:
            assert scan._accepts_cache(cfg.observable)
        scan.run_scans(cfgs)
    for (m, f), orig in originals.items():
        assert getattr(sys.modules[f"vectorlight.{m}"], f) is orig
    for c, orig in evaluates.items():
        assert getattr(scan, c).__dict__["evaluate"] is orig
    assert cli.main is originals[("cli", "main")]
    assert t.calls["scan.evaluate"] == len(cfgs)
    assert t.inner_calls("scan.run_scans", "beams.field_sample_upto") == 15


def test_panel_matches_acceptance_panel(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tests"))
    import test_acceptance

    monkeypatch.setattr(test_acceptance, "RES", (8, 8))
    import vectorlight.scan as scan
    ours = scan.run_scans(workloads.panel_configs(8))
    theirs = scan.run_scans(test_acceptance.panel_configs())
    assert len(ours) == len(theirs) == 70
    for a, b in zip(ours, theirs):
        assert a.observable_name == b.observable_name
        assert a.scale_factor == b.scale_factor
        assert np.array_equal(a.values, b.values)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "panel", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
