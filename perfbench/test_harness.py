"""Self-tests of the benchmark harness, on problems small enough to run in
seconds:

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

import run
import workloads
from chebpint.spatial import SpatialOperator

ROOT = workloads.ROOT
TINY = workloads.Spec("tiny-heat", "heat", side=15, n=32)


class CorruptingOperator(SpatialOperator):
    """Delegating operator that scales the solution of one shift."""

    def __init__(self, inner, sigma, factor):
        self.inner = inner
        self.m = inner.m
        self.sigma = sigma
        self.factor = factor

    def apply(self, v):
        return self.inner.apply(v)

    def shifted_solve(self, sigma, g):
        w = self.inner.shifted_solve(sigma, g)
        return w * self.factor if sigma == self.sigma else w


@pytest.fixture(scope="module")
def case():
    problem, dec = workloads.setup(TINY)
    return workloads.Case(TINY, problem, dec)


def test_clean_solves_pass_every_check(case):
    outcome = case.attempt(1.0)
    assert outcome.problems == []
    assert outcome.rel_error <= workloads.REL_ERROR_TOL


@pytest.mark.parametrize("factor, raised", [(1.0 + 1e-6, False), (2.0, True)])
def test_a_corrupted_shift_is_counted_not_fatal(case, factor, raised):
    bad = CorruptingOperator(case.op, case.dec.eigenvalues[2], factor)
    outcomes = [case.attempt(1.0), case.attempt(1.01, bad), case.attempt(1.02)]
    # a mild corruption slips past the library and is caught by the output
    # check; a gross one makes the solver raise, which is caught and counted
    assert (outcomes[1].seconds is None) == raised
    assert outcomes[1].problems
    out = run.result(outcomes, {"x": (1.0, "s")})
    assert (out["correct"], out["attempted"], out["failed"]) == (False, 3, 1)


def test_tail_never_sits_below_the_median():
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail([float(k) for k in range(1, 13)])[:2] == (11.0, 100.0 * 11 / 12)
    assert run.tail([float(k) for k in range(1, 22)]) == (11.0, 100.0 * 11 / 21, 10)
    assert run.tail([float(k) for k in range(1, 101)]) == (90.0, 90.0, 10)


def _names(section):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in benchmark[section]]


def test_end_to_end_run_reports_every_metric(monkeypatch, capsys):
    monkeypatch.setattr(run, "probe_setup", lambda spec: 0.5)
    args = SimpleNamespace(seed=3, seconds=0.3, trace=0)
    out = run.end_to_end(workloads, TINY, args)
    assert out["correct"] and out["failed"] == 0
    assert list(out["metrics"]) == _names("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_reports_every_layer_metric(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    monkeypatch.setattr(run, "ROOT", tmp_path.parent)
    args = SimpleNamespace(seed=3, seconds=0.3, trace=1)
    out = run.traced(workloads, TINY, args)
    assert out["correct"] and out["failed"] == 0
    assert list(out["metrics"]) == _names("per_layer")
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert metrics["spatial.shifted_solve_calls"] == TINY.n
    assert metrics["solver.sni_iterations"] == 1
    trace = json.loads(next(tmp_path.glob("trace-*.json")).read_text())
    names = {s["name"] for s in trace["spans"]}
    assert {"setup", "spectral.decompose", "chebroots.find_roots", "solver.solve", "timedisc.rhs",
            "spatial.shifted_solve", "timedisc.apply_B"} <= names
    # spans opened on the solver's pool threads hang below the solver call
    by_id = {s["id"]: s for s in trace["spans"]}
    for s in trace["spans"]:
        if s["name"] in ("spatial.apply", "spatial.shifted_solve"):
            assert by_id[s["parent"]]["name"] == "solver.solve"


def test_predictions_name_benchmark_metrics_and_workloads():
    predictions = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    layers = set(_names("per_layer"))
    e2e = set(_names("end_to_end"))
    wl = set(_names("workloads"))
    assert wl == set(workloads.SPECS)
    covered = set()
    for p in predictions["predictions"]:
        assert set(p["layer_metrics"]) <= layers
        assert set(p["moves"]) <= e2e
        assert set(p["workloads"]) <= wl
        covered |= set(p["layer_metrics"])
    assert covered == layers
