"""Tests of the benchmark itself: inputs, metric names, failure counting, checks."""
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import modgrid
import workloads as wl

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    make_inputs, _ = wl.WORKLOADS[workload]
    first = json.dumps(make_inputs(7), sort_keys=True)
    assert json.dumps(make_inputs(7), sort_keys=True) == first
    assert json.dumps(make_inputs(8), sort_keys=True) != first


def test_metric_names_are_well_formed_and_match_benchmark_json():
    catalog = {**wl.E2E_METRICS, **wl.LAYER_METRICS,
               **wl.PARALLEL_E2E_METRICS, **wl.PARALLEL_LAYER_METRICS}
    assert all(NAME.fullmatch(name) for name in catalog)
    assert set(wl.layer_metrics([])) | {"trace.overhead_s"} == set(wl.LAYER_METRICS)
    assert set(wl.parallel_metrics([])) == (set(wl.PARALLEL_E2E_METRICS)
                                           | set(wl.PARALLEL_LAYER_METRICS))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(NAME.fullmatch(name) for name in declared)
    assert declared == {**wl.E2E_METRICS, **wl.LAYER_METRICS}
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)
    import run

    assert sorted(run.WORKLOAD_NAMES) == sorted(wl.WORKLOADS)


def test_failing_operations_are_counted_and_the_round_goes_on():
    rec = wl.Recorder(trace=True)
    good = rec.op("good", lambda: 2)
    wrong = rec.op("wrong", lambda: 3)
    raised = rec.op("raises", lambda: 1 // 0)
    after = rec.op("after", lambda: 4)
    rec.expect(good, lambda v: v == 2, "two")
    rec.expect(wrong, lambda v: v == 2, "two")
    rec.expect(raised, lambda v: v == 2, "two")
    rec.expect(after, lambda v: v["key"], "malformed result")
    assert [op.failed for op in rec.ops] == [False, True, True, True]
    assert len(rec.failures()) == 3 and "ZeroDivisionError" in raised.error
    assert len(rec.spans()) == 4


def _tiny_census_inputs():
    rng = random.Random(3)

    def perm(n):
        sigma = list(range(n))
        rng.shuffle(sigma)
        return sigma

    return {
        "families": [{"family": "inverse", "p": 11}, {"family": "cubic", "p": 11}],
        "random_prime": [{"n": 13, "sigma": perm(13)}],
        "composite": [{"n": 8, "mode": "unit", "sigma": perm(8), "quadruples": True},
                      {"n": 9, "mode": "any", "sigma": perm(9), "quadruples": True}],
        "batches": [{"kind": "unit", "n": 6, "mode": "unit",
                     "triples": [wl._random_triple(rng, 6, i % 2 == 0) for i in range(6)]}],
        "oracle_seed": 1,
    }


def test_wrong_census_count_fails_only_its_operation(monkeypatch):
    rec = wl.Recorder(trace=False)
    wl.census_counts(rec, _tiny_census_inputs(), "")
    assert rec.ops and not rec.failures()

    real = modgrid.count_triples
    monkeypatch.setattr(modgrid, "count_triples",
                        lambda pts, n, mode: real(pts, n, mode) + (n == 13))
    rec = wl.Recorder(trace=False)
    wl.census_counts(rec, _tiny_census_inputs(), "")
    failed = [op for op in rec.ops if op.failed]
    assert len(failed) == 1
    assert failed[0].name == "census.count_triples" and failed[0].attrs["n"] == 13
    assert len(rec.ops) == 13


@pytest.mark.parametrize("n", range(2, 13))
def test_reference_predicate_matches_collinear_set(n):
    rng = random.Random(n)
    for _ in range(120):
        size = rng.choice([3, 4])
        pts = list({(rng.randrange(n), rng.randrange(n)) for _ in range(size)})
        if len(pts) < 3:
            continue
        for mode in modgrid.CollinearityMode:
            assert wl.ref_collinear(pts, n, mode.value == "unit") == \
                modgrid.collinear_set(pts, n, mode), (pts, n, mode)


@pytest.mark.parametrize("n", [7, 8, 9, 10, 11, 12])
def test_reference_counts_match_the_library(n):
    sigma = list(range(n))
    random.Random(n).shuffle(sigma)
    pts = list(enumerate(sigma))
    for mode in modgrid.CollinearityMode:
        want = (modgrid.count_triples(pts, n, mode), modgrid.count_quadruples(pts, n, mode))
        assert wl.ref_counts(pts, n, mode.value == "unit") == want


def test_constructed_collinear_triples_are_collinear():
    rng = random.Random(5)
    for n in (6, 12, 60, 503):
        for _ in range(20):
            t = wl._random_triple(rng, n, collinear=True)
            assert len({tuple(p) for p in t}) == 3
            assert wl.ref_collinear(t, n, unit=True)


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_percentile_interpolates_between_ranks():
    import run

    values = list(range(1, 11))
    assert run.percentile(values, 50) == 5.5
    assert run.percentile(values, 90) == pytest.approx(9.1)
    assert run.percentile([4.0], 90) == 4.0
