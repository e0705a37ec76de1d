import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from ppgf.poset import Poset
from refclock import RefClock
from workloads import CORPUS_SEED, WORKLOADS, Op, corpus

RUN = Path(run.__file__).resolve()


def test_corpus_is_deterministic_per_seed():
    def covers(seed):
        return [sorted(p.covers) for p in corpus(Poset, 30, 1, 7, 0.5, seed)]

    assert covers(5) == covers(5)
    assert covers(5) != covers(6)


def test_acceptance_corpus_matches_the_acceptance_suite():
    spec = importlib.util.spec_from_file_location(
        "acceptance_suite", run.ROOT / "tests" / "test_acceptance.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    assert suite.CORPUS_SEED == CORPUS_SEED
    assert ([p.covers for p in suite.corpus()[:100]]
            == [p.covers for p in corpus(Poset, 100, 1, 7, 0.5, CORPUS_SEED)])


def test_operation_order_depends_only_on_the_seed():
    lib = run.setup(WORKLOADS["wide_q"], 3, True)[1]

    def labels(seed):
        return [op.label for op in WORKLOADS["wide_q"].make_ops(lib, seed, True)]

    assert labels(3) == labels(3)
    assert sorted(labels(3)) == sorted(labels(4))


def smoke(name, trace, env=None):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, text=True, timeout=300, check=True, env=env)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = dict(run.per_layer_metrics({}),
                     **{"trace.overhead_ratio": {"unit": "ratio"}})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in per_layer.items()}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copytree(RUN.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide_q", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(name):
    result = smoke(name, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m for m, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_run_reaches_every_named_boundary(name):
    # the run itself fails if a boundary in `exercises` records no calls
    result = smoke(name, 1)
    assert result["correct"]
    metrics = result["metrics"]
    for fn in WORKLOADS[name].exercises:
        if fn + ".calls" in metrics:
            assert metrics[fn + ".calls"]["value"] > 0, fn
    assert metrics["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("name", ["acceptance_sweep", "wide_q"])
def test_call_counts_repeat_under_another_hash_seed(name):
    def counts(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        metrics = smoke(name, 1, env)["metrics"]
        return {k: v["value"] for k, v in metrics.items()
                if v["unit"] == "count"}

    assert counts("1") == counts("2")


def test_perturbed_and_raising_operations_count_as_failed():
    _, _, ops = run.setup(WORKLOADS["wide_q"], 1, True)
    good = ops[1]

    def perturbed():
        f = good.run()
        return type(f)(f.num + 1, f.den)

    def raising():
        raise ValueError("boom")

    ops[1] = Op(good.label, perturbed, good.check)
    ops[2] = Op(ops[2].label, raising, ops[2].check)
    passes = run.run_passes(ops, 0, RefClock(), repeat=False)
    assert len(passes) == 1
    assert (passes[0].attempted, passes[0].failed) == (len(ops), 2)


def test_tail_latency_keeps_ten_operations_beyond_it():
    assert run.tail_latency(list(range(1, 101))) == 90
    assert run.tail_latency(list(range(200, 0, -1))) == 190
    assert run.tail_latency([3.0, 1.0, 2.0]) == 3.0


def test_ref_clock_excludes_its_sampling_time():
    with RefClock() as clock:
        s0, u0 = clock.read()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        s1, u1 = clock.read()
    assert len(clock.samples) > 1
    assert 0 < s1 - s0 < 0.3
    assert u1 - u0 == pytest.approx((s1 - s0) / clock.ref_s, rel=0.5)
