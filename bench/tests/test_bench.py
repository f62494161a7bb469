"""Tests of the benchmark's own code.

    python3 -m pytest -q bench/tests
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workload  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert workload.tail_percentile(range(1, 101)) == (90.0, 90)
    pct, value = workload.tail_percentile([5.0] * 20 + [9.0] * 10)
    assert (pct, value) == (pytest.approx(200 / 3), 5.0)
    samples = np.random.default_rng(0).permutation(37).tolist()
    pct, value = workload.tail_percentile(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 27 / 37)
    with pytest.raises(ValueError):
        workload.tail_percentile(range(10))


def test_self_time_subtracts_the_union_of_child_spans():
    # root 0..10 holds a 1..4 (which holds 2..3), b 5..7 and c 6.5..8;
    # b and c overlap, so 5..8 counts once; a second root 20..21
    starts = [0.0, 1.0, 2.0, 5.0, 6.5, 20.0]
    ends = [10.0, 4.0, 3.0, 7.0, 8.0, 21.0]
    parents = [-1, 0, 1, 0, 0, -1]
    assert tracing.self_times(starts, ends, parents) == pytest.approx(
        [4.0, 2.0, 1.0, 2.0, 1.5, 1.0])


def _patch_targets():
    out = {}
    for module_name, attr, _ in tracing.FUNCTIONS:
        module = importlib.import_module(module_name)
        out[(module_name, attr)] = module.__dict__[attr]
    for module_name, class_name, attr, _ in tracing.METHODS:
        owner = getattr(importlib.import_module(module_name), class_name)
        out[(class_name, attr)] = owner.__dict__[attr]
    adam = importlib.import_module("milvad.training").Adam
    out[("Adam", "zero_grad")] = adam.__dict__["zero_grad"]
    return out


def _tiny_model_and_video():
    from milvad.data.manifest import VideoFeatures
    from milvad.model import AnomalyScorer

    hp = workload.PAPER_TINY
    rng = np.random.default_rng(0)
    t, n = hp.segments, hp.channels
    video = VideoFeatures(video_id="v", label="normal", category="normal", frames=4 * t,
                          scene={g: rng.normal(size=(g * t, n)) for g in (1, 2, 3)},
                          tracklets=rng.normal(size=(t, 3, n)))
    return AnomalyScorer(hp, seed=0), video


def test_wrappers_are_restored_so_untraced_runs_call_the_originals():
    before = _patch_targets()
    tracer = tracing.Tracer()
    model, video = _tiny_model_and_video()
    restore = tracing.install(tracer)
    try:
        during = _patch_targets()
        assert all(during[key] is not before[key] for key in before)
        model.score_video(video)
        names = set(tracer.names)
        assert {"model.forward", "scene.forward", "scene.lstm", "human.lstm",
                "human.relation", "coupler.fuse"} <= names
    finally:
        restore()
    after = _patch_targets()
    assert all(after[key] is before[key] for key in before)
    recorded = len(tracer.names)
    model.score_video(video)
    assert len(tracer.names) == recorded


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.mark.parametrize("name", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("trace, seed, kind", [(0, 1, "end_to_end"), (1, 0, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace, seed, kind):
    proc = _run("--workload", name, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared(kind)
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if kind == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_the_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "desk-staged", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
