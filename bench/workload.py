"""One benchmark workload, run in this process, closed loop.

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1 --out FILE

Generates the workload's inputs from the seed, checks a fixed-seed run
against `references.json`, then times set-up, training, per-video
inference and `evaluate`, checks every output, and writes its metrics to
FILE. With --record it writes the fixed-seed outputs instead.
`bench/run.py` starts this script once per workload with the BLAS thread
count fixed; use that, not this, by hand.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import milvad  # noqa: E402

if Path(milvad.__file__).resolve().parent != ROOT / "src" / "milvad":
    raise ImportError(f"milvad imported from {milvad.__file__}, not from {ROOT / 'src'}")

from milvad import evaluation, training  # noqa: E402
from milvad.config import HyperParams, TrainConfig  # noqa: E402
from milvad.data import manifest, merge_datasets, synthesize_dataset  # noqa: E402
from milvad.data.synthetic import SynthSpec  # noqa: E402
from milvad.model import AnomalyScorer  # noqa: E402

import tracing  # noqa: E402

# end-to-end metric -> unit
E2E_UNITS = {
    "setup_s": "s",
    "train_pairs_per_s": "1/s",
    "infer_ms_p50": "ms",
    "infer_ms_tail": "ms",
    "eval_videos_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SETUP_REPEATS = 7             # and SETUP_SECONDS of set-ups, whichever is more
SETUP_SECONDS = 2.0
MIN_INFER_SAMPLES = 20         # the tail needs ten samples beyond it
REFERENCE_SEED = 0             # fixed-seed run compared against references.json
CHECKPOINT_SEED = 0            # paper-eval's checkpoint comes from this model seed
LOSS_RTOL, LOSS_ATOL = 1e-6, 1e-12
AUC_ATOL = 1e-6

# the settings the acceptance criteria train with
TUNED = dict(learning_rate=1e-3, context_weight=0.5, instance_weight=2.0, normalize_context=True)
PAPER_TINY = HyperParams(segments=4, conv_channels=8, hidden_size=8, ranker_width=8,
                         selected_tracklets=2)


@dataclass(frozen=True)
class Workload:
    name: str
    hyper: HyperParams
    data: tuple[dict, ...]          # SynthSpec fields per generated set; sets are merged
    train: dict                     # TrainConfig fields; the seed comes from the run
    infer_per_cycle: int            # score_video calls between training round and evaluate
    checkpoint: bool = False        # set-up loads a fixed-seed checkpoint instead of building


def _video_set(kind, train, test, segments, frames_per_segment, tracklets, prefix=""):
    return dict(kind=kind, train_normal=train, train_anomaly=train, test_normal=test,
                test_anomaly=test, segments=segments, frames_per_segment=frames_per_segment,
                channels=16, tracklets=tracklets, noise=0.5, id_prefix=prefix)


def workloads(size: str = "full") -> dict[str, Workload]:
    """The benchmark's workloads; `tiny` shrinks every extent for tests."""
    tiny = size == "tiny"
    paper = PAPER_TINY if tiny else HyperParams()
    t_paper = paper.segments
    return {w.name: w for w in (
        Workload(
            name="desk-staged",
            hyper=HyperParams.desk_scale(),
            data=(_video_set("mixed", 3 if tiny else 20, 2 if tiny else 10, 8, 10, 4),),
            train=dict(schedule="staged", stage_fractions=(0.4, 0.2, 0.4),
                       steps=10 if tiny else 100, **TUNED),
            # enough scorings that the tail always falls among calls a full
            # garbage collection lands on, however many cycles fit (README.md)
            infer_per_cycle=50,
        ),
        Workload(
            name="paper-joint",
            hyper=paper,
            data=(_video_set("mixed", 2 if tiny else 4, 2 if tiny else 4, t_paper,
                             3 if tiny else 30, 8),),
            train=dict(schedule="joint", head="fused", steps=2, **TUNED),
            infer_per_cycle=16,
        ),
        Workload(
            name="paper-eval",
            hyper=paper,
            data=tuple(_video_set(kind, 1 if tiny else 2, 1 if tiny else 10, t_paper,
                                  3 if tiny else 30, 8, prefix=f"{kind}_")
                       for kind in ("scene", "human", "mixed")),
            train=dict(schedule="staged", stage_fractions=(0.0, 0.0, 1.0), steps=4, **TUNED),
            infer_per_cycle=20,
            checkpoint=True,
        ),
    )}


# -- statistics ------------------------------------------------------------------


def tail_percentile(samples) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    at_or_below = n - 10
    return 100.0 * at_or_below / n, ordered[at_or_below - 1]


# -- checks ------------------------------------------------------------------------


def _close(a, b, rtol, atol) -> bool:
    return len(a) == len(b) and all(math.isclose(x, y, rel_tol=rtol, abs_tol=atol)
                                    for x, y in zip(a, b))


def check_losses(losses, steps) -> list[str]:
    problems = []
    if len(losses) != steps:
        problems.append(f"{len(losses)} losses for {steps} steps")
    if not all(math.isfinite(v) for v in losses):
        problems.append("non-finite loss")
    return problems


def check_bundle(bundle) -> list[str]:
    problems = []
    for name, lo, hi in (("scene", 0, 1), ("tracklet", 0, 1), ("scene_factor", 0, 1),
                         ("human_factor", 0, 1), ("fused", 0, 2)):
        values = getattr(bundle, name)
        if not np.all(np.isfinite(values)):
            problems.append(f"{name} score not finite")
        elif values.min() < lo or values.max() > hi:
            problems.append(f"{name} score outside [{lo}, {hi}]")
    return problems


def check_report(report, dataset) -> list[str]:
    problems = []
    aucs = [report.overall_auc, *report.per_category.values()]
    if not all(math.isfinite(a) and 0.0 <= a <= 1.0 for a in aucs):
        problems.append(f"AUC outside [0, 1]: {aucs}")
    if report.frames != sum(v.frames for v in dataset) or report.videos != len(dataset):
        problems.append("report does not cover the dataset")
    if not np.all(np.isfinite(report.scores)) or report.scores.min() < 0 or report.scores.max() > 2:
        problems.append("fused frame scores outside [0, 2]")
    return problems


class Operations:
    """Counts operations; an exception or a failed check fails one, not the run."""

    def __init__(self, tracer: tracing.Tracer | None):
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, kind: str, fn, check=None):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op(kind)
        try:
            result = fn()
        except Exception as exc:  # counted as a failed operation
            self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        problems = check(result) if check is not None else []
        if problems:
            self.failures.append(f"{kind}: {'; '.join(problems)}")
        return result

    def verify(self, label: str, problems: list[str]) -> None:
        """A check that is not part of an operation counts as one."""
        self.run("check", lambda: None, lambda _: [f"{label}: {p}" for p in problems])


# -- inputs and set-up -----------------------------------------------------------


@dataclass
class Inputs:
    manifests: list[Path]       # train, test manifest per generated set
    checkpoint: Path | None


def make_inputs(w: Workload, seed: int, out: Path) -> Inputs:
    """Synthetic feature files (and paper-eval's checkpoint) for this seed."""
    manifests = []
    for index, fields_ in enumerate(w.data):
        spec = SynthSpec(seed=seed * 10 + index, **fields_)
        paths = synthesize_dataset(spec, out / f"set{index}")
        manifests += [paths["train"], paths["test"]]
    checkpoint = None
    if w.checkpoint:
        checkpoint = AnomalyScorer(w.hyper, seed=CHECKPOINT_SEED).save(out / "ckpt" / "model.json")
    return Inputs(manifests, checkpoint)


def set_up(w: Workload, inputs: Inputs, seed: int):
    """Load the datasets and build or load the model: what `setup_s` times."""
    loaded = [manifest.load_dataset(path) for path in inputs.manifests]
    train_ds = merge_datasets(*loaded[0::2])
    test_ds = merge_datasets(*loaded[1::2])
    model = fresh_model(w, inputs, seed)
    return train_ds, test_ds, model


def fresh_model(w: Workload, inputs: Inputs, seed: int) -> AnomalyScorer:
    if w.checkpoint:
        return AnomalyScorer.load(inputs.checkpoint)[0]
    return AnomalyScorer(w.hyper, seed=seed)


def train_unit(w, inputs, train_ds, seed):
    """A fresh model trained for one round; returns (model, losses, seconds)."""
    model = fresh_model(w, inputs, seed)
    cfg = TrainConfig(**w.train, seed=seed)
    start = time.perf_counter()
    result = training.train(model, train_ds, cfg)
    return model, result.losses, time.perf_counter() - start


def timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def _cycles(seconds: float, more, body) -> None:
    """Run `body` until `seconds` are spent and `more()` is false.

    A cycle is started only when, by the mean cycle so far, at least half
    of it fits in the time left.
    """
    start = time.perf_counter()
    cycles = 0
    while True:
        body()
        cycles += 1
        elapsed = time.perf_counter() - start
        if not more() and elapsed + 0.5 * elapsed / cycles > seconds:
            return


# -- the run -----------------------------------------------------------------------


def run(w: Workload, seed: int, seconds: float, workdir: Path, size: str,
        tracer: tracing.Tracer | None = None) -> dict:
    """Set-up, then cycles of one training round, `infer_per_cycle` scorings
    and one `evaluate`, so that a slow spell of the machine is shared by
    every metric instead of landing on one phase."""
    inputs = make_inputs(w, seed, workdir / "inputs")
    ops = Operations(tracer)
    # the fixed-seed check runs first and doubles as the warm-up: lazy
    # allocation and first-touch costs land there, not in the timed work
    reference_check(w, workdir / "reference", size, ops)
    steps = w.train["steps"]
    setups, trained, infer_s, evals, aucs = [], [], [], [], []
    round_losses: list[list[float]] = []
    restore = tracing.install(tracer) if tracer is not None else None
    try:
        state = None

        def setup_once():
            nonlocal state
            out = ops.run("setup", lambda: timed(set_up, w, inputs, seed))
            if out is not None:
                state, dt = out
                setups.append(dt)

        _cycles(SETUP_SECONDS, lambda: len(setups) < SETUP_REPEATS, setup_once)
        if state is None:
            raise RuntimeError(f"every set-up failed: {ops.failures}")
        train_ds, test_ds, setup_model = state
        videos = test_ds.videos
        # paper-eval scores its loaded checkpoint; the others their latest trained model
        model = setup_model

        def same_as_first(losses):
            round_losses.append(losses)
            if _close(losses, round_losses[0], LOSS_RTOL, LOSS_ATOL):
                return []
            return ["loss trace differs between rounds of one run"]

        def cycle():
            nonlocal model
            if not w.checkpoint:
                model = setup_model  # one trained model alive at a time keeps peak RSS steady
            out = ops.run("train", lambda: train_unit(w, inputs, train_ds, seed),
                          lambda r: check_losses(r[1], steps) + same_as_first(r[1]))
            if out is not None:
                trained.append(out[2])
                if not w.checkpoint:
                    model = out[0]
            for _ in range(w.infer_per_cycle):
                video = videos[len(infer_s) % len(videos)]
                out = ops.run("infer", lambda: timed(model.score_video, video),
                              lambda r: check_bundle(r[0]))
                if out is not None:
                    infer_s.append(out[1])
            out = ops.run("eval", lambda: timed(evaluation.evaluate, model, test_ds),
                          lambda r: check_report(r[0], test_ds))
            if out is not None:
                evals.append(out[1])
                aucs.append(out[0].overall_auc)

        _cycles(seconds, lambda: len(infer_s) < MIN_INFER_SAMPLES, cycle)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if restore is not None:
            restore()
    ops.verify("eval", [] if _close(aucs, aucs[:1] * len(aucs), 0.0, AUC_ATOL)
               else ["test AUC differs between calls of one run"])

    tail_pct, tail_s = tail_percentile(infer_s)
    metrics = {
        "setup_s": statistics.median(setups),
        # throughputs are total work over total time: every cycle's share counts
        "train_pairs_per_s": steps * len(trained) / sum(trained),
        "infer_ms_p50": statistics.median(infer_s) * 1e3,
        "infer_ms_tail": tail_s * 1e3,
        "eval_videos_per_s": len(test_ds) * len(evals) / sum(evals),
        "peak_rss_mb": peak_rss_mb,
    }
    result = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(tracer is not None),
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "failures": ops.failures,
        "metrics": {name: {"value": value, "unit": E2E_UNITS[name]}
                    for name, value in metrics.items()},
        # checked against the reference, not bounded: see README.md
        "test_auc": aucs[0],
        "samples": {
            "setup": len(setups),
            "train_rounds": len(trained),
            "train_steps_per_round": steps,
            "infer": len(infer_s),
            "infer_tail_percentile": tail_pct,
            "eval_calls": len(evals),
            "test_videos": len(test_ds),
            "train_videos": len(train_ds),
        },
    }
    if tracer is not None:
        result["layers"] = {name: {"value": float(value), "unit": unit}
                            for name, (value, unit) in tracing.layer_metrics(tracer).items()}
    return result


# -- fixed-seed reference ------------------------------------------------------------


def reference_outputs(w: Workload, workdir: Path, ops: Operations) -> dict:
    """Loss trace of one training round and test AUC, both at REFERENCE_SEED."""
    inputs = make_inputs(w, REFERENCE_SEED, workdir)
    train_ds, test_ds, model = set_up(w, inputs, REFERENCE_SEED)
    out = {}
    trained = ops.run("reference", lambda: train_unit(w, inputs, train_ds, REFERENCE_SEED))
    if trained is not None:
        out["losses"] = trained[1]
        if not w.checkpoint:
            model = trained[0]
    report = ops.run("reference", lambda: evaluation.evaluate(model, test_ds))
    if report is not None:
        out["test_auc"] = report.overall_auc
    return out


def load_references() -> dict:
    return json.loads((BENCH / "references.json").read_text())


def reference_check(w: Workload, workdir: Path, size: str, ops: Operations) -> None:
    """Compare the fixed-seed outputs with the ones recorded at the seed commit."""
    expected = load_references()[w.name][size]
    got = reference_outputs(w, workdir, ops)
    ops.verify("reference", [] if _close(got.get("losses", []), expected["losses"],
                                         LOSS_RTOL, LOSS_ATOL)
               else [f"loss trace {got.get('losses')} != {expected['losses']}"])
    ops.verify("reference", [] if _close([got.get("test_auc", math.nan)],
                                         [expected["test_auc"]], 0.0, AUC_ATOL)
               else [f"test AUC {got.get('test_auc')} != {expected['test_auc']}"])


# -- environment ---------------------------------------------------------------------


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without dict-mode config
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _commit(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--record", action="store_true",
                        help="write the fixed-seed reference outputs instead of measuring")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    w = workloads(args.size)[args.workload]
    out = Path(args.out)
    workdir = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    try:
        if args.record:
            ops = Operations(None)
            doc = reference_outputs(w, workdir, ops)
            if ops.failures:
                raise RuntimeError(f"reference run failed: {ops.failures}")
        else:
            tracer = tracing.Tracer() if args.trace else None
            doc = run(w, args.seed, args.seconds, workdir, args.size, tracer)
            doc["environment"] = environment()
            if tracer is not None:
                spans = out.with_suffix(".spans.json")
                spans.write_text(json.dumps({
                    "ops": tracer.ops, "names": tracer.names, "starts": tracer.starts,
                    "ends": tracer.ends, "parents": tracer.parents, "span_ops": tracer.span_ops,
                    "counters": tracer.counters}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
