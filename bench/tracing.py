"""Spans recorded from outside the package, around module attributes.

`install(tracer)` replaces a fixed set of functions and methods of
`milvad` with wrappers that open a span on entry and close it on exit,
and returns a `restore` callable that puts every original object back.
Spans stay in memory in the `Tracer` until the run ends; nothing is
written while a workload is being measured.

A span has a name, start, end, parent span and operation id. The
operation id groups the spans of one benchmark operation (a training
round, one `score_video` call, one `evaluate` call, one set-up).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# (module, attribute, span name). Each attribute is looked up at call
# time by its caller inside the package, so replacing it on the module
# puts the wrapper on the call path.
FUNCTIONS = (
    ("milvad.data.manifest", "load_dataset", "data.load_dataset"),
    ("milvad.data.manifest", "read_feature", "data.read_feature"),
    ("milvad.model", "read_feature", "data.read_feature"),
    ("milvad.model", "scene_forward", "scene.forward"),
    ("milvad.model", "human_forward", "human.forward"),
    ("milvad.model", "segment_level_selection", "coupler.segment"),
    ("milvad.model", "video_level_selection", "coupler.video"),
    ("milvad.model", "fuse", "coupler.fuse"),
    ("milvad.scene", "temporal_downscale", "scene.downscale"),
    ("milvad.scene", "bottleneck", "scene.bottleneck"),
    ("milvad.scene", "scene_rank", "scene.ranker"),
    ("milvad.human", "select_tracklets", "human.select"),
    ("milvad.human", "relation_model", "human.relation"),
    ("milvad.human", "tracklet_rank", "human.ranker"),
    ("milvad.training", "backward", "tensor.backward"),
    ("milvad.training", "self_rectifying_loss", "losses.loss"),
    ("milvad.training", "classical_ranking_loss", "losses.loss"),
    ("milvad.evaluation", "evaluate", "evaluation.evaluate"),
    ("milvad.evaluation", "roc_auc", "evaluation.roc_auc"),
    ("milvad.evaluation", "expand_to_frames", "evaluation.expand"),
)

# (module, class, attribute, span name)
METHODS = (
    ("milvad.model", "AnomalyScorer", "forward", "model.forward"),
    ("milvad.model", "AnomalyScorer", "load", "model.load"),
    ("milvad.tensor", "Tape", "trace", "tensor.trace"),
    ("milvad.tensor", "Tape", "replay", "tensor.replay"),
    ("milvad.training", "Adam", "step", "training.adam"),
    # named scene.lstm or human.lstm after the stream span it runs in
    ("milvad.layers", "LstmParams", "apply", "lstm"),
)

# (per-layer metric, self-time metric, span name, seconds -> unit factor)
SPAN_METRICS = (
    ("data.load_dataset_s", "data.load_dataset_self_s", "data.load_dataset", 1.0),
    ("model.load_s", "model.load_self_s", "model.load", 1.0),
    ("model.forward_ms", "model.forward_self_ms", "model.forward", 1e3),
    ("scene.forward_ms", "scene.forward_self_ms", "scene.forward", 1e3),
    ("scene.downscale_ms", "scene.downscale_self_ms", "scene.downscale", 1e3),
    ("scene.bottleneck_ms", "scene.bottleneck_self_ms", "scene.bottleneck", 1e3),
    ("scene.lstm_ms", "scene.lstm_self_ms", "scene.lstm", 1e3),
    ("scene.ranker_ms", "scene.ranker_self_ms", "scene.ranker", 1e3),
    ("human.forward_ms", "human.forward_self_ms", "human.forward", 1e3),
    ("human.select_ms", "human.select_self_ms", "human.select", 1e3),
    ("human.relation_ms", "human.relation_self_ms", "human.relation", 1e3),
    ("human.lstm_ms", "human.lstm_self_ms", "human.lstm", 1e3),
    ("human.ranker_ms", "human.ranker_self_ms", "human.ranker", 1e3),
    ("coupler.segment_ms", "coupler.segment_self_ms", "coupler.segment", 1e3),
    ("coupler.video_ms", "coupler.video_self_ms", "coupler.video", 1e3),
    ("coupler.fuse_ms", "coupler.fuse_self_ms", "coupler.fuse", 1e3),
    ("losses.loss_ms", "losses.loss_self_ms", "losses.loss", 1e3),
    ("tensor.backward_ms", "tensor.backward_self_ms", "tensor.backward", 1e3),
    ("tensor.trace_ms", "tensor.trace_self_ms", "tensor.trace", 1e3),
    ("tensor.replay_ms", "tensor.replay_self_ms", "tensor.replay", 1e3),
    ("training.adam_ms", "training.adam_self_ms", "training.adam", 1e3),
    ("training.step_ms.scene", "training.step_self_ms.scene", "training.step.scene", 1e3),
    ("training.step_ms.human", "training.step_self_ms.human", "training.step.human", 1e3),
    ("training.step_ms.coupler", "training.step_self_ms.coupler", "training.step.coupler", 1e3),
    ("training.step_ms.joint", "training.step_self_ms.joint", "training.step.joint", 1e3),
    ("evaluation.roc_auc_ms", "evaluation.roc_auc_self_ms", "evaluation.roc_auc", 1e3),
    ("evaluation.expand_ms", "evaluation.expand_self_ms", "evaluation.expand", 1e3),
)

STREAMS = ("scene", "human")
PHASES = ("scene", "human", "coupler")


class Tracer:
    """In-memory span and counter store for one workload process.

    Spans are kept as columns (name, start, end, parent, operation), so the
    garbage collector tracks a handful of lists rather than one per span.
    A root span's parent is -1.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.span_ops: list[int] = []
        self.counters: list[tuple] = []  # (name, op, value)
        self.ops: list[str] = []         # op id -> operation kind
        self._stack: list[int] = []
        self._step: int | None = None

    def begin_op(self, kind: str) -> None:
        self.ops.append(kind)

    @property
    def op(self) -> int:
        return len(self.ops) - 1

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.span_ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        """Close span `index` and any span left open inside it."""
        end = self.clock()
        while self._stack:
            top = self._stack.pop()
            self.ends[top] = end
            if top == index:
                return

    def count(self, name: str, value: float) -> None:
        self.counters.append((name, self.op, value))

    def enclosing(self, prefixes) -> str | None:
        """First element of the innermost open span name among `prefixes`."""
        for index in reversed(self._stack):
            head = self.names[index].split(".", 1)[0]
            if head in prefixes:
                return head
        return None

    # -- training steps: open at Adam.zero_grad, close after Adam.step --------

    def begin_step(self, phase: str) -> None:
        if self._step is not None:
            self.close(self._step)
        self._step = self.open(f"training.step.{phase}")

    def end_step(self) -> None:
        if self._step is not None:
            self.close(self._step)
            self._step = None


def self_times(starts, ends, parents) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in zip(starts, ends, parents):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _span_wrapper(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(result)
        return result

    return wrapper


def _lstm_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(f"{tracer.enclosing(STREAMS) or 'scene'}.lstm")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return wrapper


def _phase_of(optimizer) -> str:
    groups = {name.split(".", 1)[0] for name in optimizer.params}
    return groups.pop() if len(groups) == 1 and groups <= set(PHASES) else "joint"


def _counters(tracer: Tracer) -> dict:
    def trace_counts(tape):
        tracer.count("tensor.tape_nodes", len(tape.nodes))
        tracer.count("tensor.tape_bytes", sum(node.data.nbytes for node in tape.nodes))

    return {
        "data.read_feature": lambda array: tracer.count("data.read_feature_bytes", array.nbytes),
        "tensor.trace": trace_counts,
        "evaluation.evaluate": lambda report: tracer.count("evaluation.frames", report.frames),
    }


def install(tracer: Tracer):
    """Put span wrappers on the package; returns a callable that removes them."""
    saved = []  # (owner, attribute, original object from owner.__dict__)
    after = _counters(tracer)

    def replace(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for module_name, attr, name in FUNCTIONS:
        module = importlib.import_module(module_name)
        replace(module, attr, _span_wrapper(tracer, name, getattr(module, attr), after.get(name)))
    for module_name, class_name, attr, name in METHODS:
        owner = getattr(importlib.import_module(module_name), class_name)
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapped = (_lstm_wrapper(tracer, fn) if name == "lstm"
                   else _span_wrapper(tracer, name, fn, after.get(name)))
        replace(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)

    adam = importlib.import_module("milvad.training").Adam
    zero_grad, step = adam.__dict__["zero_grad"], adam.__dict__["step"]

    @functools.wraps(zero_grad)
    def traced_zero_grad(self):
        tracer.begin_step(_phase_of(self))
        return zero_grad(self)

    @functools.wraps(step)
    def traced_step(self):
        try:
            return step(self)
        finally:
            tracer.end_step()

    replace(adam, "zero_grad", traced_zero_grad)
    replace(adam, "step", traced_step)

    def restore():
        while saved:
            owner, attr, original = saved.pop()
            setattr(owner, attr, original)

    return restore


MEASURED = ("setup", "train", "infer", "eval")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics, as {name: (value, unit)}, from the measured operations.

    Span metrics are medians per call; a span a workload never opens
    reads 0. Counts are per training step, per set-up or per `evaluate`
    call, as their names say.
    """
    measured = {op for op, kind in enumerate(tracer.ops) if kind in MEASURED}
    durations: dict[str, list[float]] = {}
    own: dict[str, list[float]] = {}
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    for name, start, end, op, self_time in zip(tracer.names, tracer.starts, tracer.ends,
                                               tracer.span_ops, selfs):
        if op in measured:
            durations.setdefault(name, []).append(end - start)
            own.setdefault(name, []).append(self_time)

    def med(values):
        return statistics.median(values) if values else 0.0

    out = {}
    for metric, self_metric, span, scale in SPAN_METRICS:
        unit = "s" if scale == 1.0 else "ms"
        out[metric] = (med(durations.get(span, [])) * scale, unit)
        out[self_metric] = (med(own.get(span, [])) * scale, unit)

    def per_op(kind, pairs):
        """Median over the operations of `kind` of the values summed per operation."""
        totals = {op: 0.0 for op in measured if tracer.ops[op] == kind}
        for op, value in pairs:
            if op in totals:
                totals[op] += value
        return med(list(totals.values()))

    def counted(name):
        return [(op, value) for n, op, value in tracer.counters if n == name]

    def calls(name):
        return [(op, 1) for n, op in zip(tracer.names, tracer.span_ops) if n == name]

    train_ops = {op for op in measured if tracer.ops[op] == "train"}
    nodes = [v for op, v in counted("tensor.tape_nodes") if op in train_ops]
    tape_bytes = [v for op, v in counted("tensor.tape_bytes") if op in train_ops]
    out["tensor.tape_nodes_per_step"] = (statistics.fmean(nodes) if nodes else 0.0, "count")
    out["tensor.tape_mb_per_step"] = (statistics.fmean(tape_bytes) / 1e6 if tape_bytes else 0.0, "MB")
    out["data.read_feature_calls"] = (per_op("setup", calls("data.read_feature")), "count")
    out["data.read_feature_mb"] = (per_op("setup", counted("data.read_feature_bytes")) / 1e6, "MB")
    out["evaluation.roc_auc_calls"] = (per_op("eval", calls("evaluation.roc_auc")), "count")
    out["evaluation.frames"] = (per_op("eval", counted("evaluation.frames")), "count")
    return out
