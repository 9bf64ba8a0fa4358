"""The benchmark's workloads: inputs built from a seed, a closed loop, checks.

One client calls the library and waits for each call to return before it
sends the next, so for this synchronous library the closed-loop rate is the
sustainable rate.  Every call is timed from outside the library.

A batch cycle is one ``fit`` on the training columns followed by
``predict_passes`` passes over the held-out columns in fixed-size
``predict`` requests.  A stream cycle is one boot ``fit`` on the first block
followed by test-then-train over the remaining columns: ``predict`` a chunk,
then ``partial_fit`` it.
"""

import importlib
import time
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

import hoselm.extractor
import hoselm.pipeline as hp
from hoselm.data import one_hot, split, synth_blobs
from hoselm.pipeline import FeatureGroup, PipelineConfig

# Acceptance bound of sequential-equals-batch in the library's own suite.
READOUT_TOLERANCE = 1e-6

# The package re-exports the function combine under the submodule's name.
COMBINE = importlib.import_module("hoselm.combine")


@dataclass(frozen=True)
class Spec:
    """Shape of one workload.

    widths are the input rows of each feature group.  For a batch workload
    train_cols are the training columns and eval_cols the held-out columns,
    served in predict requests of request_cols.  For a stream workload
    train_cols is the boot block and eval_cols the streamed columns, fed in
    chunks of request_cols.  mpcr_floor is the lowest mean per-class
    recognition rate the run accepts.
    """

    name: str
    mode: str
    widths: tuple
    subspace_dim: int
    operator: str
    spread: float
    train_cols: int
    eval_cols: int
    request_cols: int
    mpcr_floor: float
    predict_passes: int = 1
    node_count: int = 3
    classifier_nodes: int = 10
    classes: int = 10


WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec(
            name="batch_plus",
            mode="batch",
            widths=(256,),
            subspace_dim=200,
            operator="plus",
            spread=0.3,
            train_cols=5000,
            eval_cols=5000,
            request_cols=64,
            mpcr_floor=0.8,
            predict_passes=12,
        ),
        Spec(
            name="batch_concat",
            mode="batch",
            widths=(32, 64, 128),
            subspace_dim=100,
            operator="concat",
            spread=0.5,
            train_cols=5000,
            eval_cols=5000,
            request_cols=64,
            mpcr_floor=0.8,
            predict_passes=12,
        ),
        Spec(
            name="stream_prequential",
            mode="sequential",
            widths=(64,),
            subspace_dim=200,
            operator="plus",
            spread=0.3,
            train_cols=1000,
            eval_cols=9000,
            request_cols=20,
            mpcr_floor=0.8,
        ),
    )
}


class WorkloadError(RuntimeError):
    """A library call failed; the run stops and reports it."""


class Ledger:
    """Counts calls and checks attempted and failed, and times calls."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, fn, *args):
        """Run one library call; return (result, seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:
            self.failed += 1
            self.problems.append(f"{fn.__name__} raised {exc!r}")
            raise WorkloadError(self.problems[-1]) from exc
        return out, time.perf_counter() - start

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"check failed: {what}")


@dataclass
class Inputs:
    """Everything a cycle needs, built from the seed alone.

    train/train_targets are the training set (batch) or boot block
    (stream); requests are the held-out slices (batch) or stream chunks,
    request_targets their one-hot targets (stream only); request_labels are
    the true labels of the request columns in order; everything/targets hold
    every column a stream cycle learns, boot included.
    """

    config: PipelineConfig
    train: list
    train_targets: np.ndarray
    requests: list
    request_targets: list
    request_labels: np.ndarray
    held_out: list = None
    everything: list = None
    targets: np.ndarray = None


@dataclass
class Samples:
    """Call durations in seconds.

    passes holds (columns, predict seconds, step seconds) for each pass over
    the requests: one held-out pass (batch) or one stream (stream).
    """

    fit: list = field(default_factory=list)
    predict: list = field(default_factory=list)
    step: list = field(default_factory=list)
    passes: list = field(default_factory=list)

    def end_pass(self, requests, columns):
        """Close a pass over the last `requests` requests."""
        self.passes.append(
            (columns, sum(self.predict[-requests:]), sum(self.step[-requests:]))
        )


@dataclass
class Reference:
    """First model and predictions of a run; later cycles must repeat them."""

    model: object = None
    labels: np.ndarray = None


def _slice(groups, lo, hi):
    return [FeatureGroup(x=np.ascontiguousarray(g.x[:, lo:hi]), name=g.name) for g in groups]


def make_groups(spec, seed):
    """Feature groups that are independent noisy views of one label vector."""
    per_class = (spec.train_cols + spec.eval_cols) // spec.classes
    group_seeds = np.random.SeedSequence(seed).generate_state(len(spec.widths))
    groups = []
    labels = order = None
    for width, group_seed in zip(spec.widths, group_seeds):
        g, own = synth_blobs(spec.classes, per_class, width, spec.spread, int(group_seed))
        if labels is None:
            labels, order = own, np.argsort(own, kind="stable")
            x = g.x
        else:
            # Move this group's samples onto the columns of the first group's
            # samples of the same class.
            x = np.empty_like(g.x)
            x[:, order] = g.x[:, np.argsort(own, kind="stable")]
        groups.append(FeatureGroup(x=x, name=f"g{len(groups)}w{width}"))
    return groups, labels


def make_inputs(spec, seed):
    groups, labels = make_groups(spec, seed)
    config = PipelineConfig(
        node_count=spec.node_count,
        subspace_dim=spec.subspace_dim,
        operator=spec.operator,
        classifier_nodes=spec.classifier_nodes,
        mode=spec.mode,
        seed=seed,
    )
    step = spec.request_cols
    if spec.mode == "batch":
        (train, train_labels), (held_out, held_labels) = split(
            groups, labels, spec.train_cols // spec.classes, seed=seed
        )
        cols = len(held_labels)
        return Inputs(
            config=config,
            train=train,
            train_targets=one_hot(train_labels, spec.classes),
            requests=[_slice(held_out, lo, lo + step) for lo in range(0, cols, step)],
            request_targets=None,
            request_labels=held_labels,
            held_out=held_out,
        )
    targets = one_hot(labels, spec.classes)
    boot = spec.train_cols
    cols = len(labels)
    return Inputs(
        config=config,
        train=_slice(groups, 0, boot),
        train_targets=targets[:, :boot],
        requests=[_slice(groups, lo, lo + step) for lo in range(boot, cols, step)],
        request_targets=[
            np.ascontiguousarray(targets[:, lo : lo + step]) for lo in range(boot, cols, step)
        ],
        request_labels=labels[boot:],
        everything=groups,
        targets=targets,
    )


def model_arrays(obj):
    """Every array and number a fitted model holds, in a fixed order."""
    if is_dataclass(obj):
        return [a for f in fields(obj) for a in model_arrays(getattr(obj, f.name))]
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in model_arrays(item)]
    if isinstance(obj, (np.ndarray, float, int)):
        return [np.asarray(obj)]
    return []


def same_arrays(a, b):
    xs, ys = model_arrays(a), model_arrays(b)
    return len(xs) == len(ys) and all(
        x.shape == y.shape and np.array_equal(x, y) for x, y in zip(xs, ys)
    )


def readout_error(model, groups, targets):
    """Relative distance of a sequential readout from the batch ridge solution.

    The reference is beta = (I/C + H H')^-1 H T' over every column in
    groups, with H built by the public projection and combiner on the
    model's frozen extractors.
    """
    feats = [
        hoselm.extractor.project(node, g.x)
        for nodes, g in zip(model.extractors, groups)
        for node in nodes
    ]
    h = COMBINE.combine(feats, model.combine_spec)
    ridge = np.eye(h.shape[0]) / model.readout.coeff + h @ h.T
    beta = np.linalg.solve(ridge, h @ targets.T)
    scale = max(float(np.linalg.norm(beta)), 1e-300)
    return float(np.linalg.norm(model.readout.beta - beta)) / scale


def batch_cycle(inputs, ref, ledger, samples, passes):
    model, seconds = ledger.call(hp.fit, inputs.train, inputs.train_targets, inputs.config)
    samples.fit.append(seconds)
    if ref.model is None:
        ref.model = model
    else:
        ledger.check(same_arrays(model, ref.model), "a repeated fit changed the model arrays")
    for _ in range(passes):
        labels = []
        for request in inputs.requests:
            out, seconds = ledger.call(hp.predict, model, request)
            samples.predict.append(seconds)
            samples.step.append(seconds)
            labels.append(out)
        labels = np.concatenate(labels)
        samples.end_pass(len(inputs.requests), len(labels))
        if ref.labels is None:
            ref.labels = labels
        else:
            ledger.check(np.array_equal(labels, ref.labels), "predictions changed between passes")


def stream_cycle(inputs, ref, ledger, samples, passes=1):
    model, seconds = ledger.call(hp.fit, inputs.train, inputs.train_targets, inputs.config)
    samples.fit.append(seconds)
    labels = []
    for request, targets in zip(inputs.requests, inputs.request_targets):
        out, read = ledger.call(hp.predict, model, request)
        model, write = ledger.call(hp.partial_fit, model, request, targets)
        samples.predict.append(read)
        samples.step.append(read + write)
        labels.append(out)
    labels = np.concatenate(labels)
    samples.end_pass(len(inputs.requests), len(labels))
    fed = inputs.targets.shape[1]
    ledger.check(model.readout.seen == fed, f"seen is {model.readout.seen}, {fed} columns were fed")
    error = readout_error(model, inputs.everything, inputs.targets)
    ledger.check(
        error <= READOUT_TOLERANCE,
        f"streamed readout is {error:.3g} from the batch ridge solution "
        f"(bound {READOUT_TOLERANCE:g})",
    )
    if ref.model is None:
        ref.model, ref.labels = model, labels
    else:
        ledger.check(same_arrays(model, ref.model), "a repeated stream changed the model arrays")
        ledger.check(np.array_equal(labels, ref.labels), "predictions changed between streams")


CYCLES = {"batch": batch_cycle, "sequential": stream_cycle}


def measure(spec, inputs, ref, ledger, seconds=None, cycles=None, min_cycles=3):
    """Run cycles for `seconds` (at least min_cycles), or exactly `cycles`."""
    samples = Samples()
    start = time.perf_counter()
    done = 0

    def more():
        if cycles is not None:
            return done < cycles
        return done < min_cycles or time.perf_counter() - start < seconds

    while more():
        CYCLES[spec.mode](inputs, ref, ledger, samples, spec.predict_passes)
        done += 1
    return samples, done


def warm_up(spec, seed, ref, ledger):
    """Set-up: build the inputs and run one cycle, which fills the reference."""
    inputs = make_inputs(spec, seed)
    CYCLES[spec.mode](inputs, ref, ledger, Samples(), 1)
    return inputs


def final_checks(spec, inputs, ref, ledger):
    """Checks on the reference outputs; returns the mean per-class rate."""
    if spec.mode == "batch":
        whole, _ = ledger.call(hp.predict, ref.model, inputs.held_out)
        ledger.check(
            np.array_equal(whole, ref.labels),
            "request-sliced predictions differ from one whole-set predict",
        )
    mpcr = hp.classification_metrics(inputs.request_labels, ref.labels, spec.classes)[2]
    ledger.check(mpcr >= spec.mpcr_floor, f"mpcr {mpcr:.4f} is below the floor {spec.mpcr_floor}")
    return mpcr
