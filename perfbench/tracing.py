"""Span recording around hoselm's layer boundaries, from outside the library.

The tracer swaps module attributes for timing wrappers for the duration of a
``with`` block and restores them afterwards.  Each wrapper is installed under
the name its caller looks up at call time (``hoselm.pipeline.extract_features``
for the pipeline's call into the extractor, ``hoselm.extractor.pinv`` for the
extractor's call into the kernels), so no file of the library changes.

A span is (id, parent, request, name, start_ns, end_ns, ok, out_bytes).  Spans
are recorded only inside a root call (``pipeline.fit``, ``pipeline.predict``,
``pipeline.partial_fit``); each root call opens a new request id.  Spans stay
in memory until the run writes them out.
"""

import functools
import importlib
import time

import hoselm.classifier
import hoselm.extractor
import hoselm.kernels
import hoselm.oselm
import hoselm.pipeline

ROOTS = ("pipeline.fit", "pipeline.predict", "pipeline.partial_fit")
REQUEST_ROOTS = ("pipeline.predict", "pipeline.partial_fit")

# The package re-exports the function combine under the submodule's name.
COMBINE = importlib.import_module("hoselm.combine")

# (module, attribute looked up by the caller, span name).  The layer of a span
# is the part of its name before the first dot.
POINTS = (
    (hoselm.pipeline, "fit", "pipeline.fit"),
    (hoselm.pipeline, "predict", "pipeline.predict"),
    (hoselm.pipeline, "partial_fit", "pipeline.partial_fit"),
    (hoselm.pipeline, "extract_features", "extractor.extract"),
    (hoselm.pipeline, "project", "extractor.project"),
    (hoselm.extractor, "project", "extractor.project"),
    (hoselm.extractor, "ls_readout", "extractor.readout"),
    (hoselm.extractor, "error_feedback", "extractor.feedback"),
    (hoselm.extractor, "refine_node", "extractor.refine"),
    (hoselm.extractor, "pinv", "extractor.pinv"),
    (hoselm.pipeline, "combine", "combine.combine"),
    (hoselm.pipeline, "fit_classifier", "classifier.fit"),
    (hoselm.classifier, "fit_node", "classifier.node"),
    (hoselm.classifier, "ridge_inverse", "classifier.ridge"),
    (hoselm.pipeline, "classifier_score", "classifier.score"),
    (hoselm.pipeline, "decode_labels", "classifier.decode"),
    (hoselm.pipeline, "os_boot", "oselm.boot"),
    (hoselm.pipeline, "os_update", "oselm.update"),
    (hoselm.pipeline, "os_predict", "oselm.predict"),
    (hoselm.oselm, "ridge_inverse", "oselm.ridge"),
) + tuple(
    (module, "as_matrix", "kernels.as_matrix")
    for module in (
        hoselm.kernels,
        hoselm.extractor,
        COMBINE,
        hoselm.classifier,
        hoselm.oselm,
        hoselm.pipeline,
    )
)

FIELDS = ("id", "parent", "request", "name", "start_ns", "end_ns", "ok", "out_bytes")
ID, PARENT, REQUEST, NAME, START, END, OK, OUT_BYTES = range(len(FIELDS))


class Tracer:
    """Records spans while active; use as a context manager."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._request = 0
        self._saved = []

    def _wrap(self, fn, name):
        root = name in ROOTS
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack and not root:
                return fn(*args, **kwargs)
            if not stack:
                self._request += 1
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            out = None
            ok = False
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                nbytes = getattr(out, "nbytes", 0) if name == "combine.combine" else 0
                spans[sid] = (sid, parent, self._request, name, start, end, ok, nbytes)

        return traced

    def __enter__(self):
        for module, attr, name in POINTS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False


def self_times(spans):
    """Per-span self time in seconds: duration minus time covered by children.

    Calls are synchronous, so children of one span never overlap and the
    covered time is the sum of their durations.
    """
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [(s[END] - s[START] - child[s[ID]]) * 1e-9 for s in spans]


def layer_of(name):
    return name.split(".", 1)[0]


def summarize(spans, classifier_nodes):
    """Per-layer metrics, self-time shares per root kind, root call counts,
    and the sum of all self times.

    Each metric maps to (value, unit, what it is divided by).  Shares map a
    root name to the self time of each layer under roots of that name, in
    seconds.
    """
    root_of = {s[REQUEST]: s[NAME] for s in spans if s[PARENT] < 0}
    roots = list(root_of.values())
    calls = {name: roots.count(name) for name in ROOTS}
    fits = calls["pipeline.fit"]
    predicts = calls["pipeline.predict"]
    updates = calls["pipeline.partial_fit"]
    requests = predicts + updates
    selfs = self_times(spans)

    total, count, nbytes = {}, {}, {}
    shares = {name: {} for name in ROOTS}
    nodes_ok = 0
    for s, own in zip(spans, selfs):
        root = root_of[s[REQUEST]]
        key = (root, s[NAME])
        total[key] = total.get(key, 0.0) + (s[END] - s[START]) * 1e-9
        count[key] = count.get(key, 0) + 1
        nbytes[key] = nbytes.get(key, 0) + s[OUT_BYTES]
        nodes_ok += s[NAME] == "classifier.node" and s[OK]
        layer = layer_of(s[NAME])
        shares[root][layer] = shares[root].get(layer, 0.0) + own

    def per(n, d):
        return n / d if d else 0.0

    def summed(table, name, roots):
        return sum(table.get((root, name), 0) for root in roots)

    def per_fit(table, name):
        return per(summed(table, name, ("pipeline.fit",)), fits)

    def per_request(table, name):
        return per(summed(table, name, REQUEST_ROOTS), requests)

    root_self = sum(shares[root].get("pipeline", 0.0) for root in REQUEST_ROOTS)
    fit, request = "per fit", "per request (predict or partial_fit)"
    predict, update = "per predict", "per partial_fit"
    metrics = {
        "extractor.s": (per_fit(total, "extractor.extract"), "s", fit),
        "extractor.pinv_s": (per_fit(total, "extractor.pinv"), "s", fit),
        "extractor.pinv_calls": (per_fit(count, "extractor.pinv"), "count", fit),
        "extractor.readout_s": (per_fit(total, "extractor.readout"), "s", fit),
        "extractor.feedback_s": (per_fit(total, "extractor.feedback"), "s", fit),
        "extractor.refine_s": (per_fit(total, "extractor.refine"), "s", fit),
        "extractor.project_s": (per_fit(total, "extractor.project"), "s", fit),
        "extractor.project_calls": (per_fit(count, "extractor.project"), "count", fit),
        "classifier.fit_s": (per_fit(total, "classifier.fit"), "s", fit),
        "classifier.node_s": (
            per(summed(total, "classifier.node", ("pipeline.fit",)), nodes_ok),
            "s",
            "per fitted classifier node",
        ),
        "classifier.ridge_s": (per_fit(total, "classifier.ridge"), "s", fit),
        "classifier.nodes_fitted": (per(nodes_ok, fits), "count", fit),
        "classifier.node_yield": (
            per(nodes_ok, fits * classifier_nodes),
            "ratio",
            "nodes fitted / nodes asked",
        ),
        "classifier.score_s": (
            per(total.get(("pipeline.predict", "classifier.score"), 0.0), predicts),
            "s",
            predict,
        ),
        "combine.s": (per_request(total, "combine.combine"), "s", request),
        "combine.calls": (per_request(count, "combine.combine"), "count", request),
        "combine.out_mb": (per_request(nbytes, "combine.combine") / 1e6, "MB", request),
        "oselm.boot_s": (per_fit(total, "oselm.boot"), "s", fit),
        "oselm.update_s": (
            per(total.get(("pipeline.partial_fit", "oselm.update"), 0.0), updates),
            "s",
            update,
        ),
        "oselm.update_calls": (
            per(count.get(("pipeline.partial_fit", "oselm.update"), 0), updates),
            "count",
            update,
        ),
        "oselm.predict_s": (
            per(total.get(("pipeline.predict", "oselm.predict"), 0.0), predicts),
            "s",
            predict,
        ),
        "kernels.as_matrix_calls": (per_request(count, "kernels.as_matrix"), "count", request),
        "kernels.as_matrix_s": (per_request(total, "kernels.as_matrix"), "s", request),
        "kernels.ridge_inverse_calls": (
            per_fit(count, "classifier.ridge") + per_fit(count, "oselm.ridge"),
            "count",
            fit,
        ),
        "pipeline.self_s": (per(root_self, requests), "s", request),
    }
    return metrics, shares, calls, sum(selfs)
