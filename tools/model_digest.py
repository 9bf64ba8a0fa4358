"""Print one SHA-256 per (workload, seed) over what a checkout's models compute.

    python3 tools/model_digest.py --root <checkout>

Each digest covers, bit for bit, what one fit of a perfbench workload at
one of SEEDS produces on the sources of the checkout at --root (default:
the checkout holding this script).  A batch digest covers every array and
number of the fitted model, serving maps included, and the labels predicted
for the held-out requests.  A stream digest covers the boot model and the
first STREAM_STEPS predict/partial_fit steps: each step's labels and the final
model.  A refactor that claims to change no number prints the same lines
for the parent checkout and its own.

The inputs come from perfbench's own WORKLOADS, make_inputs and
model_arrays, imported from --root, so both checkouts see their own
workloads.  BLAS runs on one thread, as in perfbench, so its rounding does
not depend on the machine's core count.
"""

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path

STREAM_STEPS = 50
SEEDS = (1, 2, 7)


def load(root):
    """Put the checkout's src/ and perfbench/ first on sys.path and import."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for sub in ("perfbench", "src"):
        sys.path.insert(0, str(root / sub))
    import hoselm.pipeline as hp
    import workloads as wl

    return hp, wl


def digest(arrays):
    """SHA-256 over each array's dtype, shape and bytes, in order."""
    import numpy as np

    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def batch_arrays(hp, wl, inputs):
    import numpy as np

    model = hp.fit(inputs.train, inputs.train_targets, inputs.config)
    labels = np.concatenate([hp.predict(model, r) for r in inputs.requests])
    return wl.model_arrays(model) + [labels]


def stream_arrays(hp, wl, inputs):
    model = hp.fit(inputs.train, inputs.train_targets, inputs.config)
    arrays = wl.model_arrays(model)
    steps = zip(inputs.requests[:STREAM_STEPS], inputs.request_targets)
    for request, targets in steps:
        arrays.append(hp.predict(model, request))
        model = hp.partial_fit(model, request, targets)
    return arrays + wl.model_arrays(model)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "hoselm").is_dir() or not (root / "perfbench").is_dir():
        parser.error(f"{root} holds no src/hoselm and perfbench/")
    hp, wl = load(root)
    start = time.perf_counter()
    for name, spec in wl.WORKLOADS.items():
        arrays = batch_arrays if spec.mode == "batch" else stream_arrays
        for seed in SEEDS:
            print(f"{name} seed={seed} {digest(arrays(hp, wl, wl.make_inputs(spec, seed)))}")
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
