"""Sequential readout in the basis of the input maps' range.

A sequential model's combined feature is H = B [x_1; ...; x_G; 1], so every
column lies in the range of B.  The readout runs recursive least squares on
the coordinates Y = U'H in an orthonormal basis U of that range and keeps
beta = U gamma.  These tests hold that readout to the D-space recursion on
the formed H, to an lstsq ridge reference, and to the batch ridge solution
over a long stream, and pin that a sequential fit neither combines the
features nor inverts a D x D matrix.
"""

import importlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import lu_update
from scipy.linalg import solve_triangular

import hoselm.kernels
import hoselm.oselm
import hoselm.pipeline
from hoselm.extractor import factor_inputs, project
from hoselm.oselm import os_update
from hoselm.pipeline import FeatureGroup, PipelineConfig, fit, partial_fit, predict

# The package re-exports the function combine under the submodule's name.
combine_module = importlib.import_module("hoselm.combine")


def rel_err(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


def combined_feature(model, groups):
    feats = [project(n, g.x) for nodes, g in zip(model.extractors, groups) for n in nodes]
    return combine_module.combine(feats, model.combine_spec)


def ridge_lstsq(h, t, coeff):
    """Ridge accumulator and weights from the thin QR of [H'; I/sqrt(c)] = Q R:
    p = (I/c + H H')^-1 = R^-1 R^-T and beta = R^-1 Q'[T'; 0]."""
    dim, samples = h.shape
    q, r = np.linalg.qr(np.vstack((h.T, np.eye(dim) / np.sqrt(coeff))))
    r_inv = solve_triangular(r, np.eye(dim))
    return r_inv @ r_inv.T, r_inv @ (q[:samples].T @ t.T)


def d_space_rls(h, t, coeff, chunk):
    """The recursion in feature coordinates on the formed D x M feature:
    the ridge_lstsq boot, then the inversion lemma on the D x D
    accumulator per chunk."""
    p, beta = ridge_lstsq(h[:, :chunk], t[:, :chunk], coeff)
    p = (p + p.T) / 2.0
    for lo in range(chunk, h.shape[1], chunk):
        hc, tc = h[:, lo : lo + chunk], t[:, lo : lo + chunk]
        ph = p @ hc
        p = p - ph @ np.linalg.solve(np.eye(hc.shape[1]) + hc.T @ ph, ph.T)
        p = (p + p.T) / 2.0
        beta = beta + p @ hc @ (tc.T - hc.T @ beta)
    return p, beta


@st.composite
def sequential_fits(draw):
    """Groups, soft targets and a sequential config.

    Subspaces reach past the stacked inputs, inputs may share a row across
    groups, hold a constant row or carry an offset up to 1e3, and the boot
    chunk may hold fewer samples than k or a single one.  Soft targets are
    nonzero everywhere, so any boot chunk holds every class.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    samples = draw(st.integers(2, 40))
    offset = draw(st.sampled_from([0.0, 1.0, 1e2, 1e3]))
    xs = [rng.standard_normal((n, samples)) + offset for n in widths]
    if len(xs) > 1 and draw(st.booleans()):
        xs[-1][0] = xs[0][0]
    if draw(st.booleans()):
        xs[0][-1] = offset + 1.0
    classes = draw(st.integers(1, 4))
    targets = rng.uniform(0.1, 1.0, (classes, samples))
    cfg = PipelineConfig(
        node_count=draw(st.integers(1, 3)),
        subspace_dim=draw(st.integers(1, 12)),
        operator=draw(st.sampled_from(["plus", "concat"])),
        gamma=draw(st.floats(-2.0, 2.0).filter(lambda g: g != 1.0)),
        coeff=draw(st.sampled_from([1.0, 100.0])),
        mode="sequential",
        chunk_size=draw(st.sampled_from([1, 2, 5, samples])),
        seed=draw(st.integers(0, 100)),
    )
    return [FeatureGroup(x=x) for x in xs], targets, cfg


@given(sequential_fits())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_basis_readout_equals_d_space_recursion(case):
    """beta and the D x D accumulator U P U' + c (I - U U') of the basis
    readout agree with the D-space recursion on the formed H within 1e-6.

    The reference boots from an lstsq-grade ridge solve, not from the
    explicit inverse of I/c + H H': at input offsets near 1e3 that inverse
    alone lands up to ~3e-5 from the lstsq solution, while the basis
    readout stays within ~1e-7 of it."""
    groups, targets, cfg = case
    model = fit(groups, targets, cfg)
    h = combined_feature(model, groups)
    want_p, want_beta = d_space_rls(h, targets, cfg.coeff, cfg.chunk_size)
    s = model.readout
    u = s.basis
    assert u.shape == (h.shape[0], min(h.shape[0], sum(g.x.shape[0] for g in groups) + 1))
    assert np.allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)
    assert s.beta.shape == want_beta.shape
    assert rel_err(s.beta, want_beta) < 1e-6
    p_d = u @ s.p @ u.T + cfg.coeff * (np.eye(u.shape[0]) - u @ u.T)
    assert rel_err(p_d, want_p) < 1e-6


def test_boot_with_large_input_offset_matches_lstsq():
    """Single-group plus fits with D <= n + 1 and inputs offset by 1e3: the
    sequential boot's fitted values H'beta land within 1e-9 relative of the
    lstsq ridge solution of [H'; I/sqrt(c)] beta = [T'; 0].  An explicit
    inverse of I/c + H H' squares H's condition number and misses by up to
    5e-7 on these cases."""
    rng = np.random.default_rng(0)
    coeff = 100.0
    worst = 0.0
    for seed in range(120):
        n = int(rng.integers(1, 8))
        samples = int(rng.integers(5, 60))
        x = rng.standard_normal((n, samples)) + 1e3
        targets = np.eye(3)[:, np.arange(samples) % 3]
        cfg = PipelineConfig(
            node_count=int(rng.integers(1, 4)),
            subspace_dim=int(rng.integers(1, n + 2)),
            mode="sequential",
            coeff=coeff,
            seed=seed,
        )
        groups = [FeatureGroup(x=x)]
        model = fit(groups, targets, cfg)
        h = combined_feature(model, groups)
        dim = h.shape[0]
        assert dim <= n + 1
        a = np.vstack((h.T, np.eye(dim) / np.sqrt(coeff)))
        b = np.vstack((targets.T, np.zeros((dim, 3))))
        want = h.T @ np.linalg.lstsq(a, b, rcond=None)[0]
        worst = max(worst, rel_err(h.T @ model.readout.beta, want))
    assert worst < 1e-9


@pytest.fixture
def inversions(monkeypatch):
    """Records combine calls, and the square shapes of the operands passed
    to the dense inverse, solve and factorization routines the package
    uses: numpy's, and the Cholesky factor and triangular solve
    hoselm.oselm takes of each chunk's gain."""
    calls = {"combine": 0, "square": [], "called": set()}

    def counted_combine(fn):
        def wrapped(*args, **kwargs):
            calls["combine"] += 1
            return fn(*args, **kwargs)

        return wrapped

    for module in (combine_module, hoselm.pipeline):
        monkeypatch.setattr(module, "combine", counted_combine(module.combine))

    def recorded(name, fn):
        def wrapped(*args, **kwargs):
            calls["called"].add(name)
            for a in args:
                if isinstance(a, np.ndarray) and a.ndim == 2 and a.shape[0] == a.shape[1]:
                    calls["square"].append(a.shape[0])
            return fn(*args, **kwargs)

        return wrapped

    for name in ("inv", "solve", "pinv"):
        monkeypatch.setattr(np.linalg, name, recorded(name, getattr(np.linalg, name)))
    for name in ("dpotrf", "dtrsm"):
        monkeypatch.setattr(hoselm.oselm, name, recorded(name, getattr(hoselm.oselm, name)))
    return calls


@pytest.mark.parametrize(
    "operator, widths, subspace_dim",
    [("plus", (5,), 12), ("plus", (9,), 7), ("concat", (3, 4), 5)],
)
def test_sequential_fit_combines_nothing_and_inverts_no_d_by_d(
    inversions, operator, widths, subspace_dim
):
    rng = np.random.default_rng(3)
    samples = 90
    groups = [FeatureGroup(x=rng.standard_normal((n, samples))) for n in widths]
    targets = np.eye(3)[:, np.arange(samples) % 3]
    cfg = PipelineConfig(
        node_count=2, subspace_dim=subspace_dim, operator=operator, mode="sequential", chunk_size=11
    )
    model = fit(groups, targets, cfg)
    partial_fit(model, groups, targets)
    dim = model.readout.beta.shape[0]
    assert dim == subspace_dim * (2 * len(widths) if operator == "concat" else 1)
    assert dim not in (11, samples % 11, samples)
    assert inversions["combine"] == 0
    assert {"dpotrf", "dtrsm"} <= inversions["called"]
    assert inversions["square"], "the spies saw no inverse, solve or factorization at all"
    assert dim not in inversions["square"]


def test_a_stream_of_steps_never_forms_beta():
    """predict and partial_fit run on gamma alone: after 50 test-then-train
    steps the readout holds no beta, and its first read is U gamma, cached."""
    rng = np.random.default_rng(8)
    labels = rng.permutation(np.repeat(np.arange(4), 300))
    x = np.eye(6, 4)[:, labels] + 0.3 * rng.standard_normal((6, labels.size))
    targets = np.eye(4)[:, labels]
    cfg = PipelineConfig(node_count=2, subspace_dim=10, mode="sequential", chunk_size=40)
    model = fit([FeatureGroup(x=x[:, :200])], targets[:, :200], cfg)
    for lo in range(200, 1200, 20):
        chunk = [FeatureGroup(x=x[:, lo : lo + 20])]
        predict(model, chunk)
        model = partial_fit(model, chunk, targets[:, lo : lo + 20])
    state = model.readout
    assert state.seen == 1200
    assert "beta" not in vars(state)
    beta = state.beta
    assert np.array_equal(beta, state.basis @ state.gamma)
    assert state.beta is beta


def test_sequential_fit_without_later_chunks_leaves_p_exactly_symmetric():
    """A sequential fit on one boot chunk hands back os_boot's p as it is,
    symmetric by construction."""
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 3, 80)
    x = rng.standard_normal((4, 3))[:, labels] + 0.5 * rng.standard_normal((4, 80))
    cfg = PipelineConfig(node_count=2, subspace_dim=8, mode="sequential")
    model = fit([FeatureGroup(x=x)], np.eye(3)[:, labels], cfg)
    assert model.readout.seen == 80
    assert np.array_equal(model.readout.p, model.readout.p.T)


@pytest.mark.parametrize("chunk", [1, 7])
def test_long_stream_stays_on_the_batch_ridge_solution(chunk):
    """10^5 streamed columns at small shapes: beta stays within 1e-6 of the
    batch ridge solution, and the accumulator stays exactly symmetric and
    positive definite at every checkpoint.  The chunks go straight to
    os_update on the model's basis coordinates, which is partial_fit
    without its per-call input checks."""
    rng = np.random.default_rng(chunk)
    samples = 100_000
    classes = 3
    labels = rng.integers(0, classes, samples)
    centers = rng.standard_normal((4, classes))
    groups = [FeatureGroup(x=centers[:, labels] + 0.5 * rng.standard_normal((4, samples)))]
    targets = np.eye(classes)[:, labels]
    boot = 60
    cfg = PipelineConfig(node_count=2, subspace_dim=8, mode="sequential", chunk_size=boot)
    model = fit([FeatureGroup(x=groups[0].x[:, :boot])], targets[:, :boot], cfg)
    y = model.maps.apply([groups[0].x])
    state = model.readout
    checkpoints = set(np.linspace(boot, samples, 5, dtype=int)[1:])
    for lo in range(boot, samples, chunk):
        hi = min(lo + chunk, samples)
        state = os_update(state, y[:, lo:hi], targets[:, lo:hi])
        if hi in checkpoints or hi == samples:
            assert np.array_equal(state.p, state.p.T)
            assert np.linalg.eigvalsh(state.p).min() > 0
    assert state.seen == samples
    h = combined_feature(model, groups)
    want = np.linalg.solve(np.eye(h.shape[0]) / cfg.coeff + h @ h.T, h @ targets.T)
    assert rel_err(state.beta, want) < 1e-6


def test_many_classes_boot_on_fewer_columns_than_k_then_tiny_chunks():
    """20 classes and a boot chunk of one column per class, M = 20 below
    k = 31, then chunks of 1 to 3 columns through partial_fit: after every
    chunk the accumulator stays exactly symmetric and positive definite,
    and beta stays within 1e-6 of the batch ridge solution over the formed
    H of every column seen."""
    rng = np.random.default_rng(20)
    classes, width, boot, samples = 20, 30, 20, 320
    labels = np.concatenate([rng.permutation(classes), rng.integers(0, classes, samples - boot)])
    centers = rng.standard_normal((width, classes))
    x = centers[:, labels] + 0.3 * rng.standard_normal((width, samples))
    targets = np.eye(classes)[:, labels]
    cfg = PipelineConfig(node_count=2, subspace_dim=40, mode="sequential", chunk_size=boot)
    model = fit([FeatureGroup(x=x[:, :boot])], targets[:, :boot], cfg)
    assert boot < width + 1 == model.readout.p.shape[0]
    h = combined_feature(model, [FeatureGroup(x=x)])
    ridge = np.eye(h.shape[0]) / cfg.coeff
    lo = boot
    while lo < samples:
        hi = min(lo + int(rng.integers(1, 4)), samples)
        model = partial_fit(model, [FeatureGroup(x=x[:, lo:hi])], targets[:, lo:hi])
        lo = hi
        p = model.readout.p
        assert np.array_equal(p, p.T)
        assert np.linalg.eigvalsh(p).min() > 0
        seen = h[:, :hi]
        want = np.linalg.solve(ridge + seen @ seen.T, seen @ targets[:, :hi].T)
        assert rel_err(model.readout.beta, want) < 1e-6
    assert model.readout.seen == samples


@pytest.mark.parametrize("order", ["C", "F"])
def test_factor_inputs_hands_lapack_a_fortran_buffer(monkeypatch, order):
    """factor_inputs stacks [x; 1; T]' straight into Fortran order whatever
    the group's layout, so LAPACK's dgeqrt factors it in place; the factor
    equals the same kernel's on the plain C-ordered stack bit for bit."""
    rng = np.random.default_rng(8)
    x = np.asarray(rng.standard_normal((6, 40)), order=order)
    targets = np.eye(2)[:, np.arange(40) % 2]
    seen = []
    dgeqrt = hoselm.kernels.dgeqrt

    def spy(block, a, *args, **kwargs):
        seen.append(a.flags.f_contiguous)
        return dgeqrt(block, a, *args, **kwargs)

    monkeypatch.setattr(hoselm.kernels, "dgeqrt", spy)
    r = factor_inputs(x, targets)
    assert seen == [True]
    plain = np.ascontiguousarray(np.vstack((x, np.ones((1, 40)), targets)).T)
    v, _, _ = dgeqrt(min(32, *plain.shape), plain)
    assert np.array_equal(r, np.triu(v[: min(plain.shape)]))


@pytest.mark.parametrize("samples", [5, 40, 300])
@pytest.mark.parametrize("widths", [(6,), (4, 6, 8)])
def test_factor_inputs_matches_the_raw_qr(widths, samples):
    """The compact-WY factor of [x_1; ...; x_G; 1; T]' is the R of
    scipy's QR (mode="raw") within 1e-13 relative, diagonal signs included,
    for one group and three, with fewer sample columns than stacked rows
    (where the block size is capped by M), more, and more than one block."""
    rng = np.random.default_rng(samples + len(widths))
    mats = [rng.standard_normal((w, samples)) + 1.0 for w in widths]
    # Not one-hot: rows summing to the ones row would leave a zero pivot.
    targets = rng.uniform(0.0, 1.0, (3, samples))
    r = factor_inputs(mats, targets)
    _, want = scipy.linalg.qr(np.vstack((*mats, np.ones((1, samples)), targets)).T, mode="raw")
    k = min(samples, sum(widths) + 4)
    assert r.shape == want.shape == (k, sum(widths) + 4)
    assert np.linalg.norm(r - want) <= 1e-13 * np.linalg.norm(want)
    assert np.array_equal(np.sign(np.diag(r)), np.sign(np.diag(want)))


def prequential_labels(seed):
    """Test-then-train at the stream benchmark's shapes: 10 blob classes in
    one 64-row view (spread 0.3), 3 nodes of 200, a boot fit on 1000
    columns, then predict and partial_fit per 20-column chunk over 9000."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(10), 1000))
    x = np.eye(64)[:, labels] + 0.3 * rng.standard_normal((64, labels.size))
    targets = np.eye(10)[:, labels]
    cfg = PipelineConfig(subspace_dim=200, mode="sequential", seed=seed)
    model = fit([FeatureGroup(x=x[:, :1000])], targets[:, :1000], cfg)
    out = []
    for lo in range(1000, labels.size, 20):
        chunk = [FeatureGroup(x=np.ascontiguousarray(x[:, lo : lo + 20]))]
        out.append(predict(model, chunk))
        model = partial_fit(model, chunk, np.ascontiguousarray(targets[:, lo : lo + 20]))
    return np.concatenate(out)


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_prequential_labels_match_the_lu_step(monkeypatch, seed):
    """The Cholesky step predicts every streamed chunk as the LU step of
    tests/reference.py does."""
    got = prequential_labels(seed)
    monkeypatch.setattr(hoselm.pipeline, "os_update", lu_update)
    assert np.array_equal(got, prequential_labels(seed))
