"""Model files: format v1 and v2 compatibility and damaged archives.

tests/data holds two tiny format-v1 files written by the v1 save_model: a
batch model (plus combiner) and a sequential one (concat, chunk_size 9),
each over two feature groups "a" (3 rows) and "b" (2 rows) and 3 classes.
model_v1_labels.json holds a fixed 12-column input and the labels each
model predicted for it when it was written.  The format-v2 files, written
by the v2 save_model, are a batch model (concat, 16 combined rows, so its
classifier was fitted on the thin factor) and a sequential one (plus, 5
combined rows, chunk_size 12) over the same two groups;
model_v2_labels.json holds the same input and their labels.  The format-v4
files, written by the v4 save_model, are a batch model (concat, norm_eps
1e-3, label values 0, 2, 7) and a sequential one (plus, chunk_size 12, label
values 5, 1, 3) over the same two groups; every classifier normalization
row of the batch file ends in a copy of norm_eps.  model_v4_labels.json
holds the same input, the class indices each model predicted for it and
the models' label values.  The format-v5 files, written by the v5
save_model, are a batch model (plus, norm_eps 1e-3, label values 3, 0, 9)
and a sequential one (concat, chunk_size 10, one more partial_fit of 7
columns, label values 2, 8, 4) over the same two groups; the sequential
file stores the D x classes weights readout_beta, which format v6
replaced by readout_gamma.  model_v5_labels.json holds the same input,
the class indices each model predicted for it and the label values.
"""

import io
import json
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoselm.errors import FormatError
from hoselm.pipeline import (
    FeatureGroup,
    HOselmModel,
    PipelineConfig,
    fit,
    load_model,
    partial_fit,
    predict,
    save_model,
    scores,
)

DATA = Path(__file__).resolve().parent / "data"
EXPECTED = json.loads((DATA / "model_v1_labels.json").read_text())
EXPECTED_V2 = json.loads((DATA / "model_v2_labels.json").read_text())
EXPECTED_V4 = json.loads((DATA / "model_v4_labels.json").read_text())
EXPECTED_V5 = json.loads((DATA / "model_v5_labels.json").read_text())
REQUEST = [FeatureGroup(x=np.array(rows), name=name) for name, rows in EXPECTED["inputs"].items()]
MODES = ("batch", "sequential")


def v1_path(mode):
    return DATA / f"model_v1_{mode}.npz"


def v2_path(mode):
    return DATA / f"model_v2_{mode}.npz"


def v1_arrays(mode):
    with np.load(v1_path(mode)) as data:
        return {name: data[name] for name in data.files}


def write(path, arrays, header_change=None):
    if header_change is not None:
        header = json.loads(str(arrays["header"]))
        header_change(header)
        arrays = {**arrays, "header": np.array(json.dumps(header))}
    np.savez(path, **arrays)
    return path


@pytest.mark.parametrize("mode", MODES)
def test_v1_files_load_and_predict_their_labels(mode):
    assert json.loads(str(v1_arrays(mode)["header"]))["format_version"] == 1
    model = load_model(v1_path(mode))
    assert model.config.mode == mode
    assert predict(model, REQUEST).tolist() == EXPECTED[mode]


@pytest.mark.parametrize("mode", MODES)
def test_v1_file_resaved_in_the_current_format_predicts_the_same(tmp_path, mode):
    path = tmp_path / "model.npz"
    save_model(load_model(v1_path(mode)), path)
    model = load_model(path)
    assert json.loads(str(np.load(path)["header"]))["format_version"] == 6
    assert model.class_labels == (0, 1, 2)
    assert predict(model, REQUEST).tolist() == EXPECTED[mode]


@pytest.mark.parametrize("mode", MODES)
def test_v2_files_load_and_predict_their_labels(tmp_path, mode):
    """A v2 file loads and predicts its labels, and so does its v5 resave.
    A sequential v2 file stored the D x D accumulator; it is read back in
    the readout's basis."""
    with np.load(v2_path(mode)) as data:
        assert json.loads(str(data["header"]))["format_version"] == 2
    assert EXPECTED_V2["inputs"] == EXPECTED["inputs"]
    model = load_model(v2_path(mode))
    assert model.config.mode == mode
    assert predict(model, REQUEST).tolist() == EXPECTED_V2[mode]
    path = tmp_path / "model.npz"
    save_model(model, path)
    resaved = load_model(path)
    assert predict(resaved, REQUEST).tolist() == EXPECTED_V2[mode]
    if mode == "sequential":
        rank = model.readout.basis.shape[1]
        assert resaved.readout.p.shape == (rank, rank)
        assert np.array_equal(resaved.readout.p, model.readout.p)


@pytest.mark.parametrize("mode", MODES)
def test_v4_files_load_and_predict_their_labels(tmp_path, mode):
    """A v4 file loads with its label values and predicts its labels; its
    v5 resave, which drops the eps column, serves the same scores."""
    path = DATA / f"model_v4_{mode}.npz"
    with np.load(path) as data:
        assert json.loads(str(data["header"]))["format_version"] == 4
        if mode == "batch":
            assert data["classifier_norm_in"].shape[1] == 3
    assert EXPECTED_V4["inputs"] == EXPECTED["inputs"]
    model = load_model(path)
    assert model.class_labels == tuple(EXPECTED_V4[f"{mode}_class_labels"])
    assert predict(model, REQUEST).tolist() == EXPECTED_V4[mode]
    resaved_path = tmp_path / "model.npz"
    save_model(model, resaved_path)
    resaved = load_model(resaved_path)
    assert resaved.class_labels == model.class_labels
    assert np.array_equal(scores(resaved, REQUEST), scores(model, REQUEST))


@pytest.mark.parametrize("mode", MODES)
def test_v5_files_load_and_predict_their_labels(tmp_path, mode):
    """A v5 file loads with its label values and predicts its labels; its
    v6 resave serves identical scores.  A sequential v5 file stored beta;
    its resave stores gamma = U'beta in its place, and both continue a
    stream alike."""
    path = DATA / f"model_v5_{mode}.npz"
    with np.load(path) as data:
        assert json.loads(str(data["header"]))["format_version"] == 5
        assert ("readout_beta" in data.files) == (mode == "sequential")
    assert EXPECTED_V5["inputs"] == EXPECTED["inputs"]
    model = load_model(path)
    assert model.class_labels == tuple(EXPECTED_V5[f"{mode}_class_labels"])
    assert predict(model, REQUEST).tolist() == EXPECTED_V5[mode]
    resaved_path = tmp_path / "model.npz"
    save_model(model, resaved_path)
    with np.load(resaved_path) as data:
        assert json.loads(str(data["header"]))["format_version"] == 6
        assert "readout_beta" not in data.files
        assert ("readout_gamma" in data.files) == (mode == "sequential")
    resaved = load_model(resaved_path)
    assert resaved.class_labels == model.class_labels
    assert np.array_equal(scores(resaved, REQUEST), scores(model, REQUEST))
    if mode == "sequential":
        assert np.array_equal(resaved.readout.gamma, model.readout.basis.T @ model.readout.beta)
        targets = np.eye(3)[:, EXPECTED_V5[mode]]
        a, b = (partial_fit(m, REQUEST, targets).readout for m in (model, resaved))
        assert np.array_equal(a.p, b.p) and np.array_equal(a.gamma, b.gamma)


def _shift_norm_out(arrays):
    arrays["classifier_norm_out"] = arrays["classifier_norm_out"] + [[0.0, 0.5, 0.0]]


V1_DISAGREEMENTS = {
    "norm_out differs from norm_in": ("batch", _shift_norm_out, None, "norm_out"),
    "combine operator": (
        "batch", None, lambda h: h["combine"].update(operator="concat"), "combine"
    ),
    "combine gamma": ("sequential", None, lambda h: h["combine"].update(gamma=2.0), "combine"),
    "combine missing": ("batch", None, lambda h: h.pop("combine"), "combine"),
    "readout coeff": ("sequential", None, lambda h: h["readout"].update(coeff=7.0), "coeff"),
    "readout feature_dim": (
        "batch", None, lambda h: h["readout"].update(feature_dim=5), "feature_dim"
    ),
    "readout kind": ("batch", None, lambda h: h["readout"].update(kind="sequential"), "kind"),
}


@pytest.mark.parametrize("case", sorted(V1_DISAGREEMENTS))
def test_v1_duplicates_must_agree_with_the_kept_copy(tmp_path, case):
    mode, edit_arrays, edit_header, match = V1_DISAGREEMENTS[case]
    arrays = v1_arrays(mode)
    if edit_arrays is not None:
        edit_arrays(arrays)
    path = write(tmp_path / "model.npz", arrays, edit_header)
    with pytest.raises(FormatError, match=match):
        load_model(path)


def test_v2_file_with_a_v1_duplicate_is_rejected(tmp_path):
    path = tmp_path / "model.npz"
    save_model(load_model(v1_path("batch")), path)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    write(path, arrays, lambda h: h["readout"].update(coeff=h["config"]["coeff"]))
    with pytest.raises(FormatError, match="coeff"):
        load_model(path)


def _central_entry(raw, name):
    """Offset of member `name`'s entry in the archive's central directory."""
    at = raw.find(b"PK\x01\x02")
    while raw[at + 46 : at + 46 + len(name)] != name.encode():
        at = raw.find(b"PK\x01\x02", at + 1)
    return at


def _flip_header_text(raw):
    raw[raw.find("format_version".encode("utf-32-le"))] ^= 1


def _set_encrypted(raw):
    raw[_central_entry(raw, "header.npy") + 8] |= 1


def _unknown_method(raw):
    raw[_central_entry(raw, "header.npy") + 10] = 99


def _future_zip_version(raw):
    raw[_central_entry(raw, "header.npy") + 6] = 99


# Damage to the header member that a random byte rarely hits, and what the
# error says: a CRC mismatch, the encryption flag and an unsupported
# compression method surface when the member is read, a zip version newer
# than zipfile's when the archive is opened.
ARCHIVE_DAMAGE = {
    "bad CRC": (_flip_header_text, "'header' is unreadable"),
    "encrypted": (_set_encrypted, "'header' is unreadable"),
    "unknown compression": (_unknown_method, "'header' is unreadable"),
    "future zip version": (_future_zip_version, "not a model file"),
}


@pytest.mark.parametrize("case", sorted(ARCHIVE_DAMAGE))
def test_targeted_archive_damage_raises_format_error(tmp_path, case):
    path = tmp_path / "model.npz"
    save_model(load_model(v1_path("batch")), path)
    damage, match = ARCHIVE_DAMAGE[case]
    raw = bytearray(path.read_bytes())
    damage(raw)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=match):
        load_model(path)


def test_member_that_is_not_npy_raises_format_error(tmp_path):
    """An intact archive whose member lacks the .npy magic: NpzFile hands
    back the member's raw bytes instead of an array."""
    path = tmp_path / "model.npz"
    save_model(load_model(v1_path("batch")), path)
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    members["extractor_0_weights.npy"] = b"not an array"
    with zipfile.ZipFile(path, "w") as archive:
        for name, content in members.items():
            archive.writestr(name, content)
    with pytest.raises(FormatError, match="not an .npy array"):
        load_model(path)


def _v3_bytes(source, tmp_dir):
    path = Path(tmp_dir) / f"v3_{source.name}"
    save_model(load_model(source), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("models")


@pytest.fixture(scope="module")
def model_files(model_dir):
    old = [path(m) for path in (v1_path, v2_path) for m in MODES]
    return [p.read_bytes() for p in old] + [_v3_bytes(p, model_dir) for p in old]


@st.composite
def damaged(draw, original):
    """original cut at any offset, or with one to three bytes replaced."""
    if draw(st.booleans()):
        return original[: draw(st.integers(0, len(original) - 1))]
    out = bytearray(original)
    edits = st.tuples(st.integers(0, len(original) - 1), st.integers(0, 255))
    for offset, value in draw(st.lists(edits, min_size=1, max_size=3)):
        out[offset] = value
    return bytes(out)


@given(data=st.data())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_damaged_model_files_raise_only_format_error(model_files, model_dir, data):
    """A truncated or byte-mutated model file either loads or raises
    FormatError; no zipfile, numpy or JSON error escapes."""
    path = model_dir / "damaged.npz"
    path.write_bytes(data.draw(damaged(data.draw(st.sampled_from(model_files)))))
    try:
        model = load_model(path)
    except FormatError:
        return
    assert isinstance(model, HOselmModel)


def test_extractor_weights_that_overflow_raise_format_error(tmp_path):
    """Finite extractor weights whose plus-combined sum overflows leave the
    sequential readout without a basis: FormatError, not a LAPACK error."""
    with np.load(v2_path("sequential")) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["extractor_0_weights"] = np.full_like(arrays["extractor_0_weights"], 1.7e308)
    with pytest.raises(FormatError, match="basis"):
        load_model(write(tmp_path / "model.npz", arrays))


def _widest_range(norms):
    return np.column_stack((np.full(len(norms), -1e308), np.full(len(norms), 1e308), norms[:, 2]))


@pytest.mark.parametrize(
    "member, edit",
    [
        ("extractor_0_weights", lambda a: np.full_like(a, 1.7e308)),
        ("classifier_norm_in", _widest_range),
    ],
)
def test_batch_arrays_that_overflow_their_maps_raise_format_error(tmp_path, member, edit):
    """Finite batch arrays whose folded maps or normalization span overflow
    would serve inf scores: FormatError at load."""
    with np.load(v2_path("batch")) as data:
        arrays = {name: data[name] for name in data.files}
    arrays[member] = edit(arrays[member])
    with pytest.raises(FormatError, match="overflow"):
        load_model(write(tmp_path / "model.npz", arrays))


def test_sequential_p_off_symmetric_raises_format_error(tmp_path):
    """save_model writes the accumulator P exactly symmetric, so one entry
    an ulp off its mirror is a damaged file: FormatError at load."""
    with np.load(DATA / "model_v4_sequential.npz") as data:
        arrays = {name: data[name] for name in data.files}
    p = arrays["readout_p"].copy()
    p[0, -1] = np.nextafter(p[0, -1], np.inf)
    arrays["readout_p"] = p
    with pytest.raises(FormatError, match="not exactly symmetric"):
        load_model(write(tmp_path / "model.npz", arrays))


@pytest.fixture(scope="module")
def stream():
    """A sequential model of a 3-column basis (plus combiner, 3 rows per
    node) booted on 9 columns, and 320 more columns to stream into it."""
    rng = np.random.default_rng(41)
    labels = rng.integers(0, 3, 329)
    labels[:3] = [0, 1, 2]
    x = rng.standard_normal((4, 3))[:, labels] + 0.4 * rng.standard_normal((4, 329))
    targets = np.eye(3)[:, labels]
    cfg = PipelineConfig(node_count=2, subspace_dim=3, mode="sequential", chunk_size=9, seed=3)
    model = fit([FeatureGroup(x=x[:, :9])], targets[:, :9], cfg)
    assert model.readout.basis.shape[1] == 3
    return model, x[:, 9:], targets[:, 9:]


def _readout_arrays(model):
    r = model.readout
    return (r.p, r.beta, r.gamma, *model.maps.weights, model.maps.offset)


@given(data=st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_a_saved_stream_continues_bit_for_bit(stream, data):
    """Chunks of 1 to r + 5 columns, a save -> load at a random step: the
    loaded model's further partial_fit calls give p, beta and gamma
    bit-identical to the in-memory continuation.  Every model partial_fit
    returns rebuilds through the fully checked HOselmModel(...) with equal
    arrays."""
    model, x, targets = stream
    width = st.integers(1, model.readout.p.shape[0] + 5)
    sizes = data.draw(st.lists(width, min_size=2, max_size=40))
    cuts = np.cumsum([0, *sizes])
    steps = list(zip(cuts, cuts[1:]))
    save_at = data.draw(st.integers(0, len(steps) - 1))
    memory = loaded = model
    for step, (lo, hi) in enumerate(steps):
        if step == save_at:
            buffer = io.BytesIO()
            save_model(memory, buffer)
            buffer.seek(0)
            loaded = load_model(buffer)
        chunk = [FeatureGroup(x=x[:, lo:hi])], targets[:, lo:hi]
        memory = partial_fit(memory, *chunk)
        loaded = partial_fit(loaded, *chunk) if step >= save_at else memory
        rebuilt = HOselmModel(
            extractors=memory.extractors,
            group_names=memory.group_names,
            readout=memory.readout,
            config=memory.config,
            class_labels=memory.class_labels,
        )
        assert rebuilt.class_labels == memory.class_labels
        for a, b in zip(_readout_arrays(rebuilt), _readout_arrays(memory)):
            assert np.array_equal(a, b)
    for a, b in zip(_readout_arrays(loaded)[:3], _readout_arrays(memory)[:3]):
        assert np.array_equal(a, b)
