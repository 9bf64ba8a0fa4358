"""Model files: the format v6 that save_model writes and load_model reads,
a stream continued across a file, and damaged archives.

tests/data holds two tiny format-v6 files, each over two feature groups
"a" (3 rows) and "b" (2 rows) and 3 classes: a batch model (plus combiner,
4 classifier nodes, norm_eps 1e-3, label values 3, 0, 9) and a sequential
one (concat, chunk_size 10, 12 columns seen, label values 2, 8, 4).
model_v6_labels.json holds the fixed 12-column input they were fitted on,
the class indices each model predicts for it and the label values.
Formats v1 to v5 are no longer read; test_pipeline pins that loading one
raises FormatError.
"""

import io
import json
import zipfile
from dataclasses import replace
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
)

DATA = Path(__file__).resolve().parent / "data"
EXPECTED_V6 = json.loads((DATA / "model_v6_labels.json").read_text())
REQUEST = [
    FeatureGroup(x=np.array(rows), name=name) for name, rows in EXPECTED_V6["inputs"].items()
]
MODES = ("batch", "sequential")


def fixture(version, mode):
    return DATA / f"model_v{version}_{mode}.npz"


def arrays_of(path):
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


def saved_again(source, path):
    """path, holding source loaded and saved again in the current format."""
    save_model(load_model(source), path)
    return path


def write(path, arrays):
    np.savez(path, **arrays)
    return path


@pytest.mark.parametrize("mode", MODES)
def test_v6_files_load_predict_their_labels_and_save_to_the_same_bytes(tmp_path, mode):
    """The current format's fixtures load with their label values, predict
    their labels, and save back to exactly the bytes they were read from."""
    path = fixture(6, mode)
    with np.load(path) as data:
        assert json.loads(str(data["header"]))["format_version"] == 6
    model = load_model(path)
    assert model.config.mode == mode
    assert model.class_labels == tuple(EXPECTED_V6[f"{mode}_class_labels"])
    assert predict(model, REQUEST).tolist() == EXPECTED_V6[mode]
    again = tmp_path / "model.npz"
    save_model(model, again)
    assert again.read_bytes() == path.read_bytes()


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
    path = saved_again(fixture(6, "batch"), tmp_path / "model.npz")
    damage, match = ARCHIVE_DAMAGE[case]
    raw = bytearray(path.read_bytes())
    damage(raw)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=match):
        load_model(path)


def test_member_that_is_not_npy_raises_format_error(tmp_path):
    """An intact archive whose member lacks the .npy magic: NpzFile hands
    back the member's raw bytes instead of an array."""
    path = saved_again(fixture(6, "batch"), tmp_path / "model.npz")
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    members["extractor_0_weights.npy"] = b"not an array"
    with zipfile.ZipFile(path, "w") as archive:
        for name, content in members.items():
            archive.writestr(name, content)
    with pytest.raises(FormatError, match="not an .npy array"):
        load_model(path)


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("models")


@pytest.fixture(scope="module")
def model_files(model_dir):
    """The v6 fixtures, and per mode a model this test fits on the fixture's
    config but the other combiner, and saves."""
    paths = [fixture(6, m) for m in MODES]
    for mode, operator in (("batch", "concat"), ("sequential", "plus")):
        cfg = replace(load_model(fixture(6, mode)).config, operator=operator)
        paths.append(model_dir / f"{mode}_{operator}.npz")
        save_model(fit(REQUEST, np.eye(3)[:, EXPECTED_V6[mode]], cfg), paths[-1])
    return [p.read_bytes() for p in paths]


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
    cfg = PipelineConfig(node_count=2, subspace_dim=4, mode="sequential", chunk_size=10, seed=6)
    path = tmp_path / "model.npz"
    save_model(fit(REQUEST, np.eye(3)[:, EXPECTED_V6["sequential"]], cfg), path)
    arrays = arrays_of(path)
    arrays["extractor_0_weights"] = np.full_like(arrays["extractor_0_weights"], 1.7e308)
    with pytest.raises(FormatError, match="basis"):
        load_model(write(tmp_path / "model.npz", arrays))


def _widest_range(norms):
    return np.column_stack((np.full(len(norms), -1e308), np.full(len(norms), 1e308)))


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
    arrays = arrays_of(fixture(6, "batch"))
    arrays[member] = edit(arrays[member])
    with pytest.raises(FormatError, match="overflow"):
        load_model(write(tmp_path / "model.npz", arrays))


def test_sequential_p_off_symmetric_raises_format_error(tmp_path):
    """save_model writes the accumulator P exactly symmetric, so one entry
    an ulp off its mirror is a damaged file: FormatError at load."""
    arrays = arrays_of(fixture(6, "sequential"))
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
