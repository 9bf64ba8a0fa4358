"""Model files: format v1 compatibility and damaged archives.

tests/data holds two tiny format-v1 files written by the v1 save_model: a
batch model (plus combiner) and a sequential one (concat, chunk_size 9),
each over two feature groups "a" (3 rows) and "b" (2 rows) and 3 classes.
model_v1_labels.json holds a fixed 12-column input and the labels each
model predicted for it when it was written.
"""

import json
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoselm.errors import FormatError
from hoselm.pipeline import FeatureGroup, HOselmModel, load_model, predict, save_model

DATA = Path(__file__).resolve().parent / "data"
EXPECTED = json.loads((DATA / "model_v1_labels.json").read_text())
REQUEST = [FeatureGroup(x=np.array(rows), name=name) for name, rows in EXPECTED["inputs"].items()]
MODES = ("batch", "sequential")


def v1_path(mode):
    return DATA / f"model_v1_{mode}.npz"


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
def test_v1_file_resaved_as_v2_predicts_the_same(tmp_path, mode):
    path = tmp_path / "model.npz"
    save_model(load_model(v1_path(mode)), path)
    model = load_model(path)
    assert json.loads(str(np.load(path)["header"]))["format_version"] == 2
    assert predict(model, REQUEST).tolist() == EXPECTED[mode]


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


def _v2_bytes(mode, tmp_dir):
    path = Path(tmp_dir) / f"v2_{mode}.npz"
    save_model(load_model(v1_path(mode)), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("models")


@pytest.fixture(scope="module")
def model_files(model_dir):
    return [v1_path(m).read_bytes() for m in MODES] + [_v2_bytes(m, model_dir) for m in MODES]


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
