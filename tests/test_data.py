"""Data plumbing tests: CSV round-trips, encoding, splits, synthetic blobs."""

import numpy as np
import pytest

from hoselm.classifier import decode_labels
from hoselm.data import load_csv, one_hot, split, synth_blobs, write_csv
from hoselm.errors import FormatError, ParseError, ShapeError
from hoselm.pipeline import FeatureGroup


def test_load_single_group(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2,3,4,0\n5,6,7,8,1\n9,10,11,12,0\n")
    groups, labels = load_csv(path)
    assert len(groups) == 1
    assert groups[0].x.shape == (4, 3)
    assert np.array_equal(groups[0].x[:, 1], [5, 6, 7, 8])
    assert np.array_equal(labels, [0, 1, 0])


def test_load_two_group_ranges(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2,3,4,0\n5,6,7,8,1\n9,10,11,12,2\n")
    groups, labels = load_csv(path, group_ranges=[(0, 2), (2, 4)], label_col=4)
    assert len(groups) == 2
    assert groups[0].x.shape == (2, 3)
    assert groups[1].x.shape == (2, 3)
    assert np.array_equal(groups[1].x[:, 0], [3, 4])
    assert np.array_equal(labels, [0, 1, 2])


def test_write_read_round_trip_exact(tmp_path):
    rng = np.random.default_rng(31)
    x = rng.standard_normal((5, 12))
    labels = rng.integers(0, 3, size=12)
    path = tmp_path / "rt.csv"
    write_csv(path, [FeatureGroup(x=x)], labels)
    groups, got_labels = load_csv(path)
    assert np.array_equal(groups[0].x, x)
    assert np.array_equal(got_labels, labels)


@pytest.mark.parametrize(
    "widths, label_count",
    [((4,), 2), ((4,), 5), ((4, 3), 3)],
)
def test_write_csv_rejects_groups_without_a_column_per_label(tmp_path, widths, label_count):
    """Every group must hold one sample per label: fewer labels would drop
    samples, more would index past a group, unequal groups would mix."""
    groups = [FeatureGroup(x=np.arange(3.0 * w).reshape(3, w)) for w in widths]
    path = tmp_path / "out.csv"
    with pytest.raises(ShapeError, match="labels"):
        write_csv(path, groups, np.arange(label_count) % 2)
    assert not path.exists()


def test_write_csv_rejects_fractional_labels(tmp_path):
    """A label of 0.7 or 1.9 is not truncated to 0 or 1: nothing is written."""
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="integer-valued"):
        write_csv(path, FeatureGroup(x=np.ones((3, 2))), [0.7, 1.9])
    assert not path.exists()


def test_lone_group_accepted_by_write_and_split(tmp_path):
    group, labels = synth_blobs(classes=2, per_class=6, dim=3, spread=0.1, seed=5)
    path = tmp_path / "lone.csv"
    write_csv(path, group, labels)
    wrapped = tmp_path / "wrapped.csv"
    write_csv(wrapped, [group], labels)
    assert path.read_bytes() == wrapped.read_bytes()
    (tr_g, tr_l), (te_g, te_l) = split(group, labels, 0.5, seed=1)
    assert tr_g[0].x.shape[1] == tr_l.size
    assert te_g[0].x.shape[1] == te_l.size


def test_load_reports_bad_cell_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,0\n3,oops,1\n")
    with pytest.raises(ParseError, match="row 1, column 1"):
        load_csv(path)


def test_load_rejects_ragged_and_empty(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2,0\n1,2,3,0\n")
    with pytest.raises(FormatError, match="ragged"):
        load_csv(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(FormatError, match="no data"):
        load_csv(empty)


def test_load_validates_ranges(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2,3,0\n")
    with pytest.raises(ValueError, match="out of bounds"):
        load_csv(path, group_ranges=[(0, 9)], label_col=3)
    with pytest.raises(ValueError, match="overlap"):
        load_csv(path, group_ranges=[(0, 2), (1, 3)], label_col=3)
    with pytest.raises(ValueError, match="label"):
        load_csv(path, group_ranges=[(2, 4)], label_col=3)


def test_load_rejects_a_label_column_past_the_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2,3,0\n")
    for col in (4, 9):
        with pytest.raises(ValueError, match=f"label column {col} is out of range for width 4"):
            load_csv(path, label_col=col)
    with pytest.raises(ValueError, match="label_col must be an integer >= -4, got -5"):
        load_csv(path, label_col=-5)
    assert np.array_equal(load_csv(path, label_col=-4)[1], [1])


def test_one_hot_examples():
    assert np.array_equal(one_hot([0, 1], 2), np.eye(2))
    t = one_hot([2, 0, 1, 1], 3)
    assert t.shape == (3, 4)
    assert np.array_equal(t.sum(axis=0), np.ones(4))
    with pytest.raises(ValueError):
        one_hot([0, 3], 3)
    with pytest.raises(ValueError):
        one_hot([-1], 3)


def test_one_hot_rejects_labels_that_are_not_integers():
    """Fractional labels used to truncate silently: 1.7 became class 1."""
    for bad in ([0.5, 1.7], [0, 1, np.nan], [np.inf]):
        with pytest.raises(ValueError, match="integer-valued"):
            one_hot(bad, 2)
    assert np.array_equal(one_hot(np.array([1.0, 0.0]), 2), one_hot([1, 0], 2))


def test_one_hot_decode_round_trip():
    rng = np.random.default_rng(61)
    labels = rng.integers(0, 4, size=50)
    assert np.array_equal(decode_labels(one_hot(labels, 4)), labels)


def sample_set(seed=0, classes=3, per_class=10):
    group, labels = synth_blobs(classes, per_class, 5, 0.3, seed=seed)
    return [group], labels


def test_split_fraction_sizes():
    groups, labels = sample_set(per_class=10)
    (tr_g, tr_l), (te_g, te_l) = split(groups, labels, 0.5, seed=1)
    assert tr_l.size == 15 and te_l.size == 15
    assert tr_g[0].x.shape == (5, 15)
    assert te_g[0].x.shape == (5, 15)


def test_split_per_class_count_is_stratified():
    groups, labels = sample_set(per_class=8)
    (tr_g, tr_l), (_, te_l) = split(groups, labels, 2, seed=3)
    assert tr_l.size == 6
    assert all(np.sum(tr_l == k) == 2 for k in range(3))
    assert all(np.sum(te_l == k) == 6 for k in range(3))


def test_split_stratified_fraction_preserves_ratios():
    groups, labels = sample_set(per_class=10)
    (_, tr_l), (_, te_l) = split(groups, labels, 0.7, seed=5, stratified=True)
    assert all(np.sum(tr_l == k) == 7 for k in range(3))
    assert all(np.sum(te_l == k) == 3 for k in range(3))


def test_split_partitions_are_disjoint_and_complete():
    # Columns are tagged with unique values, so multisets can be compared.
    x = np.arange(24, dtype=float).reshape(2, 12)
    labels = np.array([0, 1] * 6)
    (tr_g, tr_l), (te_g, te_l) = split([FeatureGroup(x=x)], labels, 0.25, seed=9)
    got = np.concatenate([tr_g[0].x[0], te_g[0].x[0]])
    assert sorted(got) == sorted(x[0])
    assert tr_l.size + te_l.size == 12
    assert set(tr_g[0].x[0]) & set(te_g[0].x[0]) == set()


def test_split_columns_stay_aligned_with_labels():
    group, labels = synth_blobs(3, 20, 5, 0.05, seed=7)
    (tr_g, tr_l), (te_g, te_l) = split([group], labels, 0.5, seed=2)
    means = np.eye(5)[:, :3]
    for g, lab in ((tr_g, tr_l), (te_g, te_l)):
        picked = means[:, lab]
        assert np.abs(g[0].x - picked).max() < 0.3


def test_split_deterministic_per_seed():
    groups, labels = sample_set()
    a = split(groups, labels, 0.5, seed=11)
    b = split(groups, labels, 0.5, seed=11)
    c = split(groups, labels, 0.5, seed=12)
    assert np.array_equal(a[0][0][0].x, b[0][0][0].x)
    assert not np.array_equal(a[0][0][0].x, c[0][0][0].x)


def test_split_rejects_bad_sizes():
    groups, labels = sample_set(per_class=4)
    with pytest.raises(ValueError):
        split(groups, labels, 0.0)
    with pytest.raises(ValueError):
        split(groups, labels, 1.5)
    with pytest.raises(ValueError):
        split(groups, labels, 5)
    with pytest.raises(ValueError):
        split(groups, labels, 0)


def test_synth_blobs_balanced_and_deterministic():
    group, labels = synth_blobs(3, 10, 4, 0.2, seed=1)
    assert group.x.shape == (4, 30)
    assert all(np.sum(labels == k) == 10 for k in range(3))
    group2, labels2 = synth_blobs(3, 10, 4, 0.2, seed=1)
    assert np.array_equal(group.x, group2.x)
    assert np.array_equal(labels, labels2)


def test_synth_blobs_equal_the_means_plus_scaled_noise_bit_for_bit():
    """x is means[:, labels] + spread * noise, with the shuffle drawn first
    and the noise next from the one seeded generator."""
    classes, per_class, dim, spread, seed = 4, 7, 6, 0.3, 11
    group, labels = synth_blobs(classes, per_class, dim, spread, seed=seed)
    rng = np.random.default_rng(seed)
    expected_labels = np.repeat(np.arange(classes), per_class)
    rng.shuffle(expected_labels)
    noise = rng.standard_normal((dim, expected_labels.size))
    expected = np.eye(dim)[:, expected_labels] + spread * noise
    assert np.array_equal(labels, expected_labels)
    assert group.x.tobytes() == expected.tobytes()


def test_synth_blobs_tight_spread_separates():
    group, labels = synth_blobs(4, 25, 6, 1e-6, seed=2)
    means = np.eye(6)[:, :4]
    nearest = np.argmin(
        ((group.x[:, :, None] - means[:, None, :]) ** 2).sum(axis=0), axis=1
    )
    assert np.array_equal(nearest, labels)


def test_synth_blobs_class_means_match_clt_bound():
    classes, per_class, spread = 3, 400, 0.5
    group, labels = synth_blobs(classes, per_class, 4, spread, seed=3)
    means = np.eye(4)[:, :classes]
    bound = 3 * spread / np.sqrt(per_class)
    for k in range(classes):
        estimate = group.x[:, labels == k].mean(axis=1)
        assert np.abs(estimate - means[:, k]).max() < bound


def test_synth_blobs_validation():
    with pytest.raises(ValueError):
        synth_blobs(0, 5, 4, 0.1)
    with pytest.raises(ValueError):
        synth_blobs(3, 5, 2, 0.1)
    with pytest.raises(ValueError):
        synth_blobs(3, 5, 4, 0.0)
    for spread in (np.nan, np.inf):
        with pytest.raises(ValueError, match="spread"):
            synth_blobs(2, 3, 2, spread, seed=1)
