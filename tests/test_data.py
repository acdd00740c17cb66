import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from feddva.data import (MARK_KINDS, ClientShard, Dataset, IdxFormatError,
                         MarkSpec, PartitionPlan, apply_mark, default_marks,
                         load_idx_dataset, make_toy_digits, mark_mask,
                         parse_idx, partition_label_skew,
                         partition_uniform_marked, write_idx)
from oracles import (dataset_mean_bce, ellipse_pixels, shards_per_image,
                     sinusoid_pixels, toy_digits_per_sample)


def toy(seed=0, n_per_class=20, n_classes=4, h=16, w=16):
    return make_toy_digits(n_per_class, n_classes, h, w, seed)


# ------------------------------------------------------------------- IDX


def test_idx_image_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(2, 5, 4)).astype(np.uint8)
    path = tmp_path / "imgs.idx3-ubyte"
    write_idx(path, images)
    parsed = parse_idx(path)
    assert parsed.shape == (2, 5, 4)
    assert np.array_equal((parsed * 255.0).round().astype(np.uint8), images)
    # writing the parsed floats reproduces the same bytes
    second = tmp_path / "again.idx3-ubyte"
    write_idx(second, parsed)
    assert path.read_bytes() == second.read_bytes()


def test_idx_label_round_trip(tmp_path):
    labels = np.array([3, 1, 4, 1, 5], dtype=np.int64)
    path = tmp_path / "labels.idx1-ubyte"
    write_idx(path, labels)
    parsed = parse_idx(path)
    assert parsed.dtype == np.int64
    assert np.array_equal(parsed, labels)


def test_idx_bad_magic_reports_offset(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"\x00\x00\x09\x99" + b"\x00" * 8)
    with pytest.raises(IdxFormatError, match="bad magic 0x00000999 at byte 0"):
        parse_idx(path)


def test_idx_truncated_payload(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(3, 4, 4)).astype(np.uint8)
    path = tmp_path / "trunc.idx"
    write_idx(path, images)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(IdxFormatError, match="payload at byte 16"):
        parse_idx(path)


def test_load_idx_dataset(tmp_path):
    ds = toy(n_per_class=5)
    write_idx(tmp_path / "i.idx", ds.images)
    write_idx(tmp_path / "l.idx", ds.labels)
    loaded = load_idx_dataset(tmp_path / "i.idx", tmp_path / "l.idx")
    assert loaded.images.shape == ds.images.shape
    assert np.array_equal(loaded.labels, ds.labels)


# ----------------------------------------------------------------- marks


def test_plain_mark_is_identity():
    img = np.random.default_rng(2).uniform(0, 1, (16, 16))
    assert np.array_equal(apply_mark(img, MarkSpec("plain")), img)


def test_sinusoid_matches_pixel_oracle():
    spec = MarkSpec("horizontal-sinusoid", amplitude=4.0, frequency=2.0,
                    phase=0.3, thickness=1.0, intensity=1.0)
    marked = apply_mark(np.zeros((16, 16)), spec)
    oracle = sinusoid_pixels(16, 16, 4.0, 2.0, 0.3, 1.0, vertical=False)
    assert np.array_equal(marked == 1.0, oracle)
    assert np.array_equal(marked > 0.0, oracle)


def test_vertical_sinusoid_matches_pixel_oracle():
    spec = MarkSpec("vertical-sinusoid", amplitude=3.0, frequency=1.5,
                    phase=0.0, thickness=2.0)
    oracle = sinusoid_pixels(18, 12, 3.0, 1.5, 0.0, 2.0, vertical=True)
    assert np.array_equal(mark_mask(spec, 18, 12), oracle)


def test_ellipse_matches_membership_oracle():
    spec = MarkSpec("ellipse", amplitude=4.0, thickness=1.0)
    mask = mark_mask(spec, 16, 16)
    oracle = ellipse_pixels(16, 16, ry=4.0, rx=6.0, thickness=1.0)
    assert np.array_equal(mask, oracle)
    assert mask.sum() == oracle.sum() > 0


def test_mark_idempotent_on_saturated_pixels():
    img = np.random.default_rng(3).uniform(0, 1, (16, 16))
    spec = MarkSpec("horizontal-sinusoid", amplitude=4.0, intensity=0.9)
    once = apply_mark(img, spec)
    twice = apply_mark(once, spec)
    assert np.array_equal(once, twice)


def test_mark_amplitude_validation():
    with pytest.raises(ValueError, match="amplitude"):
        apply_mark(np.zeros((8, 8)), MarkSpec("horizontal-sinusoid",
                                              amplitude=20.0))


@pytest.mark.parametrize("kind", MARK_KINDS)
def test_mark_on_stack_equals_per_image(kind):
    stack = np.random.default_rng(5).uniform(0, 1, (6, 12, 10))
    spec = MarkSpec(kind, amplitude=2.5, intensity=0.9)
    per_image = np.stack([apply_mark(img, spec) for img in stack])
    marked = apply_mark(stack, spec)
    assert marked.tobytes() == per_image.tobytes()
    assert not np.shares_memory(marked, stack)


def test_mark_output_stays_in_range():
    img = np.random.default_rng(4).uniform(0, 1, (16, 16))
    out = apply_mark(img, MarkSpec("ellipse", amplitude=4.0, intensity=1.0))
    assert out.min() >= 0.0 and out.max() <= 1.0


# ------------------------------------------------------------ partitions


def test_uniform_marked_single_client():
    ds = toy(n_per_class=10)
    shards, plan = partition_uniform_marked(ds, 1, seed=0, holdout_frac=0.0)
    assert len(shards) == 1
    assert shards[0].n == ds.images.shape[0]
    assert plan.scheme == "uniform-with-marks"


def test_uniform_marked_needs_two_samples_per_client():
    ds = toy(n_per_class=2, n_classes=3)
    shards, _ = partition_uniform_marked(ds, 3, seed=0, holdout_frac=0.0)
    assert [s.n for s in shards] == [2, 2, 2]
    for n_clients in (0, 4, 6):
        with pytest.raises(ValueError, match="2 each"):
            partition_uniform_marked(ds, n_clients, seed=0)


def test_uniform_marked_balanced_sizes():
    ds = toy(n_per_class=13)
    shards, _ = partition_uniform_marked(ds, 5, seed=1, holdout_frac=0.0)
    sizes = [s.n for s in shards]
    assert max(sizes) - min(sizes) <= 1


def test_partition_is_exact_cover():
    ds = toy(n_per_class=12)
    for builder in (
        lambda: partition_uniform_marked(ds, 4, seed=2, holdout_frac=0.0),
        lambda: partition_label_skew(ds, 4, 0.5, seed=2, holdout_frac=0.0),
    ):
        _, plan = builder()
        all_idx = sorted(i for v in plan.assignments.values() for i in v)
        assert all_idx == list(range(ds.images.shape[0]))


def test_uniform_marked_label_balance_chi2():
    # deterministic seeds; fail only on actual skew
    ds = toy(n_per_class=60)
    global_counts = np.bincount(ds.labels, minlength=ds.n_classes)
    global_frac = global_counts / global_counts.sum()
    for seed in range(5):
        shards, _ = partition_uniform_marked(ds, 4, seed=seed, holdout_frac=0.0)
        for s in shards:
            counts = np.bincount(s.labels, minlength=ds.n_classes)
            expected = global_frac * counts.sum()
            _, p = stats.chisquare(counts, expected)
            assert p > 1e-3, f"seed {seed} shard {s.id}: chi2 p={p}"


def test_marks_cycle_through_kinds():
    ds = toy(n_per_class=20)
    shards, _ = partition_uniform_marked(ds, 6, seed=3, holdout_frac=0.0)
    kinds = [s.mark.kind for s in shards]
    assert kinds[:4] == ["horizontal-sinusoid", "ellipse",
                         "vertical-sinusoid", "plain"]
    assert kinds[4] == "horizontal-sinusoid"


def test_weights_match_size_formula():
    ds = toy(n_per_class=25)
    shards, _ = partition_label_skew(ds, 5, 0.4, seed=4, holdout_frac=0.2)
    total = sum(s.n for s in shards)
    for s in shards:
        assert s.weight == pytest.approx(s.n / total, rel=1e-12)
    assert sum(s.weight for s in shards) == pytest.approx(1.0, abs=1e-12)


def test_weight_example_quarter_three_quarters():
    # two clients with 100 and 300 samples weigh 0.25 and 0.75
    shard_a = ClientShard(0, np.zeros((100, 4, 4)), np.zeros(100, dtype=int),
                          np.zeros((0, 4, 4)), np.zeros(0, dtype=int))
    shard_b = ClientShard(1, np.zeros((300, 4, 4)), np.zeros(300, dtype=int),
                          np.zeros((0, 4, 4)), np.zeros(0, dtype=int))
    total = shard_a.n + shard_b.n
    assert shard_a.n / total == 0.25
    assert shard_b.n / total == 0.75


def test_label_skew_concentration_limit_uniform():
    ds = toy(n_per_class=250, n_classes=4)
    _, plan = partition_label_skew(ds, 5, concentration=1e6, seed=5,
                                   holdout_frac=0.0)
    fracs = np.array(plan.class_fractions)
    assert np.abs(fracs - 0.2).max() < 0.01


def test_label_skew_low_concentration_is_skewed():
    ds = toy(n_per_class=100, n_classes=4)
    for seed in range(5):
        shards, _ = partition_label_skew(ds, 20, concentration=0.1, seed=seed,
                                         holdout_frac=0.0, min_per_client=2)
        found = False
        for s in shards:
            counts = np.sort(np.bincount(s.labels, minlength=4))[::-1]
            if counts[:2].sum() > 0.5 * s.n:
                found = True
                break
        assert found, f"seed {seed}: no client dominated by <= 2 classes"


def test_label_skew_min_per_client_topup():
    ds = toy(n_per_class=30, n_classes=4)
    shards, _ = partition_label_skew(ds, 12, concentration=0.05, seed=6,
                                     holdout_frac=0.0, min_per_client=4)
    assert all(s.n >= 4 for s in shards)


def test_label_skew_infeasible():
    ds = toy(n_per_class=2, n_classes=2, h=8, w=8)
    with pytest.raises(ValueError, match="exceeds dataset size"):
        partition_label_skew(ds, 5, 0.5, seed=0, min_per_client=4)


def test_plan_json_round_trip():
    ds = toy(n_per_class=10)
    _, plan = partition_label_skew(ds, 3, 0.5, seed=7, holdout_frac=0.0)
    again = PartitionPlan.from_json(plan.to_json())
    assert again == plan


# ------------------------------------------------------------ toy digits


def test_toy_digits_deterministic():
    a, b = toy(seed=11), toy(seed=11)
    assert a.images.tobytes() == b.images.tobytes()
    assert np.array_equal(a.labels, b.labels)


SEEDS_AND_SIZES = [(seed, h, w) for seed in (0, 1, 7) for h, w in
                   ((16, 16), (12, 10))]


def same_bytes(*pairs):
    return all(a.tobytes() == b.tobytes() for a, b in pairs)


@pytest.mark.parametrize("seed,h,w", SEEDS_AND_SIZES)
def test_toy_digits_match_per_sample_oracle(seed, h, w):
    ds = make_toy_digits(9, 8, h, w, seed)
    images, labels = toy_digits_per_sample(9, 8, h, w, seed)
    assert same_bytes((ds.images, images), (ds.labels, labels))


@pytest.mark.parametrize("seed,h,w", SEEDS_AND_SIZES)
def test_partitions_match_per_image_oracle(seed, h, w):
    ds = make_toy_digits(12, 4, h, w, seed)
    marks = [default_marks(h, w)[k % 4] for k in range(5)]
    assert {m.kind for m in marks} == set(MARK_KINDS)
    for shards, plan, shard_marks in (
            (*partition_uniform_marked(ds, 5, seed, holdout_frac=0.25), marks),
            (*partition_label_skew(ds, 3, 0.5, seed), None)):
        expect = shards_per_image(ds, plan.assignments, shard_marks, seed,
                                  0.25 if shard_marks else 0.2)
        assert len(shards) == len(expect)
        for s, (tr_i, tr_l, ho_i, ho_l) in zip(shards, expect):
            assert same_bytes((s.images, tr_i), (s.labels, tr_l),
                              (s.holdout_images, ho_i),
                              (s.holdout_labels, ho_l))


def test_toy_digits_range_and_shapes():
    ds = toy(n_per_class=7, n_classes=3, h=12, w=10)
    assert ds.images.shape == (21, 12, 10)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert set(np.unique(ds.labels)) == {0, 1, 2}


def test_toy_digits_class_separation():
    ds = toy(n_per_class=40)
    means = np.stack([ds.images[ds.labels == c].mean(axis=0)
                      for c in range(ds.n_classes)])
    inter = []
    for a in range(ds.n_classes):
        for b in range(a + 1, ds.n_classes):
            inter.append(np.linalg.norm(means[a] - means[b]))
    intra = []
    for c in range(ds.n_classes):
        cls = ds.images[ds.labels == c]
        intra.append(np.linalg.norm(cls - means[c], axis=(1, 2)).mean())
    assert min(inter) > np.mean(intra) * 0.5
    assert np.mean(inter) > np.mean(intra)


def test_toy_digits_validation():
    with pytest.raises(ValueError, match=">= 8"):
        make_toy_digits(5, 2, 4, 16, 0)
    with pytest.raises(ValueError, match="classes"):
        make_toy_digits(5, 99, 16, 16, 0)


def test_dataset_mean_bce_oracle_sane():
    ds = toy(n_per_class=30)
    baseline = dataset_mean_bce(ds.images)
    assert baseline > 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_mark_mask_never_exceeds_frame(seed):
    rng = np.random.default_rng(seed)
    h = int(rng.integers(8, 24))
    w = int(rng.integers(8, 24))
    spec = default_marks(h, w)[int(rng.integers(0, 4))]
    mask = mark_mask(spec, h, w)
    assert mask.shape == (h, w)
