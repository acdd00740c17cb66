import math
import warnings

import numpy as np
import pytest

import feddva.autodiff as ad
from feddva.autodiff import Tensor
from feddva.data import ClientShard, make_toy_digits, partition_uniform_marked
from feddva.metrics import (DisentanglementReport, ShardCodes, accuracy,
                            accuracy_per_client, clustering_report,
                            encode_shards, export_grid_image, latent_traversal,
                            mixture_kl_to_standard_mc, parse_pgm,
                            export_embeddings_csv,
                            _separation_ratio)
from feddva.model import ArchitectureConfig, DvaModel
from oracles import (drawn_model, export_embeddings_csv_writer,
                     export_grid_image_per_tile, latent_traversal_per_row,
                     mc_kl_mixture_to_standard)


def shards_and_model(seed=0, k=3, n_per_class=12, width=8, n_classes=None):
    ds = make_toy_digits(n_per_class, 4, 8, width, seed)
    shards, _ = partition_uniform_marked(ds, k, seed, holdout_frac=0.25)
    arch = ArchitectureConfig(input_dim=8 * width, hidden_dims=(16,), d_z=3,
                              d_c=2, n_classes=n_classes)
    model = drawn_model(DvaModel, arch, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for layer in (model.z_mu, model.z_lv, model.c_mu, model.c_lv):
        layer.w.data = rng.uniform(-0.3, 0.3, layer.w.data.shape)
    for s in shards:
        s.model = model
    return shards, model


# ------------------------------------------------------------ encoding


def test_encode_shards_holds_each_shards_posteriors():
    shards, model = shards_and_model()
    codes = encode_shards(shards)
    assert [c.shard_id for c in codes] == [s.id for s in shards]
    for shard, code in zip(shards, codes):
        qz, qc = model.posteriors(Tensor(shard.flat_images()))
        assert np.array_equal(code.z_mu, qz.mu.data)
        assert np.array_equal(code.c_mu, qc.mu.data)
        assert np.array_equal(code.c_log_var, qc.log_var.data)


# ------------------------------------------------------------- traversal


def traverse(shard, **kw):
    return latent_traversal(shard, encode_shards([shard])[0], **kw)


def test_traversal_grid_shape():
    shards, _ = shards_and_model()
    grid = traverse(shards[0], anchor=0, steps=5, span=1.5)
    assert grid.shape == (5, 5, 8, 8)


def test_traversal_single_step_is_anchor_recon():
    shards, model = shards_and_model()
    shard = shards[0]
    grid = traverse(shard, anchor=2, steps=1, span=1.0)
    qz, qc = model.posteriors(Tensor(shard.flat_images()))
    recon = ad.sigmoid(model.decode(Tensor(qz.mu.data[2:3]),
                                    Tensor(qc.mu.data[2:3]))).data
    assert np.allclose(grid[0, 0].reshape(-1), recon[0])


def test_traversal_zero_span_all_cells_identical():
    shards, _ = shards_and_model()
    grid = traverse(shards[0], anchor=0, steps=4, span=0.0)
    base = grid[0, 0]
    assert np.allclose(grid, base[None, None])


@pytest.mark.parametrize("steps,width", [(1, 8), (2, 8), (5, 8), (4, 12)])
def test_traversal_is_the_per_row_decode_bit_for_bit(steps, width):
    shards, _ = shards_and_model(width=width)
    for shard in shards:
        code = encode_shards([shard])[0]
        for anchor in (0, shard.n - 1):
            grid = latent_traversal(shard, code, anchor, steps, 1.7)
            want = latent_traversal_per_row(shard, code, anchor, steps, 1.7)
            assert grid.shape == (steps, steps, 8, width)
            assert grid.tobytes() == want.tobytes()


def test_traversal_is_one_decode(monkeypatch):
    shards, _ = shards_and_model()
    code = encode_shards(shards[:1])[0]
    rows = []
    decode = DvaModel.decode

    def counted(model, z, c):
        rows.append(z.shape[0])
        return decode(model, z, c)

    monkeypatch.setattr(DvaModel, "decode", counted)
    latent_traversal(shards[0], code, anchor=0, steps=5, span=1.0)
    assert rows == [25]


def test_scoring_records_no_graph_node():
    shards, model = shards_and_model(n_classes=4)
    params = model.all_parameters()
    before = next(ad._creation)
    codes = encode_shards(shards)
    latent_traversal(shards[0], codes[0], anchor=0, steps=3, span=1.0)
    accuracy(shards[0], "both")
    # a node would take the next creation index
    assert next(ad._creation) == before + 1
    assert all(p.requires_grad for p in params)


def test_traversal_rejects_nan_model():
    shards, model = shards_and_model()
    model.z_mu.w.data[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        traverse(shards[0], anchor=0, steps=3, span=1.0)


def test_traversal_anchor_bounds():
    shards, _ = shards_and_model()
    with pytest.raises(ValueError, match="anchor"):
        traverse(shards[0], anchor=10**6, steps=3, span=1.0)


# ------------------------------------------------------------ clustering


def synth_shard(k, center, n=20, d_img=8, jitter=1.0, seed=0):
    rng = np.random.default_rng(seed + k)
    images = rng.uniform(0, 1, (n, d_img, d_img))
    labels = np.zeros(n, dtype=int)
    return ClientShard(k, images, labels, images[:2], labels[:2])


def test_separation_ratio_known_geometry():
    rng = np.random.default_rng(0)
    clients = [rng.normal(loc=(+5.0, 0.0), scale=1.0, size=(40, 2)),
               rng.normal(loc=(-5.0, 0.0), scale=1.0, size=(40, 2))]
    assert _separation_ratio(clients) > 3.0


def test_separation_ratio_identical_points_is_zero():
    pts = [np.ones((5, 3)), np.ones((6, 3))]
    assert _separation_ratio(pts) == 0.0


def test_clustering_report_of_one_client_has_no_ratios():
    shards, _ = shards_and_model(k=3)
    one = clustering_report(encode_shards(shards[:1]), xi=1.0)
    three = clustering_report(encode_shards(shards), xi=1.0)
    assert one.separation_ratio_z is None and one.separation_ratio_c is None
    assert one.to_json_dict()["ratio_c_over_z"] is None
    # a client's estimate does not depend on the other clients
    assert one.constraint_estimate_per_client == \
        three.constraint_estimate_per_client[:1]
    with pytest.raises(ValueError, match="no clients"):
        clustering_report([], xi=1.0)


def test_clustering_report_fields_and_determinism():
    shards, _ = shards_and_model()
    codes = encode_shards(shards)
    a = clustering_report(codes, xi=0.5, seed=3)
    b = clustering_report(codes, xi=0.5, seed=3)
    assert a == b
    assert isinstance(a, DisentanglementReport)
    assert a.separation_ratio_c >= 0 and a.separation_ratio_z >= 0
    assert len(a.constraint_estimate_per_client) == len(shards)
    assert 0.0 <= a.fraction_constraint_met <= 1.0


def test_mixture_kl_estimator_consistency():
    # mixture equal to N(0, I) itself has KL 0
    rng = np.random.default_rng(4)
    val = mixture_kl_to_standard_mc(np.zeros((1, 3)), np.ones((1, 3)),
                                    20000, rng)
    assert abs(val) < 0.02
    # against the independent oracle on a random mixture
    mus = rng.normal(size=(4, 2))
    sigmas = rng.uniform(0.5, 1.5, (4, 2))
    mine = mixture_kl_to_standard_mc(mus, sigmas, 10**5,
                                     np.random.default_rng(5))
    ref, se = mc_kl_mixture_to_standard(mus, sigmas, 10**5,
                                        np.random.default_rng(6))
    assert abs(mine - ref) < 4 * se + 0.02


@pytest.mark.parametrize("offset", [0.0, 1e3, -1e3])
def test_mixture_kl_estimator_matches_per_component_oracle(offset):
    # same generator seed, so both draw the same picks and normals; the
    # estimator's GEMM must agree with the oracle's per-component sums, for
    # sample counts below, at and across its 1024-sample blocks
    cases = np.random.default_rng(int(offset) % 7)
    shapes = [(1, 1), (128, 8), (1, 8), (128, 1)] + [
        (int(cases.integers(1, 129)), int(cases.integers(1, 9)))
        for _ in range(16)]
    worst = 0.0
    for i, (n, d) in enumerate(shapes):
        n_samples = (2000, 2, 1024, 3073)[i % 4]
        mus = offset + cases.normal(size=(n, d))
        sigmas = np.exp(cases.uniform(-12.0, 6.0, (n, d)) / 2.0)
        mine = mixture_kl_to_standard_mc(mus, sigmas, n_samples,
                                         np.random.default_rng(i))
        ref, _ = mc_kl_mixture_to_standard(mus, sigmas, n_samples,
                                           np.random.default_rng(i))
        worst = max(worst, abs(mine - ref) / max(abs(ref), 1.0))
    assert worst <= 1e-9


def test_separation_invariant_under_rotation_translation():
    rng = np.random.default_rng(7)
    clients = [rng.normal(loc=(3.0, 1.0), size=(30, 2)),
               rng.normal(loc=(-2.0, 2.0), size=(30, 2))]
    base = _separation_ratio(clients)
    angle = 0.83
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    moved = [(p @ rot.T) + np.array([10.0, -4.0]) for p in clients]
    assert _separation_ratio(moved) == pytest.approx(base, rel=1e-9)


# -------------------------------------------------------------- accuracy


class StubPerfect:
    def __init__(self, n_classes):
        self.n_classes = n_classes
        self.labels = None

    def all_parameters(self):
        return []

    def predict_logits(self, x, latents="both"):
        logits = np.zeros((x.shape[0], self.n_classes))
        logits[np.arange(x.shape[0]), self.labels] = 1.0
        return Tensor(logits)


def test_accuracy_perfect_predictor():
    ds = make_toy_digits(10, 4, 8, 8, 0)
    shards, _ = partition_uniform_marked(ds, 2, 0, holdout_frac=0.3)
    for s in shards:
        s.model = StubPerfect(4)
        s.model.labels = s.holdout_labels
    accs, mean, std = accuracy_per_client(shards)
    assert accs == [1.0, 1.0]
    assert mean == 1.0 and std == 0.0


def test_accuracy_chance_level_random_logits():
    class StubRandom:
        def all_parameters(self):
            return []

        def predict_logits(self, x, latents="both"):
            rng = np.random.default_rng(x.shape[0])
            return Tensor(rng.normal(size=(x.shape[0], 4)))

    ds = make_toy_digits(200, 4, 8, 8, 1)
    shards, _ = partition_uniform_marked(ds, 2, 1, holdout_frac=0.5)
    for s in shards:
        s.model = StubRandom()
    accs, mean, _ = accuracy_per_client(shards)
    n = sum(s.holdout_labels.size for s in shards) // 2
    ci = 3 * math.sqrt(0.25 * 0.75 / n)
    assert abs(mean - 0.25) < ci + 0.05


def test_accuracy_empty_split_is_none():
    ds = make_toy_digits(6, 2, 8, 8, 2)
    shards, _ = partition_uniform_marked(ds, 2, 2, holdout_frac=0.0)
    for s in shards:
        s.model = StubPerfect(2)
    assert accuracy_per_client(shards) == ([None, None], None, None)
    # mean and stddev over the clients that have held-out rows
    shards, _ = partition_uniform_marked(ds, 3, 2, holdout_frac=0.5)
    shards[1].holdout_images = shards[1].holdout_images[:0]
    for s in shards:
        s.model = StubPerfect(2)
        s.model.labels = s.holdout_labels
    shards[2].model.labels = 1 - shards[2].holdout_labels
    assert accuracy_per_client(shards) == ([1.0, None, 0.0], 0.5, 0.5)


# ---------------------------------------------------------------- export


def test_pgm_tiling_dimensions(tmp_path):
    path = tmp_path / "grid.pgm"
    export_grid_image(np.zeros((2, 2, 16, 16)), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        img = parse_pgm(path)
    assert img.shape == (33, 33)
    assert not [w for w in caught if w.category is ResourceWarning]


def test_pgm_quantization_endpoints(tmp_path):
    images = np.zeros((1, 2, 4, 4))
    images[0, 0] = 0.0
    images[0, 1] = 1.0
    path = tmp_path / "q.pgm"
    export_grid_image(images, path)
    img = parse_pgm(path)
    assert img[0, 0] == 0
    assert img[0, 5] == 255


def test_pgm_round_trip_to_quantization(tmp_path):
    rng = np.random.default_rng(8)
    images = rng.uniform(0, 1, (3, 2, 5, 7))
    path = tmp_path / "r.pgm"
    export_grid_image(images, path)
    img = parse_pgm(path)
    for i in range(3):
        for j in range(2):
            tile = img[i * 6:i * 6 + 5, j * 8:j * 8 + 7]
            expected = np.round(images[i, j] * 255).astype(np.uint8)
            assert np.array_equal(tile, expected)


@pytest.mark.parametrize("shape", [(1, 1, 8, 12), (3, 2, 8, 12),
                                   (4, 4, 8, 8), (2, 3, 5, 1)])
def test_pgm_bytes_are_the_per_tile_export(tmp_path, shape):
    rng = np.random.default_rng(sum(shape))
    images = rng.uniform(-0.2, 1.2, shape)
    # exact halves of a level round to even, and the clip's bounds
    images.flat[:4] = [0.5 / 255, 1.5 / 255, 0.0, 1.0]
    export_grid_image(images, tmp_path / "whole.pgm")
    export_grid_image_per_tile(images, tmp_path / "tiles.pgm")
    assert ((tmp_path / "whole.pgm").read_bytes()
            == (tmp_path / "tiles.pgm").read_bytes())


def test_embeddings_csv_bytes_are_csv_writers(tmp_path):
    rng = np.random.default_rng(4)
    z, c = rng.standard_normal((5, 3)), rng.standard_normal((5, 2))
    z[0] = [np.nan, -0.0, 1e-300]
    z[1] = [np.inf, -np.inf, 5e-324]
    c[2] = [1e300, 0.1]
    c[3] = [-1.0, 123456789.125]
    for codes in ([], [ShardCodes(0, z, c, c)],
                  [ShardCodes(2, z[:2], c[:2], c[:2]),
                   ShardCodes(7, z[2:], c[2:], c[2:])],
                  encode_shards(shards_and_model()[0])):
        export_embeddings_csv(codes, tmp_path / "fast.csv")
        export_embeddings_csv_writer(codes, tmp_path / "writer.csv")
        got = (tmp_path / "fast.csv").read_bytes()
        assert got == (tmp_path / "writer.csv").read_bytes()
    export_embeddings_csv([ShardCodes(0, z, c, c)], tmp_path / "fast.csv")
    lines = (tmp_path / "fast.csv").read_bytes().split(b"\r\n")
    assert lines[1].startswith(b"0,0,nan,-0.0,1e-300,")
    assert lines[2].startswith(b"0,1,inf,-inf,5e-324,")


def test_embeddings_csv(tmp_path):
    shards, _ = shards_and_model()
    path = tmp_path / "emb.csv"
    export_embeddings_csv(encode_shards(shards), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "client_id,sample_id,z_0,z_1,z_2,c_0,c_1"
    assert len(lines) == 1 + sum(s.n for s in shards)
