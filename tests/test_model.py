import struct

import numpy as np
import pytest

import feddva.autodiff as ad
from feddva.autodiff import Tensor, backward
from feddva.checkpoint import (MAGIC, CheckpointError, load_checkpoint,
                               save_checkpoint)
from feddva.gaussians import DiagGaussian, kl_to_standard
from feddva.config import METHODS
from feddva.model import (MODEL_CLASS, ArchitectureConfig, DvaModel,
                          PixelClassifier, VanillaVaeModel)

ARCH = ArchitectureConfig(input_dim=12, hidden_dims=(8,), d_z=3, d_c=2,
                          n_classes=4, head_hidden=(6,))


def fresh_model(seed=0, arch=ARCH):
    return DvaModel(arch, np.random.default_rng(seed))


def batch(seed=1, n=3, arch=ARCH):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(0, 1, (n, arch.input_dim)))


def test_encode_z_shapes():
    q = fresh_model().encode_z(batch(n=3))
    assert q.mu.shape == (3, ARCH.d_z)
    assert q.log_var.shape == (3, ARCH.d_z)


def test_encode_z_deterministic():
    m = fresh_model()
    x = batch()
    a, b = m.encode_z(x), m.encode_z(x)
    assert a.mu.data.tobytes() == b.mu.data.tobytes()


def test_zero_heads_give_standard_posterior():
    # posterior heads initialize to zero, so a fresh model sits at N(0, I)
    m = fresh_model()
    x = batch()
    qz = m.encode_z(x)
    assert np.all(qz.mu.data == 0.0)
    assert np.all(qz.log_var.data == 0.0)
    assert kl_to_standard(qz).item() == 0.0
    qc = m.encode_c(x, qz.mu)
    assert kl_to_standard(qc).item() == 0.0


def test_encode_c_conditions_on_z():
    m = fresh_model(seed=3)
    # give the c heads signal so conditioning is observable
    rng = np.random.default_rng(9)
    m.c_mu.w.data = rng.uniform(-0.5, 0.5, m.c_mu.w.data.shape)
    x = batch()
    z = Tensor(np.zeros((3, ARCH.d_z)))
    z2 = Tensor(np.full((3, ARCH.d_z), 0.7))
    a = m.encode_c(x, z).mu.data
    b = m.encode_c(x, z2).mu.data
    assert np.abs(a - b).max() > 0.0


def test_encode_c_shape_mismatch():
    m = fresh_model()
    with pytest.raises(ad.ShapeError, match="encode_c"):
        m.encode_c(batch(n=3), Tensor(np.zeros((2, ARCH.d_z))))


def test_encode_c_over_the_pixel_product_matches_the_joint_layer():
    m = fresh_model()
    rng = np.random.default_rng(7)
    for layer in (m.c_mu, m.c_lv):  # non-zero heads, so every path carries signal
        layer.w.data = rng.uniform(-0.5, 0.5, layer.w.data.shape)
    x = batch(n=5)
    h_in = m.h_in
    joint_w = Tensor(np.vstack([h_in.w_x.data, h_in.w_z.data]), requires_grad=True)
    joint_b = Tensor(h_in.b.data.copy(), requires_grad=True)
    z_data = rng.normal(size=(5, ARCH.d_z))

    def run(encode):
        z = Tensor(z_data, requires_grad=True)
        q = encode(z)
        backward(ad.sum_all(ad.square(q.mu)) + ad.sum_all(ad.square(q.log_var)))
        return q, z.grad

    split_q, split_gz = run(lambda z: m.encode_c(x, z, m.pixel_product(x)))
    joint_q, joint_gz = run(lambda z: DiagGaussian(
        *(head(h_in.act(ad.linear(x, z, joint_w, joint_b)))
          for head in (m.c_mu, m.c_lv))))
    for a, b in ((split_q.mu.data, joint_q.mu.data),
                 (split_q.log_var.data, joint_q.log_var.data),
                 (split_gz, joint_gz),
                 (h_in.w_x.grad, joint_w.grad[:ARCH.input_dim]),
                 (h_in.w_z.grad, joint_w.grad[ARCH.input_dim:]),
                 (h_in.b.grad, joint_b.grad)):
        assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-12


def test_split_first_layer_keeps_the_joint_draws_and_layout():
    # drawn as one (input_dim + d_z) x h weight, flattened pixel rows first
    m = fresh_model(seed=3)
    rng = np.random.default_rng(3)
    rng.uniform(size=ARCH.input_dim * 8 + 8)  # f's first layer draws first
    bound = 1.0 / np.sqrt(ARCH.input_dim + ARCH.d_z)
    joint = rng.uniform(-bound, bound, (ARCH.input_dim + ARCH.d_z, 8))
    assert np.array_equal(np.vstack([m.h_in.w_x.data, m.h_in.w_z.data]), joint)
    theta_c = np.concatenate([p.data.reshape(-1) for p in m.theta_c])
    assert np.array_equal(theta_c[:joint.size], joint.reshape(-1))


def test_decode_range_and_shape():
    m = fresh_model(seed=5)
    z = Tensor(np.random.default_rng(0).normal(size=(4, ARCH.d_z)))
    c = Tensor(np.random.default_rng(1).normal(size=(4, ARCH.d_c)))
    out = ad.sigmoid(m.decode(z, c))
    assert out.shape == (4, ARCH.input_dim)
    assert np.all(out.data > 0.0) and np.all(out.data < 1.0)


def test_classify_shape_and_shift_invariance():
    m = fresh_model(seed=6)
    z_mu = Tensor(np.random.default_rng(2).normal(size=(5, ARCH.d_z)))
    c_mu = Tensor(np.random.default_rng(3).normal(size=(5, ARCH.d_c)))
    logits = m.classify(z_mu, c_mu)
    assert logits.shape == (5, ARCH.n_classes)
    shifted = logits.data + 11.5
    assert np.array_equal(np.argmax(logits.data, axis=1),
                          np.argmax(shifted, axis=1))


def test_flatten_load_round_trip_bitwise():
    m = fresh_model(seed=7)
    flat = m.flatten_shared()
    assert flat.size == sum(p.data.size for p in m.shared_parameters())
    m.load_shared(flat)
    assert m.flatten_shared().tobytes() == flat.tobytes()


def test_load_shared_length_mismatch():
    m = fresh_model()
    with pytest.raises(ValueError, match="expected"):
        m.load_shared(np.zeros(3))


def test_no_local_params_in_shared_flat():
    m = fresh_model(seed=8)
    shared_ids = {id(p) for p in m.shared_parameters()}
    local_ids = {id(p) for p in m.local_parameters()}
    assert not shared_ids & local_ids
    n_shared = sum(p.data.size for p in m.shared_parameters())
    assert m.flatten_shared().size == n_shared


def test_peer_load_gives_identical_encodings():
    a, b = fresh_model(seed=10), fresh_model(seed=11)
    x = batch()
    b.load_shared(a.flatten_shared())
    qa, qb = a.encode_z(x), b.encode_z(x)
    assert qa.mu.data.tobytes() == qb.mu.data.tobytes()
    assert qa.log_var.data.tobytes() == qb.log_var.data.tobytes()


def test_cascade_gradient_reaches_theta_z_through_c_path():
    arch = ArchitectureConfig(input_dim=6, hidden_dims=(5,), d_z=2, d_c=2)
    m = DvaModel(arch, np.random.default_rng(12))
    rng = np.random.default_rng(13)
    # non-zero heads so gradients are not trivially zero
    for layer in (m.z_mu, m.z_lv, m.c_mu, m.c_lv):
        layer.w.data = rng.uniform(-0.5, 0.5, layer.w.data.shape)
    x = Tensor(rng.uniform(0, 1, (3, arch.input_dim)))
    qz = m.encode_z(x)
    qc = m.encode_c(x, qz.mu)
    # cut the decoder's direct z path: gradient must still reach theta_z via c
    dec_w = m.dec_trunk.layers[0].w
    dec_w.data[:arch.d_z, :] = 0.0
    out = m.decode(qz.mu, qc.mu)
    backward(ad.sum_all(ad.square(out)))
    g = np.concatenate([p.grad.reshape(-1) if p.grad is not None
                        else np.zeros(p.data.size) for p in m.theta_z])
    assert np.abs(g).max() > 0.0


def test_input_check_names_encode_for_every_model():
    arch = ArchitectureConfig(input_dim=9, hidden_dims=(5,), d_z=2, d_c=2,
                              n_classes=3)
    bad = Tensor(np.zeros((2, 7)))
    with pytest.raises(ad.ShapeError, match=r"encode.*\[batch, 9\].*\(2, 7\)"):
        VanillaVaeModel(arch, np.random.default_rng(0)).encode_z(bad)
    with pytest.raises(ad.ShapeError, match=r"encode.*\[batch, 9\].*\(2, 7\)"):
        PixelClassifier(arch, np.random.default_rng(0)).predict_logits(bad)


def test_vanilla_model_round_trip():
    arch = ArchitectureConfig(input_dim=10, hidden_dims=(6,), d_z=2, d_c=1)
    m = VanillaVaeModel(arch, np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).uniform(0, 1, (4, 10)))
    q = m.encode_z(x)
    out = m.decode(q.mu)
    assert out.shape == (4, 10)
    flat = m.flatten_shared()
    m.load_shared(flat)
    assert m.flatten_shared().tobytes() == flat.tobytes()


def test_pixel_classifier_all_params_shared():
    arch = ArchitectureConfig(input_dim=10, hidden_dims=(6,), d_z=2, d_c=1,
                              n_classes=3)
    m = PixelClassifier(arch, np.random.default_rng(0))
    assert m.local_parameters() == []
    logits = m.predict_logits(Tensor(np.zeros((2, 10))))
    assert logits.shape == (2, 3)


def test_model_class_covers_every_method():
    assert set(MODEL_CLASS) == set(METHODS)
    assert MODEL_CLASS["feddva"] is DvaModel


def test_arch_config_text_round_trip():
    for arch in (ARCH,
                 ArchitectureConfig(input_dim=5, hidden_dims=(), d_z=1, d_c=1,
                                    head_hidden=())):
        assert ArchitectureConfig.from_text(arch.canonical_text()) == arch


def test_checkpoint_round_trip_bitwise(tmp_path):
    m = fresh_model(seed=20)
    flat = m.flatten_shared()
    path = tmp_path / "shared.ckpt"
    save_checkpoint(path, "shared", ARCH, flat)
    kind, arch, loaded = load_checkpoint(path)
    assert kind == "shared"
    assert arch == ARCH
    assert loaded.tobytes() == flat.tobytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="bad magic at byte 0"):
        load_checkpoint(path)


def write_raw_checkpoint(path, header: bytes, flat: np.ndarray) -> None:
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header
                     + struct.pack("<Q", flat.size)
                     + flat.astype("<f8").tobytes())


@pytest.mark.parametrize("header,detail", [
    pytest.param(b"kind=shared", "architecture", id="no-architecture-line"),
    pytest.param(b"shared\n" + ARCH.canonical_text().encode(), "kind=",
                 id="no-kind"),
    pytest.param(b"kind=shared\n" + ARCH.canonical_text().replace(
        "hidden_dims=8;", "").encode(), "missing key 'hidden_dims'",
                 id="missing-key"),
    pytest.param(b"kind=shared\nd_z=3", "input_dim", id="one-key"),
    pytest.param(b"kind=shared\n" + ARCH.canonical_text().replace(
        "d_z=3", "d_z=x").encode(), "invalid literal", id="bad-value"),
    pytest.param(b"kind=shared\n" + ARCH.canonical_text().encode()
                 + b";activation=relu", "unknown architecture key "
                 "'activation'", id="unknown-key"),
    pytest.param(b"kind=shared\n" + ARCH.canonical_text().encode()
                 + b";d_z=5", "repeated architecture key 'd_z'",
                 id="repeated-key"),
    pytest.param(b"kind=shared\n" + ARCH.canonical_text().replace(
        "d_c=", "d_c").encode(), "architecture item 'd_c2' has no '='",
                 id="no-equals"),
    pytest.param(b"kind=shared\n\xff", "utf-8", id="not-utf-8"),
])
def test_checkpoint_malformed_header_names_file_and_offset(tmp_path, header,
                                                          detail):
    path = tmp_path / "h.ckpt"
    write_raw_checkpoint(path, header, np.zeros(3))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    message = str(info.value)
    assert message.startswith(f"{path}: malformed header at byte 9")
    assert detail in message


def test_checkpoint_truncation(tmp_path):
    m = fresh_model(seed=21)
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, "shared", ARCH, m.flatten_shared())
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(CheckpointError, match="payload"):
        load_checkpoint(path)
