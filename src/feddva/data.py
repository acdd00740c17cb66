"""Dataset ingestion and non-IID federation construction.

Three sources of client shards:
  * IDX binary files (the MNIST distribution format), big-endian
  * a procedural toy-digit generator for fast deterministic runs
  * partitioners: uniform split with client-specific marks, or
    Dirichlet label skew

Marks overlay a parametric curve on every image of a client by max
composition, so marking is idempotent and never pushes pixels out of
[0, 1].
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .seeding import make_rng

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

MARK_KINDS = ("horizontal-sinusoid", "ellipse", "vertical-sinusoid", "plain")

# the label-skew partition tops every client up to this many samples
MIN_PER_CLIENT = 4
# a marked client needs a batch of two rows to take one step
MIN_PER_MARKED_CLIENT = 2


class IdxFormatError(ValueError):
    pass


@dataclass
class Dataset:
    images: np.ndarray  # [n, H, W] floats in [0, 1]
    labels: np.ndarray  # [n] int class ids

    def __post_init__(self):
        if self.images.ndim != 3 or self.images.shape[0] != self.labels.shape[0]:
            raise ValueError(f"Dataset: images {self.images.shape} vs "
                             f"labels {self.labels.shape}")

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0


@dataclass(frozen=True)
class MarkSpec:
    kind: str
    amplitude: float = 4.0
    frequency: float = 2.0
    phase: float = 0.0
    thickness: float = 1.0
    intensity: float = 1.0

    def __post_init__(self):
        if self.kind not in MARK_KINDS:
            raise ValueError(f"MarkSpec: unknown kind {self.kind!r}")


@dataclass
class ClientShard:
    """One client's training data plus its federation bookkeeping."""

    id: int
    images: np.ndarray
    labels: np.ndarray
    holdout_images: np.ndarray
    holdout_labels: np.ndarray
    weight: float = 0.0
    model: object | None = None  # persistent local decoder/head state

    @property
    def n(self) -> int:
        return self.images.shape[0]

    def flat_images(self) -> np.ndarray:
        return self.images.reshape(self.n, self.images[0].size)


@dataclass
class PartitionPlan:
    scheme: str
    assignments: dict[int, list[int]]
    class_fractions: list[list[float]] | None = None

    def to_json(self) -> str:
        return json.dumps({
            "scheme": self.scheme,
            "assignments": {str(k): v for k, v in self.assignments.items()},
            "class_fractions": self.class_fractions,
        }, sort_keys=True)


# ----------------------------------------------------------------- IDX


def parse_idx(path) -> np.ndarray:
    """Decode an IDX file; images come back scaled to [0, 1]."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 4:
        raise IdxFormatError(f"{path}: truncated magic at byte 0")
    (magic,) = struct.unpack_from(">I", raw, 0)
    if magic == IDX_IMAGE_MAGIC:
        ndim = 3
    elif magic == IDX_LABEL_MAGIC:
        ndim = 1
    else:
        raise IdxFormatError(f"{path}: bad magic 0x{magic:08x} at byte 0")
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise IdxFormatError(f"{path}: truncated dimension header at byte 4")
    dims = struct.unpack_from(f">{ndim}I", raw, 4)
    expected = int(np.prod(dims))
    if len(raw) - header != expected:
        raise IdxFormatError(f"{path}: payload at byte {header} has "
                             f"{len(raw) - header} bytes, expected {expected}")
    data = np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(dims)
    if magic == IDX_IMAGE_MAGIC:
        return data.astype(np.float64) / 255.0
    return data.astype(np.int64)


def write_idx(path, array: np.ndarray) -> None:
    """Write images (3-d, [0,1] floats or uint8) or labels (1-d ints) as IDX."""
    if array.ndim == 3:
        magic = IDX_IMAGE_MAGIC
        payload = (np.clip(array, 0.0, 1.0) * 255.0).round().astype(np.uint8) \
            if array.dtype != np.uint8 else array
    elif array.ndim == 1:
        magic = IDX_LABEL_MAGIC
        payload = array.astype(np.uint8)
    else:
        raise ValueError(f"write_idx: unsupported ndim {array.ndim}")
    with open(path, "wb") as f:
        f.write(struct.pack(">I", magic))
        f.write(struct.pack(f">{array.ndim}I", *array.shape))
        f.write(payload.tobytes())


def load_idx_dataset(images_path, labels_path) -> Dataset:
    images = parse_idx(images_path)
    labels = parse_idx(labels_path)
    return Dataset(images=images, labels=labels)


# ---------------------------------------------------------------- marks


def mark_mask(spec: MarkSpec, height: int, width: int) -> np.ndarray:
    """Boolean mask of the pixels the mark covers."""
    if spec.kind == "plain":
        return np.zeros((height, width), dtype=bool)
    if spec.amplitude > max(height, width):
        raise ValueError(f"mark amplitude {spec.amplitude} exceeds image "
                         f"size {height}x{width}")
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    if spec.kind == "horizontal-sinusoid":
        curve = (height - 1) / 2.0 + spec.amplitude * np.sin(
            2.0 * np.pi * spec.frequency * np.arange(width) / width + spec.phase)
        return np.abs(rows - curve[None, :]) <= spec.thickness / 2.0
    if spec.kind == "vertical-sinusoid":
        curve = (width - 1) / 2.0 + spec.amplitude * np.sin(
            2.0 * np.pi * spec.frequency * np.arange(height) / height + spec.phase)
        return np.abs(cols - curve[:, None]) <= spec.thickness / 2.0
    # ellipse: boundary band around normalized radius 1
    ry = spec.amplitude
    rx = 1.5 * spec.amplitude
    if 2 * rx > width or 2 * ry > height:
        raise ValueError(f"ellipse axes ({ry}, {rx}) exceed image "
                         f"size {height}x{width}")
    cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
    r = np.sqrt(((rows - cy) / ry) ** 2 + ((cols - cx) / rx) ** 2)
    return np.abs(r - 1.0) <= spec.thickness / (2.0 * min(rx, ry))


def apply_mark(image: np.ndarray, spec: MarkSpec) -> np.ndarray:
    """Overlay the mark by max composition, clamped to [0, 1].

    image is one [H, W] image or an [n, H, W] stack; one mask of the last
    two dimensions marks every image of a stack.
    """
    mask = mark_mask(spec, *image.shape[-2:])
    return np.maximum(image, np.where(mask, min(spec.intensity, 1.0), 0.0))


def default_marks(height: int, width: int) -> list[MarkSpec]:
    # amplitude off the smaller side so the 1.5x ellipse axis always fits
    amp = min(height, width) / 4.0
    return [
        MarkSpec("horizontal-sinusoid", amplitude=amp),
        MarkSpec("ellipse", amplitude=amp),
        MarkSpec("vertical-sinusoid", amplitude=amp),
        MarkSpec("plain"),
    ]


# ----------------------------------------------------------- partitions


def _split_holdout(images, labels, holdout_frac, rng):
    n = images.shape[0]
    n_hold = int(round(n * holdout_frac))
    if n - n_hold < 2:
        n_hold = max(0, n - 2)
    perm = rng.permutation(n)
    hold, train = perm[:n_hold], perm[n_hold:]
    return images[train], labels[train], images[hold], labels[hold]


def _finalize_shards(ds, assignments, marks, seed, holdout_frac, scheme,
                     class_fractions=None):
    shards = []
    for k in sorted(assignments):
        idx = np.asarray(assignments[k], dtype=int)
        images = ds.images[idx]
        labels = ds.labels[idx]
        if marks:
            images = apply_mark(images, marks[k])
        rng = make_rng(seed, "holdout", k)
        tr_i, tr_l, ho_i, ho_l = _split_holdout(images, labels, holdout_frac, rng)
        shards.append(ClientShard(id=k, images=tr_i, labels=tr_l,
                                  holdout_images=ho_i, holdout_labels=ho_l))
    total = sum(s.n for s in shards)
    for s in shards:
        s.weight = s.n / total
    plan = PartitionPlan(scheme=scheme,
                         assignments={k: [int(i) for i in v]
                                      for k, v in assignments.items()},
                         class_fractions=class_fractions)
    return shards, plan


def partition_uniform_marked(ds: Dataset, n_clients: int, seed: int,
                             holdout_frac: float = 0.2):
    """Uniform disjoint split; client k gets mark k cycling the four kinds."""
    n = ds.images.shape[0]
    if n_clients < 1 or n < MIN_PER_MARKED_CLIENT * n_clients:
        raise ValueError(f"partition: {n} samples cannot give {n_clients} "
                         f"clients {MIN_PER_MARKED_CLIENT} each; need "
                         f"1 <= clients <= {n // MIN_PER_MARKED_CLIENT}")
    base = default_marks(ds.images.shape[1], ds.images.shape[2])
    marks = [base[k % len(base)] for k in range(n_clients)]
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    splits = np.array_split(perm, n_clients)
    assignments = {k: splits[k].tolist() for k in range(n_clients)}
    return _finalize_shards(ds, assignments, marks, seed, holdout_frac,
                            "uniform-with-marks")


def partition_label_skew(ds: Dataset, n_clients: int, concentration: float,
                         seed: int, holdout_frac: float = 0.2):
    """Dirichlet label skew: per class, fractions over clients ~ Dir(conc).

    A minimal top-up moves samples from the largest shards until every
    client holds at least MIN_PER_CLIENT, since the objective needs
    batches of two or more.
    """
    n = ds.images.shape[0]
    if n_clients < 1 or concentration <= 0:
        raise ValueError(f"partition: clients >= 1 and concentration > 0 "
                         f"required, got {n_clients}, {concentration}")
    if n_clients * MIN_PER_CLIENT > n:
        raise ValueError(f"partition: {n_clients} clients x {MIN_PER_CLIENT} "
                         f"min samples exceeds dataset size {n}")
    rng = np.random.default_rng(seed)
    n_classes = ds.n_classes
    buckets: dict[int, list[int]] = {k: [] for k in range(n_clients)}
    fractions = []
    for cls in range(n_classes):
        idx = np.flatnonzero(ds.labels == cls)
        rng.shuffle(idx)
        props = rng.dirichlet(np.full(n_clients, concentration))
        fractions.append(props.tolist())
        cuts = (np.cumsum(props) * idx.size).astype(int)[:-1]
        for k, chunk in enumerate(np.split(idx, cuts)):
            buckets[k].extend(chunk.tolist())
    # top-up: move one sample at a time from the largest shard
    while True:
        sizes = {k: len(v) for k, v in buckets.items()}
        poor = [k for k, s in sizes.items() if s < MIN_PER_CLIENT]
        if not poor:
            break
        rich = max(sizes, key=sizes.get)
        moved = buckets[rich].pop()
        buckets[poor[0]].append(moved)
    return _finalize_shards(ds, buckets, None, seed, holdout_frac,
                            "label-skew", class_fractions=fractions)


# ----------------------------------------------------------- toy digits

# stroke recipes on a unit square; distinct geometry per class
_GLYPHS = {
    0: ("box",),
    1: ("vline",),
    2: ("diag",),
    3: ("hline", "vline"),
    4: ("anti",),
    5: ("hline",),
    6: ("vline_left", "vline_right"),
    7: ("hline_top", "diag"),
}

TOY_MAX_CLASSES = len(_GLYPHS)
TOY_MIN_SIDE = 8  # smallest toy-digit height and width


def _draw_stroke(canvas, stroke):
    h, w = canvas.shape
    m = 2  # margin keeps jittered glyphs inside the frame
    t = 2  # stroke thickness
    if stroke == "box":
        canvas[m:m + t, m:w - m] = 1.0
        canvas[h - m - t:h - m, m:w - m] = 1.0
        canvas[m:h - m, m:m + t] = 1.0
        canvas[m:h - m, w - m - t:w - m] = 1.0
    elif stroke == "vline":
        canvas[m:h - m, w // 2:w // 2 + t] = 1.0
    elif stroke == "hline":
        canvas[h // 2:h // 2 + t, m:w - m] = 1.0
    elif stroke == "hline_top":
        canvas[m:m + t, m:w - m] = 1.0
    elif stroke == "vline_left":
        canvas[m:h - m, m:m + t] = 1.0
    elif stroke == "vline_right":
        canvas[m:h - m, w - m - t:w - m] = 1.0
    elif stroke in ("diag", "anti"):
        for s in np.linspace(0, 1, 4 * max(h, w)):
            i = int(m + s * (h - 2 * m - 1))
            j = int(m + s * (w - 2 * m - 1))
            if stroke == "anti":
                j = w - 1 - j
            canvas[i, max(0, j - 1):j + 1] = 1.0


def _toy_glyphs(n_classes: int, height: int, width: int) -> np.ndarray:
    """[C, 3, 3, H, W]: class cls's glyph rolled by (dy, dx) at
    [cls, dy + 1, dx + 1]."""
    templates = np.zeros((n_classes, height, width))
    for cls in range(n_classes):
        for stroke in _GLYPHS[cls]:
            _draw_stroke(templates[cls], stroke)
    glyphs = np.empty((n_classes, 3, 3, height, width))
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            glyphs[:, dy + 1, dx + 1] = np.roll(templates, (dy, dx),
                                                axis=(1, 2))
    return glyphs


def _jitter_draws(first: np.ndarray) -> np.ndarray:
    """[2, n] the 32-bit draws of dy + 1, then dx + 1: the low, then the high
    half of each image's first raw, the order Generator.integers takes them
    in."""
    return np.stack([first & 0xFFFFFFFF, first >> 32])


def _toy_images_per_image(glyphs, labels, rng) -> np.ndarray:
    """The images drawn one at a time through the Generator calls whose
    stream make_toy_digits decodes."""
    images = np.empty((labels.size, *glyphs.shape[-2:]))
    for at, cls in enumerate(labels):
        dy, dx = rng.integers(-1, 2, size=2)
        # in [0, 1] as drawn: a 0/1 glyph scaled below 1, noise below 0.05
        img = glyphs[cls, dy + 1, dx + 1] * rng.uniform(0.85, 1.0)
        np.maximum(img, rng.uniform(0.0, 0.05, size=img.shape),
                   out=images[at])
    return images


def make_toy_digits(n_per_class: int, n_classes: int, height: int, width: int,
                    seed: int) -> Dataset:
    """Procedural class-distinct glyphs with per-sample jitter.

    The stream: np.random.default_rng(seed) draws, for each image in class
    order, integers(-1, 2, size=2) for (dy, dx), uniform(0.85, 1.0) for the
    glyph's scale and uniform(0.0, 0.05, size=(H, W)) for the noise; the
    image is max(scale * rolled glyph, noise), and permutation(n) then
    shuffles the images. One random_raw call of n * (2 + H*W) raws decodes
    that stream: image i's first raw holds dy and dx in its low and high
    32-bit halves, each ((u * 3) >> 32) - 1 (numpy's bounded-integer rule,
    Lemire 2019), and each later raw is a double u = (raw >> 11) * 2**-53,
    the scale 0.85 + (1.0 - 0.85) * u and the noise 0.05 * u. numpy redraws
    a 32-bit half that is 0, which shifts the rest of the stream, so then
    a fresh generator makes the calls one image at a time.
    """
    if height < TOY_MIN_SIDE or width < TOY_MIN_SIDE:
        raise ValueError(f"toy digits need height, width >= {TOY_MIN_SIDE}, "
                         f"got {height}x{width}")
    if not 1 <= n_classes <= TOY_MAX_CLASSES:
        raise ValueError(f"toy generator supports 1..{TOY_MAX_CLASSES} "
                         f"classes, got {n_classes}")
    n = n_per_class * n_classes
    glyphs = _toy_glyphs(n_classes, height, width)
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), n_per_class)
    rng = np.random.default_rng(seed)
    row = 2 + height * width
    raw = rng.bit_generator.random_raw(n * row).reshape(n, row)
    draws = _jitter_draws(raw[:, 0])
    if draws.all():
        dy, dx = (draws * 3) >> 32  # the indices dy + 1 and dx + 1
        # shifted in place and dropped before the images are made, the raws
        # leave at most two dataset-sized arrays alive, as the loop does
        np.right_shift(raw, 11, out=raw)
        scale = 0.85 + (1.0 - 0.85) * (raw[:, 1] * 2.0**-53)
        noise = raw[:, 2:] * 2.0**-53
        del raw
        noise *= 0.05
        images = glyphs[labels, dy, dx]
        images *= scale[:, None, None]
        np.maximum(images, noise.reshape(images.shape), out=images)
        del noise
    else:
        rng = np.random.default_rng(seed)
        images = _toy_images_per_image(glyphs, labels, rng)
    perm = rng.permutation(n)
    return Dataset(images=images[perm], labels=labels[perm])
