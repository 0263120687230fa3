"""Concept vocabularies, synthetic datasets, and analytic oracles.

Two data worlds are supported: 2-D isotropic Gaussian mixtures (one
component per concept) and 16x16 grayscale glyphs (one shape per concept).
Each comes with an oracle classifier: the exact Bayes classifier for the
mixture and a template-correlation classifier for glyphs.
"""

from __future__ import annotations

import csv
import functools
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, StructuralError

GLYPH_RESOLUTION = 16
GLYPH_DIM = GLYPH_RESOLUTION * GLYPH_RESOLUTION

# Sample width of each data world.
MODE_DIMS = {"points2d": 2, "glyphs16": GLYPH_DIM}

KNOWN_SHAPES = ("circle", "square", "cross", "triangle", "stripes")


@dataclass(frozen=True)
class ConceptDef:
    name: str
    concept_id: int


@dataclass(frozen=True)
class ConceptVocab:
    """Ordered concept set with a reserved unconditional token.

    Concept ids are dense 0..K-1; the null token gets the distinct id K.
    """

    concepts: tuple[ConceptDef, ...]

    def __post_init__(self):
        ids = [c.concept_id for c in self.concepts]
        if ids != list(range(len(ids))):
            raise ConfigError(f"concept ids must be dense 0..K-1, got {ids}")
        names = [c.name for c in self.concepts]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate concept names: {names}")

    @property
    def size(self) -> int:
        return len(self.concepts)

    @property
    def null_id(self) -> int:
        return len(self.concepts)

    def id_of(self, name: str) -> int:
        for c in self.concepts:
            if c.name == name:
                return c.concept_id
        raise ConfigError(f"unknown concept name {name!r}; "
                          f"known: {[c.name for c in self.concepts]}")

    def validate_id(self, concept_id: int, allow_null: bool = False) -> None:
        limit = self.size + (1 if allow_null else 0)
        if not 0 <= concept_id < limit:
            raise ConfigError(f"concept id {concept_id} out of range "
                              f"(K={self.size}, null={self.null_id})")

    @staticmethod
    def from_names(names: Sequence[str]) -> "ConceptVocab":
        return ConceptVocab(tuple(ConceptDef(n, i) for i, n in enumerate(names)))


@dataclass(frozen=True)
class PointMixtureSpec:
    """Isotropic 2-D Gaussian mixture, one component per concept."""

    means: tuple[tuple[float, float], ...]
    sigma: float
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.means) == 0:
            raise ConfigError("mixture needs at least one component")
        if self.sigma <= 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if len(self.weights) != len(self.means):
            raise ConfigError("one weight per component required")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ConfigError(f"weights must sum to 1, got {sum(self.weights)!r}")
        if any(w < 0 for w in self.weights):
            raise ConfigError("weights must be non-negative")

    @property
    def n_components(self) -> int:
        return len(self.means)

    def mean_array(self) -> np.ndarray:
        return np.asarray(self.means, dtype=np.float64)


@dataclass(frozen=True)
class GlyphSpec:
    """16x16 glyph renderer config: one shape kind per concept.

    Jitter ranges are symmetric: position offsets in [-jitter_pos, jitter_pos]
    pixels, scale factors in [1-jitter_scale, 1+jitter_scale]. Rendered
    intensity is drawn uniformly from [intensity_low, intensity_high].
    """

    shape_kinds: tuple[str, ...]
    jitter_pos: float = 1.0
    jitter_scale: float = 0.10
    intensity_low: float = 0.75
    intensity_high: float = 1.0
    resolution = GLYPH_RESOLUTION    # fixed; not a field

    def __post_init__(self):
        for kind in self.shape_kinds:
            if kind not in KNOWN_SHAPES:
                raise ConfigError(f"unknown shape kind {kind!r}; known: {KNOWN_SHAPES}")
        if not 0.0 <= self.intensity_low <= self.intensity_high <= 1.0:
            raise ConfigError("intensity range must satisfy 0 <= low <= high <= 1")
        if self.jitter_pos < 0 or self.jitter_scale < 0:
            raise ConfigError("jitter ranges must be non-negative")

    @property
    def n_concepts(self) -> int:
        return len(self.shape_kinds)


@dataclass
class Dataset:
    """Labeled sample matrix; d=2 for points2d, d=256 for glyphs16."""

    samples: np.ndarray
    labels: np.ndarray
    mode: str
    n_concepts: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.samples.ndim != 2 or self.samples.shape[0] != self.labels.shape[0]:
            raise StructuralError("samples and labels must align")
        if self.labels.size and self.labels.max() >= self.n_concepts:
            raise StructuralError("label exceeds concept count")

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


def default_points_vocab() -> tuple[ConceptVocab, PointMixtureSpec]:
    """Eight equal-weight concepts, sigma 0.15, means on the unit circle: well
    separated, so erasure-rate changes come from fine-tuning, not the oracle."""
    n_concepts = 8
    vocab = ConceptVocab.from_names([f"c{i}" for i in range(n_concepts)])
    angles = 2.0 * np.pi * np.arange(n_concepts) / n_concepts
    means = tuple((float(np.cos(a)), float(np.sin(a))) for a in angles)
    weights = tuple([1.0 / n_concepts] * n_concepts)
    return vocab, PointMixtureSpec(means=means, sigma=0.15, weights=weights)


def default_glyph_vocab() -> tuple[ConceptVocab, GlyphSpec]:
    return ConceptVocab.from_names(KNOWN_SHAPES), GlyphSpec(shape_kinds=KNOWN_SHAPES)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_points2d(spec: PointMixtureSpec, n_per_concept: int, seed: int) -> Dataset:
    """Draw n_per_concept i.i.d. points from each labeled component."""
    if n_per_concept < 1:
        raise ConfigError(f"n_per_concept must be >= 1, got {n_per_concept}")
    rng = np.random.default_rng(seed)
    means = spec.mean_array()
    k = spec.n_components
    samples = np.empty((k * n_per_concept, 2), dtype=np.float64)
    labels = np.empty(k * n_per_concept, dtype=np.int64)
    for i in range(k):
        block = slice(i * n_per_concept, (i + 1) * n_per_concept)
        samples[block] = means[i] + spec.sigma * rng.standard_normal((n_per_concept, 2))
        labels[block] = i
    return Dataset(samples, labels, mode="points2d", n_concepts=k)


def _shape_mask(kind: str, cx: float, cy: float, scale: float,
                resolution: int = GLYPH_RESOLUTION) -> np.ndarray:
    """Soft-edged shape indicator in [0,1] on the pixel grid."""
    ys, xs = np.mgrid[0:resolution, 0:resolution].astype(np.float64)
    dx, dy = xs - cx, ys - cy
    soft = 1.0  # edge softness in pixels; keeps data smooth for diffusion

    if kind == "circle":
        dist = np.hypot(dx, dy) - 5.0 * scale
    elif kind == "square":
        dist = np.maximum(np.abs(dx), np.abs(dy)) - 4.2 * scale
    elif kind == "cross":
        bar_v = np.maximum(np.abs(dx) - 1.6 * scale, np.abs(dy) - 5.4 * scale)
        bar_h = np.maximum(np.abs(dy) - 1.6 * scale, np.abs(dx) - 5.4 * scale)
        dist = np.minimum(bar_v, bar_h)
    elif kind == "triangle":
        # upward triangle: three half-plane distances, apex at top
        h = 5.2 * scale
        d_base = dy - h * 0.8                      # below the base
        d_left = (-dy * 0.5 - dx * 0.866) - h * 0.5
        d_right = (-dy * 0.5 + dx * 0.866) - h * 0.5
        dist = np.maximum(d_base, np.maximum(d_left, d_right))
    elif kind == "stripes":
        # fixed-frequency horizontal stripes: scale jitter does not apply,
        # position jitter shifts the phase; returns the smooth pattern directly
        return 0.5 + 0.5 * np.cos(2.0 * np.pi * dy / 5.0)
    else:
        raise ConfigError(f"unknown shape kind {kind!r}")
    return np.clip(0.5 - dist / soft, 0.0, 1.0)


def canonical_template(spec: GlyphSpec, concept_id: int) -> np.ndarray:
    """Deterministic centered glyph at nominal scale and peak intensity."""
    if not 0 <= concept_id < spec.n_concepts:
        raise ConfigError(f"concept id {concept_id} out of range")
    center = (spec.resolution - 1) / 2.0
    mask = _shape_mask(spec.shape_kinds[concept_id], center, center, 1.0, spec.resolution)
    return (spec.intensity_high * mask).reshape(-1)


def gen_glyphs(spec: GlyphSpec, n_per_concept: int, seed: int) -> Dataset:
    """Render jittered glyphs; each sample is a flattened image in [0,1]^256."""
    if n_per_concept < 1:
        raise ConfigError(f"n_per_concept must be >= 1, got {n_per_concept}")
    rng = np.random.default_rng(seed)
    k = spec.n_concepts
    center = (spec.resolution - 1) / 2.0
    samples = np.empty((k * n_per_concept, GLYPH_DIM), dtype=np.float64)
    labels = np.empty(k * n_per_concept, dtype=np.int64)
    row = 0
    for i in range(k):
        for _ in range(n_per_concept):
            dx, dy = rng.uniform(-spec.jitter_pos, spec.jitter_pos, size=2)
            scale = rng.uniform(1.0 - spec.jitter_scale, 1.0 + spec.jitter_scale)
            amp = rng.uniform(spec.intensity_low, spec.intensity_high)
            mask = _shape_mask(spec.shape_kinds[i], center + dx, center + dy,
                               scale, spec.resolution)
            samples[row] = np.clip(amp * mask, 0.0, 1.0).reshape(-1)
            labels[row] = i
            row += 1
    return Dataset(samples, labels, mode="glyphs16", n_concepts=k)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def bayes_classify(spec: PointMixtureSpec, x: np.ndarray) -> tuple:
    """Posterior over components at each row of x; argmax ids, ties broken
    by lowest id. x of shape (n, 2) gives (labels (n,), posteriors (n, K));
    a single point (2,) gives (label, posterior)."""
    X = np.asarray(x, dtype=np.float64)
    means, var = spec.mean_array(), spec.sigma ** 2
    diff = np.atleast_2d(X)[:, None, :] - means        # (n, K, 2)
    log_w = np.log(np.maximum(np.asarray(spec.weights), 1e-300))
    log_comp = log_w - (diff ** 2).sum(axis=2) / (2.0 * var)
    posterior = np.exp(log_comp - log_comp.max(axis=1, keepdims=True))
    posterior /= posterior.sum(axis=1, keepdims=True)
    labels = np.argmax(posterior, axis=1)
    if X.ndim == 1:
        return int(labels[0]), posterior[0]
    return labels, posterior


TEMPLATE_SEARCH_RADIUS = 2


@functools.lru_cache(maxsize=8)
def _template_bank(spec: GlyphSpec) -> np.ndarray:
    """Centered unit-norm canonical templates under every cyclic shift
    within +-TEMPLATE_SEARCH_RADIUS pixels, one row each, in (concept,
    sy, sx) order."""
    res, r = spec.resolution, TEMPLATE_SEARCH_RADIUS
    rows = []
    for cid in range(spec.n_concepts):
        tmpl = canonical_template(spec, cid).reshape(res, res)
        for sy in range(-r, r + 1):
            for sx in range(-r, r + 1):
                shifted = np.roll(np.roll(tmpl, sy, axis=0), sx, axis=1).reshape(-1)
                centered = shifted - shifted.mean()
                rows.append(centered / np.linalg.norm(centered))
    bank = np.array(rows)
    bank.flags.writeable = False
    return bank


def template_classify(spec: GlyphSpec, image: np.ndarray) -> tuple:
    """Best-matching concept by centered normalized cross-correlation.

    The correlation is alignment-searched: per template, the maximum over
    integer displacements within +-TEMPLATE_SEARCH_RADIUS pixels (cyclic),
    so position jitter does not defeat recognition; ties go to the first
    in (concept, sy, sx) order. Confidence rescales the winning NCC from
    [-1,1] to [0,1]; degenerate (constant) images get label 0 and
    confidence 0 so evaluation loops stay total. A batch (n, 256) is
    classified with one matmul and gives (labels (n,), confidences (n,));
    one flattened image gives (label, confidence).
    """
    images = np.asarray(image, dtype=np.float64)
    dim = spec.resolution ** 2
    if images.ndim not in (1, 2) or images.shape[-1] != dim:
        raise StructuralError(f"expected flattened {spec.resolution}x{spec.resolution} "
                              f"images, got shape {images.shape}")
    centered = np.atleast_2d(images)
    centered = centered - centered.mean(axis=1, keepdims=True)
    norm = np.linalg.norm(centered, axis=1)
    ncc = centered @ _template_bank(spec).T
    best = np.argmax(ncc, axis=1)
    flat = norm == 0.0
    best[flat] = 0
    conf = (ncc[np.arange(len(best)), best] / np.where(flat, 1.0, norm) + 1.0) / 2.0
    conf[flat] = 0.0
    labels = best // (2 * TEMPLATE_SEARCH_RADIUS + 1) ** 2
    if images.ndim == 1:
        return int(labels[0]), float(conf[0])
    return labels, conf


def bayes_oracle(spec: PointMixtureSpec) -> Callable[[np.ndarray], tuple]:
    """Classifier closure returning (label, max-posterior confidence), per
    row for a batch."""
    def classify(x: np.ndarray) -> tuple:
        labels, posterior = bayes_classify(spec, np.atleast_2d(x))
        conf = posterior[np.arange(len(labels)), labels]
        if np.asarray(x).ndim == 1:
            return int(labels[0]), float(conf[0])
        return labels, conf
    return classify


def template_oracle(spec: GlyphSpec) -> Callable[[np.ndarray], tuple]:
    def classify(image: np.ndarray) -> tuple:
        return template_classify(spec, image)
    return classify


# ---------------------------------------------------------------------------
# CSV persistence for datasets (header: label,x0..x{d-1})
# ---------------------------------------------------------------------------

def dataset_to_csv(dataset: Dataset, path) -> None:
    """Write the dataset atomically, each value as the repr of its double."""
    from .persistence import _atomic_open  # persistence imports this module

    with _atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"x{i}" for i in range(dataset.dim)])
        for label, row in zip(dataset.labels, dataset.samples):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])


def _first_bad_row(path):
    """The first ragged row or non-numeric cell of a CSV that np.loadtxt
    rejected, in the loader's wording; None if this scan finds neither."""
    with open(path) as fh:
        rows = [line.rstrip("\r\n").split(",") for line in fh if line.strip()][1:]
    for n, cells in enumerate(rows, 1):
        if len(cells) != len(rows[0]):
            return (f"data row {n} has {len(cells)} columns, data row 1 has "
                    f"{len(rows[0])}")
        for col, cell in enumerate(cells, 1):
            try:
                float(cell)
            except ValueError:
                return f"data row {n}, column {col}: not a number: {cell!r}"
    return None


def dataset_from_csv(path, mode: str, n_concepts: int) -> Dataset:
    """Read a dataset CSV of `mode`'s width in one parse.

    Bytes that do not decode, a missing header, no data rows, a ragged
    row, a non-numeric or non-finite cell, a wrong width or a label that is
    not a concept id in 0..n_concepts-1 is a ConfigError naming the file.
    """
    width = 1 + MODE_DIMS[mode]
    try:
        with open(path) as fh:
            header = fh.readline().rstrip("\r\n").split(",")
            if header[0] != "label":
                raise ConfigError(f"{path}: expected dataset header starting "
                                  f"with 'label'")
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # no rows: below
                    table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError as exc:
                raise ConfigError(f"{path}: {_first_bad_row(path) or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file ({exc.reason})") from exc
    if table.shape[0] == 0:
        raise ConfigError(f"{path}: dataset has no rows")
    for what, got in (("header has", len(header)), ("rows have", table.shape[1])):
        if got != width:
            raise ConfigError(f"{path}: {what} {got} columns, {mode} data "
                              f"has {width} (a label and {width - 1} values)")
    if not np.isfinite(table).all():
        row, col = np.argwhere(~np.isfinite(table))[0]
        raise ConfigError(f"{path}: non-finite value in data row {row + 1}, "
                          f"column {col + 1}")
    labels = table[:, 0]
    bad = (labels != np.floor(labels)) | (labels < 0) | (labels >= n_concepts)
    if bad.any():
        row = int(np.argmax(bad))
        raise ConfigError(f"{path}: label {labels[row]:g} in data row {row + 1} "
                          f"is not a concept id in 0..{n_concepts - 1}")
    return Dataset(np.ascontiguousarray(table[:, 1:]), labels.astype(np.int64),
                   mode=mode, n_concepts=n_concepts)
