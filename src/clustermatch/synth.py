"""Seeded Gaussian-blob generator standing in for real face embeddings."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Embedding

_MAX_CENTER_ATTEMPTS = 1000


@dataclass(frozen=True)
class SynthConfig:
    num_identities: int
    points_per_identity: int
    dimension: int
    blob_stddev: float = 1.0
    separation: float = 10.0  # minimum inter-center distance, in stddev units
    seed: int = 0
    fraction_nonregistered: float = 0.0

    def __post_init__(self) -> None:
        if self.num_identities < 1 or self.points_per_identity < 1 or self.dimension < 1:
            raise ValueError("counts must be positive")
        if not (0 < self.blob_stddev < math.inf and 0 < self.separation < math.inf):
            raise ValueError(
                f"blob_stddev and separation must be positive and finite, got {self.blob_stddev} and {self.separation}"
            )
        # a bound on every coordinate (the cube plus 10 stddevs of noise); 4 d reach^2 bounds
        # every squared distance and is what clustering's own overflow check computes
        reach = self.cube_side + 10.0 * self.blob_stddev
        if not math.isfinite(4.0 * self.dimension * reach * reach):
            raise ValueError(
                f"separation x blob_stddev = {self.separation * self.blob_stddev:.3g} overflows float64: with "
                f"blob_stddev {self.blob_stddev:.3g} in {self.dimension} dimensions the points' squared distances exceed its range"
            )
        if not 0.0 <= self.fraction_nonregistered <= 1.0:
            raise ValueError("fraction_nonregistered must be in [0, 1]")

    @property
    def cube_side(self) -> float:
        """Side of the hypercube the centres are drawn from, scaled so that
        num_identities separated centres plausibly fit."""
        min_dist = self.separation * self.blob_stddev
        return min_dist * max(2.0, self.num_identities ** (1.0 / self.dimension) * 2.0)


@dataclass(frozen=True)
class SyntheticDataset:
    """Generated embeddings plus the ground truth behind them."""

    embeddings: tuple[Embedding, ...]
    centers: tuple[tuple[float, ...], ...]
    labels: tuple[str, ...]  # per identity, parallel to centers
    registered_labels: frozenset[str]
    nonregistered_labels: frozenset[str]
    config: SynthConfig

    def registered(self) -> list[Embedding]:
        return [e for e in self.embeddings if e.true_label in self.registered_labels]

    def nonregistered(self) -> list[Embedding]:
        return [e for e in self.embeddings if e.true_label in self.nonregistered_labels]


def _place_centers(config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Rejection-sample centers on a hypercube until all pairs respect the separation."""
    min_dist = config.separation * config.blob_stddev
    side = config.cube_side
    centers: list[np.ndarray] = []
    attempts = 0
    while len(centers) < config.num_identities:
        cand = rng.uniform(0.0, side, size=config.dimension)
        if all(np.linalg.norm(cand - c) >= min_dist for c in centers):
            centers.append(cand)
        else:
            attempts += 1
            if attempts > _MAX_CENTER_ATTEMPTS * config.num_identities:
                raise RuntimeError(
                    "could not place blob centers; lower the separation or raise the dimension"
                )
    return np.asarray(centers)


def generate_synthetic(config: SynthConfig, video_id: str = "synth") -> SyntheticDataset:
    """Isotropic Gaussian blobs, one identity per blob, deterministic per seed.

    Identity labels are id-000, id-001, ... ; the last
    ceil(fraction_nonregistered * num_identities) identities are flagged
    non-registered (to be withheld from any store built on the set). Each
    point carries frame_index equal to its within-identity position, so frame
    f holds one face of every identity.
    """
    rng = np.random.default_rng(config.seed)
    centers = _place_centers(config, rng)
    labels = tuple(f"id-{i:03d}" for i in range(config.num_identities))
    n_nonreg = int(np.ceil(config.fraction_nonregistered * config.num_identities)) if config.fraction_nonregistered > 0 else 0
    nonreg = frozenset(labels[config.num_identities - n_nonreg:]) if n_nonreg else frozenset()
    registered = frozenset(labels) - nonreg

    embeddings = []
    for i, label in enumerate(labels):
        points = centers[i] + rng.normal(0.0, config.blob_stddev, size=(config.points_per_identity, config.dimension))
        for f, p in enumerate(points):
            embeddings.append(
                Embedding(
                    id=f"{label}-{f:04d}",
                    vector=tuple(float(x) for x in p),
                    video_id=video_id,
                    frame_index=f,
                    true_label=label,
                )
            )
    return SyntheticDataset(
        embeddings=tuple(embeddings),
        centers=tuple(tuple(float(x) for x in c) for c in centers),
        labels=labels,
        registered_labels=registered,
        nonregistered_labels=nonreg,
        config=config,
    )


def sample_more(
    dataset: SyntheticDataset,
    points_per_identity: int,
    seed: int,
    video_id: str = "query",
    include_nonregistered: bool = True,
) -> tuple[Embedding, ...]:
    """Draw a fresh batch of points around the same centers (e.g. a query video)."""
    if points_per_identity < 1:
        raise ValueError("points_per_identity must be positive")
    rng = np.random.default_rng(seed)
    cfg = dataset.config
    out = []
    for i, label in enumerate(dataset.labels):
        if not include_nonregistered and label in dataset.nonregistered_labels:
            continue
        center = np.asarray(dataset.centers[i])
        points = center + rng.normal(0.0, cfg.blob_stddev, size=(points_per_identity, cfg.dimension))
        for f, p in enumerate(points):
            out.append(
                Embedding(
                    id=f"{video_id}-{label}-{f:04d}",
                    vector=tuple(float(x) for x in p),
                    video_id=video_id,
                    frame_index=f,
                    true_label=label,
                )
            )
    return tuple(out)
