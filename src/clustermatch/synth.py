"""Seeded Gaussian-blob generator standing in for real face embeddings."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import clustering
from .geometry import EmbeddingSet

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
        # the output's float64 values must fit in physical memory, checked before any work that
        # scales with them; the counts can be any Python int, so no float is made of them here
        n = self.num_identities * self.points_per_identity
        available = clustering._physical_memory()
        if n * self.dimension * 8 > available:
            raise ValueError(
                f"{self.num_identities} x {self.points_per_identity} points in {self.dimension} dimensions need "
                f"more float64 values than fit in the {available / 2**30:.1f} GiB of physical memory"
            )
        if not (0 < self.blob_stddev < math.inf and 0 < self.separation < math.inf):
            raise ValueError(
                f"blob_stddev and separation must be positive and finite, got {self.blob_stddev} and {self.separation}"
            )
        # reach bounds every coordinate (the cube plus 10 stddevs of noise), so M = 4 d reach^2
        # bounds every squared distance, between points or centroids. A Ward merge cost between
        # clusters of sizes a and b is a b / (a + b) times such a distance. Merging a and b, the
        # Lance-Williams update for a third cluster of size c adds (a + c) and (b + c) times its
        # costs to a and b, at most a c M + b c M, and subtracts c times the merge cost, at most
        # c min(a, b) M: every term is at most c (a + b) M. As a + b + c <= n points,
        # c (a + b) <= n^2 / 4, so every term is finite when n^2 / 4 M = n^2 d reach^2 is.
        reach = self.cube_side + 10.0 * self.blob_stddev
        if not math.isfinite(n * n * self.dimension * reach * reach):
            raise ValueError(
                f"separation x blob_stddev = {self.separation * self.blob_stddev:.3g} overflows float64: with "
                f"blob_stddev {self.blob_stddev:.3g} in {self.dimension} dimensions, Ward's merge costs over "
                f"{n} points exceed its range"
            )
        # the other end: centres must be separation x blob_stddev apart; when the square of
        # that underflows to 0, the squared differences that test it round to 0 as well,
        # and the rejection sampling of the centres fails
        min_dist = self.separation * self.blob_stddev
        if min_dist * min_dist == 0.0:
            raise ValueError(
                f"separation x blob_stddev = {min_dist:.3g} underflows float64: "
                "its square, the squared distance between blob centres, rounds to 0"
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

    embeddings: EmbeddingSet
    centers: tuple[tuple[float, ...], ...]
    labels: tuple[str, ...]  # per identity, parallel to centers
    registered_labels: frozenset[str]
    nonregistered_labels: frozenset[str]
    config: SynthConfig

    def registered(self) -> EmbeddingSet:
        return self.embeddings.select([label in self.registered_labels for label in self.embeddings.true_labels])

    def nonregistered(self) -> EmbeddingSet:
        return self.embeddings.select([label in self.nonregistered_labels for label in self.embeddings.true_labels])


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
                raise ValueError("could not place blob centers; lower the separation or raise the dimension")
    return np.asarray(centers)


def _sample_blobs(centers, labels, points_per_identity, stddev, rng, video_id, id_prefix) -> EmbeddingSet:
    """``points_per_identity`` Gaussian points around each centre, identity after
    identity: one draw of all the noise takes the same numbers from ``rng`` as
    one draw per identity in turn. Point f of identity ``label`` has id
    ``{id_prefix}{label}-{f:04d}`` and frame index f."""
    points = np.repeat(centers, points_per_identity, axis=0)
    points += rng.normal(0.0, stddev, size=points.shape)
    frames = range(points_per_identity)
    return EmbeddingSet(
        ids=[f"{id_prefix}{label}-{f:04d}" for label in labels for f in frames],
        vectors=points,
        video_ids=(video_id,) * len(points),
        frame_indices=[f for _ in labels for f in frames],
        true_labels=[label for label in labels for _ in frames],
    )


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
    return SyntheticDataset(
        embeddings=_sample_blobs(centers, labels, config.points_per_identity, config.blob_stddev, rng, video_id, ""),
        centers=tuple(tuple(float(x) for x in c) for c in centers),
        labels=labels,
        registered_labels=frozenset(labels) - nonreg,
        nonregistered_labels=nonreg,
        config=config,
    )


def sample_more(
    dataset: SyntheticDataset,
    points_per_identity: int,
    seed: int,
    video_id: str = "query",
) -> EmbeddingSet:
    """Draw a fresh batch of points around the same centers (e.g. a query video)."""
    if points_per_identity < 1:
        raise ValueError("points_per_identity must be positive")
    centers, rng = np.asarray(dataset.centers), np.random.default_rng(seed)
    return _sample_blobs(centers, dataset.labels, points_per_identity, dataset.config.blob_stddev, rng, video_id, f"{video_id}-")
