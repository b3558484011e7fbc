"""Embedding vector type, the column-held embedding set, and the distance/centroid
primitives used everywhere else."""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

Vector = Sequence[float]

# rows, and edge of the square tiles, that pairwise_distances handles at a time
DISTANCE_BLOCK = 256


@dataclass(frozen=True)
class Embedding:
    """One face observation: an id plus a point in R^n, with optional video metadata."""

    id: str
    vector: tuple[float, ...]
    video_id: str | None = None
    frame_index: int | None = None
    true_label: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("embedding id must be a non-empty string")
        vec = tuple(float(x) for x in self.vector)
        if len(vec) < 1:
            raise ValueError("embedding vector must have at least one component")
        if not all(math.isfinite(x) for x in vec):
            raise ValueError(f"embedding {self.id!r} has non-finite components")
        object.__setattr__(self, "vector", vec)
        if self.frame_index is not None and self.frame_index < 0:
            raise ValueError("frame_index must be non-negative")

    @property
    def dim(self) -> int:
        return len(self.vector)


class EmbeddingSet(Sequence[Embedding]):
    """An immutable, ordered set of embeddings held as columns.

    Embedding i is item i of the tuples ``ids``, ``video_ids``,
    ``frame_indices`` and ``true_labels``, and row i of the read-only (n, d)
    float64 matrix ``vectors``. Indexing and iteration build ``Embedding``
    objects on demand; ``as_matrix`` returns ``vectors`` itself.
    """

    def __init__(self, ids, vectors, video_ids=None, frame_indices=None, true_labels=None) -> None:
        ids = tuple(ids)
        n = len(ids)
        vectors = np.array(vectors, dtype=np.float64)
        columns = {
            "video_ids": (None,) * n if video_ids is None else tuple(video_ids),
            "frame_indices": (None,) * n if frame_indices is None else tuple(frame_indices),
            "true_labels": (None,) * n if true_labels is None else tuple(true_labels),
        }
        if vectors.ndim != 2 or vectors.shape[1] < 1:
            raise ValueError(f"embedding vectors must form an (n, d) matrix with d >= 1, got shape {vectors.shape}")
        if vectors.shape[0] != n or any(len(column) != n for column in columns.values()):
            raise ValueError("embedding set columns differ in length")
        if not all(ids):
            raise ValueError("embedding id must be a non-empty string")
        finite = np.isfinite(vectors).all(axis=1)
        if not finite.all():
            raise ValueError(f"embedding {ids[int(finite.argmin())]!r} has non-finite components")
        if any(f is not None and f < 0 for f in columns["frame_indices"]):
            raise ValueError("frame_index must be non-negative")
        vectors.flags.writeable = False
        for name, value in (("ids", ids), ("vectors", vectors), *columns.items()):
            object.__setattr__(self, name, value)

    @classmethod
    def of(cls, embeddings: Iterable[Embedding]) -> EmbeddingSet:
        """The embeddings as a set: an ``EmbeddingSet`` as it is, else its items stacked."""
        if isinstance(embeddings, EmbeddingSet):
            return embeddings
        embeddings = list(embeddings)
        if not embeddings:
            raise ValueError("empty embedding set")
        dims = {e.dim for e in embeddings}
        if len(dims) != 1:
            raise ValueError(f"inconsistent embedding dimensions: {sorted(dims)}")
        return cls(
            ids=[e.id for e in embeddings],
            vectors=[e.vector for e in embeddings],
            video_ids=[e.video_id for e in embeddings],
            frame_indices=[e.frame_index for e in embeddings],
            true_labels=[e.true_label for e in embeddings],
        )

    def select(self, rows) -> EmbeddingSet:
        """The embeddings at ``rows`` (an index array, a boolean mask or a slice), in that order."""
        rows = np.arange(len(self))[rows]
        return EmbeddingSet(
            ids=[self.ids[i] for i in rows],
            vectors=self.vectors[rows],
            video_ids=[self.video_ids[i] for i in rows],
            frame_indices=[self.frame_indices[i] for i in rows],
            true_labels=[self.true_labels[i] for i in rows],
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"EmbeddingSet is immutable; cannot set {name!r}")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.select(index)
        return Embedding(
            id=self.ids[index],
            vector=tuple(self.vectors[index].tolist()),
            video_id=self.video_ids[index],
            frame_index=self.frame_indices[index],
            true_label=self.true_labels[index],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingSet):
            return NotImplemented
        return (
            self.ids == other.ids
            and self.video_ids == other.video_ids
            and self.frame_indices == other.frame_indices
            and self.true_labels == other.true_labels
            and np.array_equal(self.vectors, other.vectors)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"EmbeddingSet({len(self)} embeddings, dim={self.dim})"


def as_matrix(embeddings: Iterable[Embedding] | np.ndarray) -> np.ndarray:
    """The (n_points, dim) float64 matrix of embeddings: an array passes through, an
    ``EmbeddingSet`` gives its read-only ``vectors`` without a copy, and other
    embeddings are stacked."""
    if isinstance(embeddings, np.ndarray):
        mat = np.asarray(embeddings, dtype=np.float64)
        if mat.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got shape {mat.shape}")
        return mat
    mat = EmbeddingSet.of(embeddings).vectors
    if mat.shape[0] == 0:
        raise ValueError("empty embedding set")
    return mat


def _check_dims(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


def euclidean_distance(a: Vector, b: Vector) -> float:
    """Euclidean distance between two vectors of equal dimension."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    _check_dims(av, bv)
    return float(np.sqrt(np.sum((av - bv) ** 2)))


def rmse(a: Vector, b: Vector) -> float:
    """Root mean square difference over the n vector dimensions.

    Equals euclidean_distance(a, b) / sqrt(n).
    """
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    _check_dims(av, bv)
    n = av.shape[0]
    return float(np.sqrt(np.sum((av - bv) ** 2) / n))


def centroid(members: Sequence[Vector] | np.ndarray) -> np.ndarray:
    """Component-wise mean of a non-empty list of vectors."""
    if isinstance(members, np.ndarray):
        mat = members
    else:
        mat = np.asarray([np.asarray(m, dtype=np.float64) for m in members])
    if mat.size == 0 or mat.shape[0] == 0:
        raise ValueError("centroid of an empty member list is undefined")
    return mat.mean(axis=0)


def pairwise_distances(data: np.ndarray) -> np.ndarray:
    """All-pairs Euclidean distances for an (n, d) matrix, as a symmetric (n, n) array
    with an exactly zero diagonal. The distances are computed inside the Gram
    matrix's buffer, so one n x n array is alive, plus row blocks and tiles."""
    mat = as_matrix(data)
    sq = np.sum(mat**2, axis=1)
    d = mat @ mat.T
    n = d.shape[0]
    # every element as sqrt(max((sq_i + sq_j) - 2 * gram_ij, 0))
    for r in range(0, n, DISTANCE_BLOCK):
        rows = d[r : r + DISTANCE_BLOCK]
        rows *= 2.0
        np.subtract(np.add.outer(sq[r : r + DISTANCE_BLOCK], sq), rows, out=rows)
        np.sqrt(np.maximum(rows, 0.0, out=rows), out=rows)
    # symmetrize away dot-product rounding noise: both tiles of a pair get
    # (d_ij + d_ji) * 0.5, which is symmetric because addition commutes;
    # square tiles keep the transposed reads in cache
    for r in range(0, n, DISTANCE_BLOCK):
        for c in range(r, n, DISTANCE_BLOCK):
            upper = d[r : r + DISTANCE_BLOCK, c : c + DISTANCE_BLOCK]
            lower = d[c : c + DISTANCE_BLOCK, r : r + DISTANCE_BLOCK]
            mean = upper + lower.T
            mean *= 0.5
            upper[...] = mean
            lower[...] = mean.T
    np.fill_diagonal(d, 0.0)
    return d
