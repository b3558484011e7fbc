"""Embedding vector type and the distance/centroid primitives used everywhere else."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

Vector = Sequence[float]

# edge of the square tiles in which pairwise_distances adds a matrix to its transpose
SYMMETRIZE_TILE = 256


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


def as_matrix(embeddings: Iterable[Embedding] | np.ndarray) -> np.ndarray:
    """Stack embeddings (or pass through an array) into an (n_points, dim) float64 matrix."""
    if isinstance(embeddings, np.ndarray):
        mat = np.asarray(embeddings, dtype=np.float64)
        if mat.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got shape {mat.shape}")
        return mat
    rows = [e.vector for e in embeddings]
    if not rows:
        raise ValueError("empty embedding set")
    dims = {len(r) for r in rows}
    if len(dims) != 1:
        raise ValueError(f"inconsistent embedding dimensions: {sorted(dims)}")
    return np.asarray(rows, dtype=np.float64)


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
    with an exactly zero diagonal. At most two n x n arrays are alive at once."""
    mat = as_matrix(data)
    sq = np.sum(mat**2, axis=1)
    d = np.add.outer(sq, sq)
    buf = mat @ mat.T
    buf *= 2.0
    d -= buf
    np.sqrt(np.maximum(d, 0.0, out=d), out=d)
    # symmetrize away dot-product rounding noise, reusing the Gram matrix's buffer;
    # square tiles keep the transposed reads in cache
    n = d.shape[0]
    for r in range(0, n, SYMMETRIZE_TILE):
        for c in range(0, n, SYMMETRIZE_TILE):
            rows, cols = slice(r, r + SYMMETRIZE_TILE), slice(c, c + SYMMETRIZE_TILE)
            np.add(d[rows, cols], d[cols, rows].T, out=buf[rows, cols])
    buf *= 0.5
    np.fill_diagonal(buf, 0.0)
    return buf
