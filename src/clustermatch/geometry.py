"""Embedding vector type, the column-held embedding set, and the distance
primitives used everywhere else."""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

# rows, and edge of the square tiles, that pairwise_distances and mirror_upper handle at a time
DISTANCE_BLOCK = 256


def _freeze(obj, **values) -> None:
    """Set attributes on ``obj``, which refuses assignment, making each array among them read-only."""
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, name, value)


class _FrozenColumns:
    """Base of the immutable column sets. ``__init__`` sets the columns once, through
    ``_freeze``; after that assignment is refused, ``==`` compares every column
    (arrays by value) and an instance is unhashable."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        theirs = vars(other)
        return all(
            np.array_equal(mine, theirs[name]) if isinstance(mine, np.ndarray) else mine == theirs[name]
            for name, mine in vars(self).items()
        )

    __hash__ = None


def _check_rows(ids: tuple, vectors: np.ndarray, frame_indices: tuple, *columns: tuple) -> None:
    """Raise ValueError unless the columns hold embeddings: one row of d >= 1 finite
    components per non-empty id, and every frame index, where given, non-negative.
    ``columns`` are the other per-embedding columns, whose lengths are checked."""
    if vectors.ndim != 2 or vectors.shape[1] < 1:
        raise ValueError(f"embedding vectors must form an (n, d) matrix with d >= 1, got shape {vectors.shape}")
    if any(len(column) != vectors.shape[0] for column in (ids, frame_indices, *columns)):
        raise ValueError("embedding set columns differ in length")
    if not all(ids):
        raise ValueError("embedding id must be a non-empty string")
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        raise ValueError(f"embedding {ids[int(finite.argmin())]!r} has non-finite components")
    if any(f is not None and f < 0 for f in frame_indices):
        raise ValueError("frame_index must be non-negative")


@dataclass(frozen=True)
class Embedding:
    """One face observation: an id plus a point in R^n, with optional video metadata."""

    id: str
    vector: tuple[float, ...]
    video_id: str | None = None
    frame_index: int | None = None
    true_label: str | None = None

    def __post_init__(self) -> None:
        row = np.array([tuple(self.vector)], dtype=np.float64)
        _check_rows((self.id,), row, (self.frame_index,))
        object.__setattr__(self, "vector", tuple(row[0].tolist()))

    @property
    def dim(self) -> int:
        return len(self.vector)


class EmbeddingSet(_FrozenColumns, Sequence[Embedding]):
    """An immutable, ordered set of embeddings held as columns.

    Embedding i is item i of the tuples ``ids``, ``video_ids``,
    ``frame_indices`` and ``true_labels``, and row i of the read-only (n, d)
    float64 matrix ``vectors``. Indexing and iteration build ``Embedding``
    objects on demand; ``as_matrix`` returns ``vectors`` itself.
    """

    def __init__(self, ids, vectors, video_ids=None, frame_indices=None, true_labels=None) -> None:
        ids = tuple(ids)
        video_ids, frame_indices, true_labels = (
            (None,) * len(ids) if column is None else tuple(column) for column in (video_ids, frame_indices, true_labels)
        )
        vectors = np.array(vectors, dtype=np.float64)
        _check_rows(ids, vectors, frame_indices, video_ids, true_labels)
        _freeze(self, ids=ids, vectors=vectors, video_ids=video_ids, frame_indices=frame_indices, true_labels=true_labels)

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


def rmse(a, b):
    """Root mean square difference along the last axis, over its n dimensions: the
    Euclidean distance divided by sqrt(n). Given a matrix, each row gets its own.
    A difference or square beyond float64 makes the RMSE inf, without numpy's
    overflow warning: the similarity of such a pair is 0."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    n = av.shape[-1]
    if bv.shape[-1] != n:
        raise ValueError(f"dimension mismatch: {n} vs {bv.shape[-1]}")
    with np.errstate(over="ignore"):
        return np.sqrt(np.sum((av - bv) ** 2, axis=-1) / n)


def row_mean(mat: np.ndarray) -> np.ndarray:
    """The mean of the rows, ``mat.mean(axis=0)``; a column whose sum overflows float64
    is averaged term by term instead, so finite rows always have a finite mean."""
    with np.errstate(over="ignore"):
        mean = mat.mean(axis=0)
    if not np.isfinite(mean).all():
        mean = (mat / mat.shape[0]).sum(axis=0)
    return mean


def squared_norms(mat: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Each row's squared norm, for squared distances taken as (sq_i + sq_j) - 2 * gram_ij.

    Raises ValueError when 4 * max ||x||^2, which bounds every term of that
    form, is not finite: the distances would come out inf or nan. ``mat`` is
    ``data`` centred, whose values may overflow where ``data``'s do not, so the
    message names the largest magnitude in ``data``.
    """
    with np.errstate(over="ignore"):
        sq = np.sum(mat**2, axis=1)
        bound = 4.0 * sq.max(initial=0.0)
    if not np.isfinite(bound):
        raise ValueError(
            f"vector components up to {np.abs(data).max():.3g} in magnitude are too large: "
            "their squared distances overflow float64"
        )
    return sq


def mirror_upper(d: np.ndarray) -> None:
    """Copy the strict upper triangle of the square array ``d`` onto its lower
    triangle, so that d[j, i] = d[i, j] for i < j. Square tiles keep the
    transposed reads in cache; the diagonal is left as it is."""
    n = d.shape[0]
    below = np.tri(DISTANCE_BLOCK, k=-1, dtype=bool)
    for r in range(0, n, DISTANCE_BLOCK):
        tile = d[r : r + DISTANCE_BLOCK, r : r + DISTANCE_BLOCK]
        m = tile.shape[0]
        np.copyto(tile, tile.T, where=below[:m, :m])
        for c in range(r + DISTANCE_BLOCK, n, DISTANCE_BLOCK):
            d[c : c + DISTANCE_BLOCK, r : r + DISTANCE_BLOCK] = d[r : r + DISTANCE_BLOCK, c : c + DISTANCE_BLOCK].T


def pairwise_distances(data: np.ndarray) -> np.ndarray:
    """All-pairs Euclidean distances for an (n, d) matrix, as a symmetric (n, n) array
    with an exactly zero diagonal. The distances are computed inside the Gram
    matrix's buffer, so one n x n array is alive, plus row blocks and tiles:
    each pair once, at or above the diagonal, then mirrored below it.
    Data whose squared distances would overflow raise ValueError (``squared_norms``)."""
    # one memory layout gives one Gram matrix, and so the same bits, whatever the
    # caller's layout; for C order numpy's mat @ mat.T is exactly symmetric
    mat = np.ascontiguousarray(as_matrix(data))
    # centred, since the expanded squares below round in proportion to ||x||^2; on the
    # C copy, so the mean's sum order is the same for every layout; by a rounded mean,
    # so integer data keep exact differences; a centred value beyond float64 is refused below
    with np.errstate(over="ignore"):
        centred = mat - np.round(row_mean(mat))
    sq = squared_norms(centred, mat)
    d = centred @ centred.T
    n = d.shape[0]
    # every element at or above the diagonal as sqrt(max((sq_i + sq_j) - 2 * gram_ij, 0))
    for r in range(0, n, DISTANCE_BLOCK):
        rows = d[r : r + DISTANCE_BLOCK, r:]
        rows *= 2.0
        np.subtract(np.add.outer(sq[r : r + DISTANCE_BLOCK], sq[r:]), rows, out=rows)
        np.sqrt(np.maximum(rows, 0.0, out=rows), out=rows)
    mirror_upper(d)
    np.fill_diagonal(d, 0.0)
    return d
