"""Cluster matching: similarity, top-alpha truncation, softmax, and the match decision.

A query cluster is summarized by a single vector (its centroid, or the member
with the best silhouette coefficient), compared against every labeled cluster
with the inverse-RMSE similarity, and either matched to the most probable
labeled cluster or declared non-registered when no probability exceeds the
threshold.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .clustering import Clustering, silhouette
from .geometry import as_matrix, rmse

CENTROID = "centroid"
BEST_SILHOUETTE = "best_silhouette_sample"

DEFAULT_ALPHA = 5
DEFAULT_THRESHOLD = 0.5
DEFAULT_RMSE_EPSILON = 1e-12


@dataclass(frozen=True)
class LabeledCluster:
    """One reference entry: a label, its member ids, and both cluster-embedding variants."""

    label: str
    member_ids: tuple[str, ...]
    centroid: tuple[float, ...]
    best_silhouette_id: str
    best_silhouette_vector: tuple[float, ...]
    label_histogram: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("cluster label must be non-empty")
        if len(self.centroid) != len(self.best_silhouette_vector):
            raise ValueError("cluster embedding dimensions disagree")

    @property
    def label_set(self) -> frozenset[str]:
        """All distinct member labels present in the cluster."""
        if self.label_histogram:
            return frozenset(self.label_histogram)
        return frozenset({self.label})


class LabeledClusterSet:
    """The reference store of labeled clusters; entry order is fixed and load-bearing.

    Entry i is item i of ``labels``, ``member_ids``, ``best_silhouette_ids`` and
    ``histograms``, and row i of the read-only (S, d) float64 matrices
    ``centroids`` and ``best_silhouette_vectors``. ``entries`` presents the same
    data as ``LabeledCluster`` objects, built on first use. A store is immutable.
    """

    def __init__(self, entries, dimension: int) -> None:
        entries = tuple(entries)
        for index, e in enumerate(entries):
            if len(e.centroid) != dimension:
                raise ValueError(
                    f"entry {index}: cluster {e.label!r} has dimension {len(e.centroid)}, store has {dimension}"
                )
        self._fill(
            labels=[e.label for e in entries],
            member_ids=[e.member_ids for e in entries],
            best_silhouette_ids=[e.best_silhouette_id for e in entries],
            histograms=[e.label_histogram for e in entries],
            centroids=np.array([e.centroid for e in entries], dtype=np.float64).reshape(len(entries), dimension),
            best_silhouette_vectors=np.array(
                [e.best_silhouette_vector for e in entries], dtype=np.float64
            ).reshape(len(entries), dimension),
        )

    @classmethod
    def from_arrays(
        cls, labels, member_ids, best_silhouette_ids, histograms, centroids, best_silhouette_vectors
    ) -> LabeledClusterSet:
        """A store from per-entry lists and the two (S, d) matrices, copied as float64."""
        store = cls.__new__(cls)
        store._fill(
            labels=labels,
            member_ids=member_ids,
            best_silhouette_ids=best_silhouette_ids,
            histograms=histograms,
            centroids=np.array(centroids, dtype=np.float64),
            best_silhouette_vectors=np.array(best_silhouette_vectors, dtype=np.float64),
        )
        return store

    def _fill(self, labels, member_ids, best_silhouette_ids, histograms, centroids, best_silhouette_vectors) -> None:
        size = len(labels)
        if centroids.ndim != 2 or centroids.shape[1] < 1:
            raise ValueError(f"store vectors must form an (S, d) matrix with d >= 1, got shape {centroids.shape}")
        if not size == len(member_ids) == len(best_silhouette_ids) == len(histograms) == centroids.shape[0]:
            raise ValueError("store columns differ in length")
        if best_silhouette_vectors.shape != centroids.shape:
            raise ValueError("cluster embedding dimensions disagree")
        for index, label in enumerate(labels):
            if not label:
                raise ValueError(f"entry {index}: cluster label must be non-empty")
        all_ids = list(chain.from_iterable(member_ids))
        if len(set(all_ids)) != len(all_ids):
            owner: dict[str, int] = {}
            for index, ids in enumerate(member_ids):
                for mid in ids:
                    if mid in owner:
                        raise ValueError(f"entry {index}: duplicate member id {mid!r} across store entries")
                    owner[mid] = index
        for key, mat in (("centroid", centroids), ("best_silhouette_vector", best_silhouette_vectors)):
            finite = np.isfinite(mat)
            if not finite.all():
                index, component = np.argwhere(~finite)[0]
                raise ValueError(
                    f"entry {index}: {key!r} component {component} is not finite ({mat[index, component]})"
                )
            mat.flags.writeable = False
        values = {
            "labels": tuple(labels),
            "member_ids": tuple(tuple(ids) for ids in member_ids),
            "best_silhouette_ids": tuple(best_silhouette_ids),
            "histograms": tuple(dict(h) for h in histograms),
            "centroids": centroids,
            "best_silhouette_vectors": best_silhouette_vectors,
        }
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"LabeledClusterSet is immutable; cannot set {name!r}")

    @property
    def dimension(self) -> int:
        return self.centroids.shape[1]

    @cached_property
    def entries(self) -> tuple[LabeledCluster, ...]:
        return tuple(
            LabeledCluster(
                label=label,
                member_ids=ids,
                centroid=tuple(centroid),
                best_silhouette_id=best_id,
                best_silhouette_vector=tuple(best_vector),
                label_histogram=histogram,
            )
            for label, ids, centroid, best_id, best_vector, histogram in zip(
                self.labels,
                self.member_ids,
                self.centroids.tolist(),
                self.best_silhouette_ids,
                self.best_silhouette_vectors.tolist(),
                self.histograms,
            )
        )

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledClusterSet):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.member_ids == other.member_ids
            and self.best_silhouette_ids == other.best_silhouette_ids
            and self.histograms == other.histograms
            and np.array_equal(self.centroids, other.centroids)
            and np.array_equal(self.best_silhouette_vectors, other.best_silhouette_vectors)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"LabeledClusterSet({len(self)} entries, dimension={self.dimension})"


@dataclass(frozen=True)
class MatchConfig:
    """Knobs for the matching chain; defaults follow the evaluated operating point."""

    alpha: int = DEFAULT_ALPHA
    probability_threshold: float = DEFAULT_THRESHOLD
    cluster_embedding_method: str = CENTROID
    rmse_epsilon: float = DEFAULT_RMSE_EPSILON

    def __post_init__(self) -> None:
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if not 0.0 < self.probability_threshold < 1.0:
            raise ValueError("probability_threshold must be in (0, 1)")
        if self.cluster_embedding_method not in (CENTROID, BEST_SILHOUETTE):
            raise ValueError(f"unknown method {self.cluster_embedding_method!r}")
        if self.rmse_epsilon <= 0:
            raise ValueError("rmse_epsilon must be positive")


@dataclass(frozen=True)
class MatchDecision:
    """Outcome of matching one query cluster against the labeled set.

    ``top_indices`` are the entries the top-alpha truncation kept, most similar
    first (equal similarities: lowest index first), with their similarities and
    probabilities; each of the other ``store_size - len(top_indices)`` entries
    has probability ``rest_probability``. ``p_max`` is the largest probability,
    which decides the match. ``top_similarities`` is None when the decision was
    made from a bare probability vector.
    """

    matched: bool
    label: str | None
    cluster_index: int | None
    probability: float | None
    p_max: float
    top_indices: tuple[int, ...]
    top_similarities: tuple[float, ...] | None
    top_probabilities: tuple[float, ...]
    rest_probability: float
    store_size: int

    def __post_init__(self) -> None:
        rest = (self.store_size - len(self.top_indices)) * self.rest_probability
        total = sum(self.top_probabilities) + rest
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, expected 1")


def make_cluster_embedding(members) -> np.ndarray:
    """Summarize a cluster as one vector: the mean of its rows (a single row is itself).

    ``recognize`` uses it for the centroid query; the best-silhouette query is
    the row ``best_silhouette_members`` picks, taken as it is.
    """
    mat = as_matrix(members)
    if mat.shape[0] == 0:
        raise ValueError("cannot embed an empty cluster")
    return mat.mean(axis=0)


def best_silhouette_members(data, clustering: Clustering) -> list[int]:
    """Per cluster, the index of the member that stands in for it as the best-silhouette sample.

    With >= 2 clusters this is the member with the highest silhouette
    coefficient, from the clustering's silhouette report (computed here when it
    has none); with a single cluster (silhouette undefined) it is the member
    nearest the centroid. Ties break on the lowest point index.
    """
    mat = as_matrix(data)
    if clustering.num_clusters < 2:
        return [int(np.argmin(np.linalg.norm(mat - mat.mean(axis=0), axis=1)))]
    report = clustering.silhouette or silhouette(mat, clustering)
    coeffs = np.asarray(report.coefficients)
    assign = np.asarray(clustering.assignments)
    # by cluster, then by descending coefficient; the sort is stable, so ties keep index order
    order = np.lexsort((-coeffs, assign))
    firsts = np.searchsorted(assign[order], np.arange(clustering.num_clusters))
    return [int(i) for i in order[firsts]]


def similarity(q, c, rmse_epsilon: float = DEFAULT_RMSE_EPSILON) -> float:
    """Inverse-RMSE similarity; the RMSE is clamped below by ``rmse_epsilon``."""
    return 1.0 / max(rmse(q, c), rmse_epsilon)


def truncate_top_alpha(similarities, alpha: int) -> np.ndarray:
    """Keep the alpha largest entries, zero the rest; boundary ties keep the earliest index."""
    s = np.asarray(similarities, dtype=np.float64)
    if s.size == 0:
        raise ValueError("empty similarity vector")
    if alpha >= s.size:
        return s.copy()
    order = np.argsort(-s, kind="stable")  # equal values: earliest index first
    out = np.zeros_like(s)
    keep = order[:alpha]
    out[keep] = s[keep]
    return out


def match_probabilities(truncated) -> np.ndarray:
    """Softmax over the truncated similarities.

    Zeroed entries still contribute e^0 = 1 to the denominator; the max-shift
    changes nothing mathematically but keeps the exponentials bounded.
    """
    s = np.asarray(truncated, dtype=np.float64)
    if s.size == 0:
        raise ValueError("empty similarity vector")
    shifted = s - s.max()
    e = np.exp(shifted)
    return e / e.sum()


def sigma(
    probabilities,
    store: LabeledClusterSet,
    threshold: float = DEFAULT_THRESHOLD,
    top_indices=None,
    top_similarities=None,
) -> MatchDecision:
    """Decide: the argmax labeled cluster when its probability strictly exceeds
    the threshold, otherwise no match.

    ``top_indices`` and ``top_similarities`` name the entries the truncation
    kept, most similar first, and their similarities. Without them every entry
    counts as kept, in order of descending probability.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if len(store) == 0:
        raise ValueError("labeled cluster set is empty")
    if p.size != len(store):
        raise ValueError(f"probability vector length {p.size} != store size {len(store)}")
    if top_indices is None:
        top = np.argsort(-p, kind="stable")
        rest = 0.0
    else:
        top = np.asarray(top_indices, dtype=np.intp)
        dropped = np.ones(p.size, dtype=bool)
        dropped[top] = False
        # every entry the truncation zeroed has the same probability
        rest = float(p[np.argmax(dropped)]) if top.size < p.size else 0.0
    best = int(np.argmax(p))
    p_max = float(p[best])
    matched = p_max > threshold
    return MatchDecision(
        matched=matched,
        label=store.labels[best] if matched else None,
        cluster_index=best if matched else None,
        probability=p_max if matched else None,
        p_max=p_max,
        top_indices=tuple(top.tolist()),
        top_similarities=None if top_similarities is None else tuple(np.asarray(top_similarities, dtype=np.float64).tolist()),
        top_probabilities=tuple(p[top].tolist()),
        rest_probability=rest,
        store_size=p.size,
    )


# match_clusters screens at most this many (query, entry) pairs at once
_SCREEN_BLOCK = 1 << 20
_EPS = float(np.finfo(np.float64).eps)
# below this squared distance the screen takes every entry: rounding there is no longer relative
_SCREEN_FLOOR = 1e-250


def _screen(queries: np.ndarray, stored: np.ndarray, alpha: int, rmse_epsilon: float) -> np.ndarray:
    """(K, S) mask of the entries that may be among each query's alpha most similar: never a miss.

    Let D = sum((s - q) ** 2) as ``match_clusters`` computes it (each of the d
    terms carries a relative error of about 3u, u = eps / 2, and any summation
    order adds (d - 1)u: |D - ||q - s||^2| <= (d + 2)u ||q - s||^2 <=
    2(d + 2)u (||q||^2 + ||s||^2)). The screen G = ||q||^2 + ||s||^2 - 2 q.s
    comes from one Gram product; each of the three inner products is off by at
    most d·u·(||q||^2 + ||s||^2) (|q|.|s| <= (||q||^2 + ||s||^2) / 2) and the two
    additions by 3u·(||q||^2 + ||s||^2), so |G - D| <= (5d + 7)u (||q||^2 + ||s||^2),
    well inside B = 4(d + 4)·eps·(||q||^2 + ||s||^2) = (8d + 32)u (...), which
    also absorbs the rounding of G ± B. Every entry has D <= G + B, so the
    alpha-th smallest G + B bounds the alpha-th smallest D from above. The
    similarity 1 / max(sqrt(D / d), rmse_epsilon) never rises with D, and two
    D more than a relative 16·eps apart give different similarities unless
    both are clamped, which needs D <= d·rmse_epsilon^2 (1 + 16·eps). An entry
    with G - B above both bounds is therefore strictly less similar than the
    alpha-th entry and can neither enter the top alpha nor tie with it.
    Overflow makes G or B inf or nan, and such an entry is kept.
    """
    d = stored.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        slack = np.einsum("ij,ij->i", queries, queries)[:, None] + np.einsum("ij,ij->i", stored, stored)
        approx = queries @ stored.T
        approx *= -2.0
        approx += slack  # G
        slack *= 4 * (d + 4) * _EPS  # B
        kth = np.partition(approx + slack, alpha - 1, axis=1)[:, alpha - 1]
        reach = np.maximum(kth, max(d * rmse_epsilon**2, _SCREEN_FLOOR)) * (1 + 16 * _EPS)
        approx -= slack
        return ~(approx > reach[:, None])


def match_clusters(
    queries,
    store: LabeledClusterSet,
    config: MatchConfig = MatchConfig(),
) -> list[MatchDecision]:
    """The matching chain for every row of ``queries`` (K, d), one query vector per cluster.

    Each query is scored against the store's vectors of
    ``config.cluster_embedding_method`` by inverse RMSE, the scores are
    truncated to the top alpha (equal scores: lowest index first), and the
    softmax over the truncated length-S vector decides through ``sigma``. Only
    the entries ``_screen`` cannot rule out get an exact score, so the kept
    similarities, the probabilities and the decision are those of scoring
    every entry.
    """
    if len(store) == 0:
        raise ValueError("labeled cluster set is empty")
    queries = as_matrix(queries)
    if queries.shape[1] != store.dimension:
        raise ValueError(f"query dimension {queries.shape[1]} != store dimension {store.dimension}")
    stored = store.centroids if config.cluster_embedding_method == CENTROID else store.best_silhouette_vectors
    size = len(store)
    alpha = min(config.alpha, size)
    step = max(1, _SCREEN_BLOCK // size)
    decisions = []
    for start in range(0, queries.shape[0], step):
        block = queries[start : start + step]
        for q, candidates in zip(block, _screen(block, stored, alpha, config.rmse_epsilon)):
            index = np.flatnonzero(candidates)
            # row-wise similarity(q, row): the same operations in the same order, so equal bit for bit
            rmses = np.sqrt(np.sum((stored[index] - q) ** 2, axis=1) / store.dimension)
            sims = 1.0 / np.maximum(rmses, config.rmse_epsilon)
            keep = np.argsort(-sims, kind="stable")[:alpha]  # index ascends: equal scores keep the lowest
            top = index[keep]
            truncated = np.zeros(size)
            truncated[top] = sims[keep]
            probs = match_probabilities(truncated)
            decisions.append(sigma(probs, store, config.probability_threshold, top, sims[keep]))
    return decisions


def match_cluster(
    query_members,
    store: LabeledClusterSet,
    config: MatchConfig = MatchConfig(),
) -> MatchDecision:
    """``match_clusters`` for one query cluster, whose vector is ``make_cluster_embedding(query_members)``."""
    return match_clusters(make_cluster_embedding(query_members)[np.newaxis], store, config)[0]


def majority_label(labels) -> tuple[str, frozenset[str]]:
    """Most frequent label (lexicographically smallest on ties) and the distinct label set."""
    labels = list(labels)
    if not labels:
        raise ValueError("cannot take the majority of an empty label multiset")
    counts = Counter(labels)
    best_count = max(counts.values())
    winner = min(lab for lab, cnt in counts.items() if cnt == best_count)
    return winner, frozenset(counts)
