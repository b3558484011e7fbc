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


@dataclass(frozen=True)
class LabeledClusterSet:
    """The reference store of labeled clusters; entry order is fixed and load-bearing.

    ``centroids`` and ``best_silhouette_vectors`` are read-only (S, d) matrices
    built from the entries, row i for entry i.
    """

    entries: tuple[LabeledCluster, ...]
    dimension: int
    centroids: np.ndarray = field(init=False, repr=False, compare=False)
    best_silhouette_vectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        seen_ids: set[str] = set()
        for e in self.entries:
            if len(e.centroid) != self.dimension:
                raise ValueError(
                    f"cluster {e.label!r} has dimension {len(e.centroid)}, store has {self.dimension}"
                )
            for mid in e.member_ids:
                if mid in seen_ids:
                    raise ValueError(f"duplicate member id {mid!r} across store entries")
                seen_ids.add(mid)
        for name, rows in (
            ("centroids", [e.centroid for e in self.entries]),
            ("best_silhouette_vectors", [e.best_silhouette_vector for e in self.entries]),
        ):
            mat = np.array(rows, dtype=np.float64).reshape(len(rows), self.dimension)
            mat.flags.writeable = False
            object.__setattr__(self, name, mat)

    def __len__(self) -> int:
        return len(self.entries)

    def labels(self) -> list[str]:
        return [e.label for e in self.entries]


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
    """Outcome of matching one query cluster against the labeled set."""

    matched: bool
    label: str | None
    cluster_index: int | None
    probability: float | None
    probabilities: tuple[float, ...]
    similarities: tuple[float, ...]
    truncated: tuple[float, ...]

    def __post_init__(self) -> None:
        total = sum(self.probabilities)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probability vector sums to {total}, expected 1")


def make_cluster_embedding(members) -> np.ndarray:
    """Summarize a cluster as one vector: the mean of its rows (a single row is itself).

    The best-silhouette sample of a cluster is chosen by
    ``best_silhouette_members`` and passed here as a single row.
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
    similarities=None,
    truncated=None,
) -> MatchDecision:
    """Decide: the argmax labeled cluster when its probability strictly exceeds
    the threshold, otherwise no match."""
    p = np.asarray(probabilities, dtype=np.float64)
    if len(store) == 0:
        raise ValueError("labeled cluster set is empty")
    if p.size != len(store):
        raise ValueError(f"probability vector length {p.size} != store size {len(store)}")
    sims = tuple(float(x) for x in (similarities if similarities is not None else np.zeros_like(p)))
    trunc = tuple(float(x) for x in (truncated if truncated is not None else np.zeros_like(p)))
    best = int(np.argmax(p))
    if p[best] > threshold:
        return MatchDecision(
            matched=True,
            label=store.entries[best].label,
            cluster_index=best,
            probability=float(p[best]),
            probabilities=tuple(float(x) for x in p),
            similarities=sims,
            truncated=trunc,
        )
    return MatchDecision(
        matched=False,
        label=None,
        cluster_index=None,
        probability=None,
        probabilities=tuple(float(x) for x in p),
        similarities=sims,
        truncated=trunc,
    )


def match_cluster(
    query_members,
    store: LabeledClusterSet,
    config: MatchConfig = MatchConfig(),
) -> MatchDecision:
    """Full matching chain for one query cluster.

    The query vector is ``make_cluster_embedding(query_members)``. It is scored
    against the store's vectors of ``config.cluster_embedding_method`` by
    inverse RMSE, the scores are truncated to the top alpha, and the softmax
    decides.
    """
    if len(store) == 0:
        raise ValueError("labeled cluster set is empty")
    q = make_cluster_embedding(query_members)
    if q.shape[0] != store.dimension:
        raise ValueError(f"query dimension {q.shape[0]} != store dimension {store.dimension}")
    stored = store.centroids if config.cluster_embedding_method == CENTROID else store.best_silhouette_vectors
    # row-wise similarity(q, row): the same operations in the same order, so equal bit for bit
    rmses = np.sqrt(np.sum((stored - q) ** 2, axis=1) / store.dimension)
    sims = 1.0 / np.maximum(rmses, config.rmse_epsilon)
    trunc = truncate_top_alpha(sims, config.alpha)
    probs = match_probabilities(trunc)
    return sigma(probs, store, config.probability_threshold, similarities=sims, truncated=trunc)


def majority_label(labels) -> tuple[str, frozenset[str]]:
    """Most frequent label (lexicographically smallest on ties) and the distinct label set."""
    labels = list(labels)
    if not labels:
        raise ValueError("cannot take the majority of an empty label multiset")
    counts = Counter(labels)
    best_count = max(counts.values())
    winner = min(lab for lab, cnt in counts.items() if cnt == best_count)
    return winner, frozenset(counts)
