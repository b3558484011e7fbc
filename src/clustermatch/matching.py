"""Cluster matching: similarity, top-alpha truncation, softmax, and the match decision.

A query cluster is summarized by a single vector (its centroid, or the member
with the best silhouette coefficient), compared against every labeled cluster
with the inverse-RMSE similarity, and either matched to the most probable
labeled cluster or declared non-registered when no probability exceeds the
threshold.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .clustering import Clustering, silhouette
from .geometry import _freeze, _FrozenColumns, as_matrix, rmse, row_mean

CENTROID = "centroid"
BEST_SILHOUETTE = "best_silhouette_sample"

DEFAULT_ALPHA = 5
DEFAULT_THRESHOLD = 0.5
# the inverse-RMSE similarity clamps the RMSE below at this value
RMSE_EPSILON = 1e-12


def _string(value) -> None:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")


def _strings(value) -> None:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    for item in value:
        _string(item)


def _histogram(value) -> None:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    for label, count in value.items():
        if not isinstance(label, str):
            raise TypeError(f"label {label!r} is {type(label).__name__}, expected a string")
        if type(count) is not int or count < 0:
            raise ValueError(f"count of {label!r} is {count!r}, expected a non-negative integer")
        if count >= 2**64:  # a store file's reader takes a larger JSON integer for a float
            raise ValueError(f"count of {label!r} is {count}, beyond the 64-bit integers a store file holds")


def _well_typed(labels, member_ids, best_silhouette_ids, histograms) -> bool:
    """Whether ``_string``, ``_strings`` and ``_histogram`` pass every value, from one pass over the types."""
    if not (set(map(type, member_ids)) <= {list, tuple} and set(map(type, histograms)) <= {dict}):
        return False
    strings = chain(labels, best_silhouette_ids, *member_ids, *histograms)
    counts = list(chain.from_iterable(map(dict.values, histograms)))
    typed = set(map(type, strings)) <= {str} and set(map(type, counts)) <= {int}
    return typed and 0 <= min(counts, default=0) <= max(counts, default=0) < 2**64


class LabeledClusterSet(_FrozenColumns):
    """The reference store of labeled clusters; entry order is fixed and load-bearing.

    Entry i is item i of ``labels``, ``member_ids``, ``best_silhouette_ids`` and
    ``histograms``, and row i of the read-only (S, d) float64 matrices
    ``centroids`` and ``best_silhouette_vectors``, which are copied from the
    matrices given. A store is immutable. Its values are checked here, for stores
    built and read alike: ValueError names a bad one's entry and store-file key.
    """

    def __init__(self, labels, member_ids, best_silhouette_ids, histograms, centroids, best_silhouette_vectors) -> None:
        centroids = np.array(centroids, dtype=np.float64)
        best_silhouette_vectors = np.array(best_silhouette_vectors, dtype=np.float64)
        size = len(labels)
        if centroids.ndim != 2 or centroids.shape[1] < 1:
            raise ValueError(f"store vectors must form an (S, d) matrix with d >= 1, got shape {centroids.shape}")
        if not size == len(member_ids) == len(best_silhouette_ids) == len(histograms) == centroids.shape[0]:
            raise ValueError("store columns differ in length")
        if best_silhouette_vectors.shape != centroids.shape:
            raise ValueError("cluster embedding dimensions disagree")
        if not _well_typed(labels, member_ids, best_silhouette_ids, histograms):  # then name the first bad value
            for key, column, check in (
                ("label", labels, _string),
                ("member_ids", member_ids, _strings),
                ("best_silhouette_id", best_silhouette_ids, _string),
                ("label_histogram", histograms, _histogram),
            ):
                for index, value in enumerate(column):
                    try:
                        check(value)
                    except (TypeError, ValueError) as exc:
                        raise ValueError(f"entry {index}: bad value for {key!r} ({exc})") from None
        for index, label in enumerate(labels):
            if not label:
                raise ValueError(f"entry {index}: cluster label must be non-empty")
            # a label is one field of a labels.tsv line, which read_face_labels splits with str.splitlines
            if "\t" in label or label.splitlines() != [label]:
                raise ValueError(f"entry {index}: cluster label {label!r} holds a tab or a line break")
        for index, (ids, best, histogram) in enumerate(zip(member_ids, best_silhouette_ids, histograms)):
            if not ids:
                raise ValueError(f"entry {index}: 'member_ids' is empty")
            if best not in ids:
                raise ValueError(f"entry {index}: 'best_silhouette_id' {best!r} is not one of its 'member_ids'")
            if sum(histogram.values()) != len(ids):
                raise ValueError(
                    f"entry {index}: 'label_histogram' counts sum to {sum(histogram.values())}, "
                    f"not to its {len(ids)} 'member_ids'"
                )
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
        _freeze(
            self,
            labels=tuple(labels),
            member_ids=tuple(tuple(ids) for ids in member_ids),
            best_silhouette_ids=tuple(best_silhouette_ids),
            histograms=tuple(dict(h) for h in histograms),
            centroids=centroids,
            best_silhouette_vectors=best_silhouette_vectors,
        )

    @property
    def dimension(self) -> int:
        return self.centroids.shape[1]

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return f"LabeledClusterSet({len(self)} entries, dimension={self.dimension})"


@dataclass(frozen=True)
class MatchConfig:
    """Knobs for the matching chain; defaults follow the evaluated operating point."""

    alpha: int = DEFAULT_ALPHA
    probability_threshold: float = DEFAULT_THRESHOLD
    cluster_embedding_method: str = CENTROID

    def __post_init__(self) -> None:
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if not 0.0 < self.probability_threshold < 1.0:
            raise ValueError("probability_threshold must be in (0, 1)")
        if self.cluster_embedding_method not in (CENTROID, BEST_SILHOUETTE):
            raise ValueError(f"unknown method {self.cluster_embedding_method!r}")


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

    It gives a store entry's centroid, the centroid query and the one-cluster centre
    of ``best_silhouette_members``, whose row is the best-silhouette query as it is.
    """
    mat = as_matrix(members)
    if mat.shape[0] == 0:
        raise ValueError("cannot embed an empty cluster")
    return row_mean(mat)


def best_silhouette_members(data, clustering: Clustering) -> list[int]:
    """Per cluster, the index of the member that stands in for it as the best-silhouette sample.

    With >= 2 clusters this is the member with the highest silhouette
    coefficient, from the clustering's silhouette report (computed here when it
    has none); with a single cluster (silhouette undefined) it is the member
    nearest the centroid. Ties break on the lowest point index.
    """
    mat = as_matrix(data)
    if clustering.num_clusters < 2:
        return [int(np.argmin(np.linalg.norm(mat - make_cluster_embedding(mat), axis=1)))]
    report = clustering.silhouette or silhouette(mat, clustering)
    coeffs = np.asarray(report.coefficients)
    assign = np.asarray(clustering.assignments)
    # by cluster, then by descending coefficient; the sort is stable, so ties keep index order
    order = np.lexsort((-coeffs, assign))
    firsts = np.searchsorted(assign[order], np.arange(clustering.num_clusters))
    return [int(i) for i in order[firsts]]


def similarity(q, c):
    """Inverse-RMSE similarity of each row (along the last axis); the RMSE is clamped below at ``RMSE_EPSILON``."""
    return 1.0 / np.maximum(rmse(q, c), RMSE_EPSILON)


def _top_alpha(s: np.ndarray, alpha: int) -> np.ndarray:
    """The indices of the alpha largest values of ``s``, largest first; equal values keep index order."""
    return np.argsort(-s, kind="stable")[:alpha]


def truncate_top_alpha(similarities, alpha: int) -> np.ndarray:
    """Keep the alpha largest entries, zero the rest; boundary ties keep the earliest index."""
    s = np.asarray(similarities, dtype=np.float64)
    if s.size == 0:
        raise ValueError("empty similarity vector")
    out = np.zeros_like(s)
    keep = _top_alpha(s, alpha)
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
        top = _top_alpha(p, p.size)
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


def _screen(queries: np.ndarray, stored: np.ndarray, alpha: int) -> np.ndarray:
    """(K, S) mask of the entries that may be among each query's alpha most similar: never a miss.

    Let D = sum((q - s) ** 2) as ``similarity`` computes it (each of the d
    terms carries a relative error of about 3u, u = eps / 2, and any summation
    order adds (d - 1)u: |D - ||q - s||^2| <= (d + 2)u ||q - s||^2 <=
    2(d + 2)u (||q||^2 + ||s||^2)). The screen G = ||q||^2 + ||s||^2 - 2 q.s
    comes from one Gram product; each of the three inner products is off by at
    most d·u·(||q||^2 + ||s||^2) (|q|.|s| <= (||q||^2 + ||s||^2) / 2) and the two
    additions by 3u·(||q||^2 + ||s||^2), so |G - D| <= (5d + 7)u (||q||^2 + ||s||^2),
    well inside B = 4(d + 4)·eps·(||q||^2 + ||s||^2) = (8d + 32)u (...), which
    also absorbs the rounding of G ± B. Every entry has D <= G + B, so the
    alpha-th smallest G + B bounds the alpha-th smallest D from above. The
    similarity 1 / max(sqrt(D / d), RMSE_EPSILON) never rises with D, and two
    D more than a relative 16·eps apart give different similarities unless
    both are clamped, which needs D <= d·RMSE_EPSILON^2 (1 + 16·eps). An entry
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
        reach = np.maximum(kth, max(d * RMSE_EPSILON**2, _SCREEN_FLOOR)) * (1 + 16 * _EPS)
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
        for q, candidates in zip(block, _screen(block, stored, alpha)):
            index = np.flatnonzero(candidates)
            sims = similarity(q, stored[index])
            keep = _top_alpha(sims, alpha)  # index ascends: equal scores keep the lowest
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
