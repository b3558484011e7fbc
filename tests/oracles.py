"""Independent brute-force reference implementations used to check the library.

These deliberately avoid the library's code paths (plain Python loops and
math.log instead of numpy) so a shared bug cannot hide. The last six are the
direct forms of faster library code: a union-find cut of a Ward tree, the
Ward K search that cuts and scores every k on its own, the greedy Ward loop
that keeps every row and column of its cost matrix current, the distance
matrix symmetrised in one whole-matrix pass, the match of one query
cluster that scores every store entry, and the embedding-file reader that
parses and checks one line at a time.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from clustermatch.clustering import Clustering, KSearchConfig, WardMerge, silhouette, ward_tree
from clustermatch.formats import EMBEDDING_HEADER_PREFIX, FormatError
from clustermatch.geometry import Embedding, as_matrix, pairwise_distances
from clustermatch.matching import CENTROID, make_cluster_embedding, match_probabilities, truncate_top_alpha


def brute_v_measure(true_labels, assignments, beta=1.0):
    """Homogeneity, completeness, V from raw label lists via direct entropy sums."""
    n = len(true_labels)
    joint = Counter(zip(true_labels, assignments))
    classes = Counter(true_labels)
    clusters = Counter(assignments)

    def entropy(counter):
        return -sum((c / n) * math.log(c / n) for c in counter.values())

    h_c = entropy(classes)
    h_k = entropy(clusters)
    h_c_given_k = -sum((cnt / n) * math.log(cnt / clusters[k]) for (_, k), cnt in joint.items())
    h_k_given_c = -sum((cnt / n) * math.log(cnt / classes[c]) for (c, _), cnt in joint.items())

    if h_c_given_k == 0:
        h = 1.0
    elif h_c == 0:
        h = 1.0
    else:
        h = 1.0 - h_c_given_k / h_c
    if h_k_given_c == 0:
        c = 1.0
    elif h_k == 0:
        c = 1.0
    else:
        c = 1.0 - h_k_given_c / h_k
    v = 0.0 if h + c == 0 else (1 + beta) * h * c / (beta * h + c)
    return h, c, v


def wcss(points) -> float:
    """Within-cluster sum of squared distances to the mean, by direct evaluation."""
    if not points:
        return 0.0
    dim = len(points[0])
    mean = [sum(p[d] for p in points) / len(points) for d in range(dim)]
    return sum(sum((p[d] - mean[d]) ** 2 for d in range(dim)) for p in points)


def ward_merge_cost(points_a, points_b) -> float:
    """Exact increase in total within-cluster variance caused by merging two clusters."""
    return wcss(list(points_a) + list(points_b)) - wcss(list(points_a)) - wcss(list(points_b))


def brute_silhouette(points, assignments):
    """Per-sample silhouette coefficients via triple loops over raw distances."""
    n = len(points)

    def dist(a, b):
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))

    clusters: dict[int, list[int]] = {}
    for i, a in enumerate(assignments):
        clusters.setdefault(a, []).append(i)

    coeffs = []
    for i in range(n):
        own = clusters[assignments[i]]
        if len(own) == 1:
            coeffs.append(0.0)
            continue
        a = sum(dist(points[i], points[j]) for j in own if j != i) / (len(own) - 1)
        b = min(
            sum(dist(points[i], points[j]) for j in members) / len(members)
            for c, members in clusters.items()
            if c != assignments[i]
        )
        denom = max(a, b)
        coeffs.append((b - a) / denom if denom > 0 else 0.0)
    return coeffs


def brute_softmax(values):
    total = sum(math.exp(v) for v in values)
    return [math.exp(v) / total for v in values]


def union_find_cut(tree, k):
    """Assignments after the first n - k merges of a Ward tree, joining merge
    representatives with union-find and numbering clusters by first appearance."""
    n = tree.n_points
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for merge in tree.merges[: n - k]:
        ra, rb = find(merge.rep_a), find(merge.rep_b)
        parent[max(ra, rb)] = min(ra, rb)
    labels: dict[int, int] = {}
    return tuple(labels.setdefault(find(i), len(labels)) for i in range(n))


def per_k_ward_search(data, config=KSearchConfig()):
    """The Ward K search one k at a time: a union-find cut and a fresh silhouette
    per k, the running best under patience, and the collapse to one cluster
    when the best score is below min_silhouette."""
    mat = as_matrix(data)
    n = mat.shape[0]
    single = Clustering(assignments=(0,) * n, num_clusters=1)
    if n == 1:
        return single
    kmax = n if config.max_clusters is None else min(config.max_clusters, n)
    dist = pairwise_distances(mat)
    tree = ward_tree(mat, dist=dist)
    best_score, best, misses = -math.inf, None, 0
    for k in range(2, kmax + 1):
        candidate = Clustering(assignments=union_find_cut(tree, k), num_clusters=k)
        report = silhouette(mat, candidate, dist=dist)
        if report.score > best_score:
            best_score, best, misses = report.score, replace(candidate, silhouette=report), 0
        else:
            misses += 1
            if misses >= config.patience:
                break
    if best is None or best_score < config.min_silhouette:
        return single
    return best


def greedy_ward_merges(dist):
    """Ward merges from a distance matrix by the greedy Lance-Williams loop that
    marks merged-away rows and columns infinite and rescans whole rows for ties.
    Ties break on the lexicographically smallest (min rep, max rep) pair."""
    n = dist.shape[0]
    merges = []
    if n == 1:
        return ()
    D = dist * dist
    D *= 0.5
    np.fill_diagonal(D, np.inf)
    sizes = np.ones(n)
    active = np.ones(n, dtype=bool)
    reps = np.arange(n)
    rowmin = D.min(axis=1)
    rowarg = D.argmin(axis=1)

    for _ in range(n - 1):
        mincost = rowmin.min()
        # every (row, column) at mincost in the tied rows; the pair with the smallest (min rep, max rep)
        tied = np.flatnonzero(rowmin == mincost)
        rows, cols = np.nonzero(D[tied] == mincost)
        rows = tied[rows]
        first = np.lexsort((np.maximum(reps[rows], reps[cols]), np.minimum(reps[rows], reps[cols])))[0]
        i, j = sorted((int(rows[first]), int(cols[first])))
        merges.append(
            WardMerge(rep_a=int(min(reps[i], reps[j])), rep_b=int(max(reps[i], reps[j])), cost=float(D[i, j]))
        )

        ni, nj = sizes[i], sizes[j]
        others = active.copy()
        others[i] = others[j] = False
        nk = sizes[others]
        Dnew = ((ni + nk) * D[i, others] + (nj + nk) * D[j, others] - nk * D[i, j]) / (ni + nj + nk)
        D[i, others] = Dnew
        D[others, i] = Dnew
        sizes[i] = ni + nj
        reps[i] = min(reps[i], reps[j])
        active[j] = False
        D[j, :] = np.inf
        D[:, j] = np.inf

        rowmin[j] = np.inf
        rowmin[i] = D[i].min()
        rowarg[i] = D[i].argmin()
        rows = np.flatnonzero(active)
        rows = rows[rows != i]
        improved = D[rows, i] <= rowmin[rows]
        took = rows[improved]
        rowmin[took] = D[took, i]
        rowarg[took] = i
        stale = rows[~improved]
        stale = stale[(rowarg[stale] == i) | (rowarg[stale] == j)]
        for r in stale:
            rowmin[r] = D[r].min()
            rowarg[r] = D[r].argmin()
    return tuple(merges)


def untiled_pairwise_distances(data):
    """``pairwise_distances`` with the transpose added in one whole-matrix pass."""
    mat = as_matrix(data)
    sq = np.sum(mat**2, axis=1)
    d = np.add.outer(sq, sq)
    buf = mat @ mat.T
    buf *= 2.0
    d -= buf
    np.sqrt(np.maximum(d, 0.0, out=d), out=d)
    np.add(d, d.T, out=buf)
    buf *= 0.5
    np.fill_diagonal(buf, 0.0)
    return buf


@dataclass(frozen=True)
class FullMatch:
    """One query cluster matched against every store entry: the length-S vectors and the decision."""

    similarities: np.ndarray
    truncated: np.ndarray
    probabilities: np.ndarray
    top_indices: tuple[int, ...]  # the entries the truncation kept, most similar first
    matched: bool
    label: str | None
    cluster_index: int | None
    probability: float | None


def full_match(query_members, store, config) -> FullMatch:
    """The matching chain for one query cluster, scoring every store entry: the direct form of ``match_clusters``."""
    q = make_cluster_embedding(query_members)
    stored = store.centroids if config.cluster_embedding_method == CENTROID else store.best_silhouette_vectors
    rmses = np.sqrt(np.sum((stored - q) ** 2, axis=1) / store.dimension)
    sims = 1.0 / np.maximum(rmses, config.rmse_epsilon)
    trunc = truncate_top_alpha(sims, config.alpha)
    probs = match_probabilities(trunc)
    best = int(np.argmax(probs))
    matched = bool(probs[best] > config.probability_threshold)
    return FullMatch(
        similarities=sims,
        truncated=trunc,
        probabilities=probs,
        top_indices=tuple(np.argsort(-sims, kind="stable")[: config.alpha].tolist()),
        matched=matched,
        label=store.labels[best] if matched else None,
        cluster_index=best if matched else None,
        probability=float(probs[best]) if matched else None,
    )


def per_line_read_embeddings(path):
    """An `#emb v1` file as a list of ``Embedding``: each line parsed and checked on its
    own, and the first malformed one raised as FormatError naming it."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith(EMBEDDING_HEADER_PREFIX):
        raise FormatError(f"{path}: missing '{EMBEDDING_HEADER_PREFIX}<n>' header")
    try:
        dim = int(lines[0][len(EMBEDDING_HEADER_PREFIX):])
    except ValueError:
        raise FormatError(f"{path}: bad dimension in header {lines[0]!r}") from None

    out = []
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise FormatError(f"{path}:{lineno}: expected 5 tab-separated fields, got {len(fields)}")
        eid, video_id, frame, label, vec = fields
        try:
            vector = tuple(float(x) for x in vec.split(","))
        except ValueError:
            raise FormatError(f"{path}:{lineno}: unparsable vector") from None
        if len(vector) != dim:
            raise FormatError(f"{path}:{lineno}: vector has dimension {len(vector)}, file header says {dim}")
        if eid in seen:
            raise FormatError(f"{path}:{lineno}: duplicate embedding id {eid!r}")
        seen.add(eid)
        try:
            out.append(
                Embedding(
                    id=eid,
                    vector=vector,
                    video_id=video_id or None,
                    frame_index=int(frame) if frame else None,
                    true_label=label or None,
                )
            )
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    return out
