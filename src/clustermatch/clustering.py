"""Clustering algorithms, silhouette scoring, and the unknown-K search strategy.

Three candidate algorithms are provided: k-means, affinity propagation, and
agglomerative clustering with the Ward criterion. When the number of clusters
is unknown, ``estimate_clustering`` sweeps k upward, keeping the configuration
with the best silhouette score, and falls back to a single cluster when even
the best score indicates overlap.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import as_matrix, pairwise_distances

DEFAULT_PATIENCE = 5
DEFAULT_MIN_SILHOUETTE = 0.2


@dataclass(frozen=True)
class Clustering:
    """A partition of a dataset: one 0-based cluster index per point."""

    assignments: tuple[int, ...]
    num_clusters: int
    converged: bool = True
    exemplars: tuple[int, ...] | None = None  # per-cluster exemplar point, when the algorithm has one
    # the silhouette of this clustering, set by the K search and pipeline.run_clustering when K >= 2
    silhouette: SilhouetteReport | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_clusters < 1:
            raise ValueError("num_clusters must be positive")
        seen = set(self.assignments)
        expected = set(range(self.num_clusters))
        if seen != expected:
            raise ValueError(
                f"assignments must cover exactly clusters 0..{self.num_clusters - 1}, got {sorted(seen)}"
            )

    @property
    def n_points(self) -> int:
        return len(self.assignments)

    def members(self, cluster: int) -> list[int]:
        return [i for i, a in enumerate(self.assignments) if a == cluster]


@dataclass(frozen=True)
class KSearchConfig:
    """Parameters for the silhouette-driven search over the number of clusters."""

    patience: int = DEFAULT_PATIENCE
    min_silhouette: float = DEFAULT_MIN_SILHOUETTE
    max_clusters: int | None = None

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 <= self.min_silhouette <= 1.0:
            raise ValueError("min_silhouette must be in [0, 1]")
        if self.max_clusters is not None and self.max_clusters < 1:
            raise ValueError("max_clusters must be positive")


@dataclass(frozen=True)
class SilhouetteReport:
    """Per-sample silhouette coefficients and their mean."""

    coefficients: tuple[float, ...]
    intra: tuple[float, ...]
    nearest: tuple[float, ...]
    score: float


def _relabel(labels: np.ndarray) -> tuple[tuple[int, ...], int]:
    """Map arbitrary cluster labels to dense 0-based indices in order of first appearance."""
    mapping: dict[int, int] = {}
    out = []
    for lab in labels:
        lab = int(lab)
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out.append(mapping[lab])
    return tuple(out), len(mapping)


# ---------------------------------------------------------------------------
# k-means


def _kmeans_pp_init(mat: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = mat.shape[0]
    centers = np.empty((k, mat.shape[1]))
    centers[0] = mat[rng.integers(n)]
    d2 = np.sum((mat - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = mat[idx]
        d2 = np.minimum(d2, np.sum((mat - centers[j]) ** 2, axis=1))
    return centers


def kmeans(
    data,
    k: int,
    seed: int = 0,
    max_iter: int = 300,
    init: str = "k-means++",
) -> Clustering:
    """Lloyd's algorithm with k-means++ seeding (or plain random init).

    Always returns exactly k non-empty clusters: an emptied cluster is reseeded
    with the point farthest from its current centroid. The within-cluster
    sum-of-squares objective is checked to be non-increasing every iteration.
    """
    mat = as_matrix(data)
    n = mat.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds number of points n={n}")
    rng = np.random.default_rng(seed)
    if init == "k-means++":
        centers = _kmeans_pp_init(mat, k, rng)
    elif init == "random":
        centers = mat[rng.choice(n, size=k, replace=False)]
    else:
        raise ValueError(f"unknown init {init!r}")

    prev_obj = np.inf
    assign = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        d2 = (
            np.sum(mat**2, axis=1)[:, None]
            - 2.0 * (mat @ centers.T)
            + np.sum(centers**2, axis=1)[None, :]
        )
        new_assign = np.argmin(d2, axis=1)

        # repair empty clusters with the globally farthest point
        counts = np.bincount(new_assign, minlength=k)
        while np.any(counts == 0):
            empty = int(np.argmin(counts))
            nearest_d2 = d2[np.arange(n), new_assign]
            # only points in clusters with >1 member are eligible to move
            eligible = counts[new_assign] > 1
            nearest_d2 = np.where(eligible, nearest_d2, -np.inf)
            far = int(np.argmax(nearest_d2))
            counts[new_assign[far]] -= 1
            new_assign[far] = empty
            counts[empty] += 1
            centers[empty] = mat[far]
            d2[:, empty] = np.sum((mat - centers[empty]) ** 2, axis=1)

        obj = float(np.sum(d2[np.arange(n), new_assign].clip(min=0.0)))
        if obj > prev_obj * (1 + 1e-12) + 1e-12:
            raise RuntimeError("k-means objective increased; internal invariant violated")
        converged_now = np.array_equal(new_assign, assign) and prev_obj < np.inf
        assign = new_assign
        prev_obj = obj
        for j in range(k):
            members = mat[assign == j]
            centers[j] = members.mean(axis=0)
        if converged_now:
            break

    labels, m = _relabel(assign)
    assert m == k
    return Clustering(assignments=labels, num_clusters=k)


# ---------------------------------------------------------------------------
# affinity propagation


def affinity_propagation(
    data,
    damping: float = 0.5,
    max_iter: int = 200,
    convergence_iter: int = 15,
) -> Clustering:
    """Responsibility/availability message passing over negative squared distances.

    Preference is the median of the off-diagonal similarities. If the exemplar
    set never stabilizes, the current assignment is returned with
    ``converged=False``; if no exemplar emerges at all, every point collapses
    into one cluster.
    """
    mat = as_matrix(data)
    n = mat.shape[0]
    if n < 2:
        raise ValueError("affinity propagation requires at least 2 points")
    if not 0.5 <= damping < 1.0:
        raise ValueError("damping must be in [0.5, 1)")

    sq = np.sum(mat**2, axis=1)
    S = -(sq[:, None] + sq[None, :] - 2.0 * (mat @ mat.T))
    np.fill_diagonal(S, 0.0)
    off = S[~np.eye(n, dtype=bool)]
    preference = float(np.median(off))
    np.fill_diagonal(S, preference)

    R = np.zeros((n, n))
    A = np.zeros((n, n))
    idx = np.arange(n)
    stable = 0
    exemplars: np.ndarray | None = None
    converged = False

    for _ in range(max_iter):
        # responsibilities
        AS = A + S
        first = np.max(AS, axis=1)
        first_idx = np.argmax(AS, axis=1)
        AS[idx, first_idx] = -np.inf
        second = np.max(AS, axis=1)
        Rnew = S - first[:, None]
        Rnew[idx, first_idx] = S[idx, first_idx] - second
        R = damping * R + (1.0 - damping) * Rnew

        # availabilities
        Rp = np.maximum(R, 0.0)
        np.fill_diagonal(Rp, R.diagonal())
        col = Rp.sum(axis=0)
        Anew = col[None, :] - Rp
        diag = Anew.diagonal().copy()
        Anew = np.minimum(Anew, 0.0)
        np.fill_diagonal(Anew, diag)
        A = damping * A + (1.0 - damping) * Anew

        ex = np.flatnonzero((R.diagonal() + A.diagonal()) > 0)
        if exemplars is not None and np.array_equal(ex, exemplars):
            stable += 1
            if stable >= convergence_iter and ex.size > 0:
                converged = True
                exemplars = ex
                break
        else:
            stable = 0
        exemplars = ex

    if exemplars is None or exemplars.size == 0:
        # no consensus: everything collapses into one cluster
        fallback = int(np.argmax(R.diagonal() + A.diagonal()))
        labels = np.zeros(n, dtype=int)
        dense, m = _relabel(labels)
        return Clustering(assignments=dense, num_clusters=m, converged=False, exemplars=(fallback,))

    assign = exemplars[np.argmax(S[:, exemplars], axis=1)]
    assign[exemplars] = exemplars
    dense, m = _relabel(assign)
    # exemplar list ordered by dense cluster index
    order: dict[int, int] = {}
    for raw in assign:
        if int(raw) not in order:
            order[int(raw)] = len(order)
    ex_by_cluster = sorted(order.items(), key=lambda kv: kv[1])
    return Clustering(
        assignments=dense,
        num_clusters=m,
        converged=converged,
        exemplars=tuple(raw for raw, _ in ex_by_cluster),
    )


# ---------------------------------------------------------------------------
# agglomerative clustering, Ward criterion


@dataclass(frozen=True)
class WardMerge:
    """One merge step: the two cluster representatives joined and the variance increase."""

    rep_a: int
    rep_b: int
    cost: float


@dataclass(frozen=True)
class WardTree:
    """Full agglomerative merge sequence; can be cut at any k without re-clustering.

    Node ids follow the usual linkage convention: points are nodes 0..n-1 and
    merge t creates node n + t. The linkage fields are derived from ``merges``:
    ``children[t]`` holds merge t's two nodes, ``sizes`` the point count of every
    node, and ``order`` a dendrogram leaf order in which every node's points
    are the contiguous slice ``order[starts[v]:starts[v] + sizes[v]]``.
    """

    n_points: int
    merges: tuple[WardMerge, ...]
    children: np.ndarray = field(init=False, repr=False, compare=False)
    sizes: np.ndarray = field(init=False, repr=False, compare=False)
    starts: np.ndarray = field(init=False, repr=False, compare=False)
    order: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n_points
        children = np.empty((n - 1, 2), dtype=np.intp)
        sizes = np.ones(2 * n - 1, dtype=np.intp)
        node_of = list(range(n))  # the node that currently holds each cluster representative
        for t, merge in enumerate(self.merges):
            a, b = node_of[merge.rep_a], node_of[merge.rep_b]
            children[t] = a, b
            sizes[n + t] = sizes[a] + sizes[b]
            node_of[merge.rep_a] = n + t
        starts = np.zeros_like(sizes)
        for t in range(n - 2, -1, -1):  # parents before their children
            a, b = children[t]
            starts[a] = starts[n + t]
            starts[b] = starts[n + t] + sizes[a]
        order = np.empty(n, dtype=np.intp)
        order[starts[:n]] = np.arange(n)
        for name, value in (("children", children), ("sizes", sizes), ("starts", starts), ("order", order)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def points(self, node: int) -> np.ndarray:
        """The points under ``node``, as a slice of the leaf order."""
        return self.order[self.starts[node] : self.starts[node] + self.sizes[node]]

    def cut(self, k: int) -> Clustering:
        """The k clusters left after the first n - k merges, numbered by their smallest point."""
        n = self.n_points
        if not 1 <= k <= n:
            raise ValueError(f"k={k} out of range [1, {n}]")
        done = n - k
        # the clusters are the nodes that exist after `done` merges (points, and nodes below
        # n + done) that no merge so far has taken in: the root, or a child of a later merge
        nodes = np.append(self.children[done:].ravel(), 2 * n - 2)
        nodes = nodes[nodes < n + done]
        nodes = nodes[np.argsort(self.starts[nodes])]
        first = np.minimum.reduceat(self.order, self.starts[nodes])
        labels = np.empty(k, dtype=np.intp)
        labels[np.argsort(first)] = np.arange(k)
        assignments = np.empty(n, dtype=np.intp)
        assignments[self.order] = np.repeat(labels, self.sizes[nodes])
        return Clustering(assignments=tuple(assignments.tolist()), num_clusters=k)


def ward_tree(data, dist: np.ndarray | None = None) -> WardTree:
    """Build the full Ward dendrogram: greedily merge the pair with the
    minimum increase in total within-cluster variance, updating inter-cluster
    costs with the Lance-Williams recurrence.

    Ties break on the lexicographically smallest (min rep, max rep) pair,
    where a cluster's representative is its smallest original point index.
    ``dist`` is the data's ``pairwise_distances``, computed here when not given.
    """
    mat = as_matrix(data)
    n = mat.shape[0]
    merges: list[WardMerge] = []
    if n == 1:
        return WardTree(n_points=1, merges=())

    if dist is None:
        dist = pairwise_distances(mat)
    # D[a, b] = Ward merge cost between live clusters a and b; only the rows and
    # columns of live clusters are kept up to date, the rest are never read again
    D = dist * dist
    D *= 0.5  # size-1 clusters: (1*1)/(1+1) * ||ci-cj||^2
    np.fill_diagonal(D, np.inf)
    sizes = np.ones(n)
    # live clusters in ascending order; a merge keeps the lower index, so a
    # cluster's index is its representative
    act = np.arange(n)

    # per-row nearest-neighbor cache over live columns, so each step avoids a full-matrix scan
    rowmin = D.min(axis=1)
    rowarg = D.argmin(axis=1)

    for _ in range(n - 1):
        mincost = rowmin.min()
        # both ends of every pair at mincost have it as their row minimum, so the
        # smallest tied row is the pair's first index and its first tied partner the second
        tied = np.flatnonzero(rowmin == mincost)
        i, partners = int(tied[0]), tied[1:]
        j = int(partners[D[i, partners] == mincost][0])
        merges.append(WardMerge(rep_a=i, rep_b=j, cost=float(D[i, j])))

        ni, nj = sizes[i], sizes[j]
        # Lance-Williams update for Ward: cost(ij, k)
        act = act[act != j]
        others = act[act != i]
        nk = sizes[others]
        Dnew = ((ni + nk) * D[i, others] + (nj + nk) * D[j, others] - nk * D[i, j]) / (ni + nj + nk)
        D[i, others] = Dnew
        D[others, i] = Dnew
        sizes[i] = ni + nj

        # refresh the nearest-neighbor cache where the merge invalidated it
        rowmin[j] = np.inf
        if others.size == 0:
            break
        rowmin[i] = Dnew.min()
        rowarg[i] = others[Dnew.argmin()]
        improved = Dnew <= rowmin[others]
        took = others[improved]
        rowmin[took] = Dnew[improved]
        rowarg[took] = i
        stale = others[~improved]
        stale = stale[(rowarg[stale] == i) | (rowarg[stale] == j)]
        for r in stale:
            row = D[r, act]
            rowmin[r] = row.min()
            rowarg[r] = act[row.argmin()]

    return WardTree(n_points=n, merges=tuple(merges))


def agglomerative_ward(data, k: int, dist: np.ndarray | None = None) -> Clustering:
    """Agglomerative clustering with the Ward minimum-variance criterion, cut at k clusters.
    ``dist`` is the data's ``pairwise_distances``, computed here when not given."""
    mat = as_matrix(data)
    n = mat.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    return ward_tree(mat, dist=dist).cut(k)


# ---------------------------------------------------------------------------
# silhouette


def _coefficients(sums: np.ndarray, counts: np.ndarray, own: np.ndarray) -> tuple[np.ndarray, ...]:
    """Silhouette coefficients s and their a and b, from per-cluster distance sums.

    ``sums[c, i]`` is the total distance from point i to the members of cluster
    c, ``counts[c]`` the size of cluster c and ``own[i]`` the cluster of point i.
    """
    points = np.arange(own.shape[0])
    own_count = counts[own]
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(own_count > 1, sums[own, points] / np.maximum(own_count - 1, 1), 0.0)
        mean_to = sums / counts[:, None]
    mean_to[own, points] = np.inf
    b = mean_to.min(axis=0)

    denom = np.maximum(a, b)
    s = np.where(denom > 0, (b - a) / np.where(denom > 0, denom, 1.0), 0.0)
    s = np.where(own_count > 1, s, 0.0)  # singleton convention
    return s, a, b


def silhouette(data, clustering: Clustering, dist: np.ndarray | None = None) -> SilhouetteReport:
    """Per-sample silhouette coefficients S = (b - a) / max(a, b) and their mean.

    a: mean distance to other members of the sample's own cluster (0 by
    convention for singletons, which get S = 0); b: smallest mean distance to
    the members of any other cluster.
    """
    mat = as_matrix(data)
    n = mat.shape[0]
    k = clustering.num_clusters
    if k < 2:
        raise ValueError("silhouette requires at least two clusters")
    if clustering.n_points != n:
        raise ValueError("clustering does not match dataset size")
    if dist is None:
        dist = pairwise_distances(mat)

    assign = np.asarray(clustering.assignments)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), assign] = 1.0
    sums = dist @ onehot  # sums[i, c] = total distance from i to cluster c
    s, a, b = _coefficients(sums.T, onehot.sum(axis=0), assign)
    return SilhouetteReport(
        coefficients=tuple(float(x) for x in s),
        intra=tuple(float(x) for x in a),
        nearest=tuple(float(x) for x in b),
        score=float(s.mean()),
    )


# ---------------------------------------------------------------------------
# unknown-K search


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def checked_distances(data, algorithm: str) -> np.ndarray:
    """``pairwise_distances`` of the data, after checking that the float64 n x n
    arrays ``algorithm`` holds at its peak fit in physical memory: the
    distances, plus the cost matrix for Ward."""
    mat = as_matrix(data)
    n = mat.shape[0]
    needed, available = (2 if algorithm == "ward" else 1) * n * n * 8, _physical_memory()
    if needed > available:
        raise ValueError(
            f"clustering n={n} points needs {needed / 2**30:.1f} GiB for its n x n matrices, "
            f"more than the {available / 2**30:.1f} GiB of physical memory"
        )
    return pairwise_distances(mat)


def _single_cluster(n: int) -> Clustering:
    return Clustering(assignments=tuple([0] * n), num_clusters=1)


# rows of the distance matrix the Ward sweep gathers at a time, which bounds its temporaries
_SWEEP_BLOCK = 256


def _distance_sums(dist: np.ndarray, points: np.ndarray, out: np.ndarray) -> None:
    """out[i] = the sum of dist[j, i] over j in ``points``."""
    np.sum(dist[points[:_SWEEP_BLOCK]], axis=0, out=out)
    for start in range(_SWEEP_BLOCK, len(points), _SWEEP_BLOCK):
        out += dist[points[start : start + _SWEEP_BLOCK]].sum(axis=0)


def _ward_sweep(tree: WardTree, dist: np.ndarray, kmax: int):
    """Yield (k, score, None) for k = 2..kmax, where score is the silhouette
    score of ``tree.cut(k)`` up to rounding.

    Going from k - 1 to k clusters undoes merge n - k. Both of its children get
    their distance sums straight from ``dist``, so every sum adds only
    non-negative terms: it is within a relative n*eps of the sum ``silhouette``
    takes, and an exact zero stays zero.
    """
    n = tree.n_points
    sums = np.empty((kmax, n))  # sums[c, i]: distance from point i to cluster c; rows past k stay untouched
    counts = np.empty(kmax)
    own = np.zeros(n, dtype=np.intp)
    row_of = {2 * n - 2: 0}  # the sums row of each current cluster's node
    for k in range(2, kmax + 1):
        split, added = row_of.pop(2 * n - k), k - 1
        for node, row in zip(tree.children[n - k].tolist(), (split, added)):
            points = tree.points(node)
            _distance_sums(dist, points, sums[row])
            counts[row] = len(points)
            row_of[node] = row
        own[points] = added
        s, _, _ = _coefficients(sums[:k], counts[:k], own)
        yield k, float(s.mean()), None


def _kmeans_candidates(mat: np.ndarray, dist: np.ndarray, kmax: int, seed: int):
    """Yield (k, score, clustering) for k = 2..kmax: k-means at each k with its exact silhouette."""
    for k in range(2, kmax + 1):
        clustering = kmeans(mat, k, seed=seed)
        report = silhouette(mat, clustering, dist=dist)
        yield k, report.score, replace(clustering, silhouette=report)


def estimate_clustering(
    data,
    algorithm: str = "ward",
    config: KSearchConfig = KSearchConfig(),
    seed: int = 0,
) -> Clustering:
    """Pick the number of clusters by silhouette score.

    Starting from k = 2, k is increased by 1 until the running-maximum
    silhouette score fails to improve ``patience`` times in a row or k reaches
    the number of points. If even the best score is below ``min_silhouette``
    (overlapping clusters), all points are placed in a single cluster.
    The chosen clustering keeps its silhouette report.

    k-means clusters and scores every k. Ward scores every k in one sweep down
    its tree; a comparison the sweep's rounding could flip is decided again on
    exact ``silhouette`` scores, and the winner is cut and scored exactly, so
    both give the choices and the report of an exact search.
    """
    mat = as_matrix(data)
    n = mat.shape[0]
    if n == 1:
        return _single_cluster(1)
    if algorithm not in ("ward", "kmeans"):
        raise ValueError(f"unsupported algorithm for K search: {algorithm!r}")

    kmax = n if config.max_clusters is None else min(config.max_clusters, n)
    dist = checked_distances(mat, algorithm)
    if algorithm == "ward":
        tree = ward_tree(mat, dist=dist)
        candidates = _ward_sweep(tree, dist, kmax)
        # A sweep score and silhouette's score of one cut differ by rounding alone:
        # the two sums of n non-negative terms agree to a relative n*eps, which
        # moves a coefficient by at most ~2n*eps, a mean by ~3n*eps and the
        # difference of two scores by ~12n*eps.
        tolerance = 32 * n * np.finfo(np.float64).eps

        def exact(k: int) -> Clustering:
            cut = tree.cut(k)
            return replace(cut, silhouette=silhouette(mat, cut, dist=dist))

    else:
        candidates = _kmeans_candidates(mat, dist, kmax, seed)  # exact scores, each with its clustering

    best_k, best_score, best = None, -np.inf, None  # best: the exact winner, once known
    misses = 0
    for k, score, current in candidates:
        if current is None and abs(score - best_score) <= tolerance:  # a sweep score too close to call
            current = exact(k)
            best = best if best is not None else exact(best_k)
            better = current.silhouette.score > best.silhouette.score
        else:
            better = score > best_score
        if better:
            best_k, best_score, best = k, score, current
            misses = 0
        else:
            misses += 1
            if misses >= config.patience:
                break

    if best_k is None:
        return _single_cluster(n)
    if best is None:
        best = exact(best_k)
    if best.silhouette.score < config.min_silhouette:
        return _single_cluster(n)
    return best
