"""Ward clustering, silhouette scoring, and the unknown-K search strategy.

Points are clustered agglomeratively with the Ward criterion. When the number of
clusters is unknown, ``estimate_clustering`` sweeps k upward down one Ward tree,
keeping the cut with the best silhouette score, and falls back to a single
cluster when even the best score indicates overlap.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import _freeze, as_matrix, mirror_upper, pairwise_distances

DEFAULT_PATIENCE = 5
DEFAULT_MIN_SILHOUETTE = 0.2


@dataclass(frozen=True)
class Clustering:
    """A partition of a dataset: one 0-based cluster index per point."""

    assignments: tuple[int, ...]
    num_clusters: int
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

    def member_groups(self) -> list[np.ndarray]:
        """Every cluster's member indices in ascending order, from one stable sort of the assignments."""
        assign = np.asarray(self.assignments)
        order = np.argsort(assign, kind="stable")
        bounds = np.searchsorted(assign[order], np.arange(self.num_clusters + 1))
        return [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


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
    score: float


def _relabel(labels: np.ndarray) -> tuple[tuple[int, ...], int]:
    """Map arbitrary cluster labels to dense 0-based indices in order of first appearance.
    For a partition of the points this numbers each cluster by its smallest point."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    return tuple(rank[inverse].tolist()), len(first)


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
        _freeze(self, children=children, sizes=sizes, starts=starts, order=order)

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
        node_of = np.empty(n, dtype=np.intp)
        node_of[self.order] = np.repeat(nodes, self.sizes[nodes])
        assignments, _ = _relabel(node_of)
        return Clustering(assignments=assignments, num_clusters=k)


def ward_tree(data, dist: np.ndarray | None = None) -> WardTree:
    """Build the full Ward dendrogram: greedily merge the pair with the
    minimum increase in total within-cluster variance, updating inter-cluster
    costs with the Lance-Williams recurrence.

    Ties break on the lexicographically smallest (min rep, max rep) pair,
    where a cluster's representative is its smallest original point index.
    ``dist`` is the data's ``pairwise_distances``, computed here when not given.
    A writable C-ordered float64 ``dist`` is borrowed as the loop's workspace:
    its strict upper triangle is kept aside (n(n-1)/2 floats) and written back,
    mirrored below a zero diagonal, before this returns or raises, so the caller
    gets the same bits back. Any other ``dist`` is copied. A merge cost that
    overflows to inf or nan raises ValueError, so no merge joins a cluster to itself.
    """
    mat = as_matrix(data)
    n = mat.shape[0]
    if n == 1:
        return WardTree(n_points=1, merges=())

    upper = None
    if dist is None:
        work = pairwise_distances(mat)
    elif dist.dtype == np.float64 and dist.flags.c_contiguous and dist.flags.writeable:
        work, upper = dist, np.empty(n * (n - 1) // 2)
        for row, saved in _upper_rows(work, upper):
            saved[...] = row
    else:
        work = np.array(dist, dtype=np.float64, order="C")
    try:
        merges = _ward_merges(work)
    finally:
        if upper is not None:
            for row, saved in _upper_rows(work, upper):
                row[...] = saved
            mirror_upper(work)
            np.fill_diagonal(work, 0.0)
    return WardTree(n_points=n, merges=tuple(merges))


def _upper_rows(square: np.ndarray, upper: np.ndarray):
    """Yield each row's strict upper part square[i, i+1:] with its slice of ``upper``,
    the condensed upper triangle that holds those parts one after another."""
    n, start = square.shape[0], 0
    for i in range(n - 1):
        end = start + n - 1 - i
        yield square[i, i + 1 :], upper[start:end]
        start = end


@np.errstate(over="ignore", invalid="ignore")  # an overflowing cost raises below instead
def _ward_merges(D: np.ndarray) -> list[WardMerge]:
    """The greedy Ward merges of the points whose distances the n x n C-ordered
    array D holds. D becomes the loop's cost matrix and is left overwritten."""
    n = D.shape[0]
    merges: list[WardMerge] = []
    D *= D
    D *= 0.5  # size-1 clusters: (1*1)/(1+1) * ||ci-cj||^2
    np.fill_diagonal(D, np.inf)
    buffer = D.reshape(-1)
    # B is the m0 x m0 block of Ward merge costs between the clusters alive at
    # the last compaction, in ascending order of their representatives
    # (``reps``); a merge keeps the lower position. Merged-away clusters get a
    # +inf penalty, so every update runs on whole contiguous rows.
    B = D
    reps = np.arange(n)
    sizes = np.ones(n)
    penalty = np.zeros(n)
    # every row's minimum over live columns and the smallest column holding it
    rowarg = B.argmin(axis=1)
    rowmin = B[reps, rowarg]
    new, scratch = np.empty(n), np.empty(n)

    for live in range(n - 1, 0, -1):  # clusters left after this merge
        # both ends of every pair at the minimum have it as their row minimum, so
        # the smallest such row and its smallest argmin are the lexicographically first pair
        p = int(rowmin.argmin())
        q = int(rowarg[p])
        cost = B[p, q]
        if not math.isfinite(cost):
            raise ValueError(f"Ward merge cost {cost} is not finite: the data's scale overflows float64")
        merges.append(WardMerge(rep_a=int(reps[p]), rep_b=int(reps[q]), cost=float(cost)))
        if live == 1:
            break

        ni, nj = sizes[p], sizes[q]
        penalty[q] = rowmin[p] = rowmin[q] = np.inf
        # Lance-Williams update for Ward, term by term as
        # ((ni + nk) * D[i] + (nj + nk) * D[j] - nk * D[i, j]) / (ni + nj + nk)
        np.add(sizes, ni, out=new)
        new *= B[p]
        np.add(sizes, nj, out=scratch)
        scratch *= B[q]
        new += scratch
        np.multiply(sizes, cost, out=scratch)
        new -= scratch
        np.add(sizes, ni + nj, out=scratch)
        new /= scratch
        new += penalty  # the diagonal makes new[p] inf too
        sizes[p] = ni + nj
        B[p] = new
        B[:, p] = new  # stale rows are rescanned through this column

        # refresh the cache: a row takes p when the new cost is below its minimum,
        # or equal to it from a column at or after p; a row whose argmin was p or q
        # and whose new cost is above its minimum is rescanned
        took = (new < rowmin) | ((new == rowmin) & (rowarg >= p))
        stale = np.flatnonzero((rowarg == p) | (rowarg == q))
        stale = stale[new[stale] > rowmin[stale]]
        np.minimum(rowmin, new, out=rowmin)
        rowarg[took] = p
        arg = new.argmin()
        rowarg[p], rowmin[p] = arg, new[arg]
        for r in stale.tolist():
            np.add(B[r], penalty, out=scratch)
            arg = scratch.argmin()
            rowarg[r], rowmin[r] = arg, scratch[arg]

        if 2 * live <= len(reps):
            keep = np.flatnonzero(penalty == 0)
            B = _compact(buffer, B, keep)
            position = np.empty(len(reps), dtype=np.intp)
            position[keep] = np.arange(live)
            reps, sizes, rowmin, rowarg = reps[keep], sizes[keep], rowmin[keep], position[rowarg[keep]]
            penalty, new, scratch = np.zeros(live), np.empty(live), np.empty(live)

    return merges


# rows the Ward loop's compaction moves at a time, which bounds its temporary
_COMPACT_BLOCK = 256


def _compact(buffer: np.ndarray, B: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """B[keep][:, keep], written as an m x m block at the start of ``buffer``, which B
    also starts. Row r moves from row keep[r] >= r of the wider B, so writing rows in
    ascending order never overwrites a row still to be read."""
    m = len(keep)
    out = buffer[: m * m].reshape(m, m)
    for start in range(0, m, _COMPACT_BLOCK):
        out[start : start + _COMPACT_BLOCK] = B[keep[start : start + _COMPACT_BLOCK]][:, keep]
    return out


# ---------------------------------------------------------------------------
# silhouette


def _distance_sums(dist: np.ndarray, points: np.ndarray, out: np.ndarray) -> None:
    """out[i] = the sum of dist[j, i] over j in ``points``, added one row at a time in
    the order given: no temporary, and the same points give the same bits."""
    np.copyto(out, dist[points[0]])
    for j in points[1:].tolist():
        out += dist[j]


def _nearest(sums: np.ndarray, counts: np.ndarray, own: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """b, the smallest mean distance from each point to a cluster other than its own, and
    the row giving it. ``sums[c, j]`` is the total distance from point j to cluster c,
    ``counts[c]`` the size of c and ``own[j]`` the row of j's cluster."""
    columns = np.arange(sums.shape[1])
    mean_to = sums / counts[:, None]
    mean_to[own, columns] = np.inf
    row = mean_to.argmin(axis=0)
    return mean_to[row, columns], row


def _coefficients(own_sums: np.ndarray, own_count: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Silhouette coefficients s = (b - a) / max(a, b), from each point's distance sum to
    its own cluster, that cluster's size and b; s is 0 for a singleton and where a = b = 0."""
    a = np.where(own_count > 1, own_sums / np.maximum(own_count - 1, 1), 0.0)
    denom = np.maximum(a, b)
    s = np.where(denom > 0, (b - a) / np.where(denom > 0, denom, 1.0), 0.0)
    return np.where(own_count > 1, s, 0.0)


def _report(s: np.ndarray) -> SilhouetteReport:
    return SilhouetteReport(coefficients=tuple(s.tolist()), score=float(s.mean()))


def silhouette(data, clustering: Clustering, dist: np.ndarray | None = None) -> SilhouetteReport:
    """Per-sample silhouette coefficients S = (b - a) / max(a, b) and their mean.

    a: mean distance to other members of the sample's own cluster (0 by
    convention for singletons, which get S = 0); b: smallest mean distance to
    the members of any other cluster. Every distance sum runs over a cluster's
    members in ascending index order (``_distance_sums``), as the Ward K search's
    sums do, so both give the same bits for the same clusters.
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

    own = np.asarray(clustering.assignments)
    sums = np.empty((k, n))  # sums[c, i] = total distance from i to cluster c
    groups = clustering.member_groups()
    for members, row in zip(groups, sums):
        _distance_sums(dist, members, row)
    counts = np.array([len(members) for members in groups], dtype=np.float64)
    b, _ = _nearest(sums, counts, own)
    return _report(_coefficients(sums[own, np.arange(n)], counts[own], b))


# ---------------------------------------------------------------------------
# unknown-K search


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_memory(n: int) -> None:
    """Raise ValueError when the float64 n x n arrays Ward holds at its peak exceed physical
    memory: the distances, which Ward turns into its cost matrix while it keeps their upper
    triangle aside."""
    needed, available = (n * n + n * (n - 1) // 2) * 8, _physical_memory()
    if needed > available:
        raise ValueError(
            f"clustering n={n} points needs {needed / 2**30:.1f} GiB for its n x n matrices, "
            f"more than the {available / 2**30:.1f} GiB of physical memory"
        )


def checked_distances(data) -> np.ndarray:
    """``pairwise_distances`` of the data, after checking that the float64 n x n
    arrays Ward holds at its peak fit in physical memory."""
    mat = as_matrix(data)
    _check_memory(mat.shape[0])
    return pairwise_distances(mat)


def _single_cluster(n: int) -> Clustering:
    return Clustering(assignments=tuple([0] * n), num_clusters=1)


def _ward_sweep(tree: WardTree, dist: np.ndarray, kmax: int):
    """Yield (k, score, coefficients) for k = 2..kmax: the silhouette score and
    coefficients of ``tree.cut(k)``.

    Going from k - 1 to k clusters undoes merge n - k. Both of its children sum
    their distances over their points in ascending order, as ``silhouette``
    does, so every value is bit-equal to ``silhouette(tree.cut(k))``. Only the
    children's rows change, so a point outside the split cluster whose b came
    from another row takes the minimum of that b and its means to the children;
    the split cluster's members and the points whose b came from the split row
    look at every row again.
    """
    n = tree.n_points
    sums = np.empty((min(kmax, 8), n))  # sums[c, i]: distance from point i to cluster c, for c < k
    counts = np.empty(kmax)
    own = np.zeros(n, dtype=np.intp)
    points = np.arange(n)
    b = np.full(n, np.inf)
    near = np.zeros(n, dtype=np.intp)  # the row each point's b comes from
    row_of = {2 * n - 2: 0}  # the sums row of each current cluster's node
    for k in range(2, kmax + 1):
        if k > len(sums):  # double the rows rather than reserve kmax of them up front
            grown = np.empty((min(2 * len(sums), kmax), n))
            grown[: len(sums)] = sums
            sums = grown
        split, added = row_of.pop(2 * n - k), k - 1
        parts = [np.sort(tree.points(node)) for node in tree.children[n - k]]
        for node, part, row in zip(tree.children[n - k].tolist(), parts, (split, added)):
            _distance_sums(dist, part, sums[row])
            counts[row] = len(part)
            row_of[node] = row
        rescan = np.flatnonzero((near == split) | (own == split))
        own[parts[1]] = added
        for row in (split, added):
            mean = sums[row] / counts[row]
            closer = mean < b
            b[closer], near[closer] = mean[closer], row
        b[rescan], near[rescan] = _nearest(sums[:k, rescan], counts[:k], own[rescan])
        s = _coefficients(sums[own, points], counts[own], b)
        yield k, float(s.mean()), s


def estimate_clustering(data, config: KSearchConfig = KSearchConfig()) -> Clustering:
    """Pick the number of clusters by silhouette score.

    Starting from k = 2, k is increased by 1 until the running-maximum
    silhouette score fails to improve ``patience`` times in a row or k reaches
    the number of points. If even the best score is below ``min_silhouette``
    (overlapping clusters), all points are placed in a single cluster.

    Every k is scored in one sweep down the data's Ward tree, whose scores are
    exact ``silhouette`` scores. The tree is cut once, at the chosen k, and that
    clustering keeps the silhouette report the sweep computed for it.
    """
    mat = as_matrix(data)
    n = mat.shape[0]
    if n == 1:
        return _single_cluster(1)

    kmax = n if config.max_clusters is None else min(config.max_clusters, n)
    dist = checked_distances(mat)
    tree = ward_tree(mat, dist=dist)

    best_k, best_score, kept = None, -np.inf, None
    misses = 0
    for k, score, coefficients in _ward_sweep(tree, dist, kmax):
        if score > best_score:
            best_k, best_score, kept = k, score, coefficients
            misses = 0
        else:
            misses += 1
            if misses >= config.patience:
                break

    if best_k is None or best_score < config.min_silhouette:
        return _single_cluster(n)
    return replace(tree.cut(best_k), silhouette=_report(kept))
