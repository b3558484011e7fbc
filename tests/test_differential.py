"""Fast paths against direct references: vectorised matching against per-entry
and per-cluster scoring, the Ward K search against a cut and a silhouette per k,
the live-row Ward loop against the whole-matrix greedy loop, and the tiled
distance matrix against the untiled one."""
import numpy as np
import pytest

from clustermatch import clustering as clustering_module
from clustermatch.clustering import KSearchConfig, estimate_clustering, silhouette, ward_tree
from clustermatch.geometry import pairwise_distances
from clustermatch.matching import BEST_SILHOUETTE, CENTROID, MatchConfig, match_cluster, similarity
from clustermatch.pipeline import build_labeled_store, recognize, run_clustering
from clustermatch.synth import SynthConfig, generate_synthetic, sample_more

from . import oracles
from .oracles import greedy_ward_merges, per_k_ward_search, union_find_cut, untiled_pairwise_distances
from .test_acceptance import harness, query_clusters  # noqa: F401  (harness is a fixture)


def reference_best_members(mat, clustering):
    """Per cluster, the first member with the cluster's highest silhouette coefficient."""
    coeffs = silhouette(mat, clustering).coefficients
    out = []
    for c in range(clustering.num_clusters):
        members = clustering.members(c)
        out.append(members[int(np.argmax([coeffs[i] for i in members]))])
    return out


@pytest.mark.parametrize("method", [CENTROID, BEST_SILHOUETTE])
def test_vectorised_similarities_equal_scalar_similarity(harness, method):  # noqa: F811
    ds, store, video = harness
    vectors_of = {CENTROID: "centroid", BEST_SILHOUETTE: "best_silhouette_vector"}[method]
    for _, vectors, _ in query_clusters(ds, video):
        decision = match_cluster(vectors, store, MatchConfig(cluster_embedding_method=method))
        q = vectors.mean(axis=0)
        expected = tuple(similarity(q, getattr(e, vectors_of)) for e in store.entries)
        assert decision.similarities == expected


@pytest.fixture(scope="module")
def world():
    ds = generate_synthetic(
        SynthConfig(
            num_identities=12,
            points_per_identity=12,
            dimension=16,
            blob_stddev=0.6,
            separation=5.0,
            seed=4,
            fraction_nonregistered=0.25,
        )
    )
    return ds, build_labeled_store(ds.registered(), algorithm="ward", k=None)


def test_recognize_picks_each_clusters_best_silhouette_member(world):
    ds, store = world
    video = sample_more(ds, 10, seed=5, video_id="v")
    mat = np.asarray([e.vector for e in video])
    res = recognize(video, store, MatchConfig(cluster_embedding_method=BEST_SILHOUETTE))
    assert res.clustering.num_clusters >= 2
    picks = reference_best_members(mat, res.clustering)
    for outcome, pick in zip(res.outcomes, picks):
        expected = tuple(similarity(mat[pick], row) for row in store.best_silhouette_vectors)
        assert outcome.decision.similarities == expected


def test_store_keeps_each_clusters_best_silhouette_member(world):
    ds, store = world
    registered = ds.registered()
    mat = np.asarray([e.vector for e in registered])
    clustering = run_clustering(registered)
    assert clustering.num_clusters >= 2
    picks = reference_best_members(mat, clustering)
    assert [e.best_silhouette_id for e in store.entries] == [registered[i].id for i in picks]
    assert [e.best_silhouette_vector for e in store.entries] == [registered[i].vector for i in picks]


def blobs(seed, n, k, d):
    rng = np.random.default_rng(seed)
    centres = rng.normal(size=(k, d))
    return centres[rng.integers(0, k, size=n)] + rng.normal(0, 0.05, size=(n, d))


def integer_grid():
    """Points on a 4 x 4 integer grid, most of them repeated: tied distances and tied scores."""
    return np.random.default_rng(3).integers(0, 4, size=(40, 2)).astype(float)


# name -> (data, a max_clusters below the number of clusters the data has)
K_SEARCH_CASES = {
    "blobs-2000": (lambda: blobs(7, 2000, 16, 8), 15),
    **{f"blobs-300-seed{seed}": (lambda seed=seed: blobs(seed, 300, 12, 8), 11) for seed in (1, 2, 3)},
    "integer-grid": (integer_grid, 4),
    "regular-grid": (lambda: np.indices((5, 5, 5)).reshape(3, -1).T.astype(float), 4),
    "duplicated": (lambda: np.repeat(blobs(5, 80, 6, 4), 3, axis=0), 5),
    "noise": (lambda: np.random.default_rng(6).normal(size=(200, 32)), 3),
}


def k_search_configs(cap):
    return (
        KSearchConfig(patience=1),
        KSearchConfig(patience=5),
        KSearchConfig(max_clusters=cap),
        KSearchConfig(min_silhouette=0.0),
    )


@pytest.fixture
def shared_ward_trees(monkeypatch):
    """Build each dataset's Ward tree once for both searches: the search, not the tree, is compared here."""
    trees = {}

    def cached(data, dist=None):
        mat = np.asarray(data)
        key = (mat.shape, mat.tobytes())
        if key not in trees:
            trees[key] = ward_tree(mat, dist=dist)
        return trees[key]

    monkeypatch.setattr(clustering_module, "ward_tree", cached)
    monkeypatch.setattr(oracles, "ward_tree", cached)


@pytest.mark.parametrize("name", list(K_SEARCH_CASES))
def test_ward_k_search_equals_per_k_search(name, shared_ward_trees):
    build, cap = K_SEARCH_CASES[name]
    data = build()
    for config in k_search_configs(cap):
        got, want = estimate_clustering(data, "ward", config), per_k_ward_search(data, config)
        assert got == want
        assert got.silhouette == want.silhouette
        if name == "noise" and config.min_silhouette > 0:
            assert got.num_clusters == 1  # the best score is below 0.2


def test_close_scores_are_redecided_exactly(monkeypatch):
    data = integer_grid()
    original = clustering_module.silhouette
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(clustering_module, "silhouette", counted)
    for config in (KSearchConfig(patience=1), KSearchConfig(patience=5)):
        calls.clear()
        got, want = estimate_clustering(data, "ward", config), per_k_ward_search(data, config)
        assert got == want and got.silhouette == want.silhouette
        assert len(calls) > 1  # the winner, plus at least one comparison re-decided on exact scores


def test_rounding_sized_errors_in_sweep_scores_change_no_decision(monkeypatch):
    """Sweep scores pushed down by 2*n*eps at even k and n*eps at odd k, no more than rounding
    could move them, still give the exact search's choices (here k = 15 ties k = 14 and must
    not win); the exact score decides the collapse."""
    data = integer_grid()
    shift = data.shape[0] * np.finfo(np.float64).eps
    sweep = clustering_module._ward_sweep

    def skewed(tree, dist, kmax):
        for k, score, clustering in sweep(tree, dist, kmax):
            yield k, score - (2 - k % 2) * shift, clustering

    monkeypatch.setattr(clustering_module, "_ward_sweep", skewed)
    winner = per_k_ward_search(data, KSearchConfig(min_silhouette=0.0)).silhouette.score
    for config in (KSearchConfig(patience=1), KSearchConfig(patience=5), KSearchConfig(min_silhouette=winner)):
        got, want = estimate_clustering(data, "ward", config), per_k_ward_search(data, config)
        assert got == want and got.silhouette == want.silhouette
    assert got.num_clusters > 1  # a best score equal to min_silhouette does not collapse


@pytest.mark.parametrize("name", ["integer-grid", "duplicated", "blobs-300-seed1"])
def test_sweep_scores_are_within_rounding_of_silhouette(name):
    """The premise of the re-decision tolerance (32*n*eps on a difference of two scores)."""
    data = K_SEARCH_CASES[name][0]()
    n = data.shape[0]
    dist = clustering_module.pairwise_distances(data)
    tree = ward_tree(data, dist=dist)
    for k, score, _ in clustering_module._ward_sweep(tree, dist, min(n, 40)):
        assert abs(score - silhouette(data, tree.cut(k), dist=dist).score) <= 3 * n * np.finfo(np.float64).eps


@pytest.mark.parametrize(
    "data",
    [
        np.random.default_rng(8).normal(size=(200, 3)),
        np.indices((6, 6, 5)).reshape(3, -1).T.astype(float),
        np.repeat(np.random.default_rng(9).normal(size=(60, 2)), 3, axis=0),
    ],
    ids=["random", "grid", "duplicated"],
)
def test_range_cut_equals_union_find_cut(data):
    tree = ward_tree(data)
    for k in range(1, tree.n_points + 1):
        cut = tree.cut(k)
        assert cut.num_clusters == k
        assert cut.assignments == union_find_cut(tree, k)


WARD_TREE_CASES = {
    "integer-grid": integer_grid,
    "integer-grid-3d": lambda: np.random.default_rng(4).integers(0, 5, size=(200, 3)).astype(float),
    "regular-grid": lambda: np.indices((6, 6, 6)).reshape(3, -1).T.astype(float),
    "triplicated": lambda: np.repeat(np.random.default_rng(9).normal(size=(60, 3)), 3, axis=0),
    "shifted-gaussians": lambda: blobs(11, 300, 8, 6) + 1e3,
    "all-equal": lambda: np.ones((25, 4)),
    "one-point": lambda: np.zeros((1, 3)),
    "two-points": lambda: np.array([[0.0, 1.0], [2.0, 3.0]]),
    "blobs-2000": lambda: blobs(12, 2000, 20, 16),
}


@pytest.mark.parametrize("name", list(WARD_TREE_CASES))
def test_ward_tree_equals_greedy_loop(name):
    """Same merges in the same order with bit-equal costs (== on the float costs)."""
    data = WARD_TREE_CASES[name]()
    dist = pairwise_distances(data)
    assert ward_tree(data, dist=dist).merges == greedy_ward_merges(dist)


@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
def test_tiled_distances_equal_untiled(n, offset):
    data = np.random.default_rng(n).normal(size=(n, 8)) + offset
    assert np.array_equal(pairwise_distances(data), untiled_pairwise_distances(data))


def test_ward_heights_equal_scipy():
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    data = np.random.default_rng(13).normal(size=(300, 6))
    costs = sorted(merge.cost for merge in ward_tree(data).merges)
    heights = hierarchy.ward(data)[:, 2]
    assert np.sqrt(2 * np.asarray(costs)) == pytest.approx(np.sort(heights), rel=1e-12)
