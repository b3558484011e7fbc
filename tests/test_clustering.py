import tracemalloc

import numpy as np
import pytest

from clustermatch import clustering as clustering_module
from clustermatch.clustering import (
    Clustering,
    KSearchConfig,
    affinity_propagation,
    agglomerative_ward,
    estimate_clustering,
    kmeans,
    silhouette,
    ward_tree,
)
from clustermatch.geometry import pairwise_distances
from clustermatch.pipeline import run_clustering

from .oracles import brute_silhouette, ward_merge_cost, wcss


def partition_sets(clustering):
    return {frozenset(clustering.members(c)) for c in range(clustering.num_clusters)}


class TestClusteringType:
    def test_requires_dense_nonempty_clusters(self):
        with pytest.raises(ValueError):
            Clustering(assignments=(0, 2), num_clusters=3)

    def test_members(self):
        cl = Clustering(assignments=(0, 1, 0), num_clusters=2)
        assert cl.members(0) == [0, 2]


class TestKMeans:
    def test_well_separated_pairs(self):
        data = np.array([[0.0, 0], [0, 1], [10, 10], [10, 11]])
        cl = kmeans(data, 2, seed=0)
        assert partition_sets(cl) == {frozenset({0, 1}), frozenset({2, 3})}

    def test_degenerate_k_equals_n(self):
        data = np.array([[0.0], [5.0], [9.0]])
        cl = kmeans(data, 3, seed=0)
        assert cl.num_clusters == 3
        assert all(len(cl.members(c)) == 1 for c in range(3))

    def test_recovers_gaussian_blobs(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0], [20, 0], [0, 20]])
        data = np.vstack([c + rng.normal(0, 1.0, size=(10, 2)) for c in centers])
        truth = [i // 10 for i in range(30)]
        cl = kmeans(data, 3, seed=1)
        # blob-exact: every blob lands in one cluster
        for blob in range(3):
            assigned = {cl.assignments[i] for i in range(30) if truth[i] == blob}
            assert len(assigned) == 1

    def test_k_out_of_range(self):
        data = np.zeros((3, 2))
        with pytest.raises(ValueError):
            kmeans(data, 4)
        with pytest.raises(ValueError):
            kmeans(data, 0)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(40, 3))
        a = kmeans(data, 5, seed=123)
        b = kmeans(data, 5, seed=123)
        assert a.assignments == b.assignments

    def test_exactly_k_nonempty_clusters_even_with_duplicates(self):
        data = np.array([[0.0], [0.0], [0.0], [1.0], [9.0]])
        cl = kmeans(data, 4, seed=0)
        assert cl.num_clusters == 4

    def test_random_init_flag(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(20, 2))
        cl = kmeans(data, 3, seed=0, init="random")
        assert cl.num_clusters == 3


class TestAffinityPropagation:
    def test_two_far_pairs_and_exemplar_optimality(self):
        data = np.array([[0.0, 0], [0.3, 0], [10, 10], [10.3, 10]])
        cl = affinity_propagation(data)
        assert cl.num_clusters == 2
        assert partition_sets(cl) == {frozenset({0, 1}), frozenset({2, 3})}
        # each cluster's exemplar maximizes net similarity to its members
        sq = np.sum(data**2, axis=1)
        S = -(sq[:, None] + sq[None, :] - 2 * data @ data.T)
        assert cl.exemplars is not None
        for c in range(cl.num_clusters):
            members = cl.members(c)
            scores = {m: sum(S[i, m] for i in members) for m in members}
            assert scores[cl.exemplars[c]] == max(scores.values())
            assert cl.exemplars[c] in members

    def test_identical_points_single_cluster(self):
        data = np.zeros((5, 3))
        cl = affinity_propagation(data)
        assert cl.num_clusters == 1

    def test_uniform_pathological_data_flags_nonconvergence(self):
        # a perfect lattice gives no preference signal; accept either a clean
        # result or a single collapsed cluster, but the flag must be coherent
        data = np.array([[float(i)] for i in range(6)])
        cl = affinity_propagation(data, max_iter=10)
        assert cl.num_clusters >= 1
        if cl.num_clusters == 1:
            assert not cl.converged

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            affinity_propagation(np.zeros((1, 2)))

    def test_damping_range(self):
        with pytest.raises(ValueError):
            affinity_propagation(np.zeros((3, 2)), damping=0.4)


class TestWard:
    def test_well_separated_pairs_1d(self):
        data = np.array([[0.0], [1.0], [10.0], [11.0]])
        cl = agglomerative_ward(data, 2)
        assert partition_sets(cl) == {frozenset({0, 1}), frozenset({2, 3})}

    def test_k_equals_n_is_singletons(self):
        data = np.array([[0.0], [2.0], [4.0]])
        cl = agglomerative_ward(data, 3)
        assert all(len(cl.members(c)) == 1 for c in range(3))

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            agglomerative_ward(np.zeros((3, 1)), 0)
        with pytest.raises(ValueError):
            agglomerative_ward(np.zeros((3, 1)), 4)

    def test_every_merge_is_minimum_variance_increase(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(12, 3))
        tree = ward_tree(data)
        clusters = {i: [i] for i in range(12)}
        for merge in tree.merges:
            costs = {}
            keys = sorted(clusters)
            for ai in range(len(keys)):
                for bi in range(ai + 1, len(keys)):
                    a, b = keys[ai], keys[bi]
                    costs[(a, b)] = ward_merge_cost(
                        [data[i] for i in clusters[a]], [data[i] for i in clusters[b]]
                    )
            chosen = (min(merge.rep_a, merge.rep_b), max(merge.rep_a, merge.rep_b))
            assert costs[chosen] == pytest.approx(min(costs.values()), rel=1e-9, abs=1e-9)
            assert merge.cost == pytest.approx(costs[chosen], rel=1e-9, abs=1e-9)
            clusters[chosen[0]] = clusters[chosen[0]] + clusters[chosen[1]]
            del clusters[chosen[1]]

    def test_k1_conserves_total_variance(self):
        rng = np.random.default_rng(12)
        data = rng.normal(size=(15, 4))
        tree = ward_tree(data)
        assert sum(m.cost for m in tree.merges) == pytest.approx(wcss([tuple(p) for p in data]), rel=1e-9)
        cl = tree.cut(1)
        assert cl.num_clusters == 1

    def test_tie_break_is_lexicographic(self):
        # four corners of a square: the first merge has four equal-cost pairs
        data = np.array([[0.0, 0], [1, 0], [0, 1], [1, 1]])
        tree = ward_tree(data)
        first = tree.merges[0]
        assert (first.rep_a, first.rep_b) == (0, 1)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        data = rng.normal(size=(20, 2))
        assert agglomerative_ward(data, 4).assignments == agglomerative_ward(data, 4).assignments

    def test_given_distances_give_the_same_tree(self):
        rng = np.random.default_rng(14)
        data = rng.normal(size=(40, 5))
        dist = pairwise_distances(data)
        before = dist.copy()
        given = ward_tree(data, dist=dist)
        assert given.merges == ward_tree(data).merges  # WardMerge equality compares the float costs exactly
        assert np.array_equal(dist, before)


class TestSilhouette:
    def test_hand_computed_1d_example(self):
        data = np.array([[0.0], [1.0], [10.0], [11.0]])
        cl = Clustering(assignments=(0, 0, 1, 1), num_clusters=2)
        report = silhouette(data, cl)
        assert report.intra[0] == pytest.approx(1.0)
        assert report.nearest[0] == pytest.approx(10.5)
        assert report.coefficients[0] == pytest.approx(0.9047619, abs=1e-7)
        assert report.score == pytest.approx(0.8997494, abs=1e-7)

    def test_interleaved_identical_points_negative(self):
        data = np.array([[0.0], [0.0], [5.0], [5.0]])
        cl = Clustering(assignments=(0, 1, 0, 1), num_clusters=2)
        report = silhouette(data, cl)
        assert all(s < 0 for s in report.coefficients)

    def test_duplicated_tight_cluster_approaches_one(self):
        data = np.array([[0.0], [0.0], [100.0], [100.0]])
        cl = Clustering(assignments=(0, 0, 1, 1), num_clusters=2)
        report = silhouette(data, cl)
        assert report.score == pytest.approx(1.0)

    def test_requires_two_clusters(self):
        data = np.zeros((3, 1))
        with pytest.raises(ValueError):
            silhouette(data, Clustering(assignments=(0, 0, 0), num_clusters=1))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(5, 15))
            data = rng.normal(size=(n, 3))
            k = int(rng.integers(2, min(5, n) + 1))
            assign = rng.integers(0, k, size=n)
            # make every cluster non-empty
            assign[:k] = np.arange(k)
            from clustermatch.clustering import _relabel

            labels, m = _relabel(assign)
            cl = Clustering(assignments=labels, num_clusters=m)
            report = silhouette(data, cl)
            expected = brute_silhouette([tuple(p) for p in data], list(labels))
            assert report.coefficients == pytest.approx(expected, abs=1e-12)
            assert -1.0 <= report.score <= 1.0

    def test_singleton_cluster_coefficient_zero(self):
        data = np.array([[0.0], [1.0], [10.0]])
        cl = Clustering(assignments=(0, 0, 1), num_clusters=2)
        report = silhouette(data, cl)
        assert report.coefficients[2] == 0.0


class TestEstimateClustering:
    def test_four_blobs_recovered(self):
        rng = np.random.default_rng(31)
        centers = np.array([[0, 0], [30, 0], [0, 30], [30, 30]], dtype=float)
        data = np.vstack([c + rng.normal(0, 1, size=(10, 2)) for c in centers])
        cl = estimate_clustering(data, "ward")
        assert cl.num_clusters == 4

    def test_single_tight_blob_collapses(self):
        rng = np.random.default_rng(32)
        data = rng.normal(0, 1, size=(20, 32))
        cl = estimate_clustering(data, "ward")
        assert cl.num_clusters == 1

    def test_two_identical_points(self):
        data = np.zeros((2, 3))
        cl = estimate_clustering(data, "ward")
        assert cl.num_clusters == 1

    def test_single_point(self):
        cl = estimate_clustering(np.zeros((1, 4)), "ward")
        assert cl.num_clusters == 1
        assert cl.assignments == (0,)

    def test_kmeans_variant(self):
        rng = np.random.default_rng(33)
        centers = np.array([[0, 0], [40, 40]], dtype=float)
        data = np.vstack([c + rng.normal(0, 1, size=(12, 2)) for c in centers])
        cl = estimate_clustering(data, "kmeans", seed=5)
        assert cl.num_clusters == 2

    def test_deterministic(self):
        rng = np.random.default_rng(34)
        data = rng.normal(size=(30, 4))
        cfg = KSearchConfig(patience=3)
        a = estimate_clustering(data, "ward", config=cfg, seed=9)
        b = estimate_clustering(data, "ward", config=cfg, seed=9)
        assert a.assignments == b.assignments

    def test_max_clusters_cap(self):
        rng = np.random.default_rng(35)
        data = rng.normal(size=(20, 2)) * 50
        cl = estimate_clustering(data, "ward", config=KSearchConfig(max_clusters=3))
        assert cl.num_clusters <= 3

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            estimate_clustering(np.zeros((4, 2)), "dbscan")

    @pytest.mark.parametrize("algorithm", ["ward", "kmeans"])
    def test_chosen_clustering_carries_its_silhouette_report(self, algorithm):
        rng = np.random.default_rng(36)
        centers = np.array([[0, 0, 0], [20, 0, 0], [0, 20, 0]], dtype=float)
        data = np.vstack([c + rng.normal(0, 1, size=(8, 3)) for c in centers])
        cl = estimate_clustering(data, algorithm, seed=2)
        assert cl.num_clusters == 3
        fresh = silhouette(data, cl)
        assert cl.silhouette.coefficients == fresh.coefficients
        assert cl.silhouette.intra == fresh.intra
        assert cl.silhouette.nearest == fresh.nearest
        assert cl.silhouette.score == fresh.score
        bare = Clustering(assignments=cl.assignments, num_clusters=cl.num_clusters)
        assert bare.silhouette is None
        assert cl == bare and hash(cl) == hash(bare) and repr(cl) == repr(bare)

    def test_collapsed_clustering_has_no_silhouette_report(self):
        data = np.random.default_rng(32).normal(0, 1, size=(20, 32))
        assert estimate_clustering(data, "ward").silhouette is None
        assert estimate_clustering(np.zeros((1, 4)), "ward").silhouette is None


class TestMemoryCheck:
    """The K search refuses, before allocating, a run whose n x n matrices exceed physical memory."""

    @pytest.fixture
    def data(self):
        return np.random.default_rng(37).normal(size=(10, 2))

    def test_too_large_run_fails_before_any_distance_matrix(self, data, monkeypatch):
        monkeypatch.setattr(clustering_module, "_physical_memory", lambda: 2 * 10 * 10 * 8 - 1)

        def no_matrix(_):
            raise AssertionError("distance matrix allocated before the memory check")

        monkeypatch.setattr(clustering_module, "pairwise_distances", no_matrix)
        with pytest.raises(ValueError, match=r"n=10 points needs 0\.0 GiB"):
            estimate_clustering(data, "ward")

    def test_counts_two_matrices_for_ward_and_one_for_kmeans(self, data, monkeypatch):
        monkeypatch.setattr(clustering_module, "_physical_memory", lambda: 10 * 10 * 8)
        with pytest.raises(ValueError):
            estimate_clustering(data, "ward")
        assert estimate_clustering(data, "kmeans").n_points == 10
        monkeypatch.setattr(clustering_module, "_physical_memory", lambda: 2 * 10 * 10 * 8)
        assert estimate_clustering(data, "ward").n_points == 10

    def test_affinity_propagation_is_checked_before_it_allocates(self, monkeypatch):
        n = 200
        data = np.random.default_rng(38).normal(size=(n, 2))
        monkeypatch.setattr(clustering_module, "_physical_memory", lambda: 10 * n * n * 8 - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"n=200 points needs"):
                run_clustering(data, algorithm="affinity_propagation")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8
        monkeypatch.setattr(clustering_module, "_physical_memory", lambda: 10 * n * n * 8)
        assert run_clustering(data, algorithm="affinity_propagation").n_points == n

    def test_probe_reads_this_machine(self):
        assert clustering_module._physical_memory() > 0


class TestKSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            KSearchConfig(patience=0)
        with pytest.raises(ValueError):
            KSearchConfig(min_silhouette=1.5)


def test_silhouette_score_matches_recomputation_from_distances():
    rng = np.random.default_rng(41)
    data = rng.normal(size=(25, 3))
    cl = agglomerative_ward(data, 4)
    dist = pairwise_distances(data)
    direct = silhouette(data, cl)
    via_dist = silhouette(data, cl, dist=dist)
    assert direct.score == pytest.approx(via_dist.score, abs=1e-12)
