import tracemalloc

import numpy as np
import pytest

from clustermatch import clustering as clustering_module
from clustermatch.clustering import (
    Clustering,
    KSearchConfig,
    estimate_clustering,
    silhouette,
    ward_tree,
)
from clustermatch.geometry import DISTANCE_BLOCK, pairwise_distances
from clustermatch.synth import SynthConfig, generate_synthetic

from .oracles import brute_silhouette, ward_merge_cost, wcss


def partition_sets(clustering):
    return {frozenset(members.tolist()) for members in clustering.member_groups()}


class TestClusteringType:
    def test_requires_dense_nonempty_clusters(self):
        with pytest.raises(ValueError):
            Clustering(assignments=(0, 2), num_clusters=3)

    def test_members(self):
        cl = Clustering(assignments=(0, 1, 0), num_clusters=2)
        assert [members.tolist() for members in cl.member_groups()] == [[0, 2], [1]]


class TestWard:
    def test_well_separated_pairs_1d(self):
        data = np.array([[0.0], [1.0], [10.0], [11.0]])
        cl = ward_tree(data).cut(2)
        assert partition_sets(cl) == {frozenset({0, 1}), frozenset({2, 3})}

    def test_k_equals_n_is_singletons(self):
        data = np.array([[0.0], [2.0], [4.0]])
        cl = ward_tree(data).cut(3)
        assert all(len(members) == 1 for members in cl.member_groups())

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            ward_tree(np.zeros((3, 1))).cut(0)
        with pytest.raises(ValueError):
            ward_tree(np.zeros((3, 1))).cut(4)

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
        assert ward_tree(data).cut(4).assignments == ward_tree(data).cut(4).assignments

    def test_given_distances_give_the_same_tree(self):
        rng = np.random.default_rng(14)
        data = rng.normal(size=(40, 5))
        dist = pairwise_distances(data)
        before = dist.copy()
        given = ward_tree(data, dist=dist)
        assert given.merges == ward_tree(data).merges  # WardMerge equality compares the float costs exactly
        assert np.array_equal(dist, before)

    def test_overflowing_merge_cost_raises(self):
        # finite distances whose Lance-Williams updates overflow: the third merge would cost inf
        dist = np.full((4, 4), 1.2e154)
        np.fill_diagonal(dist, 0.0)
        before = dist.copy()
        with pytest.raises(ValueError, match="not finite"):
            ward_tree(np.zeros((4, 1)), dist=dist)
        assert np.array_equal(dist, before)

    @pytest.mark.parametrize("layout", ["read-only", "fortran"])
    def test_distances_that_cannot_be_borrowed_are_copied(self, layout):
        data = np.random.default_rng(15).normal(size=(40, 5))
        dist = pairwise_distances(data)
        expected = ward_tree(data, dist=dist.copy()).merges
        if layout == "read-only":
            dist.flags.writeable = False
        else:
            dist = np.asfortranarray(dist)
        before = dist.copy()
        assert ward_tree(data, dist=dist).merges == expected
        assert np.array_equal(dist, before)


class TestSilhouette:
    def test_hand_computed_1d_example(self):
        data = np.array([[0.0], [1.0], [10.0], [11.0]])
        cl = Clustering(assignments=(0, 0, 1, 1), num_clusters=2)
        report = silhouette(data, cl)
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
        cl = estimate_clustering(data)
        assert cl.num_clusters == 4

    def test_single_tight_blob_collapses(self):
        rng = np.random.default_rng(32)
        data = rng.normal(0, 1, size=(20, 32))
        cl = estimate_clustering(data)
        assert cl.num_clusters == 1

    def test_two_identical_points(self):
        data = np.zeros((2, 3))
        cl = estimate_clustering(data)
        assert cl.num_clusters == 1

    def test_single_point(self):
        cl = estimate_clustering(np.zeros((1, 4)))
        assert cl.num_clusters == 1
        assert cl.assignments == (0,)

    def test_deterministic(self):
        rng = np.random.default_rng(34)
        data = rng.normal(size=(30, 4))
        cfg = KSearchConfig(patience=3)
        a = estimate_clustering(data, config=cfg)
        b = estimate_clustering(data, config=cfg)
        assert a.assignments == b.assignments

    def test_max_clusters_cap(self):
        rng = np.random.default_rng(35)
        data = rng.normal(size=(20, 2)) * 50
        cl = estimate_clustering(data, config=KSearchConfig(max_clusters=3))
        assert cl.num_clusters <= 3

    def test_chosen_clustering_carries_its_silhouette_report(self):
        rng = np.random.default_rng(36)
        centers = np.array([[0, 0, 0], [20, 0, 0], [0, 20, 0]], dtype=float)
        data = np.vstack([c + rng.normal(0, 1, size=(8, 3)) for c in centers])
        cl = estimate_clustering(data)
        assert cl.num_clusters == 3
        fresh = silhouette(data, cl)
        assert cl.silhouette.coefficients == fresh.coefficients
        assert cl.silhouette.score == fresh.score
        bare = Clustering(assignments=cl.assignments, num_clusters=cl.num_clusters)
        assert bare.silhouette is None
        assert cl == bare and hash(cl) == hash(bare) and repr(cl) == repr(bare)

    @pytest.mark.parametrize("offset", [1e6, 1e7, 1e8, 1e9])
    def test_shift_changes_neither_k_nor_assignments(self, offset):
        # the K search reads pairwise_distances, which round with ||x||^2 unless centred
        for seed in range(10):
            data = generate_synthetic(SynthConfig(6, 30, 16, blob_stddev=0.3, seed=seed)).embeddings.vectors
            assert estimate_clustering(data + offset) == estimate_clustering(data)

    def test_collapsed_clustering_has_no_silhouette_report(self):
        data = np.random.default_rng(32).normal(0, 1, size=(20, 32))
        assert estimate_clustering(data).silhouette is None
        assert estimate_clustering(np.zeros((1, 4))).silhouette is None


class TestMemoryCheck:
    """The K search refuses, before allocating, a run whose n x n matrices exceed physical memory."""

    @pytest.fixture
    def data(self):
        return np.random.default_rng(37).normal(size=(10, 2))

    def test_too_large_run_fails_before_any_distance_matrix(self, data, monkeypatch):
        monkeypatch.setattr(clustering_module, "_physical_memory", lambda: (10 * 10 + 45) * 8 - 1)

        def no_matrix(_):
            raise AssertionError("distance matrix allocated before the memory check")

        monkeypatch.setattr(clustering_module, "pairwise_distances", no_matrix)
        with pytest.raises(ValueError, match=r"n=10 points needs 0\.0 GiB"):
            estimate_clustering(data)

    def test_counts_a_matrix_and_a_triangle(self, data, monkeypatch):
        # Ward holds the 10 x 10 distances, as its cost matrix, and their 45-float upper triangle
        monkeypatch.setattr(clustering_module, "_physical_memory", lambda: (10 * 10 + 45) * 8 - 1)
        with pytest.raises(ValueError):
            estimate_clustering(data)
        monkeypatch.setattr(clustering_module, "_physical_memory", lambda: (10 * 10 + 45) * 8)
        assert estimate_clustering(data).n_points == 10

    def test_ward_search_peaks_below_a_matrix_and_a_triangle(self):
        """Ward borrows the distances as its cost matrix, and the sweep's distance
        sums grow with the k it reaches, so no second n x n array is allocated."""
        n = 1000
        rng = np.random.default_rng(39)
        data = rng.normal(size=(20, 16))[rng.integers(0, 20, n)] * 10 + rng.normal(size=(n, 16)) * 0.1
        tracemalloc.start()
        try:
            assert estimate_clustering(data).num_clusters == 20
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # plus the row blocks that pairwise_distances and the Ward loop's compaction move at a time
        block_temporaries = 2 * DISTANCE_BLOCK * n * 8
        assert peak < (n * n + n * (n - 1) // 2) * 8 + block_temporaries

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
    cl = ward_tree(data).cut(4)
    dist = pairwise_distances(data)
    direct = silhouette(data, cl)
    via_dist = silhouette(data, cl, dist=dist)
    assert direct.score == pytest.approx(via_dist.score, abs=1e-12)
