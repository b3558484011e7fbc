import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clustermatch.clustering import Clustering
from clustermatch.geometry import Embedding
from clustermatch.matching import (
    BEST_SILHOUETTE,
    CENTROID,
    LabeledCluster,
    LabeledClusterSet,
    MatchConfig,
    best_silhouette_members,
    majority_label,
    make_cluster_embedding,
    match_cluster,
    match_probabilities,
    sigma,
    similarity,
    truncate_top_alpha,
)
from clustermatch.pipeline import recognize

from .oracles import brute_softmax


def make_store(centroids, labels=None, dim=None, silhouette_vectors=None):
    dim = dim if dim is not None else len(centroids[0])
    silhouette_vectors = silhouette_vectors if silhouette_vectors is not None else centroids
    entries = tuple(
        LabeledCluster(
            label=labels[i] if labels else f"person-{i}",
            member_ids=(f"m{i}",),
            centroid=tuple(float(x) for x in c),
            best_silhouette_id=f"m{i}",
            best_silhouette_vector=tuple(float(x) for x in b),
        )
        for i, (c, b) in enumerate(zip(centroids, silhouette_vectors))
    )
    return LabeledClusterSet(entries=entries, dimension=dim)


def similarities_to(query_vector, stored):
    return {i: similarity(query_vector, row) for i, row in enumerate(stored)}


def kept_similarities(decision):
    """Similarity by entry index, for the entries the truncation kept (every entry when alpha >= S)."""
    return dict(zip(decision.top_indices, decision.top_similarities))


def full_probabilities(decision):
    """The length-S probability vector a decision describes: its top alpha and the shared rest value."""
    p = [decision.rest_probability] * decision.store_size
    for i, pi in zip(decision.top_indices, decision.top_probabilities):
        p[i] = pi
    return p


class TestMakeClusterEmbedding:
    """The query vector: the mean of the rows given, or the one best-silhouette row recognize picks."""

    STORE = make_store([(1.0, 1.0), (3.0, 4.0)], silhouette_vectors=[(0.0, 2.0), (3.0, 5.0)])

    def test_centroid_midpoint(self):
        assert tuple(make_cluster_embedding(np.array([[0.0, 0], [2, 2]]))) == (1.0, 1.0)
        d = match_cluster(np.array([[0.0, 0], [2, 2]]), self.STORE, MatchConfig(cluster_embedding_method=CENTROID))
        assert kept_similarities(d) == similarities_to((1.0, 1.0), self.STORE.centroids)
        assert kept_similarities(d)[0] == 1e12  # exactly the stored centroid

    def test_singleton_either_method(self):
        for method, stored in ((CENTROID, self.STORE.centroids), (BEST_SILHOUETTE, self.STORE.best_silhouette_vectors)):
            d = match_cluster(np.array([[3.0, 4.0]]), self.STORE, MatchConfig(cluster_embedding_method=method))
            assert kept_similarities(d) == similarities_to((3.0, 4.0), stored)

    def test_best_silhouette_picks_highest_coefficient(self):
        data = np.array([[0.0], [1.0], [10.0], [11.0]])
        cl = Clustering(assignments=(0, 0, 1, 1), num_clusters=2)
        reps = best_silhouette_members(data, cl)
        assert tuple(data[reps[0]]) == (0.0,)  # S=0.9047619 beats 0.8947368
        assert reps == [0, 3]

    def test_best_silhouette_single_cluster_falls_back_to_centroid(self):
        # the two points collapse to one cluster (silhouette 0 < 0.2): the query is their centroid
        store = make_store([(9.0,), (7.0,)], silhouette_vectors=[(1.0,), (5.0,)])
        video = [Embedding(id="a", vector=(0.0,)), Embedding(id="b", vector=(2.0,))]
        res = recognize(video, store, MatchConfig(cluster_embedding_method=BEST_SILHOUETTE))
        assert res.clustering.num_clusters == 1
        assert kept_similarities(res.outcomes[0].decision) == similarities_to((1.0,), store.best_silhouette_vectors)

    def test_empty_cluster_errors(self):
        with pytest.raises(ValueError):
            make_cluster_embedding(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            match_cluster(np.zeros((0, 2)), self.STORE)


class TestBestSilhouetteMembers:
    def test_tie_breaks_to_lowest_index(self):
        data = np.array([[0.0, 100.0], [1.0, 0.0], [-1.0, 0.0]])
        cl = Clustering(assignments=(0, 1, 1), num_clusters=2)
        assert best_silhouette_members(data, cl) == [0, 1]

    def test_single_cluster_takes_member_nearest_centroid(self):
        data = np.array([[0.0], [2.0], [3.0]])
        assert best_silhouette_members(data, Clustering(assignments=(0, 0, 0), num_clusters=1)) == [1]
        tied = np.array([[0.0], [2.0]])
        assert best_silhouette_members(tied, Clustering(assignments=(0, 0), num_clusters=1)) == [0]


class TestSimilarity:
    def test_inverse_rmse(self):
        assert similarity((0.0, 0.0), (3.0, 4.0)) == pytest.approx(0.2828427, abs=1e-7)

    def test_identical_vectors_clamped(self):
        assert similarity((1.0, 2.0), (1.0, 2.0)) == 1e12

    def test_one_dim(self):
        assert similarity((5.0,), (2.0,)) == pytest.approx(1 / 3, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            similarity((1.0,), (1.0, 2.0))


class TestTruncateTopAlpha:
    def test_keeps_two_largest(self):
        assert list(truncate_top_alpha([3.0, 1.0, 2.0], 2)) == [3.0, 0.0, 2.0]

    def test_alpha_at_least_size_is_identity(self):
        s = [1.0, 5.0, 2.0]
        assert list(truncate_top_alpha(s, 3)) == s
        assert list(truncate_top_alpha(s, 10)) == s

    def test_tie_keeps_earliest_index(self):
        assert list(truncate_top_alpha([1.0, 1.0, 0.5], 1)) == [1.0, 0.0, 0.0]

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            truncate_top_alpha([], 1)


class TestMatchProbabilities:
    def test_symmetric_pair(self):
        assert list(match_probabilities([1.0, 1.0])) == [0.5, 0.5]

    def test_hand_computed(self):
        p = match_probabilities([2.0, 0.0, 0.0])
        assert p[0] == pytest.approx(0.7869860, abs=1e-6)
        assert p[1] == pytest.approx(0.1065070, abs=1e-6)

    def test_all_zero_uniform(self):
        assert list(match_probabilities([0.0] * 4)) == [0.25] * 4

    def test_sums_to_one_and_matches_direct_softmax(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = rng.uniform(0, 50, size=rng.integers(1, 10))
            p = match_probabilities(s)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert p == pytest.approx(brute_softmax(list(s)), abs=1e-12)

    def test_stable_for_huge_inputs(self):
        p = match_probabilities([1e12, 0.0, 0.0])
        assert p[0] == pytest.approx(1.0)
        assert np.all(np.isfinite(p))

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=20))
    def test_always_a_distribution(self, s):
        p = match_probabilities(s)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(p >= 0)


class TestSigma:
    def test_matches_above_threshold(self):
        store = make_store([(0.0,), (5.0,), (9.0,)])
        d = sigma([0.7869860, 0.1065070, 0.1065070], store)
        assert d.matched and d.label == "person-0"
        assert d.probability == pytest.approx(0.7869860)

    def test_boundary_half_is_no_match(self):
        store = make_store([(0.0,), (5.0,)])
        d = sigma([0.5, 0.5], store)
        assert not d.matched
        assert d.label is None

    def test_distributed_probability_no_match(self):
        store = make_store([(0.0,), (5.0,), (9.0,)])
        assert not sigma([0.4, 0.35, 0.25], store).matched

    def test_empty_store_errors(self):
        empty = LabeledClusterSet(entries=(), dimension=1)
        with pytest.raises(ValueError):
            sigma([1.0], empty)

    def test_never_matches_at_or_below_threshold(self):
        store = make_store([(0.0,), (5.0,)])
        for p0 in (0.0, 0.25, 0.5):
            d = sigma([p0, 1 - p0], store)
            if d.matched:
                assert d.probability > 0.5


class TestMatchCluster:
    def test_identical_to_one_centroid_dominates(self):
        centroids = [(float(i * 10), 0.0) for i in range(10)]
        store = make_store(centroids)
        d = match_cluster(np.array([centroids[3]]), store, MatchConfig(alpha=5))
        assert d.matched and d.label == "person-3"
        assert d.probability == pytest.approx(1.0)

    def test_equidistant_query_no_match(self):
        pts = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
        store = make_store(pts)
        d = match_cluster(np.array([[0.0, 0.0]]), store, MatchConfig(alpha=5))
        assert not d.matched
        assert full_probabilities(d) == pytest.approx([0.25] * 4)

    def test_single_entry_store_always_matches(self):
        store = make_store([(0.0, 0.0)])
        d = match_cluster(np.array([[100.0, 100.0]]), store)
        assert d.matched and d.probability == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        store = make_store([(0.0, 0.0)])
        with pytest.raises(ValueError):
            match_cluster(np.array([[1.0, 2.0, 3.0]]), store)

    def test_permuting_store_permutes_probabilities(self):
        rng = np.random.default_rng(5)
        centroids = [tuple(v) for v in rng.normal(size=(6, 3))]
        store = make_store(centroids)
        query = rng.normal(size=(4, 3))
        d = match_cluster(query, store, MatchConfig(alpha=3))
        perm = [3, 1, 5, 0, 2, 4]
        store2 = make_store([centroids[i] for i in perm], labels=[f"person-{i}" for i in perm])
        d2 = match_cluster(query, store2, MatchConfig(alpha=3))
        assert full_probabilities(d2) == pytest.approx([full_probabilities(d)[i] for i in perm], abs=1e-12)
        assert d.label == d2.label

    def test_argmax_probability_non_increasing_in_alpha(self):
        rng = np.random.default_rng(6)
        centroids = [tuple(v) for v in rng.normal(size=(12, 4))]
        store = make_store(centroids)
        query = rng.normal(size=(3, 4))
        prev = math.inf
        for alpha in range(1, 13):
            d = match_cluster(query, store, MatchConfig(alpha=alpha))
            top = d.p_max
            assert top <= prev + 1e-12
            prev = top


class TestMajorityLabel:
    def test_simple_majority(self):
        lam, lam_set = majority_label(["A", "A", "B"])
        assert lam == "A" and lam_set == {"A", "B"}

    def test_tie_breaks_lexicographically(self):
        assert majority_label(["B", "A"])[0] == "A"

    def test_singleton(self):
        assert majority_label(["A"]) == ("A", frozenset({"A"}))

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            majority_label([])


class TestMatchConfig:
    def test_defaults(self):
        cfg = MatchConfig()
        assert cfg.alpha == 5
        assert cfg.probability_threshold == 0.5
        assert cfg.cluster_embedding_method == CENTROID

    def test_validation(self):
        with pytest.raises(ValueError):
            MatchConfig(alpha=0)
        with pytest.raises(ValueError):
            MatchConfig(probability_threshold=1.0)
        with pytest.raises(ValueError):
            MatchConfig(cluster_embedding_method="medoid")


class TestLabeledClusterSet:
    def test_duplicate_member_ids_rejected(self):
        entry = LabeledCluster(
            label="x", member_ids=("a",), centroid=(0.0,), best_silhouette_id="a", best_silhouette_vector=(0.0,)
        )
        with pytest.raises(ValueError):
            LabeledClusterSet(entries=(entry, entry), dimension=1)

    def test_matrices_follow_entries_and_stay_out_of_eq_and_repr(self):
        store = make_store([(0.0, 1.0), (2.0, 3.0)], silhouette_vectors=[(0.5, 1.5), (2.5, 3.5)])
        assert store.centroids.shape == store.best_silhouette_vectors.shape == (2, 2)
        assert [tuple(r) for r in store.centroids] == [e.centroid for e in store.entries]
        assert [tuple(r) for r in store.best_silhouette_vectors] == [e.best_silhouette_vector for e in store.entries]
        assert not store.centroids.flags.writeable
        assert "centroids" not in repr(store)
        assert store == LabeledClusterSet(entries=store.entries, dimension=2)

    def test_empty_store_has_empty_matrices(self):
        assert LabeledClusterSet(entries=(), dimension=3).centroids.shape == (0, 3)

    def test_dimension_checked(self):
        entry = LabeledCluster(
            label="x", member_ids=("a",), centroid=(0.0, 1.0), best_silhouette_id="a", best_silhouette_vector=(0.0, 1.0)
        )
        with pytest.raises(ValueError):
            LabeledClusterSet(entries=(entry,), dimension=3)
