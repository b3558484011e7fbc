import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clustermatch.geometry import Embedding, EmbeddingSet, as_matrix, pairwise_distances, rmse

from .oracles import centroid, euclidean_distance

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def vectors(dim):
    return st.lists(finite_floats, min_size=dim, max_size=dim)


class TestEmbedding:
    def test_basic_fields(self):
        e = Embedding(id="a", vector=(1.0, 2.0), video_id="v", frame_index=3)
        assert e.dim == 2
        assert e.frame_index == 3

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Embedding(id="a", vector=(float("nan"), 1.0))

    def test_rejects_empty_vector(self):
        with pytest.raises(ValueError):
            Embedding(id="a", vector=())

    def test_rejects_negative_frame(self):
        with pytest.raises(ValueError):
            Embedding(id="a", vector=(1.0,), frame_index=-1)


class TestEmbeddingSet:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(ids=["a", "b"], vectors=[[1.0], [np.inf]]), "embedding 'b' has non-finite components"),
            (dict(ids=["a", ""], vectors=[[1.0], [2.0]]), "embedding id must be a non-empty string"),
            (dict(ids=["a", "b"], vectors=[[1.0], [2.0]], frame_indices=[0, -1]), "frame_index must be non-negative"),
        ],
        ids=["non-finite", "empty-id", "negative-frame"],
    )
    def test_rejects_what_embedding_rejects(self, kwargs, message):
        with pytest.raises(ValueError) as got:
            EmbeddingSet(**kwargs)
        assert str(got.value) == message

    def test_rejects_ragged_columns_and_dimensions(self):
        with pytest.raises(ValueError, match="differ in length"):
            EmbeddingSet(ids=["a"], vectors=[[1.0], [2.0]])
        with pytest.raises(ValueError, match="inconsistent embedding dimensions"):
            EmbeddingSet.of([Embedding(id="a", vector=(1.0,)), Embedding(id="b", vector=(1.0, 2.0))])

    def test_empty_set_has_no_matrix(self):
        empty = EmbeddingSet(ids=[], vectors=np.empty((0, 3)))
        assert len(empty) == 0 and empty.dim == 3
        with pytest.raises(ValueError, match="empty embedding set"):
            as_matrix(empty)
        with pytest.raises(ValueError, match="empty embedding set"):
            EmbeddingSet.of([])

    def test_of_round_trips_embeddings(self):
        embeddings = [Embedding(id="a", vector=(1.0, -0.0), video_id="v", frame_index=2, true_label="x"),
                      Embedding(id="b", vector=(3.0, 4.0))]
        faces = EmbeddingSet.of(embeddings)
        assert EmbeddingSet.of(faces) is faces
        assert list(faces) == embeddings and faces[-1] == embeddings[-1]
        assert faces.select(np.array([1, 0])).ids == ("b", "a")


class TestEuclideanDistance:
    def test_pythagorean_triple(self):
        assert euclidean_distance((0, 0), (3, 4)) == 5.0

    def test_identity(self):
        assert euclidean_distance((1.5, -2.5), (1.5, -2.5)) == 0.0

    def test_unit_diagonal(self):
        assert euclidean_distance((1, 1, 1), (2, 2, 2)) == pytest.approx(1.7320508, abs=1e-7)

    def test_dimension_mismatch_names_both(self):
        with pytest.raises(ValueError, match="2.*3|3.*2"):
            euclidean_distance((1, 2), (1, 2, 3))


class TestRmse:
    def test_pythagorean(self):
        assert rmse((0, 0), (3, 4)) == pytest.approx(3.5355339, abs=1e-7)

    def test_identity(self):
        assert rmse((7.0,), (7.0,)) == 0.0

    def test_one_dim_is_absolute_difference(self):
        assert rmse((5.0,), (2.0,)) == 3.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rmse((1,), (1, 2))

    @given(st.integers(min_value=1, max_value=16).flatmap(lambda d: st.tuples(vectors(d), vectors(d))))
    def test_rmse_times_sqrt_n_is_euclidean(self, pair):
        a, b = pair
        n = len(a)
        assert rmse(a, b) * math.sqrt(n) == pytest.approx(euclidean_distance(a, b), rel=1e-12, abs=1e-12)

    def test_differences_beyond_float64_give_inf_without_a_warning(self):
        a = np.array([[1e308, 0.0], [2e200, 0.0], [0.5, 1.0]])
        b = np.array([[-1e308, 0.0], [0.0, 0.0], [0.25, -1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = rmse(a, b)
        assert out.tolist() == [np.inf, np.inf, math.sqrt((0.25**2 + 2.0**2) / 2)]


class TestCentroid:
    def test_midpoint(self):
        assert tuple(centroid([(0, 0), (2, 2)])) == (1.0, 1.0)

    def test_singleton(self):
        assert tuple(centroid([(3.0, -1.0)])) == (3.0, -1.0)

    def test_square(self):
        assert tuple(centroid([(0, 0), (0, 3), (3, 0), (3, 3)])) == (1.5, 1.5)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            centroid([])

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda d: st.lists(vectors(d), min_size=1, max_size=8)
        )
    )
    def test_centroid_minimizes_sum_of_squares(self, members):
        c = centroid(members)
        mat = np.asarray(members)

        def ssd(point):
            return float(np.sum((mat - np.asarray(point)) ** 2))

        base = ssd(c)
        for m in members:
            assert base <= ssd(m) + 1e-6 + 1e-12 * base
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert base <= ssd(c + rng.normal(0, 0.1, size=len(c))) + 1e-9 + 1e-12 * base


class TestPairwiseDistances:
    def test_diagonal_and_symmetry(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(12, 4))
        d = pairwise_distances(mat)
        assert np.all(np.diag(d) == 0.0)
        assert np.array_equal(d, d.T)
        assert np.all(d >= 0)

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(4)
        mat = rng.normal(size=(10, 3))
        d = pairwise_distances(mat)
        for i, j, k in rng.integers(0, 10, size=(50, 3)):
            assert d[i, k] <= d[i, j] + d[j, k] + 1e-9

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(8, 5))
        d = pairwise_distances(mat)
        for i in range(8):
            for j in range(8):
                assert d[i, j] == pytest.approx(euclidean_distance(mat[i], mat[j]), abs=1e-9)

    def test_overflowing_scale_is_rejected(self):
        with pytest.raises(ValueError, match=r"up to 1e\+200 in magnitude"):
            pairwise_distances(np.array([[1e200, 0.0], [-1e200, 3.0]]))
        # 4 * max ||x||^2 = 4e306 is finite: the distances are too
        assert pairwise_distances(np.array([[1e153, 0.0], [-1e153, 3.0]]))[0, 1] == 2e153


def test_operations_are_deterministic():
    a, b = (0.1, 0.2, 0.3), (0.7, -0.1, 2.5)
    assert euclidean_distance(a, b) == euclidean_distance(a, b)
    assert rmse(a, b) == rmse(a, b)
    assert tuple(centroid([a, b])) == tuple(centroid([a, b]))
