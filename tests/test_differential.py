"""The vectorised matching path against per-entry and per-cluster references."""
import numpy as np
import pytest

from clustermatch.clustering import silhouette
from clustermatch.matching import BEST_SILHOUETTE, CENTROID, MatchConfig, match_cluster, similarity
from clustermatch.pipeline import build_labeled_store, recognize, run_clustering
from clustermatch.synth import SynthConfig, generate_synthetic, sample_more

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
