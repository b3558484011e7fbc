import numpy as np
import pytest

from clustermatch.clustering import KSearchConfig, silhouette
from clustermatch.formats import read_store, write_store
from clustermatch.geometry import Embedding
from clustermatch.matching import BEST_SILHOUETTE, MatchConfig
from clustermatch.pipeline import NON_REGISTERED, build_labeled_store, recognize, run_clustering
from clustermatch.synth import SynthConfig, generate_synthetic, sample_more


@pytest.fixture(scope="module")
def small_world():
    ds = generate_synthetic(
        SynthConfig(
            num_identities=8,
            points_per_identity=10,
            dimension=32,
            blob_stddev=0.25,
            separation=10.0,
            seed=11,
            fraction_nonregistered=0.25,
        )
    )
    store = build_labeled_store(ds.registered(), k=None)
    return ds, store


@pytest.mark.parametrize("k", [None, 3])
def test_run_clustering_attaches_the_silhouette_report(small_world, k):
    ds, _ = small_world
    mat = np.asarray([e.vector for e in ds.embeddings])
    cl = run_clustering(mat, k=k)
    assert cl.num_clusters >= 2
    assert cl.silhouette == silhouette(mat, cl)


class TestBuildLabeledStore:
    def test_store_has_one_pure_cluster_per_identity(self, small_world):
        ds, store = small_world
        assert len(store) == len(ds.registered_labels)
        assert set(store.labels) == set(ds.registered_labels)
        assert all(len(h) == 1 for h in store.histograms)

    def test_mixed_cluster_gets_majority_label(self):
        embs = [
            Embedding(id="1", vector=(0.0, 0.0), true_label="A"),
            Embedding(id="2", vector=(0.1, 0.0), true_label="A"),
            Embedding(id="3", vector=(0.0, 0.1), true_label="B"),
        ]
        store = build_labeled_store(embs, k=1)
        assert store.labels[0] == "A"
        assert store.histograms[0] == {"A": 2, "B": 1}

    def test_single_identity_collapses_via_min_silhouette(self):
        rng = np.random.default_rng(2)
        embs = [
            Embedding(id=str(i), vector=tuple(rng.normal(0, 1, size=16)), true_label="A")
            for i in range(20)
        ]
        store = build_labeled_store(embs, k=None)
        assert len(store) == 1

    def test_unlabeled_without_cluster_labels_errors(self):
        embs = [Embedding(id="1", vector=(0.0,)), Embedding(id="2", vector=(1.0,))]
        with pytest.raises(ValueError, match="true labels"):
            build_labeled_store(embs, k=1)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            build_labeled_store([])


class TestRecognize:
    def test_registered_video_all_labeled(self, small_world):
        ds, store = small_world
        video = [e for e in sample_more(ds, 8, seed=12, video_id="v") if e.true_label in ds.registered_labels]
        res = recognize(video, store)
        assert res.clustering.num_clusters == len(ds.registered_labels)
        by_id = {fid: lab for fid, _, lab in res.face_labels}
        for e in video:
            assert by_id[e.id] == e.true_label

    def test_nonregistered_video_all_flagged(self, small_world):
        ds, store = small_world
        video = [e for e in sample_more(ds, 8, seed=13, video_id="v") if e.true_label in ds.nonregistered_labels]
        res = recognize(video, store)
        assert all(lab == NON_REGISTERED for _, _, lab in res.face_labels)

    def test_mixed_video(self, small_world):
        ds, store = small_world
        video = sample_more(ds, 8, seed=14, video_id="v")
        res = recognize(video, store)
        by_id = {fid: lab for fid, _, lab in res.face_labels}
        for e in video:
            expected = e.true_label if e.true_label in ds.registered_labels else NON_REGISTERED
            assert by_id[e.id] == expected

    def test_cluster_decision_propagates_to_every_member(self, small_world):
        ds, store = small_world
        video = sample_more(ds, 5, seed=15, video_id="v")
        res = recognize(video, store)
        by_id = {fid: lab for fid, _, lab in res.face_labels}
        for outcome in res.outcomes:
            for member in outcome.member_ids:
                assert by_id[member] == outcome.label

    def test_dimension_mismatch(self, small_world):
        _, store = small_world
        bad = [Embedding(id="x", vector=(1.0, 2.0))]
        with pytest.raises(ValueError, match="dimension"):
            recognize(bad, store)

    def test_empty_video(self, small_world):
        _, store = small_world
        with pytest.raises(ValueError):
            recognize([], store)

    def test_store_round_trip_preserves_decisions(self, small_world, tmp_path):
        ds, store = small_world
        video = sample_more(ds, 6, seed=16, video_id="v")
        direct = recognize(video, store)
        path = tmp_path / "store.json"
        write_store(store, path)
        reloaded, _ = read_store(path)
        via_file = recognize(video, reloaded)
        assert via_file.face_labels == direct.face_labels
        # decisions compare every kept similarity and probability, p_max and the rest value
        assert [o.decision for o in via_file.outcomes] == [o.decision for o in direct.outcomes]

    def test_silhouette_embedding_method(self, small_world):
        ds, store = small_world
        video = [e for e in sample_more(ds, 8, seed=17, video_id="v") if e.true_label in ds.registered_labels]
        res = recognize(video, store, match_config=MatchConfig(cluster_embedding_method=BEST_SILHOUETTE))
        by_id = {fid: lab for fid, _, lab in res.face_labels}
        correct = sum(1 for e in video if by_id[e.id] == e.true_label)
        assert correct / len(video) == 1.0

    def test_deterministic(self, small_world):
        ds, store = small_world
        video = sample_more(ds, 6, seed=18, video_id="v")
        a = recognize(video, store, ksearch=KSearchConfig(patience=5))
        b = recognize(video, store, ksearch=KSearchConfig(patience=5))
        assert a.face_labels == b.face_labels
