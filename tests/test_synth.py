import numpy as np
import pytest

from clustermatch import clustering as clustering_module
from clustermatch.clustering import estimate_clustering
from clustermatch.formats import write_embeddings
from clustermatch.geometry import Embedding, EmbeddingSet, as_matrix
from clustermatch.synth import SynthConfig, generate_synthetic, sample_more


class TestSynthConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(0, 10, 4)
        with pytest.raises(ValueError):
            SynthConfig(2, 10, 4, separation=-1.0)
        with pytest.raises(ValueError):
            SynthConfig(2, 10, 4, fraction_nonregistered=1.5)

    @pytest.mark.parametrize(
        "sizes",
        [
            {"blob_stddev": float("inf")},
            {"blob_stddev": float("nan")},
            {"separation": float("inf")},
            {"separation": float("nan")},
            {"separation": 1e308},  # finite, but the centres' cube side overflows
            {"blob_stddev": 1e200, "separation": 1e200},
        ],
    )
    def test_rejects_non_finite_sizes(self, sizes):
        with pytest.raises(ValueError, match="finite|overflows"):
            SynthConfig(2, 10, 4, **sizes)

    def test_scale_bound_counts_the_points(self):
        # Ward's merge costs carry cluster-size factors up to n^2 / 4: the same scale
        # that 3 points take overflows them for 300
        SynthConfig(3, 1, 2, separation=1e152)
        with pytest.raises(ValueError, match="300 points"):
            SynthConfig(3, 100, 2, separation=1e152)

    def test_output_must_fit_in_physical_memory(self, monkeypatch):
        # 3 x 4 points in 5 dimensions are 60 float64 values, 480 bytes
        monkeypatch.setattr(clustering_module, "_physical_memory", lambda: 480)
        SynthConfig(3, 4, 5)
        monkeypatch.setattr(clustering_module, "_physical_memory", lambda: 479)
        with pytest.raises(ValueError, match="3 x 4 points in 5 dimensions need more float64 values"):
            SynthConfig(3, 4, 5)


class TestGenerate:
    def test_counts_and_labels(self):
        ds = generate_synthetic(SynthConfig(3, 5, 8, seed=1))
        assert len(ds.embeddings) == 15
        assert set(e.true_label for e in ds.embeddings) == set(ds.labels)
        assert ds.nonregistered_labels == frozenset()

    def test_deterministic_per_seed(self):
        cfg = SynthConfig(4, 6, 8, seed=42)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert a.embeddings == b.embeddings
        assert a.centers == b.centers

    def test_different_seeds_differ(self):
        a = generate_synthetic(SynthConfig(4, 6, 8, seed=1))
        b = generate_synthetic(SynthConfig(4, 6, 8, seed=2))
        assert a.embeddings != b.embeddings

    def test_separation_honoured(self):
        ds = generate_synthetic(SynthConfig(6, 2, 16, blob_stddev=2.0, separation=10.0, seed=3))
        centers = np.asarray(ds.centers)
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                assert np.linalg.norm(centers[i] - centers[j]) >= 10.0 * 2.0

    def test_nonregistered_fraction(self):
        ds = generate_synthetic(SynthConfig(20, 2, 8, seed=4, fraction_nonregistered=0.5))
        assert len(ds.nonregistered_labels) == 10
        assert len(ds.registered_labels) == 10
        assert len(ds.registered()) == 20
        assert len(ds.nonregistered()) == 20
        assert set(ds.registered().true_labels) == ds.registered_labels
        assert ds.registered().ids + ds.nonregistered().ids == ds.embeddings.ids

    def test_frame_indices_per_identity(self):
        ds = generate_synthetic(SynthConfig(2, 4, 8, seed=5))
        for label in ds.labels:
            frames = sorted(e.frame_index for e in ds.embeddings if e.true_label == label)
            assert frames == [0, 1, 2, 3]

    def test_placement_retry_budget_exhausted_errors(self, monkeypatch):
        import clustermatch.synth as synth_mod

        # cram enough centers into a 1-d interval that rejections are certain,
        # then leave no retry budget to absorb them
        monkeypatch.setattr(synth_mod, "_MAX_CENTER_ATTEMPTS", 0)
        with pytest.raises(ValueError, match="separation"):
            generate_synthetic(SynthConfig(50, 1, 1, blob_stddev=1.0, separation=1000.0, seed=0))

    def test_clustering_recovers_k(self):
        ds = generate_synthetic(SynthConfig(4, 10, 32, blob_stddev=1.0, separation=10.0, seed=6))
        cl = estimate_clustering(as_matrix(ds.embeddings))
        assert cl.num_clusters == 4


def test_builds_no_per_face_objects(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("built an Embedding")

    monkeypatch.setattr(Embedding, "__post_init__", refuse)
    ds = generate_synthetic(SynthConfig(4, 3, 8, seed=11, fraction_nonregistered=0.25))
    video = sample_more(ds, 2, seed=12)
    for faces in (ds.embeddings, ds.registered(), ds.nonregistered(), video):
        assert isinstance(faces, EmbeddingSet)
        write_embeddings(faces, tmp_path / "faces.emb")


class TestSampleMore:
    def test_fresh_points_same_centers(self):
        ds = generate_synthetic(SynthConfig(3, 4, 8, seed=7))
        extra = sample_more(ds, 6, seed=8, video_id="q")
        assert len(extra) == 18
        assert all(e.video_id == "q" for e in extra)
        assert {e.true_label for e in extra} == set(ds.labels)
        # new draw differs from the originals
        assert {e.vector for e in extra}.isdisjoint({e.vector for e in ds.embeddings})

