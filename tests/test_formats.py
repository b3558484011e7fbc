import json
import os

import pytest

from clustermatch.clustering import Clustering
from clustermatch.formats import (
    FormatError,
    _atomic_write,
    read_clustering,
    read_embeddings,
    read_face_labels,
    read_store,
    write_clustering,
    write_embeddings,
    write_face_labels,
    write_store,
)
from clustermatch.geometry import Embedding
from clustermatch.matching import LabeledCluster, LabeledClusterSet


@pytest.fixture
def sample_embeddings():
    return [
        Embedding(id="a", vector=(1.0, 2.5), video_id="vid1", frame_index=0, true_label="alice"),
        Embedding(id="b", vector=(0.1, -3.75)),
        Embedding(id="c", vector=(1 / 3, 2 / 7), frame_index=12),
    ]


class TestEmbeddingFile:
    def test_round_trip(self, tmp_path, sample_embeddings):
        path = tmp_path / "e.emb"
        write_embeddings(sample_embeddings, path)
        back = read_embeddings(path)
        assert back == sample_embeddings

    def test_round_trip_preserves_full_precision(self, tmp_path):
        e = Embedding(id="x", vector=(0.1 + 0.2, 1e-300, 12345.678901234567))
        path = tmp_path / "p.emb"
        write_embeddings([e], path)
        assert read_embeddings(path)[0].vector == e.vector

    def test_frame_metadata_preserved(self, tmp_path, sample_embeddings):
        path = tmp_path / "e.emb"
        write_embeddings(sample_embeddings, path)
        back = read_embeddings(path)
        assert back[2].frame_index == 12
        assert back[1].frame_index is None

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_text("#emb v1 dim=3\nok\t\t\t\t1.0,2.0,3.0\nbad\t\t\t\t1.0,2.0\n")
        with pytest.raises(FormatError, match=":3"):
            read_embeddings(path)

    def test_malformed_line_names_line(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_text("#emb v1 dim=1\nonly-two-fields\t1.0\n")
        with pytest.raises(FormatError, match=":2"):
            read_embeddings(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_text("a\t\t\t\t1.0\n")
        with pytest.raises(FormatError, match="header"):
            read_embeddings(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_text("#emb v1 dim=1\na\t\t\t\t1.0\na\t\t\t\t2.0\n")
        with pytest.raises(FormatError, match="duplicate"):
            read_embeddings(path)

    def test_refuses_empty_write(self, tmp_path):
        with pytest.raises(ValueError):
            write_embeddings([], tmp_path / "e.emb")

    def test_mixed_dimension_write_rejected(self, tmp_path):
        embs = [Embedding(id="a", vector=(1.0,)), Embedding(id="b", vector=(1.0, 2.0))]
        with pytest.raises(ValueError):
            write_embeddings(embs, tmp_path / "e.emb")


class TestStoreFile:
    @pytest.fixture
    def store(self):
        return LabeledClusterSet(
            entries=(
                LabeledCluster(
                    label="alice",
                    member_ids=("a1", "a2"),
                    centroid=(0.5, 1 / 3),
                    best_silhouette_id="a1",
                    best_silhouette_vector=(0.25, 0.4),
                    label_histogram={"alice": 2},
                ),
                LabeledCluster(
                    label="bob",
                    member_ids=("b1",),
                    centroid=(9.0, -2.0),
                    best_silhouette_id="b1",
                    best_silhouette_vector=(9.0, -2.0),
                    label_histogram={"bob": 1},
                ),
            ),
            dimension=2,
        )

    def test_round_trip_bit_exact(self, tmp_path, store):
        path = tmp_path / "s.json"
        write_store(store, path, metadata={"algorithm": "ward", "seed": 0})
        back, meta = read_store(path)
        assert back == store
        assert meta == {"algorithm": "ward", "seed": 0}
        # write again from the re-read store: byte-identical file
        path2 = tmp_path / "s2.json"
        write_store(back, path2, metadata=meta)
        assert path.read_bytes() == path2.read_bytes()

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(FormatError):
            read_store(path)

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{nope")
        with pytest.raises(FormatError):
            read_store(path)

    def test_top_level_list_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("[]")
        with pytest.raises(FormatError, match="s.json: expected a JSON object at the top level, got list"):
            read_store(path)

    @pytest.mark.parametrize("key", ["label", "member_ids", "centroid", "best_silhouette_id", "best_silhouette_vector"])
    def test_missing_entry_key_names_file_entry_and_key(self, tmp_path, store, key):
        path = tmp_path / "s.json"
        write_store(store, path)
        doc = json.loads(path.read_text())
        del doc["entries"][1][key]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f"s.json: entry 1: missing key '{key}'"):
            read_store(path)

    @pytest.mark.parametrize(
        "key, value",
        [("centroid", "oops"), ("centroid", [1.0, "x"]), ("member_ids", [1]), ("label_histogram", [])],
    )
    def test_bad_entry_value_names_file_entry_and_key(self, tmp_path, store, key, value):
        path = tmp_path / "s.json"
        write_store(store, path)
        doc = json.loads(path.read_text())
        doc["entries"][0][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f"s.json: entry 0: bad value for '{key}'"):
            read_store(path)

    def test_inconsistent_entry_names_it(self, tmp_path, store):
        path = tmp_path / "s.json"
        write_store(store, path)
        doc = json.loads(path.read_text())
        doc["entries"][1]["centroid"] = [1.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="s.json: entry 1: cluster embedding dimensions disagree"):
            read_store(path)

    def test_missing_entries_key(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"format": "clustermatch-store", "version": 1, "dimension": 2}))
        with pytest.raises(FormatError, match="s.json: top level: missing key 'entries'"):
            read_store(path)


class TestClusteringFile:
    def test_round_trip(self, tmp_path, sample_embeddings):
        path = tmp_path / "c.json"
        write_clustering(Clustering(assignments=(0, 1, 0), num_clusters=2), sample_embeddings, 0.5, path)
        assert read_clustering(path) == ({"a": 0, "b": 1, "c": 0}, 2)

    def test_missing_assignments(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"format": "clustermatch-clustering", "version": 1, "num_clusters": 2}))
        with pytest.raises(FormatError, match="c.json: top level: missing key 'assignments'"):
            read_clustering(path)

    def test_bad_assignment_names_it(self, tmp_path):
        path = tmp_path / "c.json"
        doc = {"format": "clustermatch-clustering", "num_clusters": 1, "assignments": [["a", 0], ["b"]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="c.json: assignment 1"):
            read_clustering(path)

    def test_top_level_list_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        with pytest.raises(FormatError, match="got list"):
            read_clustering(path)


class TestAtomicWrite:
    def test_stale_tmp_name_does_not_block_the_write(self, tmp_path):
        out = tmp_path / "out.json"
        (tmp_path / "out.json.tmp").mkdir()
        _atomic_write(out, "fresh\n")
        assert out.read_text() == "fresh\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "out.json.tmp"]

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()  # os.replace cannot put a file over a directory
        with pytest.raises(OSError):
            _atomic_write(target, "text")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert list(target.iterdir()) == []

    def test_written_file_gets_the_usual_mode(self, tmp_path):
        out = tmp_path / "out.txt"
        _atomic_write(out, "x")
        umask = os.umask(0)
        os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask


class TestFaceLabelFile:
    def test_round_trip(self, tmp_path):
        rows = [("a", 0, "alice"), ("b", None, "non-registered"), ("c", 7, "bob")]
        path = tmp_path / "l.tsv"
        write_face_labels(rows, path)
        assert read_face_labels(path) == rows

    def test_missing_header(self, tmp_path):
        path = tmp_path / "l.tsv"
        path.write_text("a\t0\talice\n")
        with pytest.raises(FormatError):
            read_face_labels(path)

    def test_bad_frame_names_line(self, tmp_path):
        path = tmp_path / "l.tsv"
        path.write_text("#labels v1\na\t0\talice\nb\tx\talice\n")
        with pytest.raises(FormatError, match=r"l\.tsv:3: bad frame index 'x'"):
            read_face_labels(path)
