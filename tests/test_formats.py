import functools
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clustermatch import formats
from clustermatch.cli import main
from clustermatch.clustering import Clustering
from clustermatch.formats import (
    FormatError,
    _atomic_write,
    _nesting_depth,
    read_clustering,
    read_embeddings,
    read_face_labels,
    read_store,
    write_clustering,
    write_embeddings,
    write_face_labels,
    write_store,
)
from clustermatch.geometry import Embedding, EmbeddingSet, as_matrix
from clustermatch.matching import LabeledClusterSet

from . import oracles
from .stores import store_of


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
        assert list(back) == sample_embeddings
        assert back == EmbeddingSet.of(sample_embeddings)

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

    def test_refuses_empty_set_write(self, tmp_path, sample_embeddings):
        with pytest.raises(ValueError, match="empty"):
            write_embeddings(EmbeddingSet.of(sample_embeddings).select([]), tmp_path / "e.emb")

    def test_set_and_its_embeddings_write_the_same_bytes(self, tmp_path, sample_embeddings):
        faces = EmbeddingSet.of(sample_embeddings)
        write_embeddings(faces, tmp_path / "set.emb")
        write_embeddings(list(faces), tmp_path / "list.emb")
        assert (tmp_path / "set.emb").read_bytes() == (tmp_path / "list.emb").read_bytes()
        assert (tmp_path / "set.emb").read_text().splitlines()[1:] == [
            "a\tvid1\t0\talice\t1.0,2.5",
            "b\t\t\t\t0.1,-3.75",
            "c\t\t12\t\t0.3333333333333333,0.2857142857142857",
        ]

    def test_mixed_dimension_write_rejected(self, tmp_path):
        embs = [Embedding(id="a", vector=(1.0,)), Embedding(id="b", vector=(1.0, 2.0))]
        with pytest.raises(ValueError):
            write_embeddings(embs, tmp_path / "e.emb")

    # (frame, vector) of a record in a dim=2 file; each case is accepted or rejected
    # by Python's own int and float, so both readers must agree on it
    RECORDS = {
        "underscores": ("", "1_000,2"),
        "leading-space": ("", " 1.5,2"),
        "negative-zero": ("", "-0,-0.0"),
        "subnormal": ("", "1e-320,5e-324"),
        "17-digit-mantissas": ("", "0.30000000000000004,1.2345678901234567e-05"),
        "beyond-double-precision": ("", "9007199254740993,0.1000000000000000055511151231257827"),
        "hex-float": ("", "0x1p3,1"),
        "nan": ("", "nan,1"),
        "overflow": ("", "1e999,1"),
        "empty-component": ("", "1,"),
        "empty-vector": ("", ""),
        "one-component": ("", "1.0"),
        "three-components": ("", "1,2,3"),
        "plus-frame": ("+3", "1,2"),
        "underscore-frame": ("1_0", "1,2"),
        "negative-frame": ("-1", "1,2"),
        "fractional-frame": ("1.5", "1,2"),
        # JSON reads the first seven as something other than one float per component
        # (the block must go to float()), and the next three as floats whose bits
        # must be float()'s; a deep nest must not reach orjson at all
        "json-nest": ("", "[1.5],2"),
        "json-object": ("", "{},1"),
        "json-string": ("", '"1",2'),
        "json-literal": ("", "true,1"),
        "json-integers": ("", "1,2"),
        "json-integer-negative-zero": ("", "-0,1"),
        "30-digit-integer": ("", "123456789012345678901234567890,1"),
        "upper-case-exponent": ("", "1E5,1"),
        "negative-zero-float": ("", "-0.0,0.0"),
        "deep-nest": ("", "[" * 200_000 + "1" + "]" * 200_000 + ",1"),
    }

    @pytest.mark.parametrize("name", list(RECORDS))
    def test_reader_equals_per_line_reader(self, tmp_path, name):
        frame, vector = self.RECORDS[name]
        path = tmp_path / "e.emb"
        path.write_text(f"#emb v1 dim=2\nok\tv\t0\talice\t0.25,-1e300\nx\tv\t{frame}\tbob\t{vector}\n")
        try:
            want = oracles.per_line_read_embeddings(path)
        except FormatError as exc:
            with pytest.raises(FormatError) as got:
                read_embeddings(path)
            assert str(got.value) == str(exc)
            return
        got = read_embeddings(path)
        assert list(got) == want
        bits = np.array([e.vector for e in want]).view(np.uint64)
        assert np.array_equal(got.vectors.view(np.uint64), bits)

    def test_set_is_read_only_columns(self, tmp_path, sample_embeddings):
        path = tmp_path / "e.emb"
        write_embeddings(sample_embeddings, path)
        back = read_embeddings(path)
        assert back.ids == ("a", "b", "c")
        assert back.frame_indices == (0, None, 12)
        assert back.true_labels == ("alice", None, None)
        assert back.video_ids == ("vid1", None, None)
        assert as_matrix(back) is back.vectors and not back.vectors.flags.writeable
        assert list(back.select([False, True, True])) == sample_embeddings[1:] == list(back[1:])
        with pytest.raises(AttributeError):
            back.ids = ()


def two_entries() -> LabeledClusterSet:
    return LabeledClusterSet(
        labels=["alice", "bob"],
        member_ids=[("a1", "a2"), ("b1",)],
        best_silhouette_ids=["a1", "b1"],
        histograms=[{"alice": 2}, {"bob": 1}],
        centroids=[(0.5, 1 / 3), (9.0, -2.0)],
        best_silhouette_vectors=[(0.25, 0.4), (9.0, -2.0)],
    )


# ids and labels with a space, a non-ASCII letter and a lone surrogate
store_text = st.text(alphabet="ab \u00e9\ud800", max_size=3)
# for each column, values that LabeledClusterSet refuses; the last of each of the first three
# breaks a rule across columns: no member ids, a best id outside the entry, a count sum of 7
BAD_STORE_VALUES = {
    "labels": ["", "a\tb", "a\u2028", 5, None],
    "member_ids": ["ab", [1], ("a", None), []],
    "best_silhouette_ids": [7, None, "z"],
    "histograms": [{"a": -1}, {"a": 2**64}, {"a": True}, {"a": 1.0}, {1: 1}, [], {"a": 7}],
    "centroids": [np.nan, np.inf],
    "best_silhouette_vectors": [-np.inf],
}


@st.composite
def store_entry(draw, index: int) -> tuple[list | tuple, str, dict]:
    """Entry ``index``'s member ids, best-silhouette id (one of them) and label histogram
    (counts that sum to the member count). A digit no id holds starts every id of the
    entry, so no id is in two entries."""
    ids = [f"{index}{m}" for m in draw(st.lists(store_text, min_size=1, max_size=3, unique=True))]
    labels = draw(st.lists(store_text, min_size=1, max_size=2, unique=True))
    cuts = sorted(draw(st.lists(st.integers(0, len(ids)), min_size=len(labels) - 1, max_size=len(labels) - 1)))
    histogram = {label: b - a for label, a, b in zip(labels, [0, *cuts], [*cuts, len(ids)])}
    return draw(st.sampled_from([list, tuple]))(ids), draw(st.sampled_from(ids)), histogram


@st.composite
def store_columns(draw) -> tuple[dict, bool]:
    """The columns of a store of 0-3 entries in d = 1-3, and whether one of their values
    was replaced by one from ``BAD_STORE_VALUES``."""
    size, dim = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    matrix = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=size * dim, max_size=size * dim)
    entries = [draw(store_entry(i)) for i in range(size)]
    columns = dict(
        labels=draw(st.lists(store_text.filter(bool), min_size=size, max_size=size)),
        member_ids=[ids for ids, _, _ in entries],
        best_silhouette_ids=[best for _, best, _ in entries],
        histograms=[histogram for _, _, histogram in entries],
        centroids=np.array(draw(matrix)).reshape(size, dim),
        best_silhouette_vectors=np.array(draw(matrix)).reshape(size, dim),
    )
    spoiled = size > 0 and draw(st.booleans())
    if spoiled:
        key = draw(st.sampled_from(sorted(BAD_STORE_VALUES)))
        entry, bad = draw(st.integers(0, size - 1)), draw(st.sampled_from(BAD_STORE_VALUES[key]))
        if isinstance(columns[key], np.ndarray):
            columns[key][entry, draw(st.integers(0, dim - 1))] = bad
        else:
            columns[key][entry] = bad
    return columns, spoiled


class TestStoreFile:
    @pytest.fixture
    def store(self):
        return two_entries()

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

    @given(store_columns())
    def test_every_store_the_set_accepts_round_trips(self, tmp_path_factory, drawn):
        """What LabeledClusterSet accepts, write_store writes and read_store reads back ==;
        what it refuses, it refuses with ValueError."""
        columns, spoiled = drawn
        if spoiled:
            with pytest.raises(ValueError):
                LabeledClusterSet(**columns)
            return
        store = LabeledClusterSet(**columns)
        path = tmp_path_factory.mktemp("round-trip") / "s.json"
        write_store(store, path)
        assert read_store(path) == (store, {})

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
        "key, value, reason",
        [
            pytest.param("metadata", None, "expected an object, got NoneType", id="metadata-null"),
            pytest.param("metadata", [], "expected an object, got list", id="metadata-list"),
            pytest.param("centroid", "oops", "expected a list, got str", id="centroid-oops"),
            pytest.param("centroid", [1.0, "x"], "component 1 is str, expected a number", id="centroid-value1"),
            pytest.param("member_ids", [1], "expected a string, got int", id="member_ids-value2"),
            pytest.param("label_histogram", [], "expected an object, got list", id="label_histogram-value3"),
        ]
        + [
            pytest.param(key, value, reason, id=f"{key}-{name}")
            for key in ("centroid", "best_silhouette_vector")
            for name, value, reason in [
                ("true-among-numbers", [True, 1.5], "component 0 is bool, expected a number"),
                ("false-among-numbers", [False, 2.0], "component 0 is bool, expected a number"),
                ("all-bool", [True, False], "component 0 is bool, expected a number"),
                ("null", [None, 1.5], "component 0 is NoneType, expected a number"),
                ("string", ["1.5", 2.0], "component 0 is str, expected a number"),
                ("list", [[1.0], 2.0], "component 0 is list, expected a number"),
                ("nested-100-deep", [functools.reduce(lambda inner, _: [inner], range(100), 1.0), 2.0],
                 "component 0 is list, expected a number"),
            ]
        ],
    )
    def test_bad_entry_value_names_file_entry_and_key(self, tmp_path, store, key, value, reason):
        """``metadata`` is a top-level key; every other key is an entry's."""
        path = tmp_path / "s.json"
        write_store(store, path)
        doc = json.loads(path.read_text())
        where, owner = ("top level", doc) if key == "metadata" else ("entry 0", doc["entries"][0])
        owner[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError) as raised:
            read_store(path)
        assert str(raised.value) == f"{path}: {where}: bad value for '{key}' ({reason})"

    def test_missing_metadata_reads_as_empty(self, tmp_path, store):
        path = tmp_path / "s.json"
        write_store(store, path)
        doc = json.loads(path.read_text())
        del doc["metadata"]
        path.write_text(json.dumps(doc))
        assert read_store(path) == (store, {})

    @pytest.mark.parametrize("key", ["centroid", "best_silhouette_vector"])
    @pytest.mark.parametrize(
        "text",
        ["[1, -2]", "[-0, 1.5]", "[9007199254740993, 1.5]", "[9223372036854775808, -1]",
         "[18446744073709551615, 1.5]", "[18446744073709551615, 7]", "[0.0, -0.0]", "[1.0, -0.0]", "[1, 0]"],
    )
    def test_json_numbers_read_as_float64(self, tmp_path, store, key, text):
        path = tmp_path / "s.json"
        write_store(store, path)
        doc = json.loads(path.read_text())
        rows = [json.loads(text), doc["entries"][1][key]]
        doc["entries"][0][key] = "@"
        path.write_text(json.dumps(doc).replace('"@"', text))
        back, _ = read_store(path)
        matrix = back.centroids if key == "centroid" else back.best_silhouette_vectors
        assert matrix.tobytes() == np.array(rows, dtype=np.float64).tobytes()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("good", [True, False])
    def test_collector_state_is_restored(self, tmp_path, store, enabled, good):
        path = tmp_path / "s.json"
        write_store(store, path)
        if not good:
            path.write_text(path.read_text().replace('"centroid": [', '"centroid": [true, '))
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            if good:
                read_store(path)
            else:
                with pytest.raises(FormatError):
                    read_store(path)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

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

    @pytest.mark.parametrize("dimension", [2.7, "2", True, 0, -1])
    def test_dimension_must_be_a_positive_json_integer(self, tmp_path, store, dimension):
        path = tmp_path / "s.json"
        write_store(store, path)
        doc = json.loads(path.read_text())
        doc["dimension"] = dimension
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="s.json: top level: bad value for 'dimension'"):
            read_store(path)

    @pytest.mark.parametrize("version", [1.0, True, "1", 2, None])
    def test_version_must_be_the_json_integer_1(self, tmp_path, store, version):
        path = tmp_path / "s.json"
        write_store(store, path)
        doc = json.loads(path.read_text())
        doc["version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="s.json: unsupported store version"):
            read_store(path)

    @pytest.mark.parametrize(
        "count, message",
        [(2**64 - 1, f"'label_histogram' counts sum to {2**64 - 1}, not"), (2**64, "bad value for 'label_histogram' (")],
        ids=["64-bit", "beyond-64-bit"],
    )
    def test_histogram_count_beyond_64_bits_is_rejected(self, tmp_path, store, count, message):
        """orjson reads an integer beyond 64 bits as a float, which no count may be; a
        64-bit count is read as the integer it is, and only its sum is wrong."""
        path = tmp_path / "s.json"
        write_store(store, path)
        doc = json.loads(path.read_text())
        doc["entries"][0]["label_histogram"] = {"alice": count}
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError) as raised:
            read_store(path)
        assert str(raised.value).startswith(f"{path}: entry 0: {message}")

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("member_ids", [], "'member_ids' is empty"),
            ("best_silhouette_id", "a1", "'best_silhouette_id' 'a1' is not one of its 'member_ids'"),
            ("label_histogram", {"bob": 2}, "'label_histogram' counts sum to 2, not to its 1 'member_ids'"),
        ],
        ids=["no-member-ids", "best-id-of-another-entry", "counts-off-the-member-count"],
    )
    def test_entry_whose_columns_disagree(self, tmp_path, store, key, value, message):
        path = tmp_path / "s.json"
        write_store(store, path)
        doc = json.loads(path.read_text())
        doc["entries"][1][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError) as raised:
            read_store(path)
        assert str(raised.value) == f"{path}: entry 1: {message}"

    def test_lone_surrogate_loads_as_json_reads_it(self, tmp_path, store):
        """orjson rejects a lone surrogate; json's reading of the file stands."""
        path = tmp_path / "s.json"
        write_store(store, path)
        path.write_text(path.read_text().replace('"bob"', '"\\ud800"'))
        assert read_store(path)[0].labels == ("alice", "\ud800")


class TestStoreSidecar:
    """With the threshold lowered, every store read goes through the sidecar logic."""

    @pytest.fixture(autouse=True)
    def small_threshold(self, monkeypatch):
        monkeypatch.setattr(formats, "_STORE_CACHE_MIN_BYTES", 1)

    @pytest.fixture
    def parses(self, monkeypatch):
        """The number of times read_store has parsed a store's JSON."""
        calls = []
        parse = formats._parse_store
        monkeypatch.setattr(formats, "_parse_store", lambda *args: calls.append(args) or parse(*args))
        return calls

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "s.json"
        write_store(two_entries(), path, metadata={"seed": 0, "algorithm": "ward", "k": 2})
        return path

    def test_second_read_comes_from_the_sidecar_and_equals_the_first(self, tmp_path, path, parses):
        cache = tmp_path / ".s.json.clustermatch-cache"
        first, meta = read_store(path)
        assert cache.is_file() and len(parses) == 1
        second, meta2 = read_store(path)
        assert len(parses) == 1
        assert second == first
        assert list(meta2.items()) == list(meta.items()) == [("seed", 0), ("algorithm", "ward"), ("k", 2)]
        copy = tmp_path / "copy.json"
        write_store(second, copy, metadata=meta2)
        assert copy.read_bytes() == path.read_bytes()

    def test_below_the_threshold_no_sidecar_is_written(self, tmp_path, path, monkeypatch):
        monkeypatch.setattr(formats, "_STORE_CACHE_MIN_BYTES", path.stat().st_size + 1)
        read_store(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]

    def test_changed_store_is_reread_and_its_sidecar_rewritten(self, tmp_path, path, parses):
        cache = tmp_path / ".s.json.clustermatch-cache"
        read_store(path)
        old = cache.read_bytes()
        other = store_of([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        write_store(other, path, metadata={"seed": 1})
        assert read_store(path) == (other, {"seed": 1})
        assert len(parses) == 2 and cache.read_bytes() != old
        assert read_store(path) == (other, {"seed": 1})
        assert len(parses) == 2

    @staticmethod
    def columns(**changes):
        """A sidecar's ``columns`` member for two entries, with some of its items changed."""
        doc = {"labels": ["a", "b"], "member_ids": [["x"], ["y"]], "best_silhouette_ids": ["x", "y"],
               "histograms": [{}, {}], "metadata": {}}
        doc.update(changes)
        return np.frombuffer(json.dumps(doc).encode(), np.uint8)

    def assert_ignored_and_rewritten(self, path, parses, capsys, spoil):
        """``spoil(cache)`` damages the sidecar of a store read once; the next read parses
        the store and gives the same result, silently, and the read after loads the sidecar."""
        cache = path.parent / f".{path.name}.clustermatch-cache"
        expected = read_store(path)
        spoil(cache)
        assert read_store(path) == expected
        assert len(parses) == 2
        if cache.is_file():  # a directory in its place cannot be replaced by a file
            assert read_store(path) == expected
            assert len(parses) == 2
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize(
        "spoil",
        [lambda data: data[: len(data) // 2], lambda data: b"not a sidecar\n" * 100, lambda data: b""],
        ids=["truncated", "garbage", "empty"],
    )
    def test_damaged_sidecar_file(self, path, parses, capsys, spoil):
        self.assert_ignored_and_rewritten(path, parses, capsys, lambda cache: cache.write_bytes(spoil(cache.read_bytes())))

    def test_directory_in_place_of_the_sidecar(self, path, parses, capsys):
        self.assert_ignored_and_rewritten(path, parses, capsys, lambda cache: (cache.unlink(), cache.mkdir()))

    @pytest.mark.parametrize(
        "members",
        [
            pytest.param(dict(version=np.int64(0)), id="old-version"),
            pytest.param(dict(digest=np.zeros(32, np.uint8)), id="other-digest"),
            pytest.param(dict(centroids=np.zeros((2, 2), np.int64)), id="integer-matrix"),
            pytest.param(dict(centroids=np.full((2, 2), np.nan)), id="nan-matrix"),
            pytest.param(dict(columns=np.frombuffer(b'{"labels": ["a", "b"]}', np.uint8)), id="missing-column"),
            pytest.param(dict(columns=columns(labels=["a\tb", "c"])), id="label-with-a-tab"),
            pytest.param(dict(columns=columns(labels=[1, "b"])), id="integer-label"),
            pytest.param(dict(columns=columns(member_ids=[[1], ["y"]])), id="integer-member-id"),
            pytest.param(dict(columns=columns(best_silhouette_ids=["x", 2])), id="integer-best-id"),
            pytest.param(dict(columns=columns(histograms=[{}, {"b": -1}])), id="negative-count"),
            pytest.param(dict(columns=columns(metadata=None)), id="null-metadata"),
        ],
    )
    def test_sidecar_with_a_bad_member(self, path, parses, capsys, members):
        """The digest in the changed sidecar is still that of the store."""
        self.assert_ignored_and_rewritten(path, parses, capsys, lambda cache: self.rewrite(cache, members))

    @staticmethod
    def rewrite(cache, members: dict) -> None:
        """Write the sidecar ``cache`` again with some of its archive members changed."""
        with np.load(cache) as archive:
            changed = {name: archive[name] for name in archive.files} | members
        with open(cache, "wb") as f:
            np.savez(f, **changed)

    def test_deep_nest_in_the_sidecar_is_not_parsed(self, tmp_path, path):
        """orjson would crash the process on a 200 000-deep nest, so the read runs in a
        subprocess, where a crash fails the test."""
        read_store(path)
        nest = b"[" * 200_000 + b"]" * 200_000
        self.rewrite(tmp_path / ".s.json.clustermatch-cache", {"columns": np.frombuffer(nest, np.uint8)})
        code = "import sys; from clustermatch import formats as f; f._STORE_CACHE_MIN_BYTES = 1; print(len(f.read_store(sys.argv[1])[0]))"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout) == (0, "2\n"), done.stderr[-500:]

    def test_failed_sidecar_write_leaves_the_read_intact(self, tmp_path, path, monkeypatch, capsys):
        def refuse(target, data):
            raise OSError(30, "Read-only file system", str(target))

        monkeypatch.setattr(formats, "_atomic_write", refuse)
        expected = two_entries()
        assert read_store(path) == (expected, {"seed": 0, "algorithm": "ward", "k": 2})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]
        assert capsys.readouterr() == ("", "")

    def test_invalid_store_raises_and_writes_no_sidecar(self, tmp_path, path):
        path.write_text(path.read_text().replace('"centroid": [', '"centroid": [true, ', 1))
        with pytest.raises(FormatError, match="s.json: entry 0: bad value for 'centroid'"):
            read_store(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]

    def test_store_read_by_json_gets_no_sidecar(self, tmp_path, path, parses):
        """orjson rejects NaN; json reads it, and orjson.dumps would write it as null."""
        path.write_text(path.read_text().replace('"seed": 0', '"seed": NaN'))
        for reads in (1, 2):
            _, meta = read_store(path)
            assert np.isnan(meta["seed"]) and len(parses) == reads
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]

    def test_the_file_is_read_once_so_hash_and_parse_see_the_same_bytes(self, tmp_path, path, monkeypatch):
        """A writer replaces the store between the read and the parse: the sidecar written
        is that of the bytes parsed, so the next read sees the new store."""
        other = store_of([[1.0, 2.0]])
        replacement = tmp_path / "other.json"
        write_store(other, replacement)
        reads = []
        read_bytes = Path.read_bytes

        def read_then_replace(self):
            data = read_bytes(self)
            if self == path:
                reads.append(data)
                if len(reads) == 1:
                    os.replace(replacement, path)
            return data

        monkeypatch.setattr(Path, "read_bytes", read_then_replace)
        first, _ = read_store(path)
        assert first == two_entries()
        assert read_store(path) == (other, {})
        assert len(reads) == 2

    def test_two_matches_on_a_large_store_write_the_same_bytes(self, tmp_path, monkeypatch, parses):
        faces = tmp_path / "faces.emb"
        store = tmp_path / "store.json"
        assert main(["synth", "--identities", "4", "--points", "6", "--dim", "8", "--seed", "1", "--out", str(faces)]) == 0
        assert main(["label", "--in", str(faces), "--k", "4", "--out", str(store)]) == 0
        monkeypatch.setattr(formats, "_STORE_CACHE_MIN_BYTES", store.stat().st_size)
        outputs = []
        for run in (1, 2):
            labels, report = tmp_path / f"labels{run}.tsv", tmp_path / f"report{run}.json"
            argv = ["match", "--in", str(faces), "--store", str(store), "--out", str(labels), "--report", str(report)]
            assert main(argv) == 0
            assert (tmp_path / ".store.json.clustermatch-cache").is_file()
            outputs.append((labels.read_bytes(), report.read_bytes()))
        assert len(parses) == 1
        assert outputs[0] == outputs[1]



class Obj(list):
    """A JSON object as its (key, value) pairs, in order; a key may be repeated."""


class Raw(str):
    """A JSON token written as it is, such as the number ``-0``."""


def emit(value, gap, ascii_only: bool, entries_gap=None) -> str:
    """The JSON text of ``value``; ``gap(depth)`` gives the whitespace before each token and
    ``entries_gap`` the text between two entries of the top-level ``entries`` array."""

    def text(value, depth: int) -> str:
        if isinstance(value, Raw):
            return value
        if isinstance(value, (Obj, list)):
            items = [
                f"{text(k, depth + 1)}{gap(depth + 1)}:{gap(depth + 1)}{text(v, depth + 1)}" if isinstance(value, Obj)
                else text(v, depth + 1)
                for k, v in (value if isinstance(value, Obj) else [(None, v) for v in value])
            ]
            seps = [f",{gap(depth + 1)}"] * (len(items) - 1)
            if depth == 1 and entries_gap is not None and items and all(isinstance(v, Obj) for v in value):
                seps = [entries_gap() for _ in seps]
            body = gap(depth + 1) + "".join(item + sep for item, sep in zip(items, [*seps, ""]))
            return ("{" if isinstance(value, Obj) else "[") + body + gap(depth) + ("}" if isinstance(value, Obj) else "]")
        return json.dumps(value, ensure_ascii=ascii_only)

    return text(value, 0)


# ids and labels with a space and non-ASCII letters, which write_store escapes as \uXXXX
sliced_text = st.text(alphabet="ab é中", max_size=3)
number_tokens = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0", "0", "1", "-3", "1e308", "-1e308", "1E2", "2.5e-300", "9007199254740993", "18446744073709551615"]),
).map(Raw)
sliced_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | sliced_text,
    lambda children: st.lists(children, max_size=3) | st.lists(st.tuples(sliced_text, children), max_size=3).map(Obj),
    max_leaves=8,
)
rarely = st.sampled_from([False, False, False, True])
# faults the whole-document parse must name, each made in one entry
SLICED_FAULTS = {
    "missing-key": lambda e: e.remove(next(pair for pair in e if pair[0] == "centroid")),
    "string-component": lambda e: e.append(("centroid", ["x"])),
    "short-vector": lambda e: e.append(("best_silhouette_vector", [])),
    "shared-member-id": lambda e: e.append(("member_ids", ["0a", "shared"])),
    "tab-label": lambda e: e.append(("label", "a\tb")),
    "no-histogram": lambda e: e.remove(next(pair for pair in e if pair[0] == "label_histogram")),
}


@st.composite
def sliced_store_texts(draw) -> str:
    """A store file written in the layouts, key orders and number spellings JSON allows, now
    and then with extra or repeated top-level keys, a fault in an entry, an entry that is not
    an object, a stray byte between entries or trailing garbage."""
    rnd = draw(st.randoms(use_true_random=False))
    size, dim = draw(st.integers(0, 7)), draw(st.integers(1, 3))
    vector = st.lists(number_tokens, min_size=dim, max_size=dim)
    entries = []
    for index in range(size):
        ids = [f"{index}{m}" for m in draw(st.lists(sliced_text, min_size=1, max_size=3, unique=True))]
        label = draw(sliced_text.filter(bool))
        pairs = [("label", label), ("member_ids", ids), ("centroid", draw(vector)),
                 ("best_silhouette_id", draw(st.sampled_from(ids))), ("best_silhouette_vector", draw(vector)),
                 ("label_histogram", Obj([(label, len(ids))]))]
        entries.append(Obj(draw(st.permutations(pairs))))
    if entries and draw(rarely):  # ids holding a quote or a backslash, which JSON escapes
        entry, tail = draw(st.sampled_from(entries)), draw(st.sampled_from(['"', "\\"]))
        entry[:] = [
            (k, [i + tail for i in v] if k == "member_ids" else v + tail if k == "best_silhouette_id" else v)
            for k, v in entry
        ]
    top = [("format", "clustermatch-store"), ("version", 1), ("dimension", dim), ("entries", entries)]
    if draw(st.booleans()):
        top.append(("metadata", Obj(draw(st.lists(st.tuples(sliced_text, sliced_json), max_size=3)))))
    if draw(rarely):
        extra_key = st.sampled_from(["extra", "extra", "metadata", "entries", "dimension"])
        top += draw(st.lists(st.tuples(extra_key, sliced_json), min_size=1, max_size=2))
    top = draw(st.permutations(top))
    if entries and draw(rarely):
        spoiled = draw(st.integers(0, size - 1))
        fault = draw(st.sampled_from([*SLICED_FAULTS, "not-an-object"]))
        if fault == "not-an-object":
            entries[spoiled] = draw(st.sampled_from([Raw("7"), "x", [], None]))
        else:
            SLICED_FAULTS[fault](entries[spoiled])
    gap = {
        "compact": lambda depth: "",
        "indented": lambda depth: "\n" + " " * depth,
        "spaced": lambda depth: "".join(rnd.choice(" \t\n\r") for _ in range(rnd.randint(0, 2))),
    }[draw(st.sampled_from(["compact", "indented", "spaced"]))]
    stray = draw(st.sampled_from(["\x0b", "\x0c"])) if draw(rarely) else ""
    entries_gap = lambda: rnd.choice(["", stray]) + "," + rnd.choice(["", stray, "\n"])
    text = emit(Obj(top), gap, draw(st.booleans()), entries_gap)
    return text + (draw(st.sampled_from([" x", "]", "{}", "\x0c", "\n"])) if draw(rarely) else "")


def read_outcome(path: Path) -> tuple:
    """What read_store makes of ``path``: every column bit for bit and the metadata with its
    key order and number types, or the error message; and whether it wrote a sidecar."""
    sidecar = formats._store_cache_path(path)
    sidecar.unlink(missing_ok=True)
    try:
        store, metadata = read_store(path)
        result = (
            store.labels, store.member_ids, store.best_silhouette_ids, repr(store.histograms),
            store.centroids.tobytes(), store.best_silhouette_vectors.tobytes(), repr(metadata),
        )
    except FormatError as exc:
        result = str(exc)
    return result, sidecar.is_file()


class TestSlicedStoreParse:
    """``read_store`` parses a store a slice of entries at a time; what it gives must be what
    the whole-document parse gives, which decides every file the sliced parse declines."""

    @given(sliced_store_texts(), st.integers(1, 3))
    def test_equals_the_whole_document_parse(self, tmp_path_factory, text, slice_entries):
        path = tmp_path_factory.mktemp("sliced") / "s.json"
        path.write_bytes(text.encode("utf-8"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(formats, "_STORE_CACHE_MIN_BYTES", 1)
            patch.setattr(formats, "_SLICE_ENTRIES", slice_entries)
            sliced = read_outcome(path)
            patch.setattr(formats, "_parse_store_slices", lambda path, data: None)
            assert sliced == read_outcome(path)

    @pytest.mark.parametrize("slice_entries", [1, 2, 3, 256])
    @pytest.mark.parametrize("layout", ["indented", "compact"])
    def test_written_stores_take_the_sliced_parse(self, tmp_path, monkeypatch, slice_entries, layout):
        """write_store's output, \\uXXXX escapes of non-ASCII labels and ids among it, is not declined."""
        monkeypatch.setattr(formats, "_SLICE_ENTRIES", slice_entries)
        store = LabeledClusterSet(
            labels=["alé", "中", "carol"],
            member_ids=[("é1", "a2"), ("b1",), ("c1", "c2", "c3")],
            best_silhouette_ids=["a2", "b1", "c3"],
            histograms=[{"alé": 2}, {"中": 1}, {"carol": 2, "dave": 1}],
            centroids=[(0.5, 1 / 3), (9.0, -2.0), (-0.0, 1e308)],
            best_silhouette_vectors=[(0.25, 0.4), (9.0, -2.0), (5e-324, 7.0)],
        )
        metadata = {"k": 3, "run": {"seeds": [1, 2]}, "note": "é"}
        path = tmp_path / "s.json"
        write_store(store, path, metadata=metadata)
        if layout == "compact":
            path.write_text(json.dumps(json.loads(path.read_text()), separators=(",", ":")))
        assert b"\\u00e9" in path.read_bytes()
        data = path.read_bytes()
        sliced = formats._parse_store_slices(path, data)
        assert sliced is not None
        assert sliced[0] == store and sliced[0].centroids.tobytes() == store.centroids.tobytes()
        assert list(sliced[1].items()) == list(metadata.items())

    @pytest.mark.parametrize(
        "old, new, label",
        [
            ('"bob"', '"b\\"\\"ob"', 'b""ob'),  # escaped quotes, two of them, so the quote count stays even
            ('"bob"', '"b\\\\ob"', "b\\ob"),  # an escaped backslash
        ],
        ids=["escaped-quotes", "escaped-backslash"],
    )
    def test_escaped_quote_or_backslash_is_declined(self, tmp_path, old, new, label):
        """The scan takes every quote for the edge of a string, so these files go to the
        whole-document parse, even where the scan would have found the entries."""
        path = tmp_path / "s.json"
        write_store(two_entries(), path)
        path.write_text(path.read_text().replace(old, new))
        assert formats._parse_store_slices(path, path.read_bytes()) is None
        assert read_store(path)[0].labels == ("alice", label)

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"entries": [', '"extra": [], "entries": ['),  # a second array at depth 1
            ('"entries": [', '"entries": [[], '),  # an entry that is not an object
            ('"entries": [', '"entries": [\x0c'),  # a form feed, which JSON does not allow, before the first entry
            ('"centroid": [', '"centroid": [NaN, '),  # orjson rejects NaN
        ],
        ids=["two-arrays", "nested-array", "form-feed", "nan"],
    )
    def test_declined_files_go_to_the_whole_document_parse(self, tmp_path, old, new):
        path = tmp_path / "s.json"
        write_store(two_entries(), path)
        path.write_text(path.read_text().replace(old, new, 1))
        assert formats._parse_store_slices(path, path.read_bytes()) is None

    @pytest.mark.parametrize("slice_entries", [1, 256])
    def test_a_huge_dimension_with_short_vectors_is_one_format_error(self, tmp_path, monkeypatch, slice_entries):
        """The header's dimension sizes no matrix before a slice's vectors have shown it, so a
        claimed 10^12 components asks for no memory and gives the whole parse's message."""
        monkeypatch.setattr(formats, "_SLICE_ENTRIES", slice_entries)
        path = tmp_path / "s.json"
        write_store(two_entries(), path)
        path.write_text(path.read_text().replace('"dimension": 2', '"dimension": 1000000000000', 1))
        assert formats._parse_store_slices(path, path.read_bytes()) is None
        with pytest.raises(FormatError) as raised:
            read_store(path)
        assert str(raised.value) == (
            f"{path}: entry 0: cluster embedding dimensions disagree: "
            "'centroid' has 2 components, the store has dimension 1000000000000"
        )

    def test_a_nest_deeper_than_orjson_may_parse_is_declined(self, tmp_path):
        """The bracket scan that locates the entries also measures the depth, before any orjson call."""
        path = tmp_path / "s.json"
        write_store(two_entries(), path, metadata={"deep": 0})
        deep = "[" * formats._ORJSON_MAX_DEPTH + "]" * formats._ORJSON_MAX_DEPTH
        path.write_text(path.read_text().replace('"deep": 0', f'"deep": {deep}', 1))
        assert formats._entry_spans(path.read_bytes()) is None
        assert read_store(path)[1]["deep"] == json.loads(deep)

    def test_top_level_array_holding_an_array_is_not_an_object(self, tmp_path):
        """Its inner array is the one array at depth 1, and its header is a list."""
        path = tmp_path / "s.json"
        path.write_text('[[{"label": "a"}]]')
        with pytest.raises(FormatError, match="s.json: expected a JSON object at the top level, got list"):
            read_store(path)

    def test_a_fault_in_a_later_slice_is_named_by_its_place_in_the_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(formats, "_SLICE_ENTRIES", 1)
        path = tmp_path / "s.json"
        write_store(two_entries(), path)
        doc = json.loads(path.read_text())
        doc["entries"][1]["member_ids"] = ["a1"]
        doc["entries"][1]["best_silhouette_id"] = "a1"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError) as raised:
            read_store(path)
        assert str(raised.value) == f"{path}: entry 1: duplicate member id 'a1' across store entries"

    def test_first_read_of_a_10_mib_store_grows_rss_by_under_3x_its_size(self, tmp_path):
        """1700 entries at d = 128, read once with no sidecar, in a fresh process. A process
        started by this one would take this one's peak RSS as its own ru_maxrss (Linux keeps it
        across fork and exec), so a small launcher starts the reading process."""
        rng = np.random.default_rng(0)
        size, dim = 1700, 128
        store = LabeledClusterSet(
            labels=[f"person{i:05d}" for i in range(size)],
            member_ids=[[f"face{i:05d}-{m}" for m in range(5)] for i in range(size)],
            best_silhouette_ids=[f"face{i:05d}-0" for i in range(size)],
            histograms=[{f"person{i:05d}": 5} for i in range(size)],
            centroids=rng.normal(size=(size, dim)),
            best_silhouette_vectors=rng.normal(size=(size, dim)),
        )
        path = tmp_path / "store.json"
        write_store(store, path)
        file_size = path.stat().st_size
        assert 9 << 20 < file_size < 12 << 20
        code = (
            "import resource, sys\n"
            "from clustermatch import formats\n"
            "formats._STORE_CACHE_MIN_BYTES = 1 << 62\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "store, _ = formats.read_store(sys.argv[1])\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(len(store), (after - before) * 1024)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        launcher = "import subprocess, sys; sys.exit(subprocess.run([sys.executable, *sys.argv[1:]]).returncode)"
        argv = [sys.executable, "-c", launcher, "-c", code, str(path)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-500:]
        entries, grown = map(int, done.stdout.split())
        assert entries == size
        assert grown < 3 * file_size, f"RSS grew {grown / file_size:.2f}x the {file_size}-byte file"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store.json"]

def json_depth(value) -> int:
    if isinstance(value, list):
        return 1 + max(map(json_depth, value), default=0)
    if isinstance(value, dict):
        return 1 + max(map(json_depth, value.values()), default=0)
    return 0


# strings full of the characters the nesting scan must see through
json_strings = st.text(alphabet='[]{}"\\/bnu,: x\u00e9\n', max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | json_strings,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(json_strings, children, max_size=4),
    max_leaves=30,
)


class TestNestingDepth:
    @given(json_values, st.booleans())
    def test_equals_the_depth_of_the_parsed_value(self, value, ascii_only):
        text = json.dumps(value, ensure_ascii=ascii_only)
        assert _nesting_depth(text.encode("utf-8")) == json_depth(value)

    @pytest.mark.parametrize(
        "text, depth",
        [(b"", 0), (b"1", 0), (b'"[["', 0), (b'["\\\\", [[]]]', 3), (b'["\\\\\\"[", [1]]', 2), (b'"\\x"[[]]', 2), (b"[" * 100, 100)],
        ids=["empty", "scalar", "brackets-in-string", "escaped-backslash", "escaped-backslash-then-quote", "bad-escape", "unclosed"],
    )
    def test_invalid_or_edge_inputs(self, text, depth):
        assert _nesting_depth(text) == depth


class TestClusteringFile:
    def test_round_trip(self, tmp_path, sample_embeddings):
        path = tmp_path / "c.json"
        write_clustering(Clustering(assignments=(0, 1, 0), num_clusters=2), sample_embeddings, path)
        assert read_clustering(path) == ({"a": 0, "b": 1, "c": 0}, 2)

    def test_missing_assignments(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"format": "clustermatch-clustering", "version": 1, "num_clusters": 2}))
        with pytest.raises(FormatError, match="c.json: top level: missing key 'assignments'"):
            read_clustering(path)

    def test_bad_assignment_names_it(self, tmp_path):
        path = tmp_path / "c.json"
        doc = {"format": "clustermatch-clustering", "version": 1, "num_clusters": 1, "assignments": [["a", 0], ["b"]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="c.json: assignment 1"):
            read_clustering(path)

    @staticmethod
    def write_doc(path, **changes):
        doc = {"format": "clustermatch-clustering", "version": 1, "num_clusters": 2, "assignments": [["a", 0], ["b", 1]]}
        path.write_text(json.dumps({**doc, **changes}))

    @pytest.mark.parametrize("version", [99, 1.0, True, "1", None])
    def test_version_must_be_the_json_integer_1(self, tmp_path, version):
        path = tmp_path / "c.json"
        self.write_doc(path, version=version)
        with pytest.raises(FormatError, match="c.json: unsupported clustering version"):
            read_clustering(path)

    @pytest.mark.parametrize("num_clusters", ["1", 1.9, True, 0])
    def test_num_clusters_must_be_a_positive_json_integer(self, tmp_path, num_clusters):
        path = tmp_path / "c.json"
        self.write_doc(path, num_clusters=num_clusters)
        with pytest.raises(FormatError, match="c.json: top level: bad value for 'num_clusters'"):
            read_clustering(path)

    @pytest.mark.parametrize("index", [True, False, 1.0, "1"])
    def test_cluster_index_must_be_a_json_integer(self, tmp_path, index):
        path = tmp_path / "c.json"
        self.write_doc(path, assignments=[["a", 0], ["b", index]])
        with pytest.raises(FormatError, match="c.json: assignment 1: expected \\[embedding id, cluster index\\]"):
            read_clustering(path)

    @pytest.mark.parametrize(
        "assignments, message",
        [
            ([["a", 0], ["b", 2]], "assignment 1: cluster index 2 is outside 0..1"),
            ([["a", 0], ["b", -1]], "assignment 1: cluster index -1 is outside 0..1"),
            ([["a", 0], ["b", 1], ["a", 1]], "assignment 2: embedding id 'a' is listed twice"),
        ],
        ids=["beyond-num-clusters", "negative", "duplicate-id"],
    )
    def test_bad_assignment_is_named(self, tmp_path, assignments, message):
        path = tmp_path / "c.json"
        self.write_doc(path, assignments=assignments)
        with pytest.raises(FormatError, match=f"c.json: {message}"):
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

    def test_written_file_follows_the_umask_in_force(self, tmp_path):
        out = tmp_path / "out.txt"
        umask = os.umask(0o077)
        try:
            _atomic_write(out, "x")
        finally:
            os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o600


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

    def test_negative_frame_names_line(self, tmp_path):
        path = tmp_path / "l.tsv"
        path.write_text("#labels v1\na\t0\talice\nb\t-3\talice\n")
        with pytest.raises(FormatError, match=r"l\.tsv:3: frame_index must be non-negative"):
            read_face_labels(path)
