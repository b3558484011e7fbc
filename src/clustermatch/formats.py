"""On-disk formats: embedding files, the labeled-cluster store, clustering files, and face label files.

Everything is line-oriented text (or JSON for the store) with floats written at
full round-trip precision, so reading back a file reproduces the in-memory
values bit for bit. A large store also gets a private binary sidecar beside it,
which spares later reads of the same bytes the JSON parse (see ``read_store``).
"""
from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import orjson

from .clustering import Clustering
from .geometry import Embedding, EmbeddingSet
from .matching import LabeledClusterSet

EMBEDDING_HEADER_PREFIX = "#emb v1 dim="
STORE_VERSION = 1
CLUSTERING_VERSION = 1


class FormatError(ValueError):
    """A file failed to parse; the message names the offending line, or entry and key."""


def _atomic_write(path: str | Path, data: str | bytes) -> None:
    """Write ``data`` (text is encoded as UTF-8) through a new temporary file in the
    target's directory, then rename it. The file is created with mode 0666, less the
    umask in force, as ``open`` creates one. A failure is reported against the target
    path: the temporary name is random."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def write_json(path: str | Path | None, doc) -> str:
    """The text of every JSON file this program writes: ``doc`` with a one-space indent and a
    final newline. It is written to ``path`` unless that is None, and returned."""
    text = json.dumps(doc, indent=1) + "\n"
    if path is not None:
        _atomic_write(path, text)
    return text


# orjson 3.8 crashes the process (SIGSEGV) on a closed nest 150 000 deep; the files
# this module writes are 3 deep
_ORJSON_MAX_DEPTH = 64
# the bytes that give a JSON document its nesting: the brackets and the quote
_STRUCTURE_BYTES = b'[]{}"'
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(_STRUCTURE_BYTES)))


def _nesting_depth(data: bytes) -> int:
    """The deepest nest of JSON arrays and objects in ``data``; brackets inside strings do not count."""
    if b"\\" in data:  # drop escaped backslashes, then escaped quotes: what is left of '"' delimits strings
        data = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    outside = b"".join(data.translate(None, _NOT_STRUCTURE).split(b'"')[::2])
    if not outside:
        return 0
    steps = (np.frombuffer(outside, np.uint8) & 2).astype(np.int64) - 1  # '[' and '{' have bit 1 set: +1; ']' and '}' -1
    return int(np.cumsum(steps).max())


# whether each byte value is one of _STRUCTURE_BYTES
_STRUCTURE = np.isin(np.arange(256), list(_STRUCTURE_BYTES))
# bytes per step of _entry_spans: its arrays stay a few times this long, whatever the file's size
_SCAN_WINDOW = 1 << 20


def _entry_spans(data: bytes) -> tuple[int, int, list[int], list[int]] | None:
    """Where the one array at depth 1 of ``data`` opens and closes, and where each object in
    it starts and ends (one past its '}'). None unless there is exactly one such array,
    every nest directly in it is an object and no nest is deeper than orjson may parse.

    One scan for the brackets outside strings, a window at a time. It takes every quote for
    the edge of a string, so ``data`` must hold no escaped quote or backslash."""
    quotes = depth = 0
    found = []  # per window: position, byte and depth after of each bracket between depths 0 and 3
    for start in range(0, len(data), _SCAN_WINDOW):
        window = np.frombuffer(data, np.uint8, min(_SCAN_WINDOW, len(data) - start), start)
        # '[' ']' '{' '}' and the bytes that share their bits ('Y' '_' 'y' DEL), and the quote
        near = (window | 0x20) & 0xF9 == 0x79
        near |= window == ord('"')
        at = np.flatnonzero(near)
        at = at[_STRUCTURE[window[at]]]
        chars = window[at]
        is_quote = chars == ord('"')
        outside = ~is_quote & ((np.cumsum(is_quote) + quotes) % 2 == 0)  # an even number of quotes before it
        quotes += int(np.count_nonzero(is_quote))
        at, chars = at[outside] + start, chars[outside]
        steps = (chars & 2).astype(np.int64) - 1  # '[' and '{' have bit 1 set: +1; ']' and '}' -1
        after = np.cumsum(steps) + depth
        if not len(after):
            continue
        if after.max() > _ORJSON_MAX_DEPTH:
            return None
        depth = int(after[-1])
        shallow = np.minimum(after, after - steps) <= 2
        found.append((at[shallow], chars[shallow], after[shallow]))
    if not found:
        return None
    at, chars, after = (np.concatenate(column) for column in zip(*found))
    arrays = np.flatnonzero((chars == ord("[")) & (after == 2))
    if len(arrays) != 1 or not (closing := np.flatnonzero(after[arrays[0] :] == 1)).size:
        return None
    opened, closed = arrays[0], arrays[0] + closing[0]
    # between them, the brackets kept are those that open an entry (depth 2 to 3) or close one (3 to 2)
    inner = slice(opened + 1, closed)
    entry_opens = after[inner] == 3
    if (chars[inner][entry_opens] != ord("{")).any():
        return None
    return int(at[opened]), int(at[closed]), at[inner][entry_opens].tolist(), (at[inner][~entry_opens] + 1).tolist()


def _read_json_object(path: str | Path, data: bytes) -> tuple[dict, bool]:
    """The JSON object in ``data``, read from ``path``, and whether orjson parsed it."""
    doc, by_orjson = _loads(path, data)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object at the top level, got {type(doc).__name__}")
    return doc, by_orjson


def _loads(path: str | Path, data: bytes) -> tuple[object, bool]:
    """The JSON document in ``data``, and whether orjson parsed it. orjson parses it when
    it can; Python's json decides every input orjson rejects or that is nested too deeply
    for it (NaN, 1e400, a lone surrogate, a 100 000-deep nest), so its accepted inputs,
    values and messages stand."""
    if _nesting_depth(data) <= _ORJSON_MAX_DEPTH:
        try:
            return orjson.loads(data), True
        except orjson.JSONDecodeError:
            pass
    try:  # decoded as Path.read_text decodes, so error positions are the same
        return json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()), False
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise FormatError(f"{path}: invalid JSON (nested too deeply)") from None


def _field(path: str | Path, where: str, obj, key: str, convert):
    """``convert(obj[key])``; a missing key or a bad value raises FormatError naming both."""
    if key not in obj:
        raise FormatError(f"{path}: {where}: missing key {key!r}")
    try:
        return convert(obj[key])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {where}: bad value for {key!r} ({exc})") from None


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _positive_int(value) -> int:
    if type(value) is not int or value < 1:
        raise ValueError(f"{value!r} is not a positive JSON integer")
    return value


def _version(path: str | Path, doc: dict, expected: int, what: str) -> None:
    """A header's version must be the JSON integer ``expected``: not 1.0, not true."""
    version = doc.get("version")
    if type(version) is not int or version != expected:
        raise FormatError(f"{path}: unsupported {what} version {version!r}")


def _numbers(value) -> list:
    for component, x in enumerate(_list(value)):
        if type(x) not in _NUMBER_TYPES:
            raise TypeError(f"component {component} is {type(x).__name__}, expected a number")
    return value


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


# required keys of a store entry; label_histogram is optional
_STORE_ENTRY_KEYS = ("label", "member_ids", "centroid", "best_silhouette_id", "best_silhouette_vector")
# JSON numbers parse to these; bool, a subclass of int, is not one of them
_NUMBER_TYPES = frozenset({float, int})


# ---------------------------------------------------------------------------
# embedding files


def write_embeddings(embeddings: Iterable[Embedding], path: str | Path) -> None:
    """Write a `#emb v1` file: header, then one tab-separated record per embedding.
    Each vector component is written with ``repr``, so a round trip is bit-exact."""
    faces = EmbeddingSet.of(embeddings)
    if not len(faces):
        raise ValueError("refusing to write an empty embedding file")
    lines = [f"{EMBEDDING_HEADER_PREFIX}{faces.dim}"]
    for face_id, video_id, frame, label, vector in zip(
        faces.ids, faces.video_ids, faces.frame_indices, faces.true_labels, faces.vectors.tolist()
    ):
        frame = "" if frame is None else frame
        lines.append(f"{face_id}\t{video_id or ''}\t{frame}\t{label or ''}\t{','.join(map(repr, vector))}")
    _atomic_write(path, "\n".join(lines) + "\n")


def read_embeddings(path: str | Path) -> EmbeddingSet:
    """Parse a `#emb v1` file; any malformed line raises FormatError naming it.

    All vectors are parsed in one pass of Python's ``float`` into one matrix;
    when any check fails, the lines are checked one by one to name the first bad one.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or not lines[0].startswith(EMBEDDING_HEADER_PREFIX):
        raise FormatError(f"{path}: missing '{EMBEDDING_HEADER_PREFIX}<n>' header")
    try:
        dim = int(lines[0][len(EMBEDDING_HEADER_PREFIX):])
    except ValueError:
        dim = 0
    if dim < 1:
        raise FormatError(f"{path}: bad dimension in header {lines[0]!r}")

    numbered = [(lineno, line) for lineno, line in enumerate(lines[1:], start=2) if line.strip()]
    faces = _parse_records([line.split("\t") for _, line in numbered], dim)
    if faces is None:
        _check_records(path, numbered, dim)
        raise FormatError(f"{path}: malformed embedding records")  # _check_records names the line first
    return faces


def _parse_records(records: list[list[str]], dim: int) -> EmbeddingSet | None:
    """The tab-split records as a set, or None when any record is malformed."""
    if any(len(fields) != 5 for fields in records):
        return None
    ids, video_ids, frames, labels, vecs = zip(*records) if records else ((),) * 5
    if any(vec.count(",") != dim - 1 for vec in vecs) or len(set(ids)) != len(ids):
        return None
    try:
        return EmbeddingSet(
            ids=ids,
            vectors=_vectors(vecs, dim),
            video_ids=[v or None for v in video_ids],
            frame_indices=[int(f) if f else None for f in frames],
            true_labels=[label or None for label in labels],
        )
    except ValueError:  # an unparsable number or frame, or a value EmbeddingSet rejects
        return None


# records per orjson call: a call per record is slow, one call for the whole file
# holds all its values as Python floats at once
_VECTOR_BLOCK = 256


def _vectors(vecs: Sequence[str], dim: int) -> np.ndarray:
    """The (n, dim) matrix of the comma-separated vectors, each with dim - 1 commas.
    Raises ValueError for a component that ``float`` rejects."""
    out = np.empty((len(vecs), dim))
    flat = out.reshape(-1)
    for start in range(0, len(vecs), _VECTOR_BLOCK):
        block = vecs[start : start + _VECTOR_BLOCK]
        text, count = ",".join(block), len(block) * dim
        values = _json_floats(text, count)
        if values is None:
            values = list(map(float, text.split(",")))
        flat[start * dim : start * dim + count] = values
    return out


def _json_floats(text: str, count: int) -> list[float] | None:
    """The ``count`` comma-separated numbers in ``text`` as orjson reads them, or None
    unless it reads each one as a float, to which ``float`` gives the same bits (not so
    for a JSON integer such as -0). Text with a ``[`` or ``{`` never reaches orjson,
    which a deep nest crashes."""
    if "[" in text or "{" in text:
        return None
    try:
        values = orjson.loads(f"[{text}]")
    except orjson.JSONDecodeError:
        return None
    if len(values) != count or not set(map(type, values)) <= {float}:
        return None
    return values


def _check_records(path: str | Path, numbered: list[tuple[int, str]], dim: int) -> None:
    """Check each (line number, line) record on its own; raise FormatError for the first bad one."""
    seen: set[str] = set()
    for lineno, line in numbered:
        fields = line.split("\t")
        if len(fields) != 5:
            raise FormatError(f"{path}:{lineno}: expected 5 tab-separated fields, got {len(fields)}")
        eid, video_id, frame, label, vec = fields
        try:
            vector = tuple(float(x) for x in vec.split(","))
        except ValueError:
            raise FormatError(f"{path}:{lineno}: unparsable vector") from None
        if len(vector) != dim:
            raise FormatError(
                f"{path}:{lineno}: vector has dimension {len(vector)}, file header says {dim}"
            )
        if eid in seen:
            raise FormatError(f"{path}:{lineno}: duplicate embedding id {eid!r}")
        seen.add(eid)
        try:
            Embedding(
                id=eid,
                vector=vector,
                video_id=video_id or None,
                frame_index=int(frame) if frame else None,
                true_label=label or None,
            )
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None


# ---------------------------------------------------------------------------
# cluster store


def write_store(
    store: LabeledClusterSet,
    path: str | Path,
    metadata: dict | None = None,
) -> None:
    """Persist the labeled-cluster store as versioned JSON."""
    doc = {
        "format": "clustermatch-store",
        "version": STORE_VERSION,
        "dimension": store.dimension,
        "metadata": metadata or {},
        "entries": [
            {
                "label": label,
                "member_ids": list(member_ids),
                "centroid": centroid,
                "best_silhouette_id": best_id,
                "best_silhouette_vector": best_vector,
                "label_histogram": dict(sorted(histogram.items())),
            }
            for label, member_ids, centroid, best_id, best_vector, histogram in zip(
                store.labels,
                store.member_ids,
                store.centroids.tolist(),
                store.best_silhouette_ids,
                store.best_silhouette_vectors.tolist(),
                store.histograms,
            )
        ],
    }
    write_json(path, doc)


def _matrix(path: str | Path, entries: list[dict], key: str, dimension: int) -> np.ndarray:
    """The (S, dimension) float64 matrix of every entry's ``key`` vector, with no Python step per component.

    numpy's own dtype discovery is the type check: lists of JSON numbers come out as an
    (S, dimension) float or integer matrix, whose float64 bits are those of
    ``np.array(rows, dtype=np.float64)``. A null, a string, a nested list or an all-bool
    column gives another dtype or shape, or raises. ``true`` and ``false`` among numbers
    read as 1.0 and 0.0, so the source values of only those cells are looked at."""
    rows = [e[key] for e in entries]
    try:
        inferred = np.array(rows)
    except (ValueError, OverflowError):  # ragged or nested rows
        inferred = None
    if inferred is not None and inferred.dtype.kind in "fiu" and inferred.shape == (len(rows), dimension):
        zeros_and_ones = np.nonzero((inferred == 0) | (inferred == 1))
        if not any(type(rows[i][j]) is bool for i, j in zip(*zeros_and_ones)):
            return inferred.astype(np.float64, copy=False)
    # anything else is checked entry by entry, and the first bad entry named
    rows = [_field(path, f"entry {index}", e, key, _numbers) for index, e in enumerate(entries)]
    for index, row in enumerate(rows):
        if len(row) != dimension:
            raise FormatError(
                f"{path}: entry {index}: cluster embedding dimensions disagree: "
                f"{key!r} has {len(row)} components, the store has dimension {dimension}"
            )
    try:
        return np.array(rows, dtype=np.float64).reshape(len(rows), dimension)
    except OverflowError:  # an integer beyond the float range: find its entry
        for index, row in enumerate(rows):
            try:
                np.array(row, dtype=np.float64)
            except OverflowError as exc:
                raise FormatError(f"{path}: entry {index}: bad value for {key!r} ({exc})") from None
        raise


@contextmanager
def _collector_paused():
    """Pause CPython's cyclic garbage collector, and restore the state found on exit.
    A 5000-entry store parses to about 25 000 lists and dicts holding 1.28 M floats, with
    no cycles among them: every collection that runs while they are alive walks them all."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def read_store(path: str | Path) -> tuple[LabeledClusterSet, dict]:
    """Load a store file; returns the set and its creation metadata.

    The file is read once. When it holds at least ``_STORE_CACHE_MIN_BYTES``, its
    sidecar (``_store_cache_path``) is loaded instead of parsing the JSON, if it was
    written for the same bytes; otherwise the JSON is parsed (``_parse_store``) and the
    sidecar written. The cyclic collector is paused while the store is built."""
    data = Path(path).read_bytes()
    digest = hashlib.sha256(data).digest() if len(data) >= _STORE_CACHE_MIN_BYTES else None
    if digest is not None and (cached := _load_store_cache(path, digest)) is not None:
        return cached
    store, metadata, by_orjson = _parse_store(path, data)
    del data  # the sidecar's archive is built in memory
    # json's reading of a file orjson rejects (NaN, 1e400) would not survive orjson.dumps
    if digest is not None and by_orjson:
        _save_store_cache(path, digest, store, metadata)
    return store, metadata


def _parse_store(path: str | Path, data: bytes) -> tuple[LabeledClusterSet, dict, bool]:
    """The store and metadata in a store file's bytes, and whether orjson parsed them;
    FormatError names what is wrong.

    The entries are parsed a slice at a time (``_parse_store_slices``). A file that the
    sliced parse declines is parsed whole, as ``_loads`` parses any JSON file: that parse is
    the referee, whose values and messages the sliced parse gives whenever it accepts."""
    sliced = _parse_store_slices(path, data)
    if sliced is not None:
        return (*sliced, True)
    doc, by_orjson = _read_json_object(path, data)
    dimension, entries, metadata = _store_header(path, doc)
    return _store(path, *_entry_columns(path, entries, dimension)), metadata, by_orjson


# entries per orjson call of the sliced store parse; only one slice's parse tree is alive at once
_SLICE_ENTRIES = 256
# the whitespace JSON allows between tokens; bytes.strip() would strip \x0b and \x0c too
_JSON_WHITESPACE = b" \t\n\r"
# ``_entry_spans`` takes every quote for the edge of a string, which these escapes break;
# the \uXXXX that ``write_store`` writes for a non-ASCII character does not
_ESCAPED_QUOTE_OR_BACKSLASH = re.compile(rb'\\[\\"]')


def _parse_store_slices(path: str | Path, data: bytes) -> tuple[LabeledClusterSet, dict] | None:
    """The store and metadata in a store file's bytes, its entries parsed by orjson
    ``_SLICE_ENTRIES`` at a time and their vectors written straight into (S, d) matrices.

    ``_entry_spans`` locates the entries. The header is the file with the entries array
    emptied; each slice is parsed as ``[`` + its bytes + ``]``; between slices and at the
    array's edges stand only JSON whitespace and the separating comma. The columns are
    checked as a whole, so cross-entry rules see every entry.

    None when the file must be parsed whole: it holds an escaped quote or backslash, nests
    deeper than orjson may parse, has other than one array at depth 1 or other than objects
    in it, orjson rejects a piece, or a check fails (its message would name an entry by its
    place in the slice, and the whole parse names the first fault of the whole file).
    The matrices are allocated once the first slice's vectors have shown ``dimension``
    components, so a header's huge dimension asks for no memory before a check refuses it."""
    if b"\\" in data and _ESCAPED_QUOTE_OR_BACKSLASH.search(data):
        return None
    spans = _entry_spans(data)
    if spans is None:
        return None
    opened, closed, starts, ends = spans
    try:
        header = orjson.loads(data[: opened + 1] + data[closed:])
        if not isinstance(header, dict) or header.get("entries") != []:
            return None
        dimension, _, metadata = _store_header(path, header)
        size, end = len(starts), opened + 1
        columns = [[], [], [], [], np.empty((0, dimension)), np.empty((0, dimension))]
        for first in range(0, size, _SLICE_ENTRIES):
            last = min(first + _SLICE_ENTRIES, size)
            if data[end : starts[first]].strip(_JSON_WHITESPACE) != (b"," if first else b""):
                return None
            entries = orjson.loads(b"".join((b"[", memoryview(data)[starts[first] : ends[last - 1]], b"]")))
            sliced = _entry_columns(path, entries, dimension)
            if not first:  # _matrix has checked that the slice's vectors have ``dimension`` components
                columns[4:] = np.empty((size, dimension)), np.empty((size, dimension))
            for column, values in zip(columns, sliced):
                column[first:last] = values  # a list grows by the slice's items, a matrix fills its rows
            del entries
            end = ends[last - 1]
        if data[end:closed].strip(_JSON_WHITESPACE):
            return None
        return _store(path, *columns), metadata
    except ValueError:  # orjson.JSONDecodeError and FormatError among them
        return None


def _store_header(path: str | Path, doc: dict) -> tuple[int, list, dict]:
    """The dimension, entries and metadata of a parsed store document; FormatError names what is wrong."""
    if doc.get("format") != "clustermatch-store":
        raise FormatError(f"{path}: not a clustermatch store file")
    _version(path, doc, STORE_VERSION, "store")
    dimension = _field(path, "top level", doc, "dimension", _positive_int)
    entries = _field(path, "top level", doc, "entries", _list)
    metadata = _field(path, "top level", doc, "metadata", _object) if "metadata" in doc else {}
    return dimension, entries, metadata


def _entry_columns(path: str | Path, entries: list, dimension: int) -> tuple:
    """The labels, member ids, best-silhouette ids and histograms (lists), and the centroid
    and best-silhouette matrices of parsed store entries. FormatError names an entry by its
    place in ``entries``: one that is not an object, lacks a key or has a bad vector."""
    for index, e in enumerate(entries):
        if not isinstance(e, dict):
            raise FormatError(f"{path}: entry {index}: expected a JSON object, got {type(e).__name__}")
        for key in _STORE_ENTRY_KEYS:
            if key not in e:
                raise FormatError(f"{path}: entry {index}: missing key {key!r}")
    return (
        *([e[key] for e in entries] for key in ("label", "member_ids", "best_silhouette_id")),
        [e.get("label_histogram", {}) for e in entries],
        *(_matrix(path, entries, key, dimension) for key in ("centroid", "best_silhouette_vector")),
    )


def _store(path: str | Path, *columns) -> LabeledClusterSet:
    """``LabeledClusterSet(*columns)``, which checks the values; FormatError names the first bad entry."""
    try:
        return LabeledClusterSet(*columns)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


# A store file at least this large gets a sidecar: parsing a smaller one takes under
# about 50 ms (some 7 ms per MB), which a sidecar would barely shorten.
_STORE_CACHE_MIN_BYTES = 8 << 20
_STORE_CACHE_VERSION = 1
# the string and dict columns, and the metadata, travel in one orjson document
_STORE_CACHE_COLUMNS = ("labels", "member_ids", "best_silhouette_ids", "histograms")


def _store_cache_path(path: str | Path) -> Path:
    """The sidecar of a store: a hidden file beside it, safe to delete at any time."""
    path = Path(path)
    return path.parent / f".{path.name}.clustermatch-cache"


def _load_store_cache(path: str | Path, digest: bytes) -> tuple[LabeledClusterSet, dict] | None:
    """The store and metadata that the sidecar of ``path`` holds for the file bytes whose
    sha256 is ``digest``. None when the sidecar is missing, unreadable, of another version
    or of other bytes, or when its columns fail the checks: the caller then parses the file."""
    try:
        with np.load(_store_cache_path(path), allow_pickle=False) as cache:
            if int(cache["version"]) != _STORE_CACHE_VERSION or cache["digest"].tobytes() != digest:
                return None
            blob = cache["columns"].tobytes()
            centroids, best_vectors = cache["centroids"], cache["best_silhouette_vectors"]
        # LabeledClusterSet checks the columns' values, but converts matrices of another dtype
        if _nesting_depth(blob) > _ORJSON_MAX_DEPTH or not centroids.dtype == best_vectors.dtype == np.float64:
            return None
        doc = orjson.loads(blob)
        columns = {key: doc[key] for key in _STORE_CACHE_COLUMNS}
        store = LabeledClusterSet(**columns, centroids=centroids, best_silhouette_vectors=best_vectors)
        return store, _object(doc["metadata"])
    except Exception:  # whatever is wrong with the sidecar, the file itself decides
        return None


def _save_store_cache(path: str | Path, digest: bytes, store: LabeledClusterSet, metadata: dict) -> None:
    """Write the sidecar of ``path`` for the bytes whose sha256 is ``digest``: one uncompressed
    ``np.savez`` archive with no pickled object. A sidecar that cannot be written is skipped."""
    try:
        doc = {key: getattr(store, key) for key in _STORE_CACHE_COLUMNS}
        doc["metadata"] = metadata
        archive = io.BytesIO()
        np.savez(
            archive,
            version=np.int64(_STORE_CACHE_VERSION),
            digest=np.frombuffer(digest, np.uint8),
            columns=np.frombuffer(orjson.dumps(doc), np.uint8),
            centroids=store.centroids,
            best_silhouette_vectors=store.best_silhouette_vectors,
        )
        _atomic_write(_store_cache_path(path), archive.getbuffer())
    except Exception:  # a read-only directory, a full disk: the store was read all the same
        pass


# ---------------------------------------------------------------------------
# clustering files


def write_clustering(clustering: Clustering, embeddings: Sequence[Embedding], path: str | Path) -> None:
    """Persist a clustering as versioned JSON: one [embedding id, cluster index] pair per point,
    and the silhouette score the clustering carries (null when it carries none). The
    ``converged`` key is kept for format v1 and is always true."""
    doc = {
        "format": "clustermatch-clustering",
        "version": CLUSTERING_VERSION,
        "num_clusters": clustering.num_clusters,
        "converged": True,
        "silhouette_score": None if clustering.silhouette is None else clustering.silhouette.score,
        "assignments": [[eid, int(c)] for eid, c in zip(EmbeddingSet.of(embeddings).ids, clustering.assignments)],
    }
    write_json(path, doc)


def read_clustering(path: str | Path) -> tuple[dict[str, int], int]:
    """Load a clustering file; returns the cluster index by embedding id, and the cluster count."""
    doc, _ = _read_json_object(path, Path(path).read_bytes())
    if doc.get("format") != "clustermatch-clustering":
        raise FormatError(f"{path}: not a clustering file")
    _version(path, doc, CLUSTERING_VERSION, "clustering")
    num_clusters = _field(path, "top level", doc, "num_clusters", _positive_int)
    assignment_by_id = {}
    for index, pair in enumerate(_field(path, "top level", doc, "assignments", _list)):
        if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str) and type(pair[1]) is int):
            raise FormatError(f"{path}: assignment {index}: expected [embedding id, cluster index], got {pair!r}")
        eid, cluster = pair
        if not 0 <= cluster < num_clusters:
            raise FormatError(f"{path}: assignment {index}: cluster index {cluster} is outside 0..{num_clusters - 1}")
        if eid in assignment_by_id:
            raise FormatError(f"{path}: assignment {index}: embedding id {eid!r} is listed twice")
        assignment_by_id[eid] = cluster
    return assignment_by_id, num_clusters


# ---------------------------------------------------------------------------
# face label files (recognition output)


def write_face_labels(rows: Iterable[tuple[str, int | None, str]], path: str | Path) -> None:
    """Write `id<TAB>frame_index<TAB>label` rows."""
    lines = ["#labels v1"]
    for face_id, frame_index, label in rows:
        lines.append("\t".join([face_id, "" if frame_index is None else str(frame_index), label]))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_face_labels(path: str | Path) -> list[tuple[str, int | None, str]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "#labels v1":
        raise FormatError(f"{path}: missing '#labels v1' header")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise FormatError(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
        face_id, frame, label = fields
        try:
            frame_index = int(frame) if frame else None
        except ValueError:
            raise FormatError(f"{path}:{lineno}: bad frame index {frame!r}") from None
        if frame_index is not None and frame_index < 0:
            raise FormatError(f"{path}:{lineno}: frame_index must be non-negative")
        out.append((face_id, frame_index, label))
    return out
