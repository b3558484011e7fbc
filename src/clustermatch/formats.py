"""On-disk formats: embedding files, the labeled-cluster store, clustering files, and face label files.

Everything is line-oriented text (or JSON for the store) with floats written at
full round-trip precision, so reading back a file reproduces the in-memory
values bit for bit.
"""
from __future__ import annotations

import json
import os
import tempfile
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .clustering import Clustering
from .geometry import Embedding, EmbeddingSet
from .matching import LabeledClusterSet

EMBEDDING_HEADER_PREFIX = "#emb v1 dim="
STORE_VERSION = 1
CLUSTERING_VERSION = 1

# mkstemp creates 0600 files; written files get the usual 0666 & ~umask instead
_UMASK = os.umask(0)
os.umask(_UMASK)


class FormatError(ValueError):
    """A file failed to parse; the message names the offending line, or entry and key."""


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _atomic_write(path: str | Path, text: str) -> None:
    """Write through a temporary file of its own in the target's directory, then rename it.
    A failure is reported against the target path: the temporary name is random."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(text)
            os.chmod(tmp, 0o666 & ~_UMASK)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def _read_json_object(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise FormatError(f"{path}: invalid JSON (nested too deeply)") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object at the top level, got {type(doc).__name__}")
    return doc


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


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _strings(value) -> tuple[str, ...]:
    return tuple(_string(x) for x in _list(value))


def _numbers(value) -> list:
    for component, x in enumerate(_list(value)):
        if type(x) not in _NUMBER_TYPES:
            raise TypeError(f"component {component} is {type(x).__name__}, expected a number")
    return value


def _histogram(value) -> dict[str, int]:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    for label, count in value.items():
        if type(count) is not int or count < 0:
            raise ValueError(f"count of {label!r} is {count!r}, expected a non-negative integer")
    return value


# required keys of a store entry; label_histogram is optional
_STORE_ENTRY_KEYS = ("label", "member_ids", "centroid", "best_silhouette_id", "best_silhouette_vector")
# JSON numbers parse to these; bool, a subclass of int, is not one of them
_NUMBER_TYPES = frozenset({float, int})


# ---------------------------------------------------------------------------
# embedding files


def write_embeddings(embeddings: Sequence[Embedding], path: str | Path) -> None:
    """Write a `#emb v1` file: header, then one tab-separated record per embedding."""
    embeddings = list(embeddings)
    if not embeddings:
        raise ValueError("refusing to write an empty embedding file")
    dim = embeddings[0].dim
    lines = [f"{EMBEDDING_HEADER_PREFIX}{dim}"]
    for e in embeddings:
        if e.dim != dim:
            raise ValueError(f"embedding {e.id!r} has dimension {e.dim}, file has {dim}")
        lines.append(
            "\t".join(
                [
                    e.id,
                    e.video_id or "",
                    "" if e.frame_index is None else str(e.frame_index),
                    e.true_label or "",
                    ",".join(_fmt_float(x) for x in e.vector),
                ]
            )
        )
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
    components = chain.from_iterable(vec.split(",") for vec in vecs)
    try:
        return EmbeddingSet(
            ids=ids,
            vectors=np.fromiter(map(float, components), np.float64, len(ids) * dim).reshape(len(ids), dim),
            video_ids=[v or None for v in video_ids],
            frame_indices=[int(f) if f else None for f in frames],
            true_labels=[label or None for label in labels],
        )
    except ValueError:  # an unparsable number or frame, or a value EmbeddingSet rejects
        return None


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
    _atomic_write(path, json.dumps(doc, indent=1) + "\n")


def _column(path: str | Path, entries: list[dict], key: str, valid, convert) -> list:
    """Every entry's value for ``key``. ``valid`` checks the whole column at once;
    when it fails, ``convert`` runs per entry and names the first bad one."""
    values = [e[key] for e in entries]
    if valid(values):
        return values
    return [_field(path, f"entry {index}", e, key, convert) for index, e in enumerate(entries)]


def _all_strings(values) -> bool:
    return set(map(type, values)) <= {str}


def _all_string_lists(values) -> bool:
    return all(type(v) is list for v in values) and _all_strings(chain.from_iterable(values))


def _all_number_lists(values) -> bool:
    return all(type(v) is list for v in values) and set(map(type, chain.from_iterable(values))) <= _NUMBER_TYPES


def _matrix(path: str | Path, entries: list[dict], key: str, dimension: int) -> np.ndarray:
    """The (S, dimension) float64 matrix of every entry's ``key`` vector, with no Python step per component."""
    rows = _column(path, entries, key, _all_number_lists, _numbers)
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


def read_store(path: str | Path) -> tuple[LabeledClusterSet, dict]:
    """Load a store file; returns the set and its creation metadata."""
    doc = _read_json_object(path)
    if doc.get("format") != "clustermatch-store":
        raise FormatError(f"{path}: not a clustermatch store file")
    if doc.get("version") != STORE_VERSION:
        raise FormatError(f"{path}: unsupported store version {doc.get('version')!r}")
    dimension = _field(path, "top level", doc, "dimension", int)
    entries = _field(path, "top level", doc, "entries", _list)
    for index, e in enumerate(entries):
        if not isinstance(e, dict):
            raise FormatError(f"{path}: entry {index}: expected a JSON object, got {type(e).__name__}")
        for key in _STORE_ENTRY_KEYS:
            if key not in e:
                raise FormatError(f"{path}: entry {index}: missing key {key!r}")
    columns = dict(
        labels=_column(path, entries, "label", _all_strings, _string),
        member_ids=_column(path, entries, "member_ids", _all_string_lists, _strings),
        best_silhouette_ids=_column(path, entries, "best_silhouette_id", _all_strings, _string),
        histograms=[
            _field(path, f"entry {index}", e, "label_histogram", _histogram) if "label_histogram" in e else {}
            for index, e in enumerate(entries)
        ],
        centroids=_matrix(path, entries, "centroid", dimension),
        best_silhouette_vectors=_matrix(path, entries, "best_silhouette_vector", dimension),
    )
    try:
        store = LabeledClusterSet.from_arrays(**columns)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return store, doc.get("metadata", {})


# ---------------------------------------------------------------------------
# clustering files


def write_clustering(
    clustering: Clustering,
    embeddings: Sequence[Embedding],
    score: float | None,
    path: str | Path,
) -> None:
    """Persist a clustering as versioned JSON: one [embedding id, cluster index] pair per point."""
    doc = {
        "format": "clustermatch-clustering",
        "version": CLUSTERING_VERSION,
        "num_clusters": clustering.num_clusters,
        "converged": clustering.converged,
        "silhouette_score": score,
        "assignments": [[eid, int(c)] for eid, c in zip(EmbeddingSet.of(embeddings).ids, clustering.assignments)],
    }
    _atomic_write(path, json.dumps(doc, indent=1) + "\n")


def read_clustering(path: str | Path) -> tuple[dict[str, int], int]:
    """Load a clustering file; returns the cluster index by embedding id, and the cluster count."""
    doc = _read_json_object(path)
    if doc.get("format") != "clustermatch-clustering":
        raise FormatError(f"{path}: not a clustering file")
    num_clusters = _field(path, "top level", doc, "num_clusters", int)
    assignment_by_id = {}
    for index, pair in enumerate(_field(path, "top level", doc, "assignments", _list)):
        if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str) and isinstance(pair[1], int)):
            raise FormatError(f"{path}: assignment {index}: expected [embedding id, cluster index], got {pair!r}")
        assignment_by_id[pair[0]] = pair[1]
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
            out.append((face_id, int(frame) if frame else None, label))
        except ValueError:
            raise FormatError(f"{path}:{lineno}: bad frame index {frame!r}") from None
    return out
