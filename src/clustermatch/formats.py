"""On-disk formats: embedding files, the labeled-cluster store, clustering files, and face label files.

Everything is line-oriented text (or JSON for the store) with floats written at
full round-trip precision, so reading back a file reproduces the in-memory
values bit for bit.
"""
from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

from .clustering import Clustering
from .geometry import Embedding
from .matching import LabeledCluster, LabeledClusterSet

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


def _floats(value) -> tuple[float, ...]:
    return tuple(float(x) for x in _list(value))


def _histogram(value) -> dict[str, int]:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return {k: int(v) for k, v in value.items()}


# required keys of a store entry and their parsers; label_histogram is optional
_STORE_ENTRY_FIELDS = (
    ("label", _string),
    ("member_ids", _strings),
    ("centroid", _floats),
    ("best_silhouette_id", _string),
    ("best_silhouette_vector", _floats),
)


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


def read_embeddings(path: str | Path) -> list[Embedding]:
    """Parse a `#emb v1` file; any malformed line raises FormatError naming it."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or not lines[0].startswith(EMBEDDING_HEADER_PREFIX):
        raise FormatError(f"{path}: missing '{EMBEDDING_HEADER_PREFIX}<n>' header")
    try:
        dim = int(lines[0][len(EMBEDDING_HEADER_PREFIX):])
    except ValueError:
        raise FormatError(f"{path}: bad dimension in header {lines[0]!r}") from None

    out: list[Embedding] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
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
            out.append(
                Embedding(
                    id=eid,
                    vector=vector,
                    video_id=video_id or None,
                    frame_index=int(frame) if frame else None,
                    true_label=label or None,
                )
            )
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    return out


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
                "label": e.label,
                "member_ids": list(e.member_ids),
                "centroid": list(e.centroid),
                "best_silhouette_id": e.best_silhouette_id,
                "best_silhouette_vector": list(e.best_silhouette_vector),
                "label_histogram": dict(sorted(e.label_histogram.items())),
            }
            for e in store.entries
        ],
    }
    _atomic_write(path, json.dumps(doc, indent=1) + "\n")


def read_store(path: str | Path) -> tuple[LabeledClusterSet, dict]:
    """Load a store file; returns the set and its creation metadata."""
    doc = _read_json_object(path)
    if doc.get("format") != "clustermatch-store":
        raise FormatError(f"{path}: not a clustermatch store file")
    if doc.get("version") != STORE_VERSION:
        raise FormatError(f"{path}: unsupported store version {doc.get('version')!r}")
    dimension = _field(path, "top level", doc, "dimension", int)
    entries = []
    for index, e in enumerate(_field(path, "top level", doc, "entries", _list)):
        where = f"entry {index}"
        if not isinstance(e, dict):
            raise FormatError(f"{path}: {where}: expected a JSON object, got {type(e).__name__}")
        fields = {key: _field(path, where, e, key, convert) for key, convert in _STORE_ENTRY_FIELDS}
        if "label_histogram" in e:
            fields["label_histogram"] = _field(path, where, e, "label_histogram", _histogram)
        try:
            entries.append(LabeledCluster(**fields))
        except ValueError as exc:
            raise FormatError(f"{path}: {where}: {exc}") from None
    try:
        store = LabeledClusterSet(entries=tuple(entries), dimension=dimension)
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
        "assignments": [[e.id, int(c)] for e, c in zip(embeddings, clustering.assignments)],
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
