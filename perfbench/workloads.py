"""The benchmark's workloads: how each builds its inputs, what one op runs, and how its outputs are checked.

Every op runs the command line interface in-process on files written by
`worlds`; the program never sees the truth, which stays here for the check.
"""
from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import worlds
from clustermatch import cli, evaluation, formats
from worlds import NON_REGISTERED

MIN_PRECISION_RECALL = 0.99


@dataclass
class Prepared:
    """A workload's inputs on disk, the CLI calls of one op, and the truth to check them against."""

    workdir: Path
    commands: list[list[str]]
    inputs: list[Path]  # files the op reads
    outputs: list[Path]  # files the op writes
    faces: worlds.Faces  # the faces the op processes, with their true labels
    withheld: set[str]  # identities absent from the store
    expected_k: int  # identities present, so the K the search must find


@dataclass
class Quality:
    f1: float = 0.0
    nonreg_reject_rate: float = 0.0
    v_measure: float = 0.0
    problems: list[str] = field(default_factory=list)


def run_cli(argv: list[str]) -> int:
    """Run one CLI command in-process with its stdout captured; returns the exit code."""
    with redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return exc.code if isinstance(exc.code, int) else 1


def _withheld(identities: int, fraction: float) -> list[int]:
    """The last `fraction` of the identities are withheld from the store."""
    count = max(1, round(identities * fraction))
    return list(range(identities - count, identities))


def _read_face_labels(path: Path) -> list[tuple[str, int, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "#labels v1":
        raise ValueError(f"{path.name}: missing '#labels v1' header")
    rows = []
    for line in lines[1:]:
        face_id, frame, label = line.split("\t")
        rows.append((face_id, int(frame), label))
    return rows


def _v_measure(truth: list[str], predicted: list) -> float:
    index = {p: i for i, p in enumerate(sorted(set(predicted)))}
    table = evaluation.contingency(truth, [index[p] for p in predicted])
    return evaluation.v_measure(table).v


def _score(quality: Quality, truth_tags, predicted_tags) -> None:
    score = evaluation.score_video(truth_tags, predicted_tags)
    quality.f1 = score.f1
    if min(score.precision, score.recall) < MIN_PRECISION_RECALL:
        quality.problems.append(f"precision {score.precision:.4f} / recall {score.recall:.4f} below {MIN_PRECISION_RECALL}")


def _check_video(prep: Prepared) -> Quality:
    """Checks shared by the two recognition workloads.

    The expected label of a withheld identity's face is non-registered. The
    V-measure compares the face labelling (identity or non-registered) with
    the truth; the CLI's outputs do not say which non-registered cluster a
    face fell in.
    """
    quality = Quality()
    workdir, faces, withheld = prep.workdir, prep.faces, prep.withheld
    expected = [NON_REGISTERED if lab in withheld else lab for lab in faces.labels]
    predicted = {fid: (frame, label) for fid, frame, label in _read_face_labels(workdir / "labels.tsv")}

    _score(
        quality,
        list(zip(faces.frames, faces.ids, expected)),
        [(frame, fid, label) for fid, (frame, label) in predicted.items()],
    )
    rejected = set(withheld)
    for fid, lab in zip(faces.ids, faces.labels):
        if lab in withheld and predicted.get(fid, (None, None))[1] != NON_REGISTERED:
            rejected.discard(lab)
    quality.nonreg_reject_rate = len(rejected) / len(withheld)
    if rejected != withheld:
        quality.problems.append(f"withheld identities matched: {sorted(withheld - rejected)[:5]}")
    if all(fid in predicted for fid in faces.ids):
        quality.v_measure = _v_measure(expected, [predicted[fid][1] for fid in faces.ids])
    else:
        quality.problems.append("faces missing from labels.tsv")

    found = json.loads((workdir / "report.json").read_text(encoding="utf-8"))["num_clusters"]
    if found != prep.expected_k:
        quality.problems.append(f"found K = {found}, expected {prep.expected_k}")
    return quality


@dataclass(frozen=True)
class Recognize:
    """`match` (centroid method) plus `timeline` on one video, against a store enrolled in setup."""

    name: str = "recognize-4k"
    identities: int = 160
    video_faces: int = 25
    enrol_faces: int = 5
    withheld_fraction: float = 0.1

    def setup(self, seed: int, workdir: Path) -> Prepared:
        rng = np.random.default_rng(seed)
        centres = worlds.place_centres(rng, self.identities)
        withheld = _withheld(self.identities, self.withheld_fraction)
        registered = range(withheld[0])
        enrolment = worlds.sample_faces(rng, centres, registered, self.enrol_faces, "enrol")
        worlds.write_embeddings(workdir / "enrol.emb", enrolment, "enrol", with_labels=True)
        store = workdir / "store.json"
        if run_cli(["label", "--in", str(workdir / "enrol.emb"), "--auto-k", "--out", str(store)]) != 0:
            raise RuntimeError("enrolling the store failed")
        video = worlds.sample_faces(rng, centres, range(self.identities), self.video_faces, "video")
        worlds.write_embeddings(workdir / "video.emb", video, "video", with_labels=False)
        labels, report, segments = workdir / "labels.tsv", workdir / "report.json", workdir / "segments.tsv"
        return Prepared(
            workdir=workdir,
            commands=[
                ["match", "--in", str(workdir / "video.emb"), "--store", str(store),
                 "--out", str(labels), "--report", str(report)],
                ["timeline", "--labels", str(labels), "--fps", "25", "--out", str(segments)],
            ],
            inputs=[workdir / "video.emb", store, labels],
            outputs=[labels, report, segments],
            faces=video,
            withheld={worlds.identity_label(i) for i in withheld},
            expected_k=self.identities,
        )

    def check(self, prep: Prepared) -> Quality:
        quality = _check_video(prep)
        workdir = prep.workdir
        # the timeline must cover exactly the (identity, frame) pairs of the labels
        covered = set()
        lines = (workdir / "segments.tsv").read_text(encoding="utf-8").splitlines()
        for line in lines[1:]:
            identity, _, _, first, last = line.split("\t")
            covered.update((identity, f) for f in range(int(first), int(last) + 1))
        labelled = {(label, frame) for _, frame, label in _read_face_labels(workdir / "labels.tsv")}
        if covered != labelled:
            quality.problems.append("timeline segments do not cover exactly the labelled frames")
        return quality


@dataclass(frozen=True)
class Enroll:
    """`label --auto-k --exclude-labels-file`: cluster, label and write a store."""

    name: str = "enroll-3k"
    identities: int = 160
    faces_per_identity: int = 25
    withheld_fraction: float = 0.1

    def setup(self, seed: int, workdir: Path) -> Prepared:
        rng = np.random.default_rng(seed)
        centres = worlds.place_centres(rng, self.identities)
        withheld = {worlds.identity_label(i) for i in _withheld(self.identities, self.withheld_fraction)}
        faces = worlds.sample_faces(rng, centres, range(self.identities), self.faces_per_identity, "face")
        worlds.write_embeddings(workdir / "faces.emb", faces, "enrol", with_labels=True)
        worlds.write_lines(workdir / "withheld.txt", sorted(withheld))
        store = workdir / "store.json"
        return Prepared(
            workdir=workdir,
            commands=[["label", "--in", str(workdir / "faces.emb"), "--auto-k",
                       "--exclude-labels-file", str(workdir / "withheld.txt"), "--out", str(store)]],
            inputs=[workdir / "faces.emb", workdir / "withheld.txt"],
            outputs=[store],
            faces=faces,
            withheld=withheld,
            expected_k=self.identities - len(withheld),
        )

    def check(self, prep: Prepared) -> Quality:
        """The store must round-trip through the program's reader and writer, hold one
        label-pure entry per kept identity, and contain no withheld face."""
        quality = Quality()
        faces, withheld = prep.faces, prep.withheld
        path = prep.workdir / "store.json"

        store, metadata = formats.read_store(path)
        copy = prep.workdir / "store-roundtrip.json"
        formats.write_store(store, copy, metadata=metadata)
        if copy.read_bytes() != path.read_bytes():
            quality.problems.append("store does not round-trip byte for byte")
        copy.unlink()

        entries = json.loads(path.read_text(encoding="utf-8"))["entries"]
        label_of = dict(zip(faces.ids, faces.labels))
        frame_of = dict(zip(faces.ids, faces.frames))
        entry_of: dict[str, int] = {}
        for index, entry in enumerate(entries):
            label, members = entry["label"], entry["member_ids"]
            if {label_of.get(m) for m in members} != {label} or entry["label_histogram"] != {label: len(members)}:
                quality.problems.append(f"store entry {index} ({label}) is not label-pure")
            entry_of.update((m, index) for m in members)
        if len(entries) != prep.expected_k:
            quality.problems.append(f"found K = {len(entries)}, expected {prep.expected_k}")

        kept = [fid for fid, lab in zip(faces.ids, faces.labels) if lab not in withheld]
        _score(
            quality,
            [(frame_of[fid], fid, label_of[fid]) for fid in kept],
            [(frame_of.get(m, -1), m, entries[i]["label"]) for m, i in entry_of.items()],
        )
        stored = {label_of.get(m) for m in entry_of} | {e["label"] for e in entries}
        quality.nonreg_reject_rate = len(withheld - stored) / len(withheld)
        if withheld & stored:
            quality.problems.append(f"withheld identities in the store: {sorted(withheld & stored)[:5]}")
        if all(fid in entry_of for fid in kept):
            quality.v_measure = _v_measure([label_of[fid] for fid in kept], [entry_of[fid] for fid in kept])
        else:
            quality.problems.append("kept faces missing from the store")
        return quality


@dataclass(frozen=True)
class MatchLargeStore:
    """`match --embedding-method silhouette` of a short video against a large store written in setup."""

    name: str = "match-5k-store"
    store_entries: int = 5000
    store_members: int = 5
    query_identities: int = 100
    query_withheld: int = 10
    query_faces: int = 5

    def setup(self, seed: int, workdir: Path) -> Prepared:
        rng = np.random.default_rng(seed)
        centres = worlds.place_centres(rng, self.store_entries + self.query_withheld)
        enrolment = worlds.sample_faces(rng, centres, range(self.store_entries), self.store_members, "enrol")
        store = workdir / "store.json"
        worlds.write_store(store, enrolment, self.store_members)
        registered = rng.choice(self.store_entries, size=self.query_identities - self.query_withheld, replace=False)
        withheld = range(self.store_entries, self.store_entries + self.query_withheld)
        query = worlds.sample_faces(rng, centres, [*sorted(registered.tolist()), *withheld], self.query_faces, "video")
        worlds.write_embeddings(workdir / "query.emb", query, "video", with_labels=False)
        labels, report = workdir / "labels.tsv", workdir / "report.json"
        return Prepared(
            workdir=workdir,
            commands=[["match", "--in", str(workdir / "query.emb"), "--store", str(store),
                       "--embedding-method", "silhouette", "--out", str(labels), "--report", str(report)]],
            inputs=[workdir / "query.emb", store],
            outputs=[labels, report],
            faces=query,
            withheld={worlds.identity_label(i) for i in withheld},
            expected_k=self.query_identities,
        )

    def check(self, prep: Prepared) -> Quality:
        return _check_video(prep)


WORKLOADS = {w.name: w for w in (Recognize(), Enroll(), MatchLargeStore())}
