"""Seeded synthetic worlds, written straight to the program's documented file formats.

The benchmark builds its inputs with numpy and writes the `#emb v1` and
`clustermatch-store` v1 files itself, so the program under test receives only
files and the inputs do not depend on its Python API.

Why sigma = 0.05: identities are isotropic Gaussian blobs of standard
deviation sigma around centres drawn uniformly from the unit cube in
d = 128. With sigma = 0.25 and a 5000-entry store, every query of
`match --embedding-method silhouette` comes out non-registered: one face
against one stored face has RMSE of about sigma * sqrt(2), so the top
similarity is only about 2.8, and each of the S - alpha entries zeroed by the
top-alpha truncation still adds e^0 = 1 to the softmax denominator, which
keeps p_max far below 0.5. That is the method's behaviour, not a defect. At
sigma = 0.05 the top similarity is about 14 and e^14 outweighs the ~5000
zeroed entries, so registered queries match and withheld ones do not.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIM = 128
SIGMA = 0.05
MIN_SEPARATION = 10.0  # minimum centre distance, in units of sigma
NON_REGISTERED = "non-registered"


def identity_label(i: int) -> str:
    return f"id-{i:05d}"


def min_centre_distance(centres: np.ndarray, block: int = 128) -> float:
    """Smallest distance between two distinct rows, computed in row blocks to bound memory."""
    sq = np.einsum("ij,ij->i", centres, centres)
    best = math.inf
    for start in range(0, len(centres), block):
        rows = centres[start:start + block]
        d2 = sq[start:start + block, None] + sq[None, :] - 2.0 * (rows @ centres.T)
        own = np.arange(len(rows))
        d2[own, own + start] = math.inf
        best = min(best, float(d2.min()))
    return math.sqrt(max(best, 0.0))


def place_centres(rng: np.random.Generator, count: int, sigma: float = SIGMA) -> np.ndarray:
    """`count` identity centres in the unit cube, checked to be at least 10 sigma apart."""
    centres = rng.uniform(0.0, 1.0, size=(count, DIM))
    if count > 1:
        closest = min_centre_distance(centres)
        if closest < MIN_SEPARATION * sigma:
            raise RuntimeError(
                f"centres only {closest:.3f} apart, need {MIN_SEPARATION * sigma:.3f}"
            )
    return centres


@dataclass(frozen=True)
class Faces:
    """Face observations in identity-major order; frame f holds face f of every identity."""

    ids: tuple[str, ...]
    labels: tuple[str, ...]  # true identity label per face
    frames: tuple[int, ...]
    vectors: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def sample_faces(
    rng: np.random.Generator,
    centres: np.ndarray,
    identities,
    per_identity: int,
    prefix: str,
    sigma: float = SIGMA,
) -> Faces:
    identities = list(identities)
    vectors = rng.normal(0.0, sigma, size=(len(identities), per_identity, DIM))
    vectors += centres[identities][:, None, :]
    vectors = vectors.reshape(-1, DIM)
    ids, labels, frames = [], [], []
    for i in identities:
        for f in range(per_identity):
            ids.append(f"{prefix}-{i:05d}-{f:03d}")
            labels.append(identity_label(i))
            frames.append(f)
    return Faces(tuple(ids), tuple(labels), tuple(frames), vectors)


def write_embeddings(path: Path, faces: Faces, video_id: str, with_labels: bool) -> None:
    """Write a `#emb v1` file. Video files carry no labels, so the program cannot see the truth."""
    lines = [f"#emb v1 dim={DIM}"]
    for fid, label, frame, vec in zip(faces.ids, faces.labels, faces.frames, faces.vectors.tolist()):
        lines.append(
            "\t".join([fid, video_id, str(frame), label if with_labels else "", ",".join(map(repr, vec))])
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_store(path: Path, enrolment: Faces, per_identity: int) -> None:
    """Write a `clustermatch-store` v1 file with one entry per enrolled identity.

    Each entry's centroid is the mean of its members; its best-silhouette
    member is the member nearest that centroid, which is the member a
    silhouette choice picks on blobs this well separated. Entries are built and
    written one at a time, so that the set-up's memory stays below the op's.
    """
    members = enrolment.vectors.reshape(-1, per_identity, DIM)
    with path.open("w", encoding="utf-8") as out:
        out.write(f'{{"format": "clustermatch-store", "version": 1, "dimension": {DIM}, "metadata": {{}}, "entries": [\n')
        for e, vectors in enumerate(members):
            rows = slice(e * per_identity, (e + 1) * per_identity)
            label = enrolment.labels[rows.start]
            centroid = vectors.mean(axis=0)
            best = int(np.linalg.norm(vectors - centroid, axis=1).argmin())
            entry = {
                "label": label,
                "member_ids": list(enrolment.ids[rows]),
                "centroid": centroid.tolist(),
                "best_silhouette_id": enrolment.ids[rows.start + best],
                "best_silhouette_vector": vectors[best].tolist(),
                "label_histogram": {label: per_identity},
            }
            out.write((",\n" if e else "") + json.dumps(entry))
        out.write("\n]}\n")


def write_lines(path: Path, items) -> None:
    path.write_text("".join(f"{x}\n" for x in items), encoding="utf-8")
