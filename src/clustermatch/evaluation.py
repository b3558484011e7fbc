"""Clustering and recognition quality metrics.

Covers the entropy-based V-measure (homogeneity / completeness over the
class-vs-cluster contingency table), the four match-rate metrics over
registered and non-registered query sets, and per-face precision / recall /
F1 / exact-frame scoring for frame-tagged video output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matching import MatchDecision


@dataclass(frozen=True)
class ContingencyTable:
    """Counts of points per (class, cluster) pair."""

    counts: tuple[tuple[int, ...], ...]  # rows: classes, cols: clusters, both in sorted order

    def __post_init__(self) -> None:
        if not self.counts or not self.counts[0]:
            raise ValueError("empty contingency table")
        widths = {len(r) for r in self.counts}
        if len(widths) != 1:
            raise ValueError("ragged contingency table")
        if any(c < 0 for row in self.counts for c in row):
            raise ValueError("negative count in contingency table")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=np.float64)


@dataclass(frozen=True)
class VMeasureReport:
    homogeneity: float
    completeness: float
    v: float
    beta: float


@dataclass(frozen=True)
class MatchMetrics:
    """Match rates: m1-m3 over registered queries, m4 over non-registered ones."""

    m1: float | None
    m2: float | None
    m3: float | None
    m4: float | None
    n_nonregistered: int


@dataclass(frozen=True)
class VideoScore:
    precision: float
    recall: float
    f1: float
    n_frames: int
    n_exact_frames: int


def contingency(true_labels, assignments) -> ContingencyTable:
    """Build the class-vs-cluster count matrix from parallel label/assignment sequences."""
    true_labels = list(true_labels)
    assignments = list(assignments)
    if len(true_labels) != len(assignments):
        raise ValueError(
            f"length mismatch: {len(true_labels)} labels vs {len(assignments)} assignments"
        )
    if not true_labels:
        raise ValueError("empty input")
    cindex = {c: i for i, c in enumerate(sorted(set(true_labels)))}
    kindex = {k: j for j, k in enumerate(sorted(set(int(a) for a in assignments)))}
    counts = [[0] * len(kindex) for _ in cindex]
    for lab, a in zip(true_labels, assignments):
        counts[cindex[lab]][kindex[int(a)]] += 1
    return ContingencyTable(counts=tuple(tuple(r) for r in counts))


def _xlogx(p: np.ndarray) -> np.ndarray:
    """p * log(p) with the 0 log 0 = 0 convention."""
    out = np.zeros_like(p)
    mask = p > 0
    out[mask] = p[mask] * np.log(p[mask])
    return out


def v_measure(table: ContingencyTable, beta: float = 1.0) -> VMeasureReport:
    """Homogeneity, completeness, and their beta-weighted harmonic mean.

    Entropies use the natural logarithm; the scores are entropy ratios and so
    do not depend on the base. A single class forces h = 1 and a single
    cluster forces c = 1 (the respective normalizing entropies vanish).
    """
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    a = table.as_array()
    n = a.sum()
    if n <= 0:
        raise ValueError("contingency table has no points")

    class_totals = a.sum(axis=1)
    cluster_totals = a.sum(axis=0)

    h_c = float(-_xlogx(class_totals / n).sum())
    h_k = float(-_xlogx(cluster_totals / n).sum())

    def cond_entropy(totals: np.ndarray) -> float:
        # -sum over nonzero cells of (a/N) * log(a / marginal-total)
        mask = a > 0
        cells = a[mask]
        marg = np.broadcast_to(totals, a.shape)[mask]
        return float(-np.sum((cells / n) * np.log(cells / marg)))

    # H(C|K) and H(K|C)
    h_ck = cond_entropy(cluster_totals[None, :])
    h_kc = cond_entropy(class_totals[:, None])

    if h_ck <= 0:
        h = 1.0
    elif h_c == 0:
        h = 1.0
    else:
        h = 1.0 - h_ck / h_c
    if h_kc <= 0:
        c = 1.0
    elif h_k == 0:
        c = 1.0
    else:
        c = 1.0 - h_kc / h_k

    if h + c == 0:
        v = 0.0
    else:
        v = (1.0 + beta) * h * c / (beta * h + c)
    return VMeasureReport(homogeneity=h, completeness=c, v=v, beta=beta)


def match_metrics(registered_results, nonregistered_decisions) -> MatchMetrics:
    """Match rates from per-query outcomes.

    ``registered_results``: tuples of (true label, MatchDecision, matched
    cluster's majority label or None, matched cluster's label set or None).
    ``nonregistered_decisions``: MatchDecisions for queries of people absent
    from the store. A side left empty yields None for its metrics.
    """
    registered_results = list(registered_results)
    nonregistered_decisions = list(nonregistered_decisions)
    if not registered_results and not nonregistered_decisions:
        raise ValueError("both query sets are empty")

    m1 = m2 = m3 = None
    if registered_results:
        nv = len(registered_results)
        matched = 0
        same_label = 0
        label_present = 0
        for true_label, decision, matched_label, member_labels in registered_results:
            if not decision.matched:
                continue
            matched += 1
            if matched_label is not None and true_label == matched_label:
                same_label += 1
            if member_labels is not None and true_label in member_labels:
                label_present += 1
        m1 = matched / nv
        m2 = same_label / nv
        m3 = label_present / nv

    m4 = None
    if nonregistered_decisions:
        nu = len(nonregistered_decisions)
        m4 = sum(1 for d in nonregistered_decisions if not d.matched) / nu

    return MatchMetrics(
        m1=m1,
        m2=m2,
        m3=m3,
        m4=m4,
        n_nonregistered=len(nonregistered_decisions),
    )


def _by_frame(tags, what: str) -> dict[int, dict[str, str]]:
    frames: dict[int, dict[str, str]] = {}
    for frame_index, face_id, label in tags:
        faces = frames.setdefault(int(frame_index), {})
        if face_id in faces:
            raise ValueError(f"duplicate face id {face_id!r} in {what} frame {frame_index}")
        faces[face_id] = label
    return frames


def score_video(ground_truth, predictions) -> VideoScore:
    """Per-face precision/recall/F1 and exact-frame counts.

    Both inputs are sequences of (frame_index, face_id, label) with
    "non-registered" treated as an ordinary label. A prediction is correct
    when the same frame's ground truth has the same face id with the same
    label. A frame is an exact match when every ground-truth face is correct
    and no spurious prediction exists.
    """
    truth = _by_frame(ground_truth, "ground truth")
    preds = _by_frame(predictions, "predictions")

    total_truth = sum(len(v) for v in truth.values())
    total_preds = sum(len(v) for v in preds.values())
    frames = set(truth) | set(preds)
    correct = 0
    exact_frames = 0
    for frame_index in frames:
        t = truth.get(frame_index, {})
        p = preds.get(frame_index, {})
        frame_correct = sum(1 for fid, lab in p.items() if t.get(fid) == lab)
        correct += frame_correct
        if frame_correct == len(t) and len(p) == len(t):
            exact_frames += 1

    precision = correct / total_preds if total_preds else 0.0
    recall = correct / total_truth if total_truth else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return VideoScore(
        precision=precision,
        recall=recall,
        f1=f1,
        n_frames=len(frames),
        n_exact_frames=exact_frames,
    )
