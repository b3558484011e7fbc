"""End-to-end wiring: build a labeled store from embeddings, then recognize
the faces of a frame-tagged embedding set against it."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .clustering import (
    Clustering,
    KSearchConfig,
    checked_distances,
    estimate_clustering,
    silhouette,
    ward_tree,
)
from .geometry import EmbeddingSet, as_matrix
from .matching import (
    BEST_SILHOUETTE,
    LabeledClusterSet,
    MatchConfig,
    MatchDecision,
    best_silhouette_members,
    majority_label,
    make_cluster_embedding,
    match_clusters,
)

NON_REGISTERED = "non-registered"

# the benchmark (perfbench/tracer.py) times the representative choice under this name
_representatives = best_silhouette_members


def run_clustering(embeddings, k: int | None = None, ksearch: KSearchConfig = KSearchConfig()) -> Clustering:
    """Cluster an embedding set by Ward with a fixed k, or search for k when k is None;
    a clustering of two or more clusters comes back with its silhouette report."""
    mat = as_matrix(embeddings)
    if k is None:
        return estimate_clustering(mat, config=ksearch)
    n = mat.shape[0]
    if not 1 <= k <= n:  # before the n x n matrix is built
        raise ValueError(f"k={k} out of range [1, {n}]")
    dist = checked_distances(mat)
    clustering = ward_tree(mat, dist=dist).cut(k)
    if clustering.num_clusters < 2:
        return clustering
    return replace(clustering, silhouette=silhouette(mat, clustering, dist=dist))


def build_labeled_store(
    embeddings, k: int | None = None, ksearch: KSearchConfig = KSearchConfig()
) -> LabeledClusterSet:
    """Cluster the embeddings and label every cluster by majority vote of its
    members' true_label fields. Both cluster-embedding variants are precomputed
    for each entry.
    """
    faces = EmbeddingSet.of(embeddings)
    mat = as_matrix(faces)
    clustering = run_clustering(mat, k=k, ksearch=ksearch)
    groups = clustering.member_groups()
    reps = _representatives(mat, clustering)

    labels, member_ids, histograms = [], [], []
    for members in groups:
        members = members.tolist()
        member_labels = [faces.true_labels[i] for i in members]
        if any(lab is None for lab in member_labels):
            raise ValueError("embeddings lack true labels")
        label, _ = majority_label(member_labels)
        labels.append(label)
        member_ids.append(tuple(faces.ids[i] for i in members))
        histograms.append(dict(Counter(member_labels)))
    return LabeledClusterSet(
        labels=labels,
        member_ids=member_ids,
        best_silhouette_ids=[faces.ids[r] for r in reps],
        histograms=histograms,
        centroids=np.stack([make_cluster_embedding(mat[members]) for members in groups]),
        best_silhouette_vectors=mat[reps],
    )


@dataclass(frozen=True)
class ClusterOutcome:
    """One video cluster and what it matched."""

    cluster_index: int
    member_ids: tuple[str, ...]
    decision: MatchDecision
    label: str  # decision label, or the non-registered marker


@dataclass(frozen=True)
class RecognitionResult:
    clustering: Clustering
    outcomes: tuple[ClusterOutcome, ...]
    face_labels: tuple[tuple[str, int | None, str], ...]  # (embedding id, frame_index, label)


def recognize(
    video_embeddings,
    store: LabeledClusterSet,
    match_config: MatchConfig = MatchConfig(),
    ksearch: KSearchConfig = KSearchConfig(),
) -> RecognitionResult:
    """Cluster a video's faces (K unknown), match each cluster against the store,
    and propagate every cluster's decision to its member faces."""
    faces = EmbeddingSet.of(video_embeddings)
    mat = as_matrix(faces)
    if mat.shape[1] != store.dimension:
        raise ValueError(f"video dimension {mat.shape[1]} != store dimension {store.dimension}")

    clustering = run_clustering(mat, ksearch=ksearch)
    groups = clustering.member_groups()
    # with one cluster the silhouette is undefined and the query falls back to its centroid
    if match_config.cluster_embedding_method == BEST_SILHOUETTE and clustering.num_clusters >= 2:
        queries = mat[_representatives(mat, clustering)]
    else:
        queries = np.stack([make_cluster_embedding(mat[members]) for members in groups])
    decisions = match_clusters(queries, store, match_config)
    outcomes = [
        ClusterOutcome(
            cluster_index=c,
            member_ids=tuple(faces.ids[i] for i in members.tolist()),
            decision=decision,
            label=decision.label if decision.matched else NON_REGISTERED,
        )
        for c, (members, decision) in enumerate(zip(groups, decisions))
    ]

    by_cluster = {o.cluster_index: o.label for o in outcomes}
    face_labels = tuple(
        (face_id, frame, by_cluster[c])
        for face_id, frame, c in zip(faces.ids, faces.frame_indices, clustering.assignments)
    )
    return RecognitionResult(
        clustering=clustering,
        outcomes=tuple(outcomes),
        face_labels=face_labels,
    )
