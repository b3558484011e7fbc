"""End-to-end wiring: build a labeled store from embeddings, then recognize
the faces of a frame-tagged embedding set against it."""
from __future__ import annotations

from dataclasses import dataclass, replace

from .clustering import (
    Clustering,
    KSearchConfig,
    affinity_propagation,
    agglomerative_ward,
    checked_distances,
    estimate_clustering,
    kmeans,
    silhouette,
)
from .geometry import as_matrix
from .matching import (
    BEST_SILHOUETTE,
    LabeledCluster,
    LabeledClusterSet,
    MatchConfig,
    MatchDecision,
    best_silhouette_members,
    majority_label,
    match_cluster,
)

NON_REGISTERED = "non-registered"

# the benchmark (perfbench/tracer.py) times the representative choice under this name
_representatives = best_silhouette_members


def run_clustering(
    embeddings,
    algorithm: str = "ward",
    k: int | None = None,
    ksearch: KSearchConfig = KSearchConfig(),
    seed: int = 0,
) -> Clustering:
    """Cluster an embedding set with a fixed k, or search for k when k is None;
    a clustering of two or more clusters comes back with its silhouette report."""
    mat = as_matrix(embeddings)
    dist = None
    if algorithm == "affinity_propagation":
        clustering = affinity_propagation(mat)
    elif k is None:
        return estimate_clustering(mat, algorithm=algorithm, config=ksearch, seed=seed)
    elif algorithm == "ward":
        dist = checked_distances(mat, algorithm)
        clustering = agglomerative_ward(mat, k, dist=dist)
    elif algorithm == "kmeans":
        dist = checked_distances(mat, algorithm)
        clustering = kmeans(mat, k, seed=seed)
    else:
        raise ValueError(f"unknown clustering algorithm {algorithm!r}")
    if clustering.num_clusters < 2:
        return clustering
    return replace(clustering, silhouette=silhouette(mat, clustering, dist=dist))


def build_labeled_store(
    embeddings,
    algorithm: str = "ward",
    k: int | None = None,
    ksearch: KSearchConfig = KSearchConfig(),
    seed: int = 0,
    cluster_labels: list[str] | None = None,
) -> LabeledClusterSet:
    """Cluster the embeddings and label every cluster.

    Labels come from the embeddings' true_label fields by majority vote, or
    from ``cluster_labels`` (one label per cluster index) when supplied.
    Both cluster-embedding variants are precomputed for each entry.
    """
    embeddings = list(embeddings)
    if not embeddings:
        raise ValueError("cannot build a store from an empty embedding set")
    mat = as_matrix(embeddings)
    clustering = run_clustering(mat, algorithm=algorithm, k=k, ksearch=ksearch, seed=seed)
    reps = _representatives(mat, clustering)

    entries = []
    for c in range(clustering.num_clusters):
        members = clustering.members(c)
        member_labels = [embeddings[i].true_label for i in members]
        if cluster_labels is not None:
            if len(cluster_labels) != clustering.num_clusters:
                raise ValueError(
                    f"got {len(cluster_labels)} labels for {clustering.num_clusters} clusters"
                )
            label = cluster_labels[c]
            histogram = {label: len(members)}
        else:
            if any(lab is None for lab in member_labels):
                raise ValueError(
                    "embeddings lack true labels; pass cluster_labels to label the clusters"
                )
            label, _ = majority_label(member_labels)
            histogram = {}
            for lab in member_labels:
                histogram[lab] = histogram.get(lab, 0) + 1
        rep = reps[c]
        entries.append(
            LabeledCluster(
                label=label,
                member_ids=tuple(embeddings[i].id for i in members),
                centroid=tuple(float(x) for x in mat[members].mean(axis=0)),
                best_silhouette_id=embeddings[rep].id,
                best_silhouette_vector=tuple(float(x) for x in mat[rep]),
                label_histogram=histogram,
            )
        )
    return LabeledClusterSet(entries=tuple(entries), dimension=mat.shape[1])


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
    algorithm: str = "ward",
    seed: int = 0,
) -> RecognitionResult:
    """Cluster a video's faces (K unknown), match each cluster against the store,
    and propagate every cluster's decision to its member faces."""
    embeddings = list(video_embeddings)
    if not embeddings:
        raise ValueError("empty video embedding set")
    mat = as_matrix(embeddings)
    if mat.shape[1] != store.dimension:
        raise ValueError(f"video dimension {mat.shape[1]} != store dimension {store.dimension}")

    clustering = run_clustering(mat, algorithm=algorithm, ksearch=ksearch, seed=seed)
    # with one cluster the silhouette is undefined and the query falls back to its centroid
    reps = None
    if match_config.cluster_embedding_method == BEST_SILHOUETTE and clustering.num_clusters >= 2:
        reps = _representatives(mat, clustering)
    outcomes = []
    for c in range(clustering.num_clusters):
        members = clustering.members(c)
        query = mat[members] if reps is None else mat[[reps[c]]]
        decision = match_cluster(query, store, match_config)
        outcomes.append(
            ClusterOutcome(
                cluster_index=c,
                member_ids=tuple(embeddings[i].id for i in members),
                decision=decision,
                label=decision.label if decision.matched else NON_REGISTERED,
            )
        )

    by_cluster = {o.cluster_index: o.label for o in outcomes}
    face_labels = tuple(
        (e.id, e.frame_index, by_cluster[clustering.assignments[i]])
        for i, e in enumerate(embeddings)
    )
    return RecognitionResult(
        clustering=clustering,
        outcomes=tuple(outcomes),
        face_labels=face_labels,
    )
