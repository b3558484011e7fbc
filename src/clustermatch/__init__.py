"""Open-set identity recognition over embedding vectors via cluster matching."""

from .clustering import (
    Clustering,
    KSearchConfig,
    SilhouetteReport,
    estimate_clustering,
    silhouette,
)
from .evaluation import (
    ContingencyTable,
    MatchMetrics,
    VideoScore,
    VMeasureReport,
    contingency,
    match_metrics,
    score_video,
    v_measure,
)
from .geometry import Embedding, EmbeddingSet, pairwise_distances, rmse
from .matching import (
    BEST_SILHOUETTE,
    CENTROID,
    LabeledClusterSet,
    MatchConfig,
    MatchDecision,
    best_silhouette_members,
    majority_label,
    make_cluster_embedding,
    match_cluster,
    match_clusters,
    match_probabilities,
    sigma,
    similarity,
    truncate_top_alpha,
)
from .pipeline import NON_REGISTERED, RecognitionResult, build_labeled_store, recognize
from .synth import SynthConfig, SyntheticDataset, generate_synthetic, sample_more
from .timeline import TimelineSegment, emit_timeline, expand_segments

__version__ = "0.1.0"

__all__ = [
    "BEST_SILHOUETTE",
    "CENTROID",
    "Clustering",
    "ContingencyTable",
    "Embedding",
    "EmbeddingSet",
    "KSearchConfig",
    "LabeledClusterSet",
    "MatchConfig",
    "MatchDecision",
    "MatchMetrics",
    "NON_REGISTERED",
    "RecognitionResult",
    "SilhouetteReport",
    "SynthConfig",
    "SyntheticDataset",
    "TimelineSegment",
    "VideoScore",
    "VMeasureReport",
    "best_silhouette_members",
    "build_labeled_store",
    "contingency",
    "emit_timeline",
    "estimate_clustering",
    "expand_segments",
    "generate_synthetic",
    "majority_label",
    "make_cluster_embedding",
    "match_cluster",
    "match_clusters",
    "match_metrics",
    "match_probabilities",
    "pairwise_distances",
    "recognize",
    "rmse",
    "sample_more",
    "score_video",
    "sigma",
    "silhouette",
    "similarity",
    "truncate_top_alpha",
    "v_measure",
]
