"""Small stores for tests, built from columns."""
from __future__ import annotations

import numpy as np

from clustermatch.matching import LabeledClusterSet


def store_of(centroids, best_silhouette_vectors=None, labels=None) -> LabeledClusterSet:
    """A store whose entry i has row i of ``centroids`` and of ``best_silhouette_vectors``
    (the centroids when not given) and label ``labels[i]`` (p<i> when not given); its
    member ids (one, m<i>) and its empty histogram are made up."""
    rows = np.asarray(centroids, dtype=np.float64)
    size = len(rows)
    return LabeledClusterSet(
        labels=[f"p{i}" for i in range(size)] if labels is None else labels,
        member_ids=[(f"m{i}",) for i in range(size)],
        best_silhouette_ids=[f"m{i}" for i in range(size)],
        histograms=[{}] * size,
        centroids=rows,
        best_silhouette_vectors=rows if best_silhouette_vectors is None else best_silhouette_vectors,
    )
