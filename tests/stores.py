"""Small stores for tests, built from columns."""
from __future__ import annotations

import numpy as np

from clustermatch.matching import LabeledClusterSet


def store_of(centroids, best_silhouette_vectors=None, labels=None) -> LabeledClusterSet:
    """A store whose entry i has row i of ``centroids`` and of ``best_silhouette_vectors``
    (the centroids when not given) and label ``labels[i]`` (p<i> when not given); its
    one member id, m<i>, and its histogram, one count of its label, are made up."""
    rows = np.asarray(centroids, dtype=np.float64)
    size = len(rows)
    labels = [f"p{i}" for i in range(size)] if labels is None else labels
    return LabeledClusterSet(
        labels=labels,
        member_ids=[(f"m{i}",) for i in range(size)],
        best_silhouette_ids=[f"m{i}" for i in range(size)],
        histograms=[{label: 1} for label in labels],
        centroids=rows,
        best_silhouette_vectors=rows if best_silhouette_vectors is None else best_silhouette_vectors,
    )
