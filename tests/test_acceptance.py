"""Acceptance gate: ten end-of-build checks, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Each check carries its own tolerance and runtime budget.
"""
from __future__ import annotations

import dataclasses
import json
import time

import numpy as np
import pytest

from clustermatch.cli import main as cli_main
from clustermatch.clustering import estimate_clustering, ward_tree
from clustermatch.evaluation import contingency, match_metrics, score_video, v_measure
from clustermatch.formats import read_store, write_store
from clustermatch.geometry import as_matrix
from clustermatch.matching import MatchConfig, match_cluster, match_probabilities, sigma
from clustermatch.matching import LabeledClusterSet
from clustermatch.pipeline import NON_REGISTERED, build_labeled_store, recognize
from clustermatch.synth import SynthConfig, generate_synthetic, sample_more
from clustermatch.timeline import emit_timeline, expand_segments

from .oracles import brute_v_measure, ward_merge_cost
from .stores import store_of


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def harness():
    """Frozen open-set world: 50 registered + 10 withheld identities, dim 64."""
    ds = generate_synthetic(
        SynthConfig(
            num_identities=60,
            points_per_identity=30,
            dimension=64,
            blob_stddev=0.25,
            separation=10.0,
            seed=7,
            fraction_nonregistered=1 / 6,
        )
    )
    store = build_labeled_store(ds.registered(), k=None)
    video = sample_more(ds, 30, seed=99, video_id="query")
    return ds, store, video


def query_clusters(ds, video):
    """Per-identity query clusters (the identity's fresh points), plus the truth."""
    by_label: dict[str, list] = {}
    for e in video:
        by_label.setdefault(e.true_label, []).append(e.vector)
    return [
        (label, np.asarray(vectors), label in ds.registered_labels)
        for label, vectors in sorted(by_label.items())
    ]


def sweep_metrics(ds, store, video, alpha: int, scale: float = 1.0):
    """m1-m4 over per-identity query clusters at one truncation level."""
    config = MatchConfig(alpha=alpha)
    registered = []
    nonregistered = []
    argmaxes = []
    for label, vectors, is_registered in query_clusters(ds, video):
        decision = match_cluster(vectors * scale, store, config)
        argmaxes.append(decision.p_max)
        if is_registered:
            entry = decision.cluster_index  # None when nothing matched
            registered.append(
                (
                    label,
                    decision,
                    store.labels[entry] if decision.matched else None,
                    frozenset(store.histograms[entry]) if decision.matched else None,  # the entry's label set
                )
            )
        else:
            nonregistered.append(decision)
    return match_metrics(registered, nonregistered), argmaxes


def scaled_store(ds, scale: float) -> LabeledClusterSet:
    shrunk = [
        dataclasses.replace(e, vector=tuple(scale * x for x in e.vector))
        for e in ds.registered()
    ]
    return build_labeled_store(shrunk, k=None)


class TestAcceptance:
    def test_01_degenerate_contingency(self):
        t0 = time.perf_counter()
        # every point of two classes collapsed into a single cluster
        table = contingency(["A", "A", "A", "B", "B"], [0, 0, 0, 0, 0])
        rep = v_measure(table)
        elapsed = time.perf_counter() - t0
        ok = rep.homogeneity == 0.0 and rep.completeness == 1.0 and rep.v == 0.0 and elapsed < 1.0
        report(1, ok, f"h={rep.homogeneity} c={rep.completeness} V={rep.v} (exact), {elapsed:.3f}s < 1s")

    def test_02_v_measure_oracle(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 13))
            truth = [f"c{int(x)}" for x in rng.integers(0, int(rng.integers(1, 5)), size=n)]
            assigned = [int(x) for x in rng.integers(0, int(rng.integers(1, 5)), size=n)]
            rep = v_measure(contingency(truth, assigned))
            h, c, v = brute_v_measure(truth, assigned)
            worst = max(worst, abs(rep.homogeneity - h), abs(rep.completeness - c), abs(rep.v - v))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-9 and elapsed < 10.0
        report(2, ok, f"200 labelings, max |Δ|={worst:.2e} <= 1e-9, {elapsed:.2f}s < 10s")

    def test_03_ward_merge_oracle(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(303)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(3, 13))
            data = rng.normal(size=(n, int(rng.integers(1, 4))))
            tree = ward_tree(data)
            clusters = {i: [i] for i in range(n)}
            for merge in tree.merges:
                keys = sorted(clusters)
                costs = {
                    (keys[a], keys[b]): ward_merge_cost(
                        [data[i] for i in clusters[keys[a]]], [data[i] for i in clusters[keys[b]]]
                    )
                    for a in range(len(keys))
                    for b in range(a + 1, len(keys))
                }
                chosen = (min(merge.rep_a, merge.rep_b), max(merge.rep_a, merge.rep_b))
                worst = max(worst, abs(costs[chosen] - min(costs.values())))
                clusters[chosen[0]] += clusters[chosen[1]]
                del clusters[chosen[1]]
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-9 and elapsed < 30.0
        report(3, ok, f"50 instances, max merge-cost gap={worst:.2e} <= 1e-9, {elapsed:.2f}s < 30s")

    def test_04_silhouette_k_recovery(self):
        t0 = time.perf_counter()
        hits = 0
        total = 0
        for true_k in range(1, 9):
            for seed in range(20):
                ds = generate_synthetic(
                    SynthConfig(true_k, 10, 32, blob_stddev=1.0, separation=10.0, seed=seed)
                )
                cl = estimate_clustering(as_matrix(ds.embeddings))
                total += 1
                hits += cl.num_clusters == true_k
        elapsed = time.perf_counter() - t0
        ok = hits == total == 160 and elapsed < 60.0
        report(4, ok, f"K in 1..8 x 20 seeds: {hits}/{total} exact (incl. K=1 via 0.2 rule), {elapsed:.1f}s < 60s")

    def test_05_end_to_end_recognition(self, harness):
        t0 = time.perf_counter()
        ds, store, video = harness
        res = recognize(video, store, match_config=MatchConfig(alpha=5))

        truth = [
            (e.frame_index, e.id, e.true_label if e.true_label in ds.registered_labels else NON_REGISTERED)
            for e in video
        ]
        predictions = [(frame, fid, label) for fid, frame, label in res.face_labels]
        score = score_video(truth, predictions)

        metrics, _ = sweep_metrics(ds, store, video, alpha=5)
        elapsed = time.perf_counter() - t0
        ok = (
            score.precision >= 0.99
            and score.recall >= 0.99
            and metrics.m4 == 1.0
            and elapsed < 120.0
        )
        report(
            5,
            ok,
            f"precision={score.precision:.4f} recall={score.recall:.4f} (>= 0.99), "
            f"m4={metrics.m4} == 1.0 over {metrics.n_nonregistered} withheld identities, {elapsed:.1f}s < 120s",
        )

    def test_06_alpha_sweep_monotonicity(self, harness):
        t0 = time.perf_counter()
        ds, store, video = harness
        alphas = list(range(2, 11))
        prev_argmax = None
        prev_m1 = None
        prev_m4 = None
        monotone = True
        for alpha in alphas:
            metrics, argmaxes = sweep_metrics(ds, store, video, alpha)
            if prev_argmax is not None:
                monotone &= all(b <= a + 1e-9 for a, b in zip(prev_argmax, argmaxes))
                monotone &= metrics.m1 <= prev_m1 + 1e-9
                monotone &= metrics.m4 >= prev_m4 - 1e-9
            prev_argmax, prev_m1, prev_m4 = argmaxes, metrics.m1, metrics.m4

        # large similarities (vectors shrunk 20x) concentrate the softmax on the
        # two surviving terms at alpha=2, so every withheld identity gets matched
        tight_store = scaled_store(ds, 0.05)
        collapsed, _ = sweep_metrics(ds, tight_store, video, alpha=2, scale=0.05)
        elapsed = time.perf_counter() - t0
        ok = monotone and collapsed.m4 == 0.0 and elapsed < 60.0
        report(
            6,
            ok,
            f"alpha 2->10: argmax p non-increasing per query, m1 non-increasing, m4 non-decreasing "
            f"({'yes' if monotone else 'no'}); alpha=2 large-similarity collapse m4={collapsed.m4} == 0.0, "
            f"{elapsed:.1f}s < 60s",
        )

    def test_07_metric_ordering(self, harness):
        ds, store, video = harness
        ordered = True
        seen = []
        for alpha in (2, 3, 5, 8, 10):
            m, _ = sweep_metrics(ds, store, video, alpha)
            ordered &= m.m2 <= m.m3 <= m.m1
            seen.append((alpha, m.m1, m.m2, m.m3))
        report(7, ordered, "m2 <= m3 <= m1 on every harness run: " + " ".join(
            f"[a={a}: {m2:.3f}<={m3:.3f}<={m1:.3f}]" for a, m1, m2, m3 in seen
        ))

    def test_08_softmax_sigma_unit_values(self):
        import math

        p = match_probabilities([2.0, 0.0, 0.0])
        expected = math.exp(2) / (math.exp(2) + 2)
        softmax_ok = abs(p[0] - 0.7869860) <= 1e-6 and abs(p[0] - expected) <= 1e-12

        def toy_store(n):
            return store_of([(float(i),) for i in range(n)])

        uniform = sigma([0.25, 0.25, 0.25, 0.25], toy_store(4))
        boundary = sigma([0.5, 0.5], toy_store(2))
        ok = softmax_ok and not uniform.matched and not boundary.matched
        report(
            8,
            ok,
            f"e^2/(e^2+2)={p[0]:.7f} (|Δ|<=1e-6 of 0.7869860); uniform ties -> no_match; "
            f"p=0.5 boundary -> no_match",
        )

    def test_09_determinism_and_round_trip(self, harness, tmp_path):
        ds, store, video = harness

        def pipeline(tag: str) -> bytes:
            emb = tmp_path / f"{tag}.emb"
            sidecar = tmp_path / f"{tag}.withheld"
            built = tmp_path / f"{tag}.store.json"
            labels = tmp_path / f"{tag}.labels.tsv"
            args = [
                "synth", "--identities", "8", "--points", "10", "--dim", "32",
                "--stddev", "0.25", "--seed", "21", "--fraction-nonregistered", "0.25",
                "--out", str(emb), "--nonregistered-out", str(sidecar),
            ]
            assert cli_main(args) == 0
            assert cli_main([
                "label", "--in", str(emb), "--auto-k",
                "--exclude-labels-file", str(sidecar), "--out", str(built),
            ]) == 0
            assert cli_main([
                "match", "--in", str(emb), "--store", str(built), "--out", str(labels),
            ]) == 0
            return emb.read_bytes() + built.read_bytes() + labels.read_bytes()

        identical = pipeline("run1") == pipeline("run2")

        path = tmp_path / "round.json"
        write_store(store, path)
        reloaded, _ = read_store(path)
        direct = recognize(video, store)
        via_file = recognize(video, reloaded)
        unchanged = direct.face_labels == via_file.face_labels and all(
            a.decision == b.decision for a, b in zip(direct.outcomes, via_file.outcomes)
        )
        report(
            9,
            identical and unchanged,
            f"equal-seed pipelines byte-identical: {identical}; "
            f"store round-trip changes no decision: {unchanged}",
        )

    def test_10_timeline_round_trip(self):
        rng = np.random.default_rng(1010)
        ok = True
        for _ in range(100):
            tagged = {
                (f"id{int(rng.integers(0, 5))}", int(rng.integers(0, 60)))
                for _ in range(int(rng.integers(1, 40)))
            }
            segments = emit_timeline(sorted(tagged), fps=float(rng.choice([1.0, 24.0, 30.0])))
            ok &= expand_segments(segments) == tagged
        report(10, ok, "100 random frame-label sequences re-expand exactly")
