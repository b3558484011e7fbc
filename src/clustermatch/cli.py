"""Command line interface: synth | cluster | label | match | evaluate | timeline."""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import formats
from .clustering import KSearchConfig
from .evaluation import contingency, score_video, v_measure
from .matching import BEST_SILHOUETTE, CENTROID, MatchConfig
from .pipeline import NON_REGISTERED, build_labeled_store, recognize, run_clustering
from .synth import SynthConfig, generate_synthetic
from .timeline import emit_timeline, format_segments, segments_to_records

_METHODS = {"centroid": CENTROID, "silhouette": BEST_SILHOUETTE}


def _add_ksearch_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--patience", type=int, default=5, help="consecutive non-improvements before the K search stops")
    p.add_argument("--min-silhouette", type=float, default=0.2, help="below this best score, collapse to one cluster")
    p.add_argument("--max-clusters", type=int, default=None)


def _ksearch(args) -> KSearchConfig:
    return KSearchConfig(
        patience=args.patience,
        min_silhouette=args.min_silhouette,
        max_clusters=args.max_clusters,
    )


def cmd_synth(args) -> int:
    config = SynthConfig(
        num_identities=args.identities,
        points_per_identity=args.points,
        dimension=args.dim,
        blob_stddev=args.stddev,
        separation=args.separation,
        seed=args.seed,
        fraction_nonregistered=args.fraction_nonregistered,
    )
    dataset = generate_synthetic(config, video_id=args.video_id)
    formats.write_embeddings(dataset.embeddings, args.out)
    if args.nonregistered_out:
        formats._atomic_write(
            args.nonregistered_out, "".join(f"{lab}\n" for lab in sorted(dataset.nonregistered_labels))
        )
    print(f"wrote {len(dataset.embeddings)} embeddings ({len(dataset.nonregistered_labels)} non-registered identities) to {args.out}")
    return 0


def cmd_cluster(args) -> int:
    embeddings = formats.read_embeddings(args.input)
    k = None if args.auto_k else args.k
    algo = {"kmeans": "kmeans", "ward": "ward", "ap": "affinity_propagation"}[args.algo]
    clustering = run_clustering(embeddings, algorithm=algo, k=k, ksearch=_ksearch(args), seed=args.seed)
    score = clustering.silhouette.score if clustering.silhouette is not None else None
    formats.write_clustering(clustering, embeddings, score, args.out)
    print(f"clustered {len(embeddings)} embeddings into {clustering.num_clusters} clusters")
    return 0


def cmd_label(args) -> int:
    embeddings = formats.read_embeddings(args.input)
    if args.exclude_labels_file:
        excluded = set(Path(args.exclude_labels_file).read_text(encoding="utf-8").split())
        embeddings = embeddings.select([label not in excluded for label in embeddings.true_labels])
    k = None if args.auto_k else args.k
    store = build_labeled_store(
        embeddings,
        algorithm={"kmeans": "kmeans", "ward": "ward"}[args.algo],
        k=k,
        ksearch=_ksearch(args),
        seed=args.seed,
    )
    metadata = {
        "algorithm": args.algo,
        "k": k,
        "auto_k": args.auto_k,
        "seed": args.seed,
        "patience": args.patience,
        "min_silhouette": args.min_silhouette,
    }
    formats.write_store(store, args.out, metadata=metadata)
    print(f"wrote store with {len(store)} labeled clusters to {args.out}")
    return 0


def cmd_match(args) -> int:
    embeddings = formats.read_embeddings(args.input)
    store, _ = formats.read_store(args.store)
    config = MatchConfig(
        alpha=args.alpha,
        probability_threshold=args.threshold,
        cluster_embedding_method=_METHODS[args.embedding_method],
    )
    result = recognize(
        embeddings,
        store,
        match_config=config,
        ksearch=_ksearch(args),
        algorithm=args.algo,
        seed=args.seed,
    )
    formats.write_face_labels(result.face_labels, args.out)
    if args.report:
        report = {
            "num_clusters": result.clustering.num_clusters,
            "clusters": [
                {
                    "cluster_index": o.cluster_index,
                    "label": o.label,
                    "matched": o.decision.matched,
                    "probability": o.decision.probability,
                    "size": len(o.member_ids),
                }
                for o in result.outcomes
            ],
        }
        formats._atomic_write(args.report, json.dumps(report, indent=1) + "\n")
    matched = sum(1 for o in result.outcomes if o.decision.matched)
    print(
        f"labeled {len(result.face_labels)} faces across {result.clustering.num_clusters} clusters "
        f"({matched} matched, {result.clustering.num_clusters - matched} non-registered)"
    )
    return 0


def cmd_evaluate(args) -> int:
    if args.mode == "vmeasure":
        embeddings = formats.read_embeddings(args.input)
        assignment_by_id, _ = formats.read_clustering(args.clustering)
        truth = []
        assigned = []
        for face_id, label in zip(embeddings.ids, embeddings.true_labels):
            if label is None:
                raise ValueError(f"embedding {face_id} has no true label")
            if face_id not in assignment_by_id:
                raise ValueError(f"embedding {face_id} missing from clustering file")
            truth.append(label)
            assigned.append(assignment_by_id[face_id])
        report = v_measure(contingency(truth, assigned), beta=args.beta)
        out = {
            "homogeneity": report.homogeneity,
            "completeness": report.completeness,
            "v_measure": report.v,
            "beta": report.beta,
        }
    else:  # video
        truth_emb = formats.read_embeddings(args.truth)
        predictions = formats.read_face_labels(args.pred)
        gt = []
        for face_id, frame, label in zip(truth_emb.ids, truth_emb.frame_indices, truth_emb.true_labels):
            if frame is None:
                raise ValueError(f"embedding {face_id} has no frame index")
            gt.append((frame, face_id, label or NON_REGISTERED))
        pred_tags = []
        for face_id, frame, label in predictions:
            if frame is None:
                raise ValueError(f"prediction for {face_id} has no frame index")
            pred_tags.append((frame, face_id, label))
        score = score_video(gt, pred_tags)
        out = {
            "precision": score.precision,
            "recall": score.recall,
            "f1": score.f1,
            "frames": score.n_frames,
            "exact_match_frames": score.n_exact_frames,
        }
    text = json.dumps(out, indent=1)
    if args.out:
        formats._atomic_write(args.out, text + "\n")
    print(text)
    return 0


def cmd_timeline(args) -> int:
    rows = formats.read_face_labels(args.labels)
    tagged = []
    for face_id, frame, label in rows:
        if frame is None:
            raise ValueError(f"face {face_id} has no frame index; timeline needs frame metadata")
        tagged.append((label, frame))
    segments = emit_timeline(tagged, fps=args.fps)
    formats._atomic_write(args.out, format_segments(segments))
    if args.json:
        formats._atomic_write(args.json, json.dumps(segments_to_records(segments), indent=1) + "\n")
    print(f"wrote {len(segments)} segments to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="clustermatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic Gaussian-blob embedding file")
    p.add_argument("--identities", type=int, required=True)
    p.add_argument("--points", type=int, required=True, help="points per identity")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--stddev", type=float, default=1.0)
    p.add_argument("--separation", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fraction-nonregistered", type=float, default=0.0)
    p.add_argument("--video-id", default="synth")
    p.add_argument("--out", required=True)
    p.add_argument("--nonregistered-out", help="write the withheld identity labels here")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("cluster", help="cluster an embedding file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--algo", choices=["kmeans", "ward", "ap"], default="ward")
    p.add_argument("--k", type=int)
    p.add_argument("--auto-k", action="store_true", help="pick k by silhouette score")
    p.add_argument("--seed", type=int, default=0)
    _add_ksearch_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("label", help="build a labeled cluster store from an embedding file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--algo", choices=["kmeans", "ward"], default="ward")
    p.add_argument("--k", type=int)
    p.add_argument("--auto-k", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    _add_ksearch_flags(p)
    p.add_argument("--exclude-labels-file", help="identities to withhold from the store")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("match", help="recognize a video embedding file against a store")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--alpha", type=int, default=5)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--embedding-method", choices=["centroid", "silhouette"], default="centroid")
    p.add_argument("--algo", choices=["kmeans", "ward"], default="ward")
    p.add_argument("--seed", type=int, default=0)
    _add_ksearch_flags(p)
    p.add_argument("--out", required=True, help="per-face label file")
    p.add_argument("--report", help="per-cluster decision report (JSON)")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("evaluate", help="score a clustering or a recognition run")
    p.add_argument("--mode", choices=["vmeasure", "video"], required=True)
    p.add_argument("--in", dest="input", help="embedding file with true labels (vmeasure)")
    p.add_argument("--clustering", help="clustering file (vmeasure)")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--truth", help="embedding file with true labels and frames (video)")
    p.add_argument("--pred", help="face label file (video)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("timeline", help="emit per-identity timeline segments")
    p.add_argument("--labels", required=True, help="face label file with frame indices")
    p.add_argument("--fps", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.add_argument("--json", help="machine-readable segment file")
    p.set_defaults(func=cmd_timeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "evaluate":
        if args.mode == "vmeasure" and not (args.input and args.clustering):
            parser.error("--mode vmeasure requires --in and --clustering")
        if args.mode == "video" and not (args.truth and args.pred):
            parser.error("--mode video requires --truth and --pred")
    if args.command in ("cluster", "label") and not args.auto_k and args.k is None and args.algo != "ap":
        parser.error("either --k or --auto-k is required")
    try:
        return args.func(args)
    except (ValueError, OSError, formats.FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
