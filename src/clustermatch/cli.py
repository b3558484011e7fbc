"""Command line interface: synth | cluster | label | match | evaluate | timeline."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import formats
from .clustering import KSearchConfig
from .evaluation import contingency, score_video, v_measure
from .matching import BEST_SILHOUETTE, CENTROID, DEFAULT_ALPHA, DEFAULT_THRESHOLD, MatchConfig
from .pipeline import NON_REGISTERED, build_labeled_store, recognize, run_clustering
from .synth import SynthConfig, generate_synthetic
from .timeline import DEFAULT_FPS, emit_timeline, format_segments, segments_to_records

_METHODS = {"centroid": CENTROID, "silhouette": BEST_SILHOUETTE}


def _add_clustering_flags(p: argparse.ArgumentParser, fixed_k: bool) -> None:
    """``--in`` and the K search's flags; with ``fixed_k``, ``--k`` and ``--auto-k`` too."""
    p.add_argument("--in", dest="input", required=True)
    if fixed_k:
        p.add_argument("--k", type=int)
        p.add_argument("--auto-k", action="store_true", help="pick k by silhouette score")
    p.add_argument("--patience", type=int, help="consecutive non-improvements before the K search stops")
    p.add_argument("--min-silhouette", type=float, help="below this best score, collapse to one cluster")
    p.add_argument("--max-clusters", type=int)


def _ksearch(args) -> KSearchConfig:
    """The K search the flags ask for; a flag left out takes ``KSearchConfig``'s default."""
    given = {"patience": args.patience, "min_silhouette": args.min_silhouette, "max_clusters": args.max_clusters}
    return KSearchConfig(**{name: value for name, value in given.items() if value is not None})


def cmd_synth(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
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
    clustering = run_clustering(embeddings, k=k, ksearch=_ksearch(args))
    formats.write_clustering(clustering, embeddings, args.out)
    print(f"clustered {len(embeddings)} embeddings into {clustering.num_clusters} clusters")
    return 0


def cmd_label(args) -> int:
    embeddings = formats.read_embeddings(args.input)
    if args.exclude_labels_file:
        # one label per line, as synth --nonregistered-out writes them: a label may hold spaces
        lines = Path(args.exclude_labels_file).read_text(encoding="utf-8").splitlines()
        excluded = {line for line in lines if line.strip()}
        embeddings = embeddings.select([label not in excluded for label in embeddings.true_labels])
    k = None if args.auto_k else args.k
    ksearch = _ksearch(args)
    store = build_labeled_store(embeddings, k=k, ksearch=ksearch)
    metadata = {
        "k": k,
        "auto_k": args.auto_k,
        "patience": ksearch.patience,
        "min_silhouette": ksearch.min_silhouette,
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
    result = recognize(embeddings, store, match_config=config, ksearch=_ksearch(args))
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
        formats.write_json(args.report, report)
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
    print(formats.write_json(args.out or None, out), end="")
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
        formats.write_json(args.json, segments_to_records(segments))
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
    _add_clustering_flags(p, fixed_k=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("label", help="build a labeled cluster store from an embedding file")
    _add_clustering_flags(p, fixed_k=True)
    p.add_argument(
        "--exclude-labels-file", help="identities to withhold from the store, one label per line (blank lines skipped)"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("match", help="recognize a video embedding file against a store")
    _add_clustering_flags(p, fixed_k=False)
    p.add_argument("--store", required=True)
    p.add_argument("--alpha", type=int, default=DEFAULT_ALPHA)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--embedding-method", choices=["centroid", "silhouette"], default="centroid")
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
    p.add_argument("--fps", type=float, default=DEFAULT_FPS)
    p.add_argument("--out", required=True)
    p.add_argument("--json", help="machine-readable segment file")
    p.set_defaults(func=cmd_timeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    # the subcommand's own parser, so that a usage error shows that subcommand's usage
    (commands,) = (action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    usage_error = commands.choices[args.command].error
    if unknown:
        usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    if args.command == "evaluate":
        if args.mode == "vmeasure" and not (args.input and args.clustering):
            usage_error("--mode vmeasure requires --in and --clustering")
        if args.mode == "video" and not (args.truth and args.pred):
            usage_error("--mode video requires --truth and --pred")
    if args.command in ("cluster", "label") and not args.auto_k and args.k is None:
        usage_error("either --k or --auto-k is required")
    try:
        return args.func(args)
    except (ValueError, OSError, formats.FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
