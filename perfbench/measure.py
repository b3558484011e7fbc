"""Runs one workload: sets it up several times, then runs and checks ops for the measuring window.

An op fails if it raises, a CLI call exits non-zero, its correctness check
fails, or its output files differ from the first op's (compared by sha256).
"""
from __future__ import annotations

import gc
import hashlib
import resource
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

from tracer import Snapshot, Tracer
from workloads import Prepared, Quality, run_cli

SETUP_REPS = 5  # setup_s is the median of this many set-ups
MIN_OPS = 2  # a trace run needs one traced and one untraced op

# name -> (unit, better); reported with --trace 0
END_TO_END = {
    "op_s_p50": ("s", "lower"),
    "faces_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "success_rate": ("ratio", "higher"),
    "f1": ("ratio", "higher"),
    "nonreg_reject_rate": ("ratio", "higher"),
    "v_measure": ("ratio", "higher"),
}

# name -> (unit, better); reported with --trace 1. Counts are per op and exact.
PER_LAYER = {
    "geometry.pairwise_distances.calls": ("count", "lower"),
    "geometry.pairwise_distances.self_s": ("s", "lower"),
    "geometry.pairwise_distances.bytes": ("bytes", "lower"),
    "clustering.silhouette.calls": ("count", "lower"),
    "clustering.silhouette.self_s": ("s", "lower"),
    "clustering.WardTree.cut.calls": ("count", "lower"),
    "clustering.WardTree.cut.self_s": ("s", "lower"),
    "clustering.k_tried": ("count", "lower"),
    "clustering.ward_tree.self_s": ("s", "lower"),
    "clustering.estimate_clustering.self_s": ("s", "lower"),
    "matching.match_cluster.calls": ("count", "lower"),
    "matching.similarity.calls": ("count", "lower"),
    "matching.matched_ratio": ("ratio", "higher"),
    "matching.self_s": ("s", "lower"),
    "formats.read_embeddings.s": ("s", "lower"),
    "formats.read.s": ("s", "lower"),
    "formats.write.s": ("s", "lower"),
    "formats.bytes_read": ("bytes", "lower"),
    "formats.bytes_written": ("bytes", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "evaluation.score_video.s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

_READS = ("formats.read_embeddings", "formats.read_store", "formats.read_face_labels")
_WRITES = ("formats.write_store", "formats.write_face_labels", "formats._atomic_write")


@dataclass
class Op:
    wall: float
    traced: bool
    quality: Quality
    problems: list[str]
    hashes: dict[str, str]
    layers: dict[str, float] = field(default_factory=dict)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    setup_times: list[float]
    ops: list[Op]
    absent: list[str]

    def to_json(self, spec: dict[str, tuple[str, str]]) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name], "unit": unit} for name, (unit, _) in spec.items()},
        }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _size(paths) -> int:
    return sum(p.stat().st_size for p in paths if p.exists())


def layer_metrics(op: Snapshot, check: Snapshot, wall: float, prep: Prepared) -> dict[str, float]:
    """Per-layer figures of one traced op; `check` is what its correctness check recorded."""

    def self_s(names) -> float:
        return sum(op.stat(n).self_s for n in names)

    def module_self_s(module: str) -> float:
        return sum(s.self_s for n, s in op.stats.items() if n.startswith(module + "."))

    main = op.stat("cli.main")
    match = op.stat("matching.match_cluster")
    return {
        "geometry.pairwise_distances.calls": op.stat("geometry.pairwise_distances").calls,
        "geometry.pairwise_distances.self_s": op.stat("geometry.pairwise_distances").self_s,
        "geometry.pairwise_distances.bytes": op.extra["pairwise_bytes"],
        "clustering.silhouette.calls": op.stat("clustering.silhouette").calls,
        "clustering.silhouette.self_s": op.stat("clustering.silhouette").self_s,
        "clustering.WardTree.cut.calls": op.stat("clustering.WardTree.cut").calls,
        "clustering.WardTree.cut.self_s": op.stat("clustering.WardTree.cut").self_s,
        "clustering.k_tried": op.edges[("clustering.estimate_clustering", "clustering.silhouette")],
        "clustering.ward_tree.self_s": op.stat("clustering.ward_tree").self_s,
        "clustering.estimate_clustering.self_s": op.stat("clustering.estimate_clustering").self_s,
        "matching.match_cluster.calls": match.calls,
        "matching.similarity.calls": op.stat("matching.similarity").calls,
        "matching.matched_ratio": op.extra["matched"] / match.calls if match.calls else 0.0,
        "matching.self_s": module_self_s("matching"),
        "formats.read_embeddings.s": op.stat("formats.read_embeddings").self_s,
        "formats.read.s": self_s(_READS),
        "formats.write.s": self_s(_WRITES),
        "formats.bytes_read": _size(prep.inputs),
        "formats.bytes_written": _size(prep.outputs),
        "pipeline.self_s": module_self_s("pipeline"),
        "cli.main.self_s": main.self_s,
        "evaluation.score_video.s": check.stat("evaluation.score_video").total_s,
        "trace.coverage": (main.total_s - main.self_s) / wall,
    }


def run_op(workload, prep: Prepared, tracer: Tracer | None, reference: dict[str, str] | None) -> Op:
    for path in prep.outputs:
        path.unlink(missing_ok=True)
    problems: list[str] = []
    quality = Quality()
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        start = perf_counter()
        try:
            for argv in prep.commands:
                code = run_cli(argv)
                if code != 0:
                    problems.append(f"`{argv[0]}` exited with code {code}")
                    break
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            traceback.print_exc()
            problems.append(f"`{argv[0]}` raised {exc!r}")
        wall = perf_counter() - start
        op_trace = tracer.take() if tracer is not None else None
        if not problems:
            try:
                quality = workload.check(prep)
            except Exception as exc:  # unreadable or missing outputs fail the op
                traceback.print_exc()
                problems.append(f"check raised {exc!r}")
            problems.extend(quality.problems)
        check_trace = tracer.take() if tracer is not None else None
    finally:
        if tracer is not None:
            tracer.uninstall()
    hashes = {p.name: _sha256(p) for p in prep.outputs if p.exists()}
    if reference is not None and hashes != reference:
        problems.append("output files differ from the first op's")
    op = Op(wall=wall, traced=tracer is not None, quality=quality, problems=problems, hashes=hashes)
    if tracer is not None:
        op.layers = layer_metrics(op_trace, check_trace, wall, prep)
    return op


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    """Set the workload up SETUP_REPS times, then run ops until the next one would end
    after `seconds` (and at least MIN_OPS). With `trace`, every second op is traced."""
    setup_times = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = perf_counter()
        prep = workload.setup(seed, workdir)
        setup_times.append(perf_counter() - start)

    tracer = Tracer() if trace else None
    ops: list[Op] = []
    window = perf_counter()
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        ops.append(run_op(workload, prep, tracer if traced else None, ops[0].hashes if ops else None))
        elapsed = perf_counter() - window
        if len(ops) >= MIN_OPS and elapsed + median(o.wall for o in ops) > seconds:
            break

    failed = sum(1 for o in ops if o.problems)
    untraced = [o.wall for o in ops if not o.traced]
    quality = ops[0].quality
    metrics = {
        "op_s_p50": median(untraced),
        "faces_per_s": len(prep.faces) * len(untraced) / sum(untraced),
        "setup_s": median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1.0 - failed / len(ops),
        "f1": quality.f1,
        "nonreg_reject_rate": quality.nonreg_reject_rate,
        "v_measure": quality.v_measure,
    }
    if tracer is not None:
        traced_ops = [o for o in ops if o.traced]
        for name, (unit, _) in PER_LAYER.items():
            if name == "trace.overhead_ratio":
                metrics[name] = median(o.wall for o in traced_ops) / metrics["op_s_p50"]
            elif unit in ("count", "bytes"):
                metrics[name] = traced_ops[0].layers[name]
            else:
                metrics[name] = median(o.layers[name] for o in traced_ops)
    return Result(
        correct=failed == 0,
        attempted=len(ops),
        failed=failed,
        metrics=metrics,
        setup_times=setup_times,
        ops=ops,
        absent=list(tracer.absent) if tracer is not None else [],
    )
