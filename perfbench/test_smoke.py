"""Smoke test of the benchmark on tiny worlds; runs in a few seconds.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import measure  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from clustermatch import cli, clustering, matching  # noqa: E402

TINY = {
    "recognize-4k": dict(identities=12, video_faces=6, enrol_faces=4),
    "enroll-3k": dict(identities=12, faces_per_identity=6),
    "match-5k-store": dict(store_entries=200, store_members=3, query_identities=12, query_withheld=2, query_faces=4),
}


def tiny(name: str):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", measure.END_TO_END), ("per_layer", measure.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_is_correct_and_reports_every_metric(name, trace, tmp_path):
    originals = (cli.main, clustering.silhouette, matching.silhouette, clustering.WardTree.cut, matching.similarity)
    result = measure.run_workload(tiny(name), seed=5, seconds=0.1, trace=trace, workdir=tmp_path / "w")
    assert (cli.main, clustering.silhouette, matching.silhouette, clustering.WardTree.cut, matching.similarity) == originals
    assert result.correct, [op.problems for op in result.ops]
    assert result.attempted >= measure.MIN_OPS
    spec = measure.PER_LAYER if trace else measure.END_TO_END
    doc = json.loads(json.dumps(result.to_json(spec)))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"} and set(doc["metrics"]) == set(spec)
    values = {k: v["value"] for k, v in doc["metrics"].items()}
    if not trace:
        assert values["f1"] == values["nonreg_reject_rate"] == values["v_measure"] == 1.0
        assert all(v > 0 for v in values.values())


def test_same_seed_gives_the_same_inputs(tmp_path):
    w = tiny("match-5k-store")
    a, b = w.setup(7, _mkdir(tmp_path / "a")), w.setup(7, _mkdir(tmp_path / "b"))
    for x, y in zip(a.inputs, b.inputs):
        assert x.read_bytes() == y.read_bytes()
    c = w.setup(8, _mkdir(tmp_path / "c"))
    assert c.inputs[0].read_bytes() != a.inputs[0].read_bytes()


def test_failing_op_is_counted(tmp_path):
    w = tiny("enroll-3k")
    prep = w.setup(1, _mkdir(tmp_path / "w"))
    prep.commands = [[*prep.commands[0][:-1], str(tmp_path / "missing" / "store.json")]]
    op = measure.run_op(w, prep, None, None)
    assert op.problems


def test_check_catches_wrong_labels(tmp_path):
    w = tiny("match-5k-store")
    prep = w.setup(1, _mkdir(tmp_path / "w"))
    assert not measure.run_op(w, prep, None, None).problems
    labels = prep.workdir / "labels.tsv"
    header, *rows = labels.read_text().splitlines()
    labels.write_text("\n".join([header] + [r.rsplit("\t", 1)[0] + "\tnon-registered" for r in rows]) + "\n")
    assert w.check(prep).problems


def test_absent_target_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracer, "SPANS", tracer.SPANS + (("matching", "no_such_function"),))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["matching.no_such_function"]


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "enroll-3k", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def _mkdir(path: Path) -> Path:
    path.mkdir(parents=True)
    return path
