import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

EXPECTED = sorted([
    "faces.emb", "withheld.txt", "cluster-auto-k.json", "cluster-k3.json", "store-k4.json", "store.json",
    "labels-centroid.tsv", "report-centroid.json", "labels-silhouette.tsv", "report-silhouette.json",
    "evaluate-video.json", "evaluate-vmeasure.json", "segments.tsv", "segments.json",
])


def gated_outputs() -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    argv = [sys.executable, str(REPO / "tools" / "gated_outputs.py"), "--identities", "5", "--points", "6", "--dim", "8"]
    return subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout.splitlines()


def test_lists_every_gated_file_with_its_sha256_and_repeats():
    lines = gated_outputs()
    assert [line.split(" ")[0] for line in lines] == EXPECTED
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    assert gated_outputs() == lines
