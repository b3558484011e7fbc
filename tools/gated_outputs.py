"""Print one `path sha256` line, sorted by path, for every file the byte gates compare.

The world is the README's: `synth` 60 identities x 30 points x 64 dimensions,
stddev 0.25, 0.1667 of the identities withheld (listed in withheld.txt), seed 7.
At `--seed` 3 and 5 it runs `cluster --auto-k`, `--k 3` and `--algo kmeans --k 3`;
`label --k 4` and `label --auto-k --exclude-labels-file withheld.txt`; `match`
with each embedding method against the second store, each with `--report`;
`evaluate --mode video` on the centroid labels and `--mode vmeasure` on the
`--auto-k` clustering; and `timeline --fps 30 --json` on the centroid labels.

The program is imported as `clustermatch`, so the tree checked is the one on the
path. To compare a change with its parent:

    PYTHONPATH=src python3 tools/gated_outputs.py > change.txt
    PYTHONPATH=/path/to/parent/src python3 tools/gated_outputs.py > parent.txt
    diff parent.txt change.txt

`--identities`, `--points` and `--dim` change the world's size.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from clustermatch.cli import main as clustermatch

SEEDS = (3, 5)


def commands(identities: int, points: int, dim: int) -> list[list[str]]:
    """Every run, in order; paths are relative to the working directory."""
    runs = [
        ["synth", "--identities", str(identities), "--points", str(points), "--dim", str(dim), "--stddev", "0.25",
         "--fraction-nonregistered", "0.1667", "--seed", "7", "--out", "faces.emb", "--nonregistered-out", "withheld.txt"],
    ]
    for seed in SEEDS:
        d, seeded = f"seed{seed}", ["--in", "faces.emb", "--seed", str(seed)]
        runs += [
            ["cluster", *seeded, "--auto-k", "--out", f"{d}/cluster-auto-k.json"],
            ["cluster", *seeded, "--k", "3", "--out", f"{d}/cluster-k3.json"],
            ["cluster", *seeded, "--algo", "kmeans", "--k", "3", "--out", f"{d}/cluster-kmeans-k3.json"],
            ["label", *seeded, "--k", "4", "--out", f"{d}/store-k4.json"],
            ["label", *seeded, "--auto-k", "--exclude-labels-file", "withheld.txt", "--out", f"{d}/store.json"],
            *(
                ["match", *seeded, "--store", f"{d}/store.json", "--embedding-method", method,
                 "--out", f"{d}/labels-{method}.tsv", "--report", f"{d}/report-{method}.json"]
                for method in ("centroid", "silhouette")
            ),
            ["evaluate", "--mode", "video", "--truth", "faces.emb", "--pred", f"{d}/labels-centroid.tsv",
             "--out", f"{d}/evaluate-video.json"],
            ["evaluate", "--mode", "vmeasure", "--in", "faces.emb", "--clustering", f"{d}/cluster-auto-k.json",
             "--out", f"{d}/evaluate-vmeasure.json"],
            ["timeline", "--labels", f"{d}/labels-centroid.tsv", "--fps", "30", "--out", f"{d}/segments.tsv",
             "--json", f"{d}/segments.json"],
        ]
    return runs


def gated_outputs(identities: int, points: int, dim: int) -> list[str]:
    """Run every command in a new temporary directory; return the sorted `path sha256` lines."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)
        try:
            for seed in SEEDS:
                os.mkdir(f"seed{seed}")
            for argv in commands(identities, points, dim):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = clustermatch(argv)
                if code != 0:
                    raise SystemExit(f"clustermatch {' '.join(argv)} exited {code}")
            files = sorted(path for path in Path().rglob("*") if path.is_file())
            return [f"{path.as_posix()} {hashlib.sha256(path.read_bytes()).hexdigest()}" for path in files]
        finally:
            os.chdir(here)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--identities", type=int, default=60)
    parser.add_argument("--points", type=int, default=30)
    parser.add_argument("--dim", type=int, default=64)
    args = parser.parse_args(argv)
    for line in gated_outputs(args.identities, args.points, args.dim):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
