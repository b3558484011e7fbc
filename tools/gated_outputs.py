"""Print one `path sha256` line, sorted by path, for every file the byte gates compare.

The world is the README's: `synth` 60 identities x 30 points x 64 dimensions,
stddev 0.25, 0.1667 of the identities withheld (listed in withheld.txt), seed 7.
On it the script runs `cluster --auto-k` and `--k 3`; `label --k 4` and
`label --auto-k --exclude-labels-file withheld.txt`; `match` with each embedding
method against the second store, each with `--report`; `evaluate --mode video`
on the centroid labels and `--mode vmeasure` on the `--auto-k` clustering; and
`timeline --fps 30 --json` on the centroid labels.

One run set covers every gated byte: `synth` is the only seeded subcommand, and
Ward clustering, matching and the rest are deterministic, so a second set of the
same commands would write the same files.

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


def commands(identities: int, points: int, dim: int) -> list[list[str]]:
    """Every run, in order; paths are relative to the working directory."""
    faces = ["--in", "faces.emb"]
    return [
        ["synth", "--identities", str(identities), "--points", str(points), "--dim", str(dim), "--stddev", "0.25",
         "--fraction-nonregistered", "0.1667", "--seed", "7", "--out", "faces.emb", "--nonregistered-out", "withheld.txt"],
        ["cluster", *faces, "--auto-k", "--out", "cluster-auto-k.json"],
        ["cluster", *faces, "--k", "3", "--out", "cluster-k3.json"],
        ["label", *faces, "--k", "4", "--out", "store-k4.json"],
        ["label", *faces, "--auto-k", "--exclude-labels-file", "withheld.txt", "--out", "store.json"],
        *(
            ["match", *faces, "--store", "store.json", "--embedding-method", method,
             "--out", f"labels-{method}.tsv", "--report", f"report-{method}.json"]
            for method in ("centroid", "silhouette")
        ),
        ["evaluate", "--mode", "video", "--truth", "faces.emb", "--pred", "labels-centroid.tsv",
         "--out", "evaluate-video.json"],
        ["evaluate", "--mode", "vmeasure", "--in", "faces.emb", "--clustering", "cluster-auto-k.json",
         "--out", "evaluate-vmeasure.json"],
        ["timeline", "--labels", "labels-centroid.tsv", "--fps", "30", "--out", "segments.tsv",
         "--json", "segments.json"],
    ]


def gated_outputs(identities: int, points: int, dim: int) -> list[str]:
    """Run every command in a new temporary directory; return the sorted `path sha256` lines."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)
        try:
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
