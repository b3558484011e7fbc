import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from clustermatch import clustering as clustering_module
from clustermatch import synth as synth_module
from clustermatch.cli import main
from clustermatch.clustering import WardTree
from clustermatch.clustering import KSearchConfig
from clustermatch.cli import _ksearch, build_parser
from clustermatch.formats import read_embeddings, read_face_labels, read_store, write_embeddings, write_store
from clustermatch.geometry import Embedding
from clustermatch.matching import MatchConfig
from clustermatch.timeline import DEFAULT_FPS

from .stores import store_of

SYNTH = [
    "synth",
    "--identities", "5",
    "--points", "10",
    "--dim", "32",
    "--stddev", "0.25",
    "--separation", "10.0",
    "--seed", "3",
]


def run(argv):
    return main([str(a) for a in argv])


class TestSynth:
    def test_writes_embedding_file(self, tmp_path):
        out = tmp_path / "train.emb"
        assert run(SYNTH + ["--out", out]) == 0
        embs = read_embeddings(out)
        assert len(embs) == 50
        assert len({e.true_label for e in embs}) == 5

    def test_nonregistered_sidecar(self, tmp_path):
        out = tmp_path / "train.emb"
        sidecar = tmp_path / "withheld.txt"
        code = run(
            SYNTH
            + ["--fraction-nonregistered", "0.4", "--out", out, "--nonregistered-out", sidecar]
        )
        assert code == 0
        withheld = sidecar.read_text().split()
        assert len(withheld) == 2

    def test_builds_no_per_face_objects(self, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("synth built an Embedding")

        monkeypatch.setattr(Embedding, "__post_init__", refuse)
        out = tmp_path / "train.emb"
        argv = SYNTH + ["--fraction-nonregistered", "0.4", "--out", out, "--nonregistered-out", tmp_path / "withheld.txt"]
        assert run(argv) == 0
        assert len(read_embeddings(out)) == 50

    def test_scale_below_the_bound_clusters(self, tmp_path):
        # 12 points in 2 dimensions accept separations up to about 2.28e152
        out = tmp_path / "wide.emb"
        assert run(["synth", "--identities", "3", "--points", "4", "--dim", "2", "--separation", "2.2e151", "--out", out]) == 0
        clustering = tmp_path / "cl.json"
        assert run(["cluster", "--in", out, "--auto-k", "--out", clustering]) == 0
        assert json.loads(clustering.read_text())["num_clusters"] == 3


class TestDefaults:
    def test_parser_defaults_are_the_library_defaults(self):
        parse = build_parser().parse_args
        match = MatchConfig()
        parsed = [parse([*argv, "--in", "f.emb", "--out", "out"]) for argv in (["cluster"], ["label"], ["match", "--store", "s.json"])]
        for args in parsed:
            assert _ksearch(args) == KSearchConfig()
        given = parse(["label", "--in", "f.emb", "--out", "out", "--patience", "2", "--min-silhouette", "0.5", "--max-clusters", "7"])
        assert _ksearch(given) == KSearchConfig(patience=2, min_silhouette=0.5, max_clusters=7)
        assert (parsed[2].alpha, parsed[2].threshold) == (match.alpha, match.probability_threshold)
        assert parse(["timeline", "--labels", "l.tsv", "--out", "t.tsv"]).fps == DEFAULT_FPS


class TestClusterAndEvaluate:
    def test_auto_k_recovers_identities(self, tmp_path, capsys):
        emb = tmp_path / "train.emb"
        run(SYNTH + ["--out", emb])
        clustering = tmp_path / "cl.json"
        assert run(["cluster", "--in", emb, "--auto-k", "--out", clustering]) == 0
        doc = json.loads(clustering.read_text())
        assert doc["num_clusters"] == 5
        assert doc["silhouette_score"] > 0.2

        report = tmp_path / "vm.json"
        code = run(
            ["evaluate", "--mode", "vmeasure", "--in", emb, "--clustering", clustering, "--out", report]
        )
        assert code == 0
        scores = json.loads(report.read_text())
        assert scores["v_measure"] == pytest.approx(1.0)


class TestFullPipeline:
    @pytest.fixture
    def world(self, tmp_path):
        emb = tmp_path / "faces.emb"
        sidecar = tmp_path / "withheld.txt"
        run(
            SYNTH
            + ["--fraction-nonregistered", "0.4", "--out", emb, "--nonregistered-out", sidecar]
        )
        store = tmp_path / "store.json"
        run(
            [
                "label",
                "--in", emb,
                "--auto-k",
                "--exclude-labels-file", sidecar,
                "--out", store,
            ]
        )
        return emb, sidecar, store

    def test_label_store_round_trips_byte_for_byte(self, world, tmp_path):
        _, _, store = world
        copy = tmp_path / "copy.json"
        loaded, metadata = read_store(store)
        write_store(loaded, copy, metadata=metadata)
        assert copy.read_bytes() == store.read_bytes()

    def test_match_flags_withheld_identities(self, world, tmp_path):
        emb, sidecar, store = world
        labels = tmp_path / "labels.tsv"
        report = tmp_path / "report.json"
        assert run(["match", "--in", emb, "--store", store, "--out", labels, "--report", report]) == 0

        withheld = set(sidecar.read_text().split())
        truth = {e.id: e.true_label for e in read_embeddings(emb)}
        for face_id, _, label in read_face_labels(labels):
            if truth[face_id] in withheld:
                assert label == "non-registered"
            else:
                assert label == truth[face_id]

        doc = json.loads(report.read_text())
        assert doc["num_clusters"] == 5
        assert sum(1 for c in doc["clusters"] if not c["matched"]) == 2

    def test_video_score_on_registered_subset(self, world, tmp_path):
        emb, sidecar, store = world
        withheld = set(sidecar.read_text().split())
        registered = [e for e in read_embeddings(emb) if e.true_label not in withheld]
        video = tmp_path / "video.emb"
        from clustermatch.formats import write_embeddings

        write_embeddings(registered, video)
        labels = tmp_path / "labels.tsv"
        run(["match", "--in", video, "--store", store, "--out", labels])
        scored = tmp_path / "score.json"
        code = run(
            ["evaluate", "--mode", "video", "--truth", video, "--pred", labels, "--out", scored]
        )
        assert code == 0
        out = json.loads(scored.read_text())
        assert out["precision"] == pytest.approx(1.0)
        assert out["recall"] == pytest.approx(1.0)
        assert out["exact_match_frames"] == out["frames"] == 10

    def test_timeline_from_labels(self, world, tmp_path):
        emb, _, store = world
        labels = tmp_path / "labels.tsv"
        run(["match", "--in", emb, "--store", store, "--out", labels])
        out = tmp_path / "segments.tsv"
        as_json = tmp_path / "segments.json"
        assert run(["timeline", "--labels", labels, "--fps", "2.0", "--out", out, "--json", as_json]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "#timeline v1"
        # every identity present on frames 0..9 yields one maximal segment
        identities = {line.split("\t")[0] for line in lines[1:]}
        assert "non-registered" in identities
        records = json.loads(as_json.read_text())
        assert all(r["last_frame"] == 9 for r in records)

    def test_store_label_with_a_space_and_a_non_ascii_letter(self, world, tmp_path):
        emb, _, store = world
        doc = json.loads(store.read_text())
        renamed, doc["entries"][0]["label"] = doc["entries"][0]["label"], "Zoë Smith"
        store.write_text(json.dumps(doc))
        labels = tmp_path / "labels.tsv"
        assert run(["match", "--in", emb, "--store", store, "--out", labels]) == 0
        truth = {e.id: e.true_label for e in read_embeddings(emb)}
        named = [face_id for face_id, _, label in read_face_labels(labels) if label == "Zoë Smith"]
        assert named and {truth[face_id] for face_id in named} == {renamed}
        assert run(["timeline", "--labels", labels, "--out", tmp_path / "segments.tsv"]) == 0

    def test_excluded_label_may_hold_a_space(self, world, tmp_path):
        emb, _, _ = world
        spaced = {"id-000": "John Smith", "id-001": "Smith"}
        faces = tmp_path / "spaced.emb"
        write_embeddings(
            [dataclasses.replace(e, true_label=spaced.get(e.true_label, e.true_label)) for e in read_embeddings(emb)], faces
        )
        withheld = tmp_path / "spaced-withheld.txt"
        withheld.write_text("John Smith\n\n")
        store = tmp_path / "spaced-store.json"
        assert run(["label", "--in", faces, "--auto-k", "--exclude-labels-file", withheld, "--out", store]) == 0
        labels = read_store(store)[0].labels
        assert "John Smith" not in labels and "Smith" in labels

    def test_repeated_runs_are_byte_identical(self, world, tmp_path):
        emb, _, store = world
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        run(["match", "--in", emb, "--store", store, "--out", a])
        run(["match", "--in", emb, "--store", store, "--out", b])
        assert a.read_bytes() == b.read_bytes()


class TestErrorHandling:
    def test_missing_input_file_exits_nonzero(self, tmp_path, capsys):
        code = run(["cluster", "--in", tmp_path / "nope.emb", "--k", "2", "--out", tmp_path / "o"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_cluster_requires_k_or_auto(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["cluster", "--in", tmp_path / "x.emb", "--out", tmp_path / "o"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "--in", "x.emb", "--out", "o"],
            ["label", "--in", "x.emb", "--out", "o"],
            ["cluster", "--in", "x.emb", "--k", "nan", "--out", "o"],
            ["evaluate", "--mode", "vmeasure"],
            ["evaluate", "--mode", "video"],
        ],
        ids=["cluster-without-k", "label-without-k", "k-nan", "vmeasure-without-files", "video-without-files"],
    )
    def test_usage_error_shows_the_subcommand_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            run(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: clustermatch {argv[0]} ")
        assert f"\nclustermatch {argv[0]}: error: " in err

    @pytest.mark.parametrize("flag", [["--algo", "ward"], ["--seed", "3"]], ids=["algo", "seed"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "--in", "{emb}", "--auto-k"],
            ["label", "--in", "{emb}", "--auto-k"],
            ["match", "--in", "{emb}", "--store", "{store}"],
        ],
        ids=["cluster", "label", "match"],
    )
    def test_algo_and_seed_are_no_clustering_flags(self, emb, tmp_path, capsys, argv, flag):
        """Ward is the only clusterer and is deterministic, so these subcommands take neither flag."""
        store, out = tmp_path / "store.json", tmp_path / "out"
        assert run(["label", "--in", emb, "--k", "5", "--out", store]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exited:
            run([*(a.format(emb=emb, store=store) for a in argv), *flag, "--out", out])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: clustermatch {argv[0]} ")
        assert err.endswith(f"\nclustermatch {argv[0]}: error: unrecognized arguments: {' '.join(flag)}\n")
        assert not out.exists()

    def test_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["synth", "--identities", "5", "--points", "10", "--dim", "32", "--seed", "-1", "--out", out]) == 1
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    def test_evaluate_mode_arg_validation(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["evaluate", "--mode", "vmeasure"])
        with pytest.raises(SystemExit):
            run(["evaluate", "--mode", "video"])

    @pytest.fixture
    def emb(self, tmp_path):
        emb = tmp_path / "faces.emb"
        run(SYNTH + ["--out", emb])
        return emb

    def assert_one_error_line(self, capsys, *parts):
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        for part in parts:
            assert part in err[0]

    def test_store_entry_missing_centroid(self, emb, tmp_path, capsys):
        store = tmp_path / "store.json"
        assert run(["label", "--in", emb, "--auto-k", "--out", store]) == 0
        doc = json.loads(store.read_text())
        del doc["entries"][2]["centroid"]
        store.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["match", "--in", emb, "--store", store, "--out", tmp_path / "l.tsv"]) == 1
        self.assert_one_error_line(capsys, "store.json", "entry 2", "'centroid'")

    @pytest.mark.parametrize("key", ["centroid", "best_silhouette_vector"])
    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), float("-inf"), None, [0.5, 0.5], "0.5", True, False, 10**400, "drop"],
        ids=["nan", "inf", "-inf", "null", "nested-list", "string", "true", "false", "beyond-float", "wrong-length"],
    )
    def test_store_with_a_bad_vector(self, emb, tmp_path, capsys, key, bad):
        store = tmp_path / "store.json"
        assert run(["label", "--in", emb, "--auto-k", "--out", store]) == 0
        doc = json.loads(store.read_text())
        vector = doc["entries"][3][key]
        if bad == "drop":
            vector.pop()
        else:
            vector[5] = bad
        store.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["match", "--in", emb, "--store", store, "--out", tmp_path / "l.tsv"]) == 1
        self.assert_one_error_line(capsys, "store.json", "entry 3", repr(key))

    @pytest.mark.parametrize("bad", [2.7, True, -1, "3", None], ids=["fraction", "true", "negative", "string", "null"])
    def test_store_with_a_bad_histogram_count(self, emb, tmp_path, capsys, bad):
        store = tmp_path / "store.json"
        assert run(["label", "--in", emb, "--auto-k", "--out", store]) == 0
        doc = json.loads(store.read_text())
        doc["entries"][3]["label_histogram"] = {doc["entries"][3]["label"]: bad}
        store.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["match", "--in", emb, "--store", store, "--out", tmp_path / "l.tsv"]) == 1
        self.assert_one_error_line(capsys, "store.json", "entry 3", "'label_histogram'", repr(bad))

    @pytest.mark.parametrize("command", ["match", "evaluate"])
    def test_deeply_nested_json(self, emb, tmp_path, capsys, command):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100_000)
        argv = {
            "match": ["match", "--in", emb, "--store", nested, "--out", tmp_path / "l.tsv"],
            "evaluate": ["evaluate", "--mode", "vmeasure", "--in", emb, "--clustering", nested],
        }[command]
        capsys.readouterr()
        assert run(argv) == 1
        self.assert_one_error_line(capsys, "nested.json", "nested too deeply")

    @pytest.mark.parametrize("command", ["match", "evaluate"])
    def test_closed_deep_nest_in_metadata(self, emb, tmp_path, command):
        """A valid file with a 200 000-deep nest: orjson would crash the process on it,
        so the CLI runs in a subprocess, where a crash fails the test."""
        path = tmp_path / "nested.json"
        nest = "[" * 200_000 + "]" * 200_000
        if command == "match":
            head = '{"format": "clustermatch-store", "version": 1, "dimension": 32, "entries": [], "metadata": '
            argv = ["match", "--in", emb, "--store", path, "--out", tmp_path / "l.tsv"]
        else:
            head = '{"format": "clustermatch-clustering", "version": 1, "num_clusters": 1, "assignments": [], "metadata": '
            argv = ["evaluate", "--mode", "vmeasure", "--in", emb, "--clustering", path]
        path.write_text(head + nest + "}")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "clustermatch.cli", *map(str, argv)], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 1, done.stderr[-500:]
        err = done.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "nested.json" in err[0] and "nested too deeply" in err[0]

    # (file text, what the error names besides the file)
    BAD_EMBEDDING_FILES = {
        "nan": ("#emb v1 dim=2\na\t\t\t\t1,2\nb\t\t\t\tnan,1\n", ":3:", "non-finite"),
        "inf": ("#emb v1 dim=2\na\t\t\t\t1,2\nb\t\t\t\t1,inf\n", ":3:", "non-finite"),
        "overflow": ("#emb v1 dim=2\na\t\t\t\t1,2\nb\t\t\t\t1e999,1\n", ":3:", "non-finite"),
        "negative-frame": ("#emb v1 dim=2\na\t\t0\t\t1,2\nb\t\t-1\t\t1,2\n", ":3:", "non-negative"),
        "fractional-frame": ("#emb v1 dim=2\na\t\t0\t\t1,2\nb\t\t1.5\t\t1,2\n", ":3:", "'1.5'"),
        "empty-vector": ("#emb v1 dim=2\na\t\t\t\t1,2\nb\t\t\t\t\n", ":3:", "unparsable vector"),
        "header-dim": ("#emb v1 dim=x\na\t\t\t\t1,2\n", ":", "'#emb v1 dim=x'"),
    }

    @pytest.mark.parametrize("name", list(BAD_EMBEDDING_FILES))
    def test_bad_embedding_file_names_file_and_line(self, tmp_path, capsys, name):
        text, line, detail = self.BAD_EMBEDDING_FILES[name]
        emb = tmp_path / "bad.emb"
        emb.write_text(text)
        out = tmp_path / "cl.json"
        assert run(["cluster", "--in", emb, "--k", "1", "--out", out]) == 1
        self.assert_one_error_line(capsys, f"bad.emb{line}", detail)
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\u2028b"], ids=["tab", "newline", "line-separator"])
    def test_store_label_that_labels_tsv_cannot_hold(self, emb, tmp_path, capsys, bad):
        store = tmp_path / "store.json"
        assert run(["label", "--in", emb, "--auto-k", "--out", store]) == 0
        doc = json.loads(store.read_text())
        doc["entries"][1]["label"] = bad
        store.write_text(json.dumps(doc))
        capsys.readouterr()
        labels = tmp_path / "l.tsv"
        assert run(["match", "--in", emb, "--store", store, "--out", labels]) == 1
        self.assert_one_error_line(capsys, "store.json", "entry 1", repr(bad))
        assert not labels.exists()

    @pytest.mark.parametrize("k", [0, 51])
    def test_k_out_of_range_before_the_distance_matrix(self, emb, tmp_path, capsys, monkeypatch, k):
        def refuse(data):
            raise AssertionError("the distance matrix was built")

        monkeypatch.setattr(clustering_module, "pairwise_distances", refuse)
        capsys.readouterr()
        assert run(["cluster", "--in", emb, "--k", k, "--out", tmp_path / "cl.json"]) == 1
        self.assert_one_error_line(capsys, f"error: k={k} out of range [1, 50]")

    def test_store_top_level_list(self, emb, tmp_path, capsys):
        store = tmp_path / "store.json"
        store.write_text("[]")
        capsys.readouterr()
        assert run(["match", "--in", emb, "--store", store, "--out", tmp_path / "l.tsv"]) == 1
        self.assert_one_error_line(capsys, "store.json", "list")

    def test_clustering_missing_assignments(self, emb, tmp_path, capsys):
        clustering = tmp_path / "cl.json"
        clustering.write_text(json.dumps({"format": "clustermatch-clustering", "version": 1, "num_clusters": 5}))
        capsys.readouterr()
        code = run(["evaluate", "--mode", "vmeasure", "--in", emb, "--clustering", clustering])
        assert code == 1
        self.assert_one_error_line(capsys, "cl.json", "'assignments'")

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            run(["frobnicate"])

    def test_label_file_with_bad_frame(self, tmp_path, capsys):
        labels = tmp_path / "l.tsv"
        labels.write_text("#labels v1\na\t0\talice\nb\tx\talice\n")
        assert run(["timeline", "--labels", labels, "--out", tmp_path / "s.tsv"]) == 1
        self.assert_one_error_line(capsys, "l.tsv:3", "'x'")

    def test_label_file_with_negative_frame(self, tmp_path, capsys):
        labels, out = tmp_path / "l.tsv", tmp_path / "s.tsv"
        labels.write_text("#labels v1\na\t0\talice\nb\t-3\talice\n")
        assert run(["timeline", "--labels", labels, "--fps", "1", "--out", out]) == 1
        self.assert_one_error_line(capsys, "l.tsv:3", "non-negative")
        assert not out.exists()

    @pytest.mark.parametrize("frame, fps", [("5", "1e-310"), ("1" + "0" * 400, "30")], ids=["tiny-fps", "huge-frame"])
    def test_timeline_time_beyond_the_float_range(self, tmp_path, capsys, frame, fps):
        labels, out, as_json = tmp_path / "l.tsv", tmp_path / "s.tsv", tmp_path / "s.json"
        labels.write_text(f"#labels v1\na\t{frame}\talice\n")
        assert run(["timeline", "--labels", labels, "--fps", fps, "--out", out, "--json", as_json]) == 1
        self.assert_one_error_line(capsys, "'alice'", f"frame {frame} ", f"fps {float(fps)!r}")
        assert not out.exists() and not as_json.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--stddev", "inf"), ("--stddev", "nan"), ("--separation", "inf"), ("--separation", "nan"), ("--separation", "1e308"),
         ("--separation", "1e307")],  # a finite cube whose squared distances overflow
    )
    def test_synth_rejects_non_finite_sizes(self, tmp_path, capsys, flag, value):
        out = tmp_path / "faces.emb"
        assert run(["synth", "--identities", "5", "--points", "10", "--dim", "32", flag, value, "--out", out]) == 1
        self.assert_one_error_line(capsys)
        assert not out.exists()

    def test_synth_scale_that_ward_cannot_merge(self, tmp_path, capsys):
        # squared distances fit float64, but Ward's size-weighted merge costs over 12 points do not
        out = tmp_path / "faces.emb"
        assert run(["synth", "--identities", "3", "--points", "4", "--dim", "2", "--separation", "1.2e153", "--out", out]) == 1
        self.assert_one_error_line(capsys, "overflows", "12 points")
        assert not out.exists()

    @pytest.mark.parametrize("identities", ["1000000000", "1" + "0" * 400])
    def test_synth_output_beyond_physical_memory(self, tmp_path, capsys, identities):
        # refused before any centre is placed: placing 10^9 of them would run for hours
        out = tmp_path / "faces.emb"
        assert run(["synth", "--identities", identities, "--points", "1000000000", "--dim", "1", "--out", out]) == 1
        self.assert_one_error_line(capsys, "points in 1 dimensions need more float64 values", "physical memory")
        assert not out.exists()

    def test_synth_stddev_whose_square_underflows(self, tmp_path, capsys):
        out = tmp_path / "faces.emb"
        assert run(["synth", "--identities", "5", "--points", "2", "--dim", "3", "--stddev", "1e-300", "--out", out]) == 1
        self.assert_one_error_line(capsys, "underflows")
        assert not out.exists()

    def test_synth_centres_that_cannot_be_placed(self, tmp_path, capsys, monkeypatch):
        # 50 centres in a 1-d interval make rejections certain, and no retry budget is left
        monkeypatch.setattr(synth_module, "_MAX_CENTER_ATTEMPTS", 0)
        out = tmp_path / "faces.emb"
        assert run(["synth", "--identities", "50", "--points", "1", "--dim", "1", "--separation", "1000", "--out", out]) == 1
        self.assert_one_error_line(capsys, "could not place blob centers")
        assert not out.exists()

    def test_timeline_needs_frames(self, tmp_path, capsys):
        labels = tmp_path / "l.tsv"
        labels.write_text("#labels v1\na\t\talice\n")
        assert run(["timeline", "--labels", labels, "--out", tmp_path / "s.tsv"]) == 1
        self.assert_one_error_line(capsys, "face a has no frame index")

    def test_vmeasure_needs_true_labels(self, emb, tmp_path, capsys):
        unlabelled = tmp_path / "unlabelled.emb"
        write_embeddings([dataclasses.replace(e, true_label=None) for e in read_embeddings(emb)], unlabelled)
        clustering = tmp_path / "cl.json"
        assert run(["cluster", "--in", unlabelled, "--auto-k", "--out", clustering]) == 0
        capsys.readouterr()
        assert run(["evaluate", "--mode", "vmeasure", "--in", unlabelled, "--clustering", clustering]) == 1
        self.assert_one_error_line(capsys, "has no true label")

    @pytest.mark.parametrize("fps", ["nan", "inf"])
    def test_timeline_rejects_non_finite_fps(self, tmp_path, capsys, fps):
        labels = tmp_path / "l.tsv"
        labels.write_text("#labels v1\na\t0\talice\nb\t1\talice\n")
        out = tmp_path / "s.tsv"
        assert run(["timeline", "--labels", labels, "--fps", fps, "--out", out]) == 1
        self.assert_one_error_line(capsys, "fps", fps)
        assert not out.exists()

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_vmeasure_rejects_non_finite_beta(self, emb, tmp_path, capsys, beta):
        clustering, report = tmp_path / "cl.json", tmp_path / "vm.json"
        assert run(["cluster", "--in", emb, "--auto-k", "--out", clustering]) == 0
        capsys.readouterr()
        argv = ["evaluate", "--mode", "vmeasure", "--in", emb, "--clustering", clustering, "--beta", beta]
        assert run(argv + ["--out", report]) == 1
        self.assert_one_error_line(capsys, "beta", beta)
        assert not report.exists()

    def test_unwritable_output_names_the_target(self, emb, tmp_path, capsys):
        target = tmp_path / "missing" / "c.json"
        capsys.readouterr()
        assert run(["cluster", "--in", emb, "--auto-k", "--out", target]) == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [f"error: [Errno 2] No such file or directory: '{target}'"]
        assert ".tmp" not in err

    def test_run_too_large_for_memory(self, emb, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(clustering_module, "_physical_memory", lambda: 1 << 10)
        capsys.readouterr()
        assert run(["cluster", "--in", emb, "--auto-k", "--out", tmp_path / "cl.json"]) == 1
        self.assert_one_error_line(capsys, "n=50", "GiB")
        assert not (tmp_path / "cl.json").exists()

    def test_fixed_k_run_too_large_for_memory(self, emb, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(clustering_module, "_physical_memory", lambda: 1 << 10)
        capsys.readouterr()
        assert run(["cluster", "--in", emb, "--k", "2", "--out", tmp_path / "cl.json"]) == 1
        self.assert_one_error_line(capsys, "n=50", "GiB")
        assert not (tmp_path / "cl.json").exists()

    @pytest.mark.parametrize("flags", [["--auto-k"], ["--k", "2"]], ids=["auto-k", "k2"])
    def test_overflowing_distances(self, tmp_path, capsys, flags):
        emb = tmp_path / "far.emb"
        rows = ["1e200,0", "-1e200,3", "1e200,1", "-1e200,4"]
        emb.write_text("#emb v1 dim=2\n" + "".join(f"f{i}\tv\t{i}\tx\t{row}\n" for i, row in enumerate(rows)))
        capsys.readouterr()
        assert run(["cluster", "--in", emb, *flags, "--out", tmp_path / "cl.json"]) == 1
        self.assert_one_error_line(capsys, "1e+200", "overflow")
        assert not (tmp_path / "cl.json").exists()

    def test_overflow_after_centring_names_the_input_magnitude(self, tmp_path, capsys):
        # finite faces whose centred values overflow: -1.7e308 less the mean 5.7e307 is -inf
        emb = tmp_path / "far.emb"
        rows = ["1.7e308", "1.7e308", "-1.7e308"]
        emb.write_text("#emb v1 dim=1\n" + "".join(f"f{i}\tv\t{i}\tx\t{row}\n" for i, row in enumerate(rows)))
        capsys.readouterr()
        assert run(["cluster", "--in", emb, "--auto-k", "--out", tmp_path / "cl.json"]) == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            "error: vector components up to 1.7e+308 in magnitude are too large: their squared distances overflow float64"
        ]
        assert not (tmp_path / "cl.json").exists()

    @pytest.mark.parametrize("command", ["cluster", "label"])
    def test_column_sum_beyond_float64(self, tmp_path, capsys, command):
        # two faces at (0, 1e308): their column sum overflows, but their mean, their
        # distance and their centroid do not
        emb, out = tmp_path / "far.emb", tmp_path / "out.json"
        emb.write_text("#emb v1 dim=2\nf0\tv\t0\tx\t0,1e308\nf1\tv\t1\tx\t0,1e308\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, "--in", emb, "--auto-k", "--out", out]) == 0
        assert not capsys.readouterr().err
        if command == "label":
            assert read_store(out)[0].centroids.tolist() == [[0.0, 1e308]]

    @pytest.mark.parametrize("stored", [0.0, -1e308], ids=["square-overflows", "difference-overflows"])
    def test_match_of_a_face_far_from_every_store_entry(self, tmp_path, capsys, stored):
        # the squared difference (or the difference itself) of a face at 1e308 and the entry
        # overflows: an RMSE of inf and a similarity of 0, with no overflow warning; the
        # softmax over a one-entry store gives that entry probability 1 all the same
        emb, store, out = tmp_path / "far.emb", tmp_path / "store.json", tmp_path / "labels.tsv"
        emb.write_text("#emb v1 dim=1\nf0\tv\t0\tx\t1e308\n")
        write_store(store_of([[stored]]), store)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["match", "--in", emb, "--store", store, "--out", out]) == 0
        assert not capsys.readouterr().err
        assert out.read_text().splitlines()[1:] == ["f0\t0\tp0"]


class TestOneDistanceMatrixPerRun:
    """A clustering run computes one distance matrix and, on this world, one Ward cut. The K
    search's silhouette report comes from its sweep, so only a fixed-k run calls ``silhouette``."""

    def count(self, monkeypatch, owner, attr):
        """Count calls to owner.attr, rebinding a function under its name in every clustermatch module."""
        original = getattr(owner, attr)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        if isinstance(owner, type):
            monkeypatch.setattr(owner, attr, counted)
        for name, module in list(sys.modules.items()):
            if (name == "clustermatch" or name.startswith("clustermatch.")) and vars(module).get(attr) is original:
                monkeypatch.setattr(module, attr, counted)
        return calls

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "--in", "{emb}", "--auto-k", "--out", "{out}"],
            ["label", "--in", "{emb}", "--auto-k", "--out", "{out}"],
            ["match", "--in", "{emb}", "--store", "{store}", "--embedding-method", "silhouette", "--out", "{out}"],
            ["cluster", "--in", "{emb}", "--k", "3", "--out", "{out}"],
            ["label", "--in", "{emb}", "--k", "3", "--out", "{out}"],
        ],
        ids=["cluster", "label", "match", "cluster-k3", "label-k3"],
    )
    def test_calls(self, argv, tmp_path, monkeypatch):
        fixed_k = "--k" in argv
        emb, store = tmp_path / "faces.emb", tmp_path / "store.json"
        run(SYNTH + ["--out", emb])
        assert run(["label", "--in", emb, "--auto-k", "--out", store]) == 0
        pairwise = self.count(monkeypatch, clustering_module, "pairwise_distances")
        scored = self.count(monkeypatch, clustering_module, "silhouette")
        cuts = self.count(monkeypatch, WardTree, "cut")
        paths = {"emb": emb, "store": store, "out": tmp_path / "out"}
        assert run([a.format(**paths) for a in argv]) == 0
        assert len(pairwise) == len(cuts) == 1
        assert len(scored) == (1 if fixed_k else 0)


# every numeric flag is set, one at a time, to each of these; no value lies between a
# small baseline and an edge, so no case starts a job whose size scales with an argument
EDGES = ["0", "-0", "-1", "nan", "inf", "-inf", "1e-300", "1e308", str(2**63), str(-(2**63) - 1)]
KSEARCH_FLAGS = ["--patience", "--min-silhouette", "--max-clusters"]
EDGE_WORLD = ["synth", "--identities", "4", "--points", "5", "--dim", "4", "--stddev", "0.25"]  # 20 faces


def _edge_cases():
    """(name, subcommand argv, flag) triples: the flag's value is replaced in argv, or appended to it."""
    for flag in ["--identities", "--points", "--dim", "--stddev", "--separation", "--seed", "--fraction-nonregistered"]:
        yield "synth", EDGE_WORLD + ["--out", "{out}"], flag
    for command in ("cluster", "label"):
        base = [command, "--in", "{emb}", "--out", "{out}"]
        yield command, base + ["--k", "2"], "--k"
        for flag in KSEARCH_FLAGS:
            yield command, base + ["--auto-k"], flag
            # a fixed K still builds the K search's config, so its flags are checked there too
            yield f"{command} --k 2", base + ["--k", "2"], flag
    match = ["match", "--in", "{emb}", "--store", "{store}", "--out", "{out}"]
    for flag in ["--alpha", "--threshold", *KSEARCH_FLAGS]:
        yield "match", match, flag
    for flag in ["--alpha", "--threshold"]:
        yield "match silhouette", match + ["--embedding-method", "silhouette"], flag
    evaluate = ["evaluate", "--mode", "vmeasure", "--in", "{emb}", "--clustering", "{clustering}", "--out", "{out}"]
    yield "evaluate", evaluate, "--beta"
    yield "evaluate video", ["evaluate", "--mode", "video", "--truth", "{emb}", "--pred", "{labels}", "--out", "{out}"], "--beta"
    yield "timeline", ["timeline", "--labels", "{labels}", "--out", "{out}"], "--fps"


class TestNumericArgumentEdges:
    """No numeric argument at an edge ends in a traceback: each run exits 0, 1 with one
    ``error:`` line, or 2 when argparse's type rejects the value."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("edges")
        files = {name: root / name for name in ("emb", "store", "clustering", "labels")}
        assert run(EDGE_WORLD + ["--out", files["emb"]]) == 0
        assert run(["label", "--in", files["emb"], "--auto-k", "--out", files["store"]]) == 0
        assert run(["cluster", "--in", files["emb"], "--auto-k", "--out", files["clustering"]]) == 0
        assert run(["match", "--in", files["emb"], "--store", files["store"], "--out", files["labels"]]) == 0
        return files

    @pytest.mark.parametrize(
        "argv, flag, value",
        [pytest.param(argv, flag, value, id=f"{name} {flag} {value}") for name, argv, flag in _edge_cases() for value in EDGES],
    )
    def test_exit_code_and_message(self, files, tmp_path, capsys, argv, flag, value):
        argv = [a.format(out=tmp_path / "out", **files) for a in argv]
        argv = [*argv[: argv.index(flag) + 1], value, *argv[argv.index(flag) + 2 :]] if flag in argv else [*argv, flag, value]
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2), err
        if code == 1:
            assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        elif code == 2:
            assert f"clustermatch {argv[0]}: error: " in err
        else:
            assert not err
