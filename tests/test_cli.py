import dataclasses
import json
import sys

import pytest

from clustermatch import clustering as clustering_module
from clustermatch.cli import main
from clustermatch.clustering import WardTree
from clustermatch.formats import read_embeddings, read_face_labels, read_store, write_embeddings, write_store

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

    def test_kmeans_fixed_k(self, tmp_path):
        emb = tmp_path / "train.emb"
        run(SYNTH + ["--out", emb])
        clustering = tmp_path / "cl.json"
        assert run(["cluster", "--in", emb, "--algo", "kmeans", "--k", "5", "--out", clustering]) == 0
        assert json.loads(clustering.read_text())["num_clusters"] == 5

    def test_affinity_propagation_needs_no_k(self, tmp_path):
        emb = tmp_path / "train.emb"
        run(SYNTH + ["--out", emb])
        clustering = tmp_path / "cl.json"
        assert run(["cluster", "--in", emb, "--algo", "ap", "--out", clustering]) == 0
        assert json.loads(clustering.read_text())["num_clusters"] >= 1


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

    def test_same_seed_runs_are_byte_identical(self, world, tmp_path):
        emb, _, store = world
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        run(["match", "--in", emb, "--store", store, "--seed", "7", "--out", a])
        run(["match", "--in", emb, "--store", store, "--seed", "7", "--out", b])
        assert a.read_bytes() == b.read_bytes()


class TestErrorHandling:
    def test_missing_input_file_exits_nonzero(self, tmp_path, capsys):
        code = run(["cluster", "--in", tmp_path / "nope.emb", "--k", "2", "--out", tmp_path / "o"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_cluster_requires_k_or_auto(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["cluster", "--in", tmp_path / "x.emb", "--out", tmp_path / "o"])

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


    def test_affinity_propagation_too_large_for_memory(self, emb, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(clustering_module, "_physical_memory", lambda: 1 << 10)
        capsys.readouterr()
        assert run(["cluster", "--in", emb, "--algo", "ap", "--out", tmp_path / "cl.json"]) == 1
        self.assert_one_error_line(capsys, "n=50", "GiB")
        assert not (tmp_path / "cl.json").exists()

class TestOneDistanceMatrixPerRun:
    """A clustering run computes one distance matrix, and on this world one Ward cut and one silhouette."""

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
        emb, store = tmp_path / "faces.emb", tmp_path / "store.json"
        run(SYNTH + ["--out", emb])
        assert run(["label", "--in", emb, "--auto-k", "--out", store]) == 0
        pairwise = self.count(monkeypatch, clustering_module, "pairwise_distances")
        scored = self.count(monkeypatch, clustering_module, "silhouette")
        cuts = self.count(monkeypatch, WardTree, "cut")
        paths = {"emb": emb, "store": store, "out": tmp_path / "out"}
        assert run([a.format(**paths) for a in argv]) == 0
        assert len(pairwise) == 1
        assert len(cuts) == len(scored) == 1
