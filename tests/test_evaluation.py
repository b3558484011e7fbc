import numpy as np
import pytest

from clustermatch.evaluation import (
    ContingencyTable,
    contingency,
    match_metrics,
    score_video,
    v_measure,
)
from clustermatch.matching import sigma

from .oracles import brute_v_measure
from .stores import store_of


def decision(matched: bool):
    """A minimal MatchDecision for metric bookkeeping."""
    store = store_of([(0.0,), (1.0,)], labels=["x", "y"])
    return sigma([0.9, 0.1] if matched else [0.5, 0.5], store)


class TestContingency:
    def test_direct_count(self):
        t = contingency(["A", "A", "B", "B"], [0, 0, 0, 1])
        assert t.counts == ((2, 0), (1, 1))

    def test_perfect_labeling_is_diagonal(self):
        t = contingency(["A", "B", "C"], [0, 1, 2])
        assert t.counts == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_single_cluster_column(self):
        t = contingency(["A", "A", "B"], [0, 0, 0])
        assert t.counts == ((2,), (1,))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            contingency(["A"], [0, 1])

    def test_empty(self):
        with pytest.raises(ValueError):
            contingency([], [])

    def test_marginals(self):
        t = contingency(["A", "B", "B", "A", "A"], [1, 0, 1, 1, 0])
        arr = t.as_array()
        assert arr.sum() == 5
        assert list(arr.sum(axis=1)) == [3, 2]  # class sizes A=3, B=2


class TestVMeasure:
    def test_perfect_clustering(self):
        r = v_measure(contingency(["A", "A", "B", "B"], [0, 0, 1, 1]))
        assert (r.homogeneity, r.completeness, r.v) == (1.0, 1.0, 1.0)

    def test_degenerate_single_cluster(self):
        r = v_measure(contingency(["A", "A", "B", "B"], [0, 0, 0, 0]))
        assert r.homogeneity == 0.0
        assert r.completeness == 1.0
        assert r.v == 0.0

    def test_hand_computed_example(self):
        r = v_measure(contingency(["A", "A", "B", "B"], [0, 0, 0, 1]))
        assert r.homogeneity == pytest.approx(0.3112781, abs=1e-7)
        assert r.completeness == pytest.approx(0.3836885, abs=1e-7)
        assert r.v == pytest.approx(0.3437110, abs=1e-7)

    def test_single_class_gives_h_one(self):
        r = v_measure(contingency(["A", "A", "A"], [0, 1, 0]))
        assert r.homogeneity == 1.0

    def test_matches_brute_force_on_random_labelings(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            truth = [f"c{int(x)}" for x in rng.integers(0, 4, size=n)]
            assign = [int(x) for x in rng.integers(0, 4, size=n)]
            r = v_measure(contingency(truth, assign))
            h, c, v = brute_v_measure(truth, assign)
            assert r.homogeneity == pytest.approx(h, abs=1e-9)
            assert r.completeness == pytest.approx(c, abs=1e-9)
            assert r.v == pytest.approx(v, abs=1e-9)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("case", ["noisy", "random", "split"])
    def test_matches_brute_force_at_scale(self, case, beta):
        """n = 3000 faces in 100 classes against about 100 clusters: one cluster per class
        (under a shuffled index) with a fifth of the faces moved to a random cluster, clusters
        drawn at random, or every class split in two; the same |delta| <= 1e-9 as criterion 2."""
        rng = np.random.default_rng(18)
        n, k = 3000, 100
        classes = rng.integers(0, k, size=n)
        if case == "noisy":
            assign = rng.permutation(k)[classes]
            moved = rng.random(n) < 0.2
            assign[moved] = rng.integers(0, k, size=int(moved.sum()))
        elif case == "random":
            assign = rng.integers(0, k, size=n)
        else:
            assign = 2 * classes + rng.integers(0, 2, size=n)
        truth, assign = [f"id-{c:03d}" for c in classes.tolist()], assign.tolist()
        r = v_measure(contingency(truth, assign), beta=beta)
        h, c, v = brute_v_measure(truth, assign, beta=beta)
        assert max(abs(r.homogeneity - h), abs(r.completeness - c), abs(r.v - v)) <= 1e-9
        assert 0.0 < r.v < 1.0

    def test_transpose_swaps_h_and_c(self):
        classes, clusters = ["A", "A", "B", "B", "C"], [0, 0, 0, 1, 1]
        r = v_measure(contingency(classes, clusters))
        # the same faces with the roles of class and cluster swapped
        rt = v_measure(contingency([str(c) for c in clusters], ["ABC".index(c) for c in classes]))
        assert rt.homogeneity == pytest.approx(r.completeness, abs=1e-12)
        assert rt.completeness == pytest.approx(r.homogeneity, abs=1e-12)

    def test_beta_limits(self):
        t = contingency(["A", "A", "B", "B"], [0, 0, 0, 1])
        r = v_measure(t)
        near_c = v_measure(t, beta=1e6).v
        near_h = v_measure(t, beta=1e-6).v
        assert near_c == pytest.approx(r.completeness, abs=1e-4)
        assert near_h == pytest.approx(r.homogeneity, abs=1e-4)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            v_measure(contingency(["A"], [0]), beta=0)


class TestContingencyTable:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ContingencyTable(counts=((1, -1),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ContingencyTable(counts=())


class TestMatchMetrics:
    def test_direct_counting(self):
        v = [
            ("A", decision(True), "A", frozenset({"A"})),
            ("B", decision(False), None, None),
        ]
        u = [decision(False)]
        m = match_metrics(v, u)
        assert (m.m1, m.m2, m.m3, m.m4) == (0.5, 0.5, 0.5, 1.0)

    def test_all_correct(self):
        v = [(lab, decision(True), lab, frozenset({lab})) for lab in "ABC"]
        m = match_metrics(v, [])
        assert (m.m1, m.m2, m.m3) == (1.0, 1.0, 1.0)
        assert m.m4 is None

    def test_label_present_but_not_majority(self):
        v = [("A", decision(True), "B", frozenset({"A", "B"}))]
        m = match_metrics(v, [])
        assert m.m2 == 0.0
        assert m.m3 == 1.0
        assert m.m1 == 1.0

    def test_ordering_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = []
            for _ in range(int(rng.integers(1, 10))):
                matched = bool(rng.integers(0, 2))
                same = bool(rng.integers(0, 2))
                present = same or bool(rng.integers(0, 2))
                lam = "A" if same else "B"
                lam_set = frozenset({"A", "B"}) if present else frozenset({"B"})
                v.append(("A", decision(matched), lam if matched else None, lam_set if matched else None))
            m = match_metrics(v, [decision(False)])
            assert m.m2 <= m.m3 <= m.m1
            for val in (m.m1, m.m2, m.m3, m.m4):
                assert 0.0 <= val <= 1.0

    def test_both_empty_errors(self):
        with pytest.raises(ValueError):
            match_metrics([], [])


class TestScoreVideo:
    def test_all_correct(self):
        gt = [(0, "f1", "A"), (0, "f2", "B"), (1, "f1", "A")]
        score = score_video(gt, gt)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)
        assert score.n_exact_frames == score.n_frames == 2

    def test_one_spurious_detection(self):
        gt = [(i, f"f{i}", "A") for i in range(100)]
        pred = gt + [(0, "mug", "B")]
        score = score_video(gt, pred)
        assert score.precision == pytest.approx(100 / 101, abs=1e-9)
        assert score.recall == 1.0
        assert score.n_exact_frames == 99  # the frame with the mug is not exact

    def test_one_undetected_face(self):
        gt = [(i, f"f{i}", "A") for i in range(100)]
        pred = gt[:-1]
        score = score_video(gt, pred)
        assert score.recall == pytest.approx(0.99, abs=1e-9)
        assert score.precision == 1.0

    def test_nonregistered_is_an_ordinary_label(self):
        gt = [(0, "f1", "non-registered")]
        assert score_video(gt, gt).precision == 1.0
        wrong = [(0, "f1", "A")]
        assert score_video(gt, wrong).precision == 0.0

    def test_duplicate_face_id_in_frame(self):
        with pytest.raises(ValueError):
            score_video([(0, "f1", "A"), (0, "f1", "B")], [])

    def test_frame_order_invariance(self):
        gt = [(2, "a", "A"), (0, "b", "B"), (1, "c", "C")]
        pred = [(1, "c", "C"), (0, "b", "X"), (2, "a", "A")]
        s1 = score_video(gt, pred)
        s2 = score_video(list(reversed(gt)), list(reversed(pred)))
        assert (s1.precision, s1.recall, s1.n_exact_frames) == (s2.precision, s2.recall, s2.n_exact_frames)

    def test_empty_f1_zero(self):
        score = score_video([(0, "a", "A")], [])
        assert score.f1 == 0.0
