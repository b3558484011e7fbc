"""Hypothesis fuzz of the command line: generated embedding files, stores and face label
files, with hostile numbers, frames and fps, empty or duplicate ids and mismatched
dimensions, never end in a traceback."""
import contextlib
import io
import json
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from clustermatch.cli import main

# hostile values: empty, repeated or tab-holding ids and labels, and numbers at the edges of
# float64 or beyond it; a file draws from them only when its hostile flag is drawn
HOSTILE_IDS = ["", "f0", "a\tb", "é"]
HOSTILE_LABELS = ["", "x y", "a\tb"]
HOSTILE_NUMBER_TEXT = st.sampled_from(
    ["1e308", "-1e308", "5e-324", "1e-320", "1e154", "1e200", "1e999", "nan", "inf", "-inf", "-0.0", "1_0", " 2", "x", ""]
)
# json.dumps writes nan and inf as NaN and Infinity
HOSTILE_JSON_NUMBER = st.sampled_from([1e308, -1e308, 5e-324, 1e154, 10**400, float("nan"), float("inf"), True, None, "1"])
NUMBER = st.floats(-10, 10)
# frame indices as a face label file may spell them: negative, fractional, signed, with a
# digit separator or a non-ASCII digit, beyond 64 bits or the float range, or not a number
HOSTILE_FRAMES = ["", "-1", "1.5", "+3", " 3", "1_0", "\u0663", "1" + "0" * 30, "1" + "0" * 400, "0x1", "x"]
# every value float() reads, so argparse passes each one to the program
HOSTILE_FPS = ["1", "30", "0", "-0", "-1", "nan", "inf", "-inf", "1e-310", "5e-324", "1e308", "1e999"]


def pick(draw, hostile: bool, ordinary, strange):
    """An ordinary value, or in a hostile file one of the strange values half the time."""
    return draw(st.sampled_from(strange)) if hostile and draw(st.booleans()) else ordinary


@st.composite
def embedding_file(draw) -> tuple[str, int]:
    """The text of a `#emb v1` file of 0-8 records, and the dimension its header states."""
    dim, hostile = draw(st.integers(1, 3)), draw(st.booleans())
    lines = [pick(draw, hostile, f"#emb v1 dim={dim}", ["#emb v1 dim=0", "#emb v2"])]
    for i in range(draw(st.integers(0, 8))):
        length = dim + pick(draw, hostile, 0, [-1, 1])
        numbers = st.one_of(NUMBER.map(repr), HOSTILE_NUMBER_TEXT) if hostile else NUMBER.map(repr)
        vector = ",".join(draw(st.lists(numbers, min_size=length, max_size=length)))
        frame = draw(st.sampled_from(["", "0", "3", *HOSTILE_FRAMES] if hostile else ["", "0", "3"]))
        label = pick(draw, hostile, draw(st.sampled_from(["x", "y", "z"])), HOSTILE_LABELS)
        lines.append("\t".join([pick(draw, hostile, f"f{i}", HOSTILE_IDS), "v", frame, label, vector]))
    return "\n".join(lines) + "\n", dim


@st.composite
def store_document(draw, dim: int) -> dict:
    """A store document of 0-3 entries, in the embedding file's dimension or another; a
    hostile header may claim 10^12 components, far more than the vectors hold."""
    hostile = draw(st.booleans())
    dim = pick(draw, hostile, dim, [dim + 1, 0])
    numbers = st.one_of(NUMBER, HOSTILE_JSON_NUMBER) if hostile else NUMBER

    def vector():
        length = max(dim + pick(draw, hostile, 0, [-1]), 0)
        return draw(st.lists(numbers, min_size=length, max_size=length))

    entries = []
    for j in range(draw(st.integers(0, 3))):
        member_ids = [pick(draw, hostile, f"s{j}-{m}", HOSTILE_IDS) for m in range(draw(st.integers(0 if hostile else 1, 3)))]
        label = pick(draw, hostile, draw(st.sampled_from(["x", "y", "z"])), HOSTILE_LABELS)
        entries.append({
            "label": label,
            "member_ids": member_ids,
            "centroid": vector(),
            "best_silhouette_id": pick(draw, hostile, draw(st.sampled_from(member_ids or ["s"])), HOSTILE_IDS),
            "best_silhouette_vector": vector(),
            "label_histogram": {label: pick(draw, hostile, len(member_ids), [0, -1, 2**64, 1.5])},
        })
    stated = pick(draw, hostile, dim, [10**12])
    return {"format": "clustermatch-store", "version": 1, "dimension": stated, "metadata": {}, "entries": entries}


@st.composite
def face_label_file(draw) -> str:
    """The text of a `#labels v1` file of 0-8 rows, its face ids and frames partly those
    that ``embedding_file`` writes."""
    hostile = draw(st.booleans())
    lines = [pick(draw, hostile, "#labels v1", ["#labels v2", ""])]
    for i in range(draw(st.integers(0, 8))):
        frame = pick(draw, hostile, draw(st.sampled_from(["0", "3", "4"])), HOSTILE_FRAMES)
        label = pick(draw, hostile, draw(st.sampled_from(["x", "y", "non-registered"])), [*HOSTILE_LABELS, "a\u2028b"])
        lines.append("\t".join([pick(draw, hostile, f"f{i}", HOSTILE_IDS), frame, label]))
    return "\n".join(lines) + "\n"


def run(argv) -> tuple[int, str]:
    """main's exit code and standard error; any exception escapes to fail the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def assert_result_or_one_error_line(argv) -> None:
    """``main(argv)`` exits 0 with nothing on standard error, or 1 with one `error:` line,
    and emits no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run(argv)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert code in (0, 1), (argv, err)
    if code == 0:
        assert not err, (argv, err)
    else:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_cluster_label_and_match_end_in_a_result_or_one_error_line(tmp_path_factory, data):
    text, dim = data.draw(embedding_file())
    root = tmp_path_factory.mktemp("fuzz")
    emb, store, out = root / "faces.emb", root / "store.json", root / "out"
    emb.write_text(text, encoding="utf-8")
    store.write_text(json.dumps(data.draw(store_document(dim))), encoding="utf-8")
    for argv in [
        ["cluster", "--in", emb, "--auto-k", "--out", out],
        ["cluster", "--in", emb, "--k", "2", "--out", out],
        ["label", "--in", emb, "--auto-k", "--out", out],
        ["match", "--in", emb, "--store", store, "--out", out],
    ]:
        assert_result_or_one_error_line(argv)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_evaluate_video_and_timeline_end_in_a_result_or_one_error_line(tmp_path_factory, data):
    text, _ = data.draw(embedding_file())
    root = tmp_path_factory.mktemp("fuzz-video")
    truth, labels, out = root / "truth.emb", root / "labels.tsv", root / "out"
    truth.write_text(text, encoding="utf-8")
    labels.write_text(data.draw(face_label_file()), encoding="utf-8")
    fps = data.draw(st.sampled_from(HOSTILE_FPS))
    for argv in [
        ["evaluate", "--mode", "video", "--truth", truth, "--pred", labels, "--out", out],
        ["timeline", "--labels", labels, f"--fps={fps}", "--out", out, "--json", root / "segments.json"],
    ]:
        assert_result_or_one_error_line(argv)
