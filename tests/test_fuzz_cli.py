"""Hypothesis fuzz of the command line: generated embedding files and stores, with hostile
numbers, empty or duplicate ids and mismatched dimensions, never end in a traceback."""
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
        frame = draw(st.sampled_from(["", "0", "3", "-1", "1.5", "1" + "0" * 30] if hostile else ["", "0", "3"]))
        label = pick(draw, hostile, draw(st.sampled_from(["x", "y", "z"])), HOSTILE_LABELS)
        lines.append("\t".join([pick(draw, hostile, f"f{i}", HOSTILE_IDS), "v", frame, label, vector]))
    return "\n".join(lines) + "\n", dim


@st.composite
def store_document(draw, dim: int) -> dict:
    """A store document of 0-3 entries, in the embedding file's dimension or another."""
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
    return {"format": "clustermatch-store", "version": 1, "dimension": dim, "metadata": {}, "entries": entries}


def run(argv) -> tuple[int, str]:
    """main's exit code and standard error; any exception escapes to fail the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_cluster_label_and_match_end_in_a_result_or_one_error_line(tmp_path_factory, data):
    text, dim = data.draw(embedding_file())
    root = tmp_path_factory.mktemp("fuzz")
    emb, store, out = root / "faces.emb", root / "store.json", root / "out"
    emb.write_text(text, encoding="utf-8")
    store.write_text(json.dumps(data.draw(store_document(dim))), encoding="utf-8")
    runs = [
        ["cluster", "--in", emb, "--auto-k", "--out", out],
        ["cluster", "--in", emb, "--k", "2", "--out", out],
        ["label", "--in", emb, "--auto-k", "--out", out],
        ["match", "--in", emb, "--store", store, "--out", out],
    ]
    for argv in runs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = run(argv)
        assert not caught, (argv, [str(w.message) for w in caught])
        assert code in (0, 1), (argv, err)
        if code == 0:
            assert not err, (argv, err)
        else:
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
