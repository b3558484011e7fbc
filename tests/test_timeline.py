import numpy as np
import pytest

from clustermatch.timeline import (
    TimelineSegment,
    emit_timeline,
    expand_segments,
    format_segments,
)


class TestEmitTimeline:
    def test_continuous_run_single_segment(self):
        segments = emit_timeline([("A", f) for f in range(12)], fps=1.0)
        assert segments == [
            TimelineSegment(identity="A", start_time=0.0, end_time=11.0, first_frame=0, last_frame=11)
        ]

    def test_gap_splits_runs(self):
        segments = emit_timeline([("A", f) for f in (0, 1, 5, 6)])
        assert [(s.first_frame, s.last_frame) for s in segments] == [(0, 1), (5, 6)]

    def test_two_identities_overlap(self):
        tagged = [("A", 0), ("B", 0), ("A", 1), ("B", 1)]
        segments = emit_timeline(tagged)
        assert len(segments) == 2
        assert {s.identity for s in segments} == {"A", "B"}

    def test_fps_scales_times(self):
        (seg,) = emit_timeline([("A", 10), ("A", 11)], fps=2.0)
        assert (seg.start_time, seg.end_time) == (5.0, 5.5)

    def test_missing_frame_errors(self):
        with pytest.raises(ValueError):
            emit_timeline([("A", None)])

    def test_invalid_fps(self):
        with pytest.raises(ValueError):
            emit_timeline([("A", 0)], fps=0)

    @pytest.mark.parametrize("frame, fps", [(5, 1e-310), (10**400, 30.0)], ids=["tiny-fps", "huge-frame"])
    def test_time_beyond_the_float_range(self, frame, fps):
        with pytest.raises(ValueError, match=f"'A': frame {frame} at fps {fps!r}"):
            emit_timeline([("A", frame)], fps=fps)

    def test_duplicate_tags_collapse(self):
        segments = emit_timeline([("A", 0), ("A", 0), ("A", 1)])
        assert len(segments) == 1

    def test_segments_are_maximal(self):
        # no two segments of one identity may touch
        rng = np.random.default_rng(0)
        for _ in range(20):
            frames = sorted(set(int(f) for f in rng.integers(0, 30, size=15)))
            segments = emit_timeline([("A", f) for f in frames])
            for a, b in zip(segments, segments[1:]):
                assert b.first_frame > a.last_frame + 1

    def test_expansion_round_trip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            tagged = {
                (f"id{int(rng.integers(0, 4))}", int(rng.integers(0, 40)))
                for _ in range(int(rng.integers(1, 30)))
            }
            segments = emit_timeline(sorted(tagged))
            assert expand_segments(segments) == tagged


class TestFormatting:
    def test_text_format(self):
        segments = emit_timeline([("A", 0), ("A", 1), ("B", 3)])
        text = format_segments(segments)
        lines = text.strip().splitlines()
        assert lines[0] == "#timeline v1"
        assert lines[1].split("\t") == ["A", "0.0", "1.0", "0", "1"]
        assert lines[2].split("\t") == ["B", "3.0", "3.0", "3", "3"]

    def test_invalid_segment(self):
        with pytest.raises(ValueError):
            TimelineSegment(identity="A", start_time=5.0, end_time=1.0, first_frame=5, last_frame=1)
