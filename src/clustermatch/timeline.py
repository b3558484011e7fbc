"""Timeline segments: maximal constant-identity frame runs with times derived from fps."""
from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_FPS = 1.0


@dataclass(frozen=True)
class TimelineSegment:
    """One maximal run of consecutive frames where an identity is present."""

    identity: str
    start_time: float
    end_time: float
    first_frame: int
    last_frame: int

    def __post_init__(self) -> None:
        if self.start_time > self.end_time or self.first_frame > self.last_frame:
            raise ValueError("segment end precedes its start")


def emit_timeline(tagged_frames, fps: float = DEFAULT_FPS) -> list[TimelineSegment]:
    """Collapse (identity, frame_index) pairs into maximal per-identity segments.

    A gap in the frame sequence splits a run. Times are frame_index / fps; a
    time that is not a finite float raises ValueError naming the identity,
    frame and fps. Output is sorted by (first_frame, identity) for stable files.
    """
    if not (math.isfinite(fps) and fps > 0):
        raise ValueError(f"fps must be positive and finite, got {fps}")
    frames_by_identity: dict[str, set[int]] = {}
    for identity, frame_index in tagged_frames:
        if frame_index is None:
            raise ValueError(f"missing frame index for identity {identity!r}")
        frames_by_identity.setdefault(identity, set()).add(int(frame_index))

    segments: list[TimelineSegment] = []
    for identity, frames in frames_by_identity.items():
        ordered = sorted(frames)
        start = prev = ordered[0]
        for f in ordered[1:]:
            if f == prev + 1:
                prev = f
                continue
            segments.append(_segment(identity, start, prev, fps))
            start = prev = f
        segments.append(_segment(identity, start, prev, fps))
    segments.sort(key=lambda s: (s.first_frame, s.identity))
    return segments


def _segment(identity: str, first: int, last: int, fps: float) -> TimelineSegment:
    return TimelineSegment(
        identity=identity,
        start_time=_time(identity, first, fps),
        end_time=_time(identity, last, fps),
        first_frame=first,
        last_frame=last,
    )


def _time(identity: str, frame: int, fps: float) -> float:
    try:
        time = frame / fps
    except OverflowError:  # a frame index beyond the float range
        time = math.inf
    if not math.isfinite(time):
        raise ValueError(f"identity {identity!r}: frame {frame} at fps {fps!r} has no finite time in seconds")
    return time


def expand_segments(segments) -> set[tuple[str, int]]:
    """Inverse of emit_timeline: the (identity, frame) pairs the segments cover."""
    out: set[tuple[str, int]] = set()
    for s in segments:
        for f in range(s.first_frame, s.last_frame + 1):
            out.add((s.identity, f))
    return out


def format_segments(segments) -> str:
    """Tab-separated text: identity, start_s, end_s, first_frame, last_frame."""
    lines = ["#timeline v1"]
    for s in segments:
        lines.append(
            "\t".join(
                [s.identity, repr(s.start_time), repr(s.end_time), str(s.first_frame), str(s.last_frame)]
            )
        )
    return "\n".join(lines) + "\n"


def segments_to_records(segments) -> list[dict]:
    return [
        {
            "identity": s.identity,
            "start_time": s.start_time,
            "end_time": s.end_time,
            "first_frame": s.first_frame,
            "last_frame": s.last_frame,
        }
        for s in segments
    ]
