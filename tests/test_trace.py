"""Tests for per-rank SPMD tracing and the ASCII Gantt of a trace."""

from repro.core.spmd import SpmdRank
from repro.mpi import run_spmd
from repro.obs import EventRecord, Recorder, SpanRecord, TraceData, gantt


def _trace(*spans, event_tracks=()):
    """A trace holding ``(name, track, start, end)`` spans, plus one
    instant event on each of *event_tracks* (tracks with no spans)."""
    return TraceData(
        spans=[SpanRecord(name, track, start, end, index=i)
               for i, (name, track, start, end) in enumerate(spans)],
        events=[EventRecord("iteration", t, 0.0, {}) for t in event_tracks])


def _row(out: str, track: str) -> str:
    return next(ln for ln in out.splitlines()
                if ln.lstrip().startswith(track + " |"))


class TestGanttEdgeCases:
    def test_empty_rows_still_render(self):
        """Tracks without spans (event-only) get an (empty) row, not an
        exception."""
        out = gantt(_trace(("mid", "rank1", 0.0, 1.0),
                           event_tracks=("rank0", "rank2")), width=30)
        assert set(_row(out, "rank0").split("|")[1]) <= {" "}
        assert set(_row(out, "rank2").split("|")[1]) <= {" "}
        assert "#" in _row(out, "rank1")

    def test_zero_duration_span(self):
        """A zero-length span paints at least one cell and the horizon
        stays positive (no division by zero)."""
        out = gantt(_trace(("instant", "rank0", 0.5, 0.5)), width=30)
        assert "[#] instant" in out
        assert _row(out, "rank0").count("#") == 1

    def test_truncation_line_counts_hidden_ranks(self):
        out = gantt(_trace(*[("x", f"rank{r}", 0.0, 1.0)
                             for r in range(20)]), max_tracks=16)
        assert "... (4 more tracks)" in out
        assert "rank15 |" in out and "rank16" not in out

    def test_glyph_reuse_past_ten_labels(self):
        """The glyph alphabet has 10 symbols; label 11 wraps around to
        the first glyph rather than failing."""
        out = gantt(_trace(*[(f"lab{i}", "rank0", float(i), i + 0.5)
                             for i in range(12)]), width=60)
        assert "[#] lab0" in out and "[#] lab10" in out
        assert "[*] lab1" in out and "[*] lab11" in out

    def test_recorder_mirroring(self):
        """An SPMD rank opens its spans on the meter's recorder, under
        the rank's own track, and the live recorder renders as is."""
        rec = Recorder()

        def fn(comm):
            rank = SpmdRank(comm=comm, dec=None, index=comm.rank, W=None,
                            layout=None, factor=None)
            with rank._span("exchange"):
                pass

        run_spmd(2, fn, recorder=rec)
        assert sorted(s.track for s in rec.find("exchange")) == \
            ["rank0", "rank1"]
        out = gantt(rec, width=30)
        assert "rank0 |" in out and "rank1 |" in out
        assert "[#] exchange" in out

    def test_rank_rows_sorted_numerically(self):
        """Ranks open their first span in scheduling order; the rows
        follow the rank number, after the non-rank tracks."""
        out = gantt(_trace(*[("x", t, 0.0, 1.0)
                             for t in ("rank4", "main", "rank0", "rank10",
                                       "rank2")]), width=30)
        rows = [ln.split(" |", 1)[0].strip() for ln in out.splitlines()
                if " |" in ln]
        assert rows == ["main", "rank0", "rank2", "rank4", "rank10"]
