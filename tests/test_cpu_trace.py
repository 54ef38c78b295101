"""Tests for the trace format and statistics."""

import pytest

from repro.cpu.trace import Trace, TraceEntry


class TestTraceEntry:
    def test_valid_entry(self):
        entry = TraceEntry(10, 0x1000, True)
        assert entry.bubble_count == 10
        assert entry.is_write

    def test_negative_bubble_rejected(self):
        with pytest.raises(ValueError):
            TraceEntry(-1, 0x1000)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            TraceEntry(1, -4)


class TestTrace:
    def test_from_tuples(self):
        trace = Trace.from_tuples([(5, 0x40), (3, 0x80, True)], name="t")
        assert len(trace) == 2
        assert trace[1].is_write
        assert trace.name == "t"

    def test_from_tuples_accepts_entries(self):
        trace = Trace.from_tuples([TraceEntry(1, 2)])
        assert trace[0].bubble_count == 1

    def test_total_instructions(self):
        trace = Trace.from_tuples([(5, 0x40), (3, 0x80)])
        # bubbles plus one instruction per memory access
        assert trace.total_instructions == 5 + 1 + 3 + 1

    def test_statistics(self):
        trace = Trace.from_tuples([(5, 0x40), (3, 0x80, True), (2, 0x40)])
        stats = trace.statistics()
        assert stats.num_entries == 3
        assert stats.num_reads == 2
        assert stats.num_writes == 1
        assert stats.unique_addresses == 2
        assert stats.total_instructions == 13

    def test_repeated(self):
        trace = Trace.from_tuples([(1, 0x40)])
        repeated = trace.repeated(3)
        assert len(repeated) == 3
        with pytest.raises(ValueError):
            trace.repeated(0)

    def test_truncated(self):
        trace = Trace.from_tuples([(1, 0x40), (2, 0x80), (3, 0xC0)])
        assert len(trace.truncated(2)) == 2

    def test_iteration_and_indexing(self):
        trace = Trace.from_tuples([(1, 0x40), (2, 0x80)])
        assert [entry.address for entry in trace] == [0x40, 0x80]
        assert trace[0].bubble_count == 1

    def test_append_and_extend(self):
        trace = Trace()
        trace.append(TraceEntry(1, 0x40))
        trace.extend([TraceEntry(2, 0x80)])
        assert len(trace) == 2

    def test_save_and_load_roundtrip(self, tmp_path):
        trace = Trace.from_tuples([(5, 0x1000), (0, 0x2000, True)], name="roundtrip")
        path = tmp_path / "trace.txt"
        trace.save(path)
        loaded = Trace.load(path)
        assert len(loaded) == 2
        assert loaded[0].bubble_count == 5
        assert loaded[0].address == 0x1000
        assert loaded[1].is_write
        assert loaded.name == "trace"

    def test_load_skips_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# comment\n\n3 0x100\n")
        loaded = Trace.load(path)
        assert len(loaded) == 1

    def test_load_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("justonefield\n")
        with pytest.raises(ValueError):
            Trace.load(path)

    def test_empty_trace_statistics(self):
        stats = Trace().statistics()
        assert stats.num_entries == 0
        assert stats.total_instructions == 0
