"""Span stack bookkeeping and self-time arithmetic."""

import pytest

from bench.spans import Installed, SpanRecorder, self_times


def test_self_time_is_duration_minus_children():
    # root(0) 0..10 holds a(1) 1..4 and b(2) 5..9; a holds c(2) 2..3.
    layer = [0, 1, 2, 2]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    seconds, calls = self_times(layer, parent, start, end, 3)
    assert seconds == pytest.approx([10 - 3 - 4, 3 - 1, 1 + 4])
    assert calls == [1, 1, 2]
    assert sum(seconds) == pytest.approx(10.0)   # the root's duration


def test_same_layer_nesting_is_not_counted_twice():
    layer = [0, 0]
    parent = [-1, 0]
    seconds, calls = self_times(layer, parent, [0.0, 2.0], [8.0, 5.0], 1)
    assert seconds == pytest.approx([8.0])
    assert calls == [2]


def test_recorder_tracks_parents_through_calls_and_exceptions():
    recorder = SpanRecorder(["outer", "inner"])

    def inner(fail):
        if fail:
            raise ValueError("boom")
        return "done"

    spanned_inner = recorder.wrap(inner, 1)

    def outer():
        assert spanned_inner(False) == "done"
        with pytest.raises(ValueError):
            spanned_inner(True)
        return spanned_inner(False)

    assert recorder.wrap(outer, 0)() == "done"
    assert list(recorder.layer) == [0, 1, 1, 1]
    assert list(recorder.parent) == [-1, 0, 0, 0]
    assert all(end >= start > 0.0
               for start, end in zip(recorder.start, recorder.end))
    # The stack is empty again: a new span is a root.
    recorder.exit(recorder.enter(0))
    assert recorder.parent[-1] == -1


def test_iterate_spans_each_pull_and_ends_cleanly():
    recorder = SpanRecorder(["source"])
    assert list(recorder.iterate(iter("abc"), 0)) == ["a", "b", "c"]
    assert len(recorder.layer) == 4        # three items and the end
    assert set(recorder.parent) == {-1}


def test_wrap_by_picks_the_layer_from_the_receiver():
    recorder = SpanRecorder(["server", "client"])

    class Socket:
        def __init__(self, port):
            self.port = port

        def deliver(self, data):
            return data * 2

    installed = Installed()
    installed.replace(Socket, "deliver", lambda plain: recorder.wrap_by(
        plain, lambda sock: 0 if sock.port == 53 else 1))
    assert Socket(53).deliver(2) == 4
    assert Socket(4000).deliver(3) == 6
    assert list(recorder.layer) == [0, 1]
    installed.restore()
    Socket(53).deliver(1)
    assert len(recorder.layer) == 2


def test_installed_keeps_classmethods_and_restores():
    recorder = SpanRecorder(["codec"])

    class Message:
        @classmethod
        def parse(cls, text):
            return cls, text.upper()

    original = Message.__dict__["parse"]
    installed = Installed()
    installed.replace(Message, "parse",
                      lambda plain: recorder.wrap(plain, 0))
    assert Message.parse("abc") == (Message, "ABC")
    assert len(recorder.layer) == 1
    installed.restore()
    assert Message.__dict__["parse"] is original
