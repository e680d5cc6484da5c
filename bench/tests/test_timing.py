"""Per-socket anchor fit and on-time share, on synthetic captures."""

import pytest

from bench import timing


def capture(count, interval, offsets, jitter=None, missing=()):
    """Records alternate between sockets; socket *p* sends ``offsets[p]``
    after the schedule, plus ``jitter(index)``."""
    ports = sorted(offsets)
    arrivals, senders, timestamps = [], [], []
    for index in range(count):
        port = ports[index % len(ports)]
        timestamp = index * interval
        late = jitter(index) if jitter else 0.0
        arrivals.append(0.0 if index in missing
                        else 100.0 + timestamp + offsets[port] + late)
        senders.append(port)
        timestamps.append(timestamp)
    return arrivals, senders, timestamps


def test_anchor_is_fitted_per_socket():
    arrivals, ports, timestamps = capture(
        1000, 0.001, {40001: 0.0002, 40002: 0.0047})
    anchors = timing.fit_anchors(arrivals, ports, timestamps)
    assert anchors[40001] == pytest.approx(100.0002)
    assert anchors[40002] == pytest.approx(100.0047)
    errors = timing.send_errors(arrivals, ports, timestamps, anchors)
    assert max(abs(error) for error in errors) < 1e-9
    assert timing.on_time_count(errors) == 1000


def test_one_shared_anchor_would_miss_what_two_keep():
    # 6 ms between the sockets' latches: one anchor lands midway and
    # every record sits 3 ms off it; per socket none is off at all.
    arrivals, ports, timestamps = capture(
        1000, 0.001, {40001: 0.0, 40002: 0.006})
    shared = timing.fit_anchors(arrivals, [0] * 1000, timestamps)
    shared_errors = timing.send_errors(arrivals, [0] * 1000, timestamps,
                                       shared)
    assert timing.on_time_count(shared_errors) == 0
    anchors = timing.fit_anchors(arrivals, ports, timestamps)
    errors = timing.send_errors(arrivals, ports, timestamps, anchors)
    assert timing.on_time_count(errors) == 1000


def test_anchor_is_a_median_so_late_sends_do_not_move_it():
    arrivals, ports, timestamps = capture(
        1001, 0.001, {40001: 0.0},
        jitter=lambda index: 0.050 if index % 10 == 0 else 0.0)
    anchors = timing.fit_anchors(arrivals, ports, timestamps)
    assert anchors[40001] == pytest.approx(100.0)
    errors = timing.send_errors(arrivals, ports, timestamps, anchors)
    assert timing.on_time_count(errors) == 1001 - 101


def test_missing_arrivals_miss():
    missing = set(range(0, 1000, 4))
    arrivals, ports, timestamps = capture(
        1000, 0.001, {40001: 0.0, 40002: 0.001}, missing=missing)
    anchors = timing.fit_anchors(arrivals, ports, timestamps)
    errors = timing.send_errors(arrivals, ports, timestamps, anchors)
    assert len(errors) == 750
    # The share is of the records in the trace, not of those that came.
    assert timing.on_time_count(errors) / len(arrivals) == 0.75


def test_a_socket_nothing_arrived_from_has_no_anchor():
    arrivals, ports, timestamps = capture(
        10, 0.001, {40001: 0.0, 40002: 0.0}, missing=set(range(1, 10, 2)))
    anchors = timing.fit_anchors(arrivals, ports, timestamps)
    assert set(anchors) == {40001}
    assert len(timing.send_errors(arrivals, ports, timestamps,
                                  anchors)) == 5


def test_tolerance_is_inclusive_and_two_sided():
    assert timing.on_time_count([-0.0025, 0.0025, 0.0026, -0.0026, 0.0]) == 3


def test_percentile_nearest_rank():
    values = sorted(float(value) for value in range(100))
    assert timing.percentile(values, 0.50) == 50.0
    assert timing.percentile(values, 0.99) == 99.0
    assert timing.percentile([], 0.5) == 0.0
