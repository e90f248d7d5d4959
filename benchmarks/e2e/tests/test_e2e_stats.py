"""Quiet time, the tail-percentile rule and the spread measure."""

import pytest

import stats


def test_quiet_time_is_the_per_op_minimum_over_repeats():
    repeats = [[1.0, 5.0, 3.0], [2.0, 4.0, 9.0], [1.5, 6.0, 2.5]]
    assert stats.quiet_times(repeats) == [1.0, 4.0, 2.5]


def test_quiet_time_rejects_repeats_of_different_length():
    with pytest.raises(ValueError):
        stats.quiet_times([[1.0, 2.0], [1.0]])


def test_a_host_stall_in_one_repeat_does_not_survive_but_a_recurring_one_does():
    calm = [1.0] * 10
    stalled = calm[:4] + [50.0] + calm[5:]      # host interference, once
    recurring = calm[:7] + [8.0] + calm[8:]     # e.g. a GC pause at op 7, always
    both = [a if a > b else b for a, b in zip(stalled, recurring)]
    quiet = stats.quiet_times([recurring, both, recurring])
    assert quiet[4] == 1.0
    assert quiet[7] == 8.0


@pytest.mark.parametrize(
    "n, label, beyond",
    [(9, "p100", 0), (99, "p100", 0), (100, "p90", 10), (999, "p90", 99),
     (1000, "p99", 10), (3002, "p99", 30)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, label, beyond):
    values = list(range(n))
    got_label, value, got_beyond = stats.tail(values)
    assert (got_label, got_beyond) == (label, beyond)
    assert sum(v > value for v in values) == beyond


def test_wall_metrics_use_steps_for_throughput_and_ops_for_latency():
    # one burst step of 4 requests, then one single-op step
    steps = [[0.4, 0.1], [0.5, 0.2]]
    ops = [[0.2, 0.2, 0.4, 0.4, 0.1], [0.3, 0.3, 0.5, 0.5, 0.2]]
    wall = stats.wall_metrics(steps, ops)
    assert wall["ops_per_s"] == pytest.approx(5 / 0.5)
    assert wall["op_p50_ms"] == pytest.approx(200.0)
    assert wall["op_tail_percentile"] == "p100"
    assert wall["op_tail_ms"] == pytest.approx(400.0)


def test_p90_over_p10_or_max_over_min_for_few_samples():
    assert stats.p90_over_p10([2.0, 3.0, 4.0]) == 2.0
    assert stats.p90_over_p10([float(v) for v in range(1, 21)]) == 19.0 / 3.0
