"""Unit tests for the SLO monitor's sliding window (``repro.obs.slo``).

One window per (SLO, group): tumbling sim-time buckets of good/bad
counts and latencies. Counts, eviction and burn rates are checked
against hand-computed windows on a fake clock; the ``p99`` that
``watch_summary`` prints is the exact 0-indexed rank statistic
``sorted(values)[floor(q * (n - 1))]`` of the latencies in the window,
``None`` on an empty one (matching ``Histogram.quantile``). A guard
keeps the names of the deleted ``repro.obs.windows`` module out of the
source and the docs.
"""

import ast
import json
import math
import re
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.obs import (
    AvailabilitySlo,
    BurnRateRule,
    LatencySlo,
    Observability,
    SloMonitor,
)
from repro.obs.slo import _burn_rate, _Window


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def exact_quantile(values, q):
    """The repo's rank rule: ``sorted(values)[floor(q * (n - 1))]``."""
    ordered = sorted(values)
    return ordered[math.floor(q * (len(ordered) - 1))]


def window_of(latencies, clock=None, width=1.0, retention=10.0):
    window = _Window(clock or FakeClock(), width, retention)
    for value in latencies:
        window.record(False, latency=value)
    return window


def latency_monitor(clock):
    """An engine-less monitor with one ungrouped latency SLO."""
    obs = Observability(clock=clock, enabled=True)
    slo = LatencySlo("lat", "read_seconds", threshold=0.1, target=0.9)
    rule = BurnRateRule(slo, long_window=8.0, short_window=2.0)
    return SloMonitor(rules=[rule], obs=obs, clock=clock, interval=1.0), obs


# ----------------------------------------------------------------------
# The window's exact quantile
# ----------------------------------------------------------------------
def test_empty_sketch_returns_none():
    """A window that never saw a latency has no quantile."""
    window = _Window(FakeClock(), 1.0, 10.0)
    assert window.quantile(0.99, 10.0) is None
    assert window.totals(10.0) == (0, 0)


def test_single_value_is_exact():
    window = window_of([42.0])
    for q in (0.0, 0.5, 0.99, 1.0):
        assert window.quantile(q, 10.0) == 42.0


def test_zero_values_tracked_exactly():
    window = window_of([0.0, 0.0, 0.0, 10.0])
    assert window.quantile(0.0, 10.0) == 0.0
    assert window.quantile(0.5, 10.0) == 0.0
    assert window.quantile(1.0, 10.0) == 10.0


def test_relative_error_bound_on_known_data():
    """The bound is 0: the window's quantile is the exact rank
    statistic of what it holds."""
    values = [0.0001 * (i * 37 % 5000 + 1) for i in range(5000)]
    window = window_of(values)
    for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999):
        assert window.quantile(q, 10.0) == exact_quantile(values, q), q


def test_extremes_stay_within_min_max():
    window = window_of([3.0, 1.0, 2.0, 9.0, 0.5])
    assert window.quantile(0.0, 10.0) == 0.5
    assert window.quantile(1.0, 10.0) == 9.0


def test_merge_equals_union():
    """Latencies spread over several buckets of the window answer as
    the same latencies in one bucket."""
    clock = FakeClock()
    spread = _Window(clock, 1.0, 10.0)
    values = [0.001 * i for i in range(1, 500)]
    for i, value in enumerate(values):
        clock.now = float(i % 7)
        spread.record(False, latency=value)
    clock.now = 6.0
    whole = window_of(values, clock=clock)
    for q in (0.1, 0.5, 0.9, 0.99):
        assert spread.quantile(q, 10.0) == whole.quantile(q, 10.0)
        assert spread.quantile(q, 10.0) == exact_quantile(values, q)


def test_insertion_order_does_not_matter():
    values = [0.01 * (i % 97 + 1) for i in range(300)]
    forward, backward = window_of(values), window_of(reversed(values))
    for q in (0.0, 0.5, 0.99, 1.0):
        assert forward.quantile(q, 10.0) == backward.quantile(q, 10.0)


def test_data_round_trip_is_json_friendly():
    """``watch_summary``, p99 cell included, is what ``--slo`` prints:
    it survives a JSON round trip unchanged."""
    clock = FakeClock()
    monitor, obs = latency_monitor(clock)
    for value in (0.5, 1.0, 2.0):
        obs.metrics.histogram("read_seconds").observe(value)
    summary = monitor.watch_summary()
    assert json.loads(json.dumps(summary)) == summary
    assert summary["slos"][0]["events"] == 3


def test_watch_summary_p99_is_the_exact_rank_statistic():
    """Not a bucket midpoint: the p99 cell is one of the observed
    latencies, ``sorted(values)[floor(0.99 * (n - 1))]``."""
    clock = FakeClock()
    monitor, obs = latency_monitor(clock)
    values = [0.0101 * (i * 37 % 101 + 1) for i in range(101)]
    for value in values:
        obs.metrics.histogram("read_seconds").observe(value)
    (entry,) = monitor.watch_summary()["slos"]
    assert entry["p99"] == exact_quantile(values, 0.99) == sorted(values)[99]


# ----------------------------------------------------------------------
# Counts, eviction and the sliding query on a fake clock
# ----------------------------------------------------------------------
def test_windowed_counts_rates_and_eviction():
    clock = FakeClock()
    window = _Window(clock, 1.0, 5.0)
    assert window.totals(5.0) == (0, 0)

    window.record(False, count=3)
    window.record(True)
    assert window.totals(5.0) == (3, 1)

    clock.now = 2.0
    window.record(True)
    # The short window only sees the newest bucket.
    assert window.totals(1.0) == (0, 1)
    assert window.totals(5.0) == (3, 2)

    # Advance past retention: the old buckets evict.
    clock.now = 30.0
    window.record(False)
    assert window.totals(5.0) == (1, 0)
    assert list(window._buckets) == [30]


def test_windowed_counts_validates_count():
    """A counter increment of zero is not an event."""
    clock = FakeClock()
    obs = Observability(clock=clock, enabled=True)
    slo = AvailabilitySlo("avail", "good_total", "bad_total", target=0.9)
    monitor = SloMonitor(
        rules=[BurnRateRule(slo, long_window=8.0, short_window=2.0)],
        obs=obs, clock=clock,
    )
    obs.metrics.counter("bad_total").inc(0)
    assert monitor.watch_summary()["slos"] == []
    obs.metrics.counter("bad_total").inc(2)
    (entry,) = monitor.watch_summary()["slos"]
    assert (entry["events"], entry["errors"]) == (2, 2)


def test_windowed_sketch_windows_slide():
    clock = FakeClock()
    window = _Window(clock, 1.0, 10.0)
    window.record(False, latency=1.0)
    clock.now = 5.0
    window.record(True, latency=100.0)
    # The full window sees both; a 2 s window only the recent value.
    assert window.quantile(0.0, 10.0) == 1.0
    assert window.quantile(0.99, 10.0) == 1.0
    assert window.quantile(1.0, 10.0) == 100.0
    assert window.quantile(0.0, 2.0) == 100.0
    # An idle stretch leaves the trailing short window empty.
    clock.now = 7.5
    assert window.quantile(0.5, 1.0) is None
    assert window.quantile(0.99, 10.0) == 1.0


def test_windowed_sketch_empty_window_is_none():
    """Latencies that slid out of the window leave it empty."""
    clock = FakeClock()
    window = window_of([0.05], clock=clock)
    assert window.quantile(0.99, 10.0) == 0.05
    clock.now = 100.0
    assert window.quantile(0.99, 10.0) is None
    assert window.totals(10.0) == (0, 0)


def test_burn_rate():
    assert _burn_rate(0, 0, 0.01) == 0.0
    assert _burn_rate(95, 5, 0.01) == pytest.approx(5.0)
    assert _burn_rate(10, 0, 0.05) == 0.0
    assert _burn_rate(0, 4, 0.1) == pytest.approx(10.0)


def test_bucket_ring_rejects_bad_geometry():
    """A non-positive tick interval or rule window is refused when the
    monitor is built, not at its first observation."""
    clock = FakeClock()
    obs = Observability(clock=clock, enabled=True)
    with pytest.raises(ConfigurationError):
        SloMonitor(obs=obs, clock=clock, interval=0.0)
    slo = LatencySlo("lat", "m", 1.0)
    rule = BurnRateRule(slo, long_window=10.0, short_window=0.0)
    with pytest.raises(ConfigurationError):
        SloMonitor(rules=[rule], obs=obs, clock=clock)


# ----------------------------------------------------------------------
# The deleted module stays deleted
# ----------------------------------------------------------------------
DELETED_WINDOW_NAMES = (
    "QuantileSketch", "WindowedSketch", "WindowedCounts", "DEFAULT_ALPHA",
)


def test_deleted_window_names_stay_out_of_the_source():
    """No module of ``repro`` imports ``repro.obs.windows`` or defines,
    imports, names or exports the sketch and ring it held."""
    import repro.obs

    root = Path(repro.__file__).parent
    assert not (root / "obs" / "windows.py").exists()
    offenders = sorted(set(repro.obs.__all__) & set(DELETED_WINDOW_NAMES))
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            else:
                continue
            offenders += [
                f"{module}:{node.lineno} {name}"
                for name in names
                if name in DELETED_WINDOW_NAMES or "repro.obs.windows" in name
            ]
    assert not offenders, "\n".join(offenders)


def test_docs_name_no_deleted_window_binding():
    root = Path(__file__).resolve().parents[1]
    docs = ["README.md", "DESIGN.md", *sorted(
        p.relative_to(root).as_posix() for p in (root / "docs").glob("*.md")
    )]
    offenders = [
        f"{doc}: {name}"
        for doc in docs
        for name in (*DELETED_WINDOW_NAMES, r"repro\.obs\.windows")
        if re.search(rf"\b{name}\b", (root / doc).read_text())
    ]
    assert not offenders, "\n".join(offenders)
