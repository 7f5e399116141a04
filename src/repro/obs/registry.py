"""Sim-time-aware metrics: counters, gauges, histograms, time series.

A :class:`MetricsRegistry` hands out *instruments* keyed by metric name
plus a (sorted) label set, exactly as a Prometheus client library would
— except that every timestamp comes from the simulation clock
(``engine.now``), not the wall clock, so two identically-seeded runs
produce identical metric state.

Instrument kinds:

* :class:`Counter` — monotonically increasing total (bytes written,
  placement decisions, faults injected).
* :class:`Gauge` — a value that goes up and down (active flows,
  reachable workers, pending replication).
* :class:`Histogram` — observation distribution with cumulative
  buckets, count, and sum (block write/read latencies, MOOP scores).
* :class:`TimeSeries` — a gauge that remembers every sample as a
  ``(sim_time, value)`` pair (per-resource utilization over a run).

The **disabled** path is a first-class citizen: :data:`NULL_REGISTRY`
returns one shared no-op instrument from every factory call, holds no
state, and allocates no per-event objects — instrumented hot paths stay
near-zero-cost when observability is off. Callers are still expected to
guard label-building with ``if obs.enabled:`` so the label ``dict``
itself is never constructed on the disabled path.

Live consumers (the SLO monitor in :mod:`repro.obs.slo`) subscribe to
instrument updates through :meth:`MetricsRegistry.watch` rather than
polling snapshots: each ``(kind, name)`` pair carries one shared
watcher list that matching instruments hold a reference to, so the
per-update cost with no watchers registered is a single falsy check on
the instrument's ``watchers`` slot, and :meth:`NullRegistry.watch` is a
no-op.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterator

#: Default histogram bucket upper bounds (simulated seconds / scores).
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    kind = "counter"
    __slots__ = ("name", "labels", "value", "watchers")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.watchers: list | None = None

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount
        if self.watchers:
            for watcher in self.watchers:
                watcher(self, amount)

    def data(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A value that can move in both directions."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value", "watchers")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.watchers: list | None = None

    def set(self, value: float) -> None:
        self.value = float(value)
        if self.watchers:
            for watcher in self.watchers:
                watcher(self, self.value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount
        if self.watchers:
            for watcher in self.watchers:
                watcher(self, self.value)

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount
        if self.watchers:
            for watcher in self.watchers:
                watcher(self, self.value)

    def data(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Cumulative-bucket distribution (Prometheus histogram semantics)."""

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "bucket_counts", "count",
                 "total", "min", "max", "watchers")

    def __init__(
        self,
        name: str,
        labels: LabelKey,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +Inf last
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.watchers: list | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self.watchers:
            for watcher in self.watchers:
                watcher(self, value)
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile from the cumulative buckets.

        Prometheus ``histogram_quantile`` semantics — linear
        interpolation inside the bucket that crosses rank ``q * count``
        — with two refinements the exact ``min``/``max`` tracking makes
        possible: the result is clamped to ``[min, max]`` (so a
        single-sample histogram returns that sample for every ``q``),
        and the +Inf bucket reports ``max`` instead of the unbounded
        upper edge. Returns ``None`` for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return None
        assert self.min is not None and self.max is not None
        rank = q * self.count
        running = 0
        lower = self.min  # no observation sits below the tracked min
        for bound, in_bucket in zip(self.buckets, self.bucket_counts):
            if in_bucket:
                running += in_bucket
                if running >= rank:
                    fraction = 1.0 - (running - rank) / in_bucket
                    value = lower + (bound - lower) * fraction
                    return min(max(value, self.min), self.max)
            lower = max(lower, bound)
        return self.max  # rank falls in the +Inf bucket

    def quantiles(self) -> dict[str, float]:
        """The snapshot percentiles: p50/p90/p99 (empty dict if no data)."""
        if self.count == 0:
            return {}
        return {
            "p50": self.quantile(0.50),  # type: ignore[dict-item]
            "p90": self.quantile(0.90),  # type: ignore[dict-item]
            "p99": self.quantile(0.99),  # type: ignore[dict-item]
        }

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, in_bucket in zip(self.buckets, self.bucket_counts):
            running += in_bucket
            out.append((bound, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out

    def data(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "quantiles": self.quantiles(),
            "buckets": [
                [bound if bound != float("inf") else "+Inf", count]
                for bound, count in self.cumulative_buckets()
            ],
        }


class TimeSeries:
    """A gauge that remembers every sample with its simulated timestamp.

    Times and values live in two flat ``array('d')`` (16 bytes a sample,
    nothing for the garbage collector to track); :attr:`samples` reads
    them back as ``(time, value)`` pairs.
    """

    kind = "timeseries"
    __slots__ = ("name", "labels", "times", "values", "_clock", "watchers")

    def __init__(
        self, name: str, labels: LabelKey, clock: Callable[[], float]
    ) -> None:
        self.name = name
        self.labels = labels
        self.times = array("d")
        self.values = array("d")
        self._clock = clock
        self.watchers: list | None = None

    def sample(self, value: float, at: float | None = None) -> None:
        """Record ``value`` now — or at ``at``, for a feed site that read
        the clock once for a whole pass of samples."""
        self.times.append(self._clock() if at is None else at)
        self.values.append(value)  # the array stores float(value)
        if self.watchers:
            for watcher in self.watchers:
                watcher(self, self.values[-1])

    @property
    def samples(self) -> list[tuple[float, float]]:
        return list(zip(self.times, self.values))

    @property
    def last(self) -> float | None:
        return self.values[-1] if self.values else None

    def data(self) -> dict:
        return {"samples": [[t, v] for t, v in zip(self.times, self.values)]}


def snapshot_entry(instrument) -> dict:
    """One instrument as :meth:`MetricsRegistry.snapshot` lists it."""
    return {
        "name": instrument.name,
        "labels": dict(instrument.labels),
        **instrument.data(),
    }


class MetricsRegistry:
    """Create-or-get instrument factory, stamped by the simulation clock."""

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self._instruments: dict[tuple[str, str, LabelKey], object] = {}
        self._watchers: dict[tuple[str, str], list] = {}

    def now(self) -> float:
        return self._clock()

    def _get(self, kind: str, factory, name: str, labels: dict) -> object:
        # Most lookups carry no labels: skip the sort and the generator.
        key = (kind, name, _label_key(labels) if labels else ())
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory(name, key[2])
            if self._watchers:
                # The shared list is attached by reference: watchers
                # registered later reach this instrument for free.
                instrument.watchers = self._watchers.get((kind, name))
            self._instruments[key] = instrument
        return instrument

    def watch(self, kind: str, name: str, callback: Callable) -> None:
        """Subscribe ``callback(instrument, value)`` to metric updates.

        Fires on every update of any instrument named ``name`` of kind
        ``kind`` (all label sets), existing or future, with the
        *observed* value — the histogram observation, counter
        increment, gauge/timeseries value. Watchers must not mint or
        mutate instruments from inside the callback.
        """
        watchers = self._watchers.get((kind, name))
        if watchers is None:
            watchers = self._watchers[(kind, name)] = []
        watchers.append(callback)
        for (k, n, _), instrument in self._instruments.items():
            if k == kind and n == name:
                instrument.watchers = watchers

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get("counter", Counter, name, labels)  # type: ignore[return-value]

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get("gauge", Gauge, name, labels)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        factory = lambda n, lk: Histogram(n, lk, buckets)  # noqa: E731
        return self._get("histogram", factory, name, labels)  # type: ignore[return-value]

    def timeseries(self, name: str, **labels: str) -> TimeSeries:
        factory = lambda n, lk: TimeSeries(n, lk, self._clock)  # noqa: E731
        return self._get("timeseries", factory, name, labels)  # type: ignore[return-value]

    def find(self, kind: str, name: str, **labels: str) -> object | None:
        """Look up an existing instrument WITHOUT creating it.

        The factory methods mint an instrument on first touch, which is
        right for producers but wrong for passive readers: a consumer
        probing for a histogram it only *might* find would leave an
        empty instrument behind and change every subsequent export. The
        tiering engine reads latency signals through this instead.
        """
        return self._instruments.get((kind, name, _label_key(labels)))

    def instruments(self) -> Iterator:
        """All instruments, deterministically ordered by (kind, name, labels)."""
        for key in sorted(self._instruments):
            yield self._instruments[key]

    def snapshot(self) -> dict:
        """The full registry as a JSON-serializable, deterministic dict.

        Always carries every instrument-kind key, so consumers can index
        into ``snapshot()["counters"]`` without guarding against a
        registry that never saw that kind.
        """
        out: dict[str, list] = {
            kind + "s": []
            for kind in ("counter", "gauge", "histogram", "timeseries")
        }
        for instrument in self.instruments():
            out[instrument.kind + "s"].append(snapshot_entry(instrument))
        return out

    def __len__(self) -> int:
        return len(self._instruments)


class _NullInstrument:
    """One shared no-op standing in for every instrument kind."""

    kind = "null"
    name = ""
    labels: LabelKey = ()
    value = 0.0
    count = 0
    total = 0.0
    mean = 0.0
    last = None
    watchers = None

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def sample(self, value: float, at: float | None = None) -> None:
        pass

    def quantile(self, q: float) -> None:
        return None

    def quantiles(self) -> dict:
        return {}

    def data(self) -> dict:
        return {}


#: The process-wide shared no-op instrument.
NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled registry: stateless, allocation-free, shared no-ops."""

    enabled = False

    __slots__ = ()

    def now(self) -> float:
        return 0.0

    def counter(self, name: str = "", **labels: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str = "", **labels: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(
        self, name: str = "", buckets: tuple = DEFAULT_BUCKETS, **labels: str
    ) -> _NullInstrument:
        return NULL_INSTRUMENT

    def timeseries(self, name: str = "", **labels: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def find(self, kind: str = "", name: str = "", **labels: str) -> None:
        return None

    def watch(self, kind: str = "", name: str = "", callback=None) -> None:
        return None

    def instruments(self) -> Iterator:
        return iter(())

    def snapshot(self) -> dict:
        return {}

    def __len__(self) -> int:
        return 0


#: The process-wide shared disabled registry.
NULL_REGISTRY = NullRegistry()
