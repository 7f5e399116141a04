"""Live invariant health checks, surfaced as alerts.

The invariant sweeps in :mod:`repro.fs.invariants` were built for the
*end* of a run — tests and chaos harnesses assert them after the engine
drains. :class:`HealthMonitor` runs the mid-run-safe subset
(:data:`repro.fs.invariants.LIVE_CHECKS`: accounting and replication;
readability issues real reads and stays offline) on a periodic
sim-time tick and turns persistent violations into ``health.alert``
events on the same :class:`~repro.obs.slo.AlertSink` the SLO monitor
uses — one combined, deterministically ordered timeline.

Replication violations are *expected* transiently: a fault kills a
replica, the replication monitor notices, repair traffic flows, and the
vector balances again. ``grace_ticks`` encodes that: a category must be
in violation for that many consecutive ticks before it fires, so the
alert means "stuck", not "healing". Accounting violations are never
expected; the default fires them on the first tick they appear.

Violation detail strings are sanitized before they reach the timeline
(block ids are process-global counters, so two identical seeded runs in
one process would otherwise disagree) — the alert carries stable text
plus the violation count, keeping timelines byte-identical across
repeated runs.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterable

from repro.errors import ConfigurationError
from repro.obs.slo import AlertSink
from repro.sim.periodic import PeriodicProcess

# NOTE: repro.fs.invariants is imported lazily inside the monitor —
# repro.obs must stay importable before repro.fs (the cluster module
# imports the facade from here during its own initialization).

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.system import OctopusFileSystem

__all__ = ["HealthMonitor", "sanitize_violation"]

#: Process-global identifiers that vary between repeated runs in one
#: interpreter; each is rewritten to a stable placeholder.
_BLOCK_ID = re.compile(r"\bblock (\d+)\b")

#: How many violation strings an alert carries verbatim.
_DETAIL_LIMIT = 3


def sanitize_violation(violation: str) -> str:
    """Rewrite run-varying identifiers to stable placeholders."""
    return _BLOCK_ID.sub("block <id>", violation)


class HealthMonitor:
    """Periodic live invariant sweep with per-category alert state.

    Same lifecycle contract as the SLO monitor and the tiering engine:
    :meth:`start` after construction, :meth:`stop` before draining the
    engine with a bare ``engine.run()``.
    """

    def __init__(
        self,
        system: "OctopusFileSystem",
        interval: float = 5.0,
        checks: Iterable[str] | None = None,
        grace_ticks: int | dict[str, int] | None = None,
        sink: AlertSink | None = None,
        name: str = "health-monitor",
    ) -> None:
        from repro.fs.invariants import LIVE_CHECKS

        self.system = system
        self.interval = float(interval)
        self.checks = tuple(checks) if checks is not None else LIVE_CHECKS
        if not self.checks:
            raise ConfigurationError("HealthMonitor needs at least one check")
        # Replication heals on its own; give repair one tick by default.
        defaults = {
            check: (2 if check == "replication" else 1)
            for check in self.checks
        }
        if isinstance(grace_ticks, int):
            defaults = {check: grace_ticks for check in self.checks}
        elif grace_ticks:
            defaults.update(grace_ticks)
        if any(v < 1 for v in defaults.values()):
            raise ConfigurationError("grace_ticks must be >= 1")
        self.grace_ticks = defaults
        self.sink = sink if sink is not None else AlertSink(system.obs)
        self.name = name
        self.ticks = 0
        self._streak: dict[str, int] = {check: 0 for check in self.checks}
        self._firing: dict[str, bool] = {check: False for check in self.checks}
        #: Sanitized findings of the most recent sweep, per check —
        #: what ``report --json`` shows without waiting for an alert.
        self.last_sweep: dict[str, dict] = {}
        self._periodic: PeriodicProcess | None = None

    @property
    def running(self) -> bool:
        return self._periodic is not None and self._periodic.running

    def start(self) -> "HealthMonitor":
        if self.running:
            raise ConfigurationError(f"monitor {self.name!r} already running")
        self._periodic = PeriodicProcess(
            self.system.engine,
            self.tick,
            self.interval,
            name=self.name,
        ).start()
        return self

    def stop(self) -> None:
        if self._periodic is not None:
            self._periodic.stop()
            self._periodic = None

    def tick(self) -> None:
        """One sweep: update per-category streaks, fire/resolve alerts."""
        from repro.fs.invariants import collect_violations

        self.ticks += 1
        violations = collect_violations(self.system, self.checks)
        obs = self.system.obs
        sweep_time = obs.now()
        for check in self.checks:
            found = violations[check]
            if found:
                self._streak[check] += 1
                if (
                    not self._firing[check]
                    and self._streak[check] >= self.grace_ticks[check]
                ):
                    self._firing[check] = True
                    details = sorted(sanitize_violation(v) for v in found)
                    self.sink.emit(
                        "health",
                        f"invariant:{check}",
                        "firing",
                        "page",
                        violations=len(found),
                        persisted_ticks=self._streak[check],
                        sample=details[:_DETAIL_LIMIT],
                    )
            else:
                self._streak[check] = 0
                if self._firing[check]:
                    self._firing[check] = False
                    self.sink.emit(
                        "health",
                        f"invariant:{check}",
                        "resolved",
                        "page",
                        violations=0,
                    )
        for check in self.checks:
            found = violations[check]
            self.last_sweep[check] = {
                "time": sweep_time,
                "violations": len(found),
                "sample": sorted(
                    sanitize_violation(v) for v in found
                )[:_DETAIL_LIMIT],
                "streak": self._streak[check],
                "firing": self._firing[check],
            }
        if obs.recorder is not None:
            obs.recorder.on_health(
                {
                    "time": sweep_time,
                    "violations": {
                        check: len(violations[check]) for check in self.checks
                    },
                    "firing": list(self.firing()),
                }
            )

    def firing(self) -> tuple[str, ...]:
        """Invariant categories currently in alert."""
        return tuple(
            f"invariant:{check}"
            for check in self.checks
            if self._firing[check]
        )

    def summary(self) -> dict:
        """The health overview for ``report --json``."""
        return {
            "ticks": self.ticks,
            "checks": list(self.checks),
            "alerts_firing": list(self.firing()),
            "alerts_emitted": len(
                [r for r in self.sink.timeline if r["source"] == "health"]
            ),
        }

    def report(self) -> dict:
        """Per-check state for ``report --json``'s ``health`` section.

        Carries the last sweep's sanitized findings plus the grace
        bookkeeping, so health is inspectable without a live monitor
        attached — construct a monitor, call :meth:`tick` once, read
        this.
        """
        return {
            **self.summary(),
            "grace_ticks": dict(self.grace_ticks),
            "checks": {
                check: self.last_sweep.get(
                    check,
                    {
                        "time": None,
                        "violations": None,
                        "sample": [],
                        "streak": 0,
                        "firing": False,
                    },
                )
                for check in self.checks
            },
        }
