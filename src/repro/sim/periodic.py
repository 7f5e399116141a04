"""A stoppable periodic callback process for the simulation engine.

The background daemons — :class:`~repro.fs.system.OctopusFileSystem`'s
heartbeats and replication monitor, the tiering engine's rounds, the
SLO and health monitors — all share one shape: do work every interval
while running. The pattern is factored here once.

By default the loop *waits first* (``initial_delay``, defaulting to the
interval, lets the first firing land off the shared interval grid so
co-scheduled daemons don't all tick at the same instants), so starting
a periodic process never fires the callback at the current instant.
``initial_delay=0`` fires first instead: in the engine step that starts
the process, with no zero-length timeout before it — the file system's
daemons run that way. Either way, a process attached to an otherwise
idle engine can be drained with a bare ``engine.run()`` once
:meth:`PeriodicProcess.stop` has been called. The running flag is
re-checked after every wait, so a ``stop()`` issued while the process
sleeps cancels the next firing rather than squeezing in one last
callback.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Process, SimulationEngine


class PeriodicProcess:
    """Run ``callback()`` every ``interval`` simulated seconds."""

    def __init__(
        self,
        engine: "SimulationEngine",
        callback: Callable[[], object],
        interval: float,
        name: str = "periodic",
        initial_delay: float | None = None,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError("periodic interval must be positive")
        if initial_delay is not None and initial_delay < 0:
            raise ConfigurationError("initial_delay must not be negative")
        self.engine = engine
        self.callback = callback
        self.interval = float(interval)
        self.initial_delay = (
            float(initial_delay) if initial_delay is not None
            else float(interval)
        )
        self.name = name
        self.ticks = 0
        self.process: "Process | None" = None
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> "PeriodicProcess":
        if self._running:
            raise ConfigurationError(f"periodic process {self.name!r} already running")
        self._running = True
        self.process = self.engine.process(self._loop(), name=self.name)
        return self

    def stop(self) -> None:
        self._running = False

    def _loop(self) -> Generator:
        wait = self.initial_delay
        while self._running:
            if wait:
                yield self.engine.timeout(wait)
                if not self._running:
                    return
            wait = self.interval
            self.callback()
            self.ticks += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self._running else "stopped"
        return f"<PeriodicProcess {self.name!r} every {self.interval}s {state}>"
