"""Exponential-decay access heat with a recency half-life.

The automation loop of Herodotou & Kakoulli's follow-up paper scores
files by *how often* and *how recently* they are accessed. One number
captures both: an exponentially decayed access count. Every access adds
``weight`` to a file's heat; between accesses the heat halves every
``half_life`` simulated seconds. A file read ten times an hour ago and
one read ten times just now therefore rank very differently, while two
files with identical access traces always score identically — heat is a
pure function of the (path, time) access sequence, which is what lets
the policy layer stay deterministic and testable.

The tracker is storage-agnostic: it knows nothing about vectors, tiers,
or the file system. :class:`~repro.tier.engine.TieringEngine` feeds it
from the file system's access listeners and snapshots it once per
policy round.
"""

from __future__ import annotations

from collections.abc import Container

from repro.errors import ConfigurationError

#: Heat below this is indistinguishable from cold; ``prune`` drops it.
DEFAULT_PRUNE_FLOOR = 1e-6


class HeatTracker:
    """Per-key exponential-decay heat (half-life in simulated seconds)."""

    __slots__ = ("half_life", "_entries")

    def __init__(self, half_life: float) -> None:
        if half_life <= 0:
            raise ConfigurationError("heat half-life must be positive")
        self.half_life = float(half_life)
        #: key -> (heat at ``last``, last update time)
        self._entries: dict[str, tuple[float, float]] = {}

    def _decayed(self, heat: float, last: float, now: float) -> float:
        if now <= last:
            return heat
        return heat * 2.0 ** (-(now - last) / self.half_life)

    def record(self, key: str, now: float, weight: float = 1.0) -> float:
        """Note one access at simulated time ``now``; returns the new heat."""
        entry = self._entries.get(key)
        if entry is None:
            heat = float(weight)
        else:
            heat = self._decayed(entry[0], entry[1], now) + weight
        self._entries[key] = (heat, now)
        return heat

    def heat(self, key: str, now: float) -> float:
        """The decayed heat of ``key`` as seen at ``now`` (0.0 if unknown)."""
        entry = self._entries.get(key)
        if entry is None:
            return 0.0
        return self._decayed(entry[0], entry[1], now)

    def snapshot(self, now: float) -> dict[str, tuple[float, float]]:
        """All tracked keys, sorted, each with its heat decayed to
        ``now`` and the time of its latest access.

        The dict iterates in key order so consumers that walk it are
        deterministic regardless of access interleaving.
        """
        return {
            key: (self._decayed(heat, last, now), last)
            for key, (heat, last) in sorted(self._entries.items())
        }

    def forget(self, key: str) -> None:
        """Stop tracking ``key`` (deleted file)."""
        self._entries.pop(key, None)

    def prune(
        self,
        now: float,
        floor: float = DEFAULT_PRUNE_FLOOR,
        keep: Container[str] = (),
    ) -> int:
        """Drop keys whose heat decayed below ``floor``; returns the count.

        Bounds tracker memory on long runs: a key untouched for
        ``~20 half-lives`` decays below the default floor and is
        reclaimed on the next policy round — unless it is in ``keep``
        (the engine's own promotions: a file it still has to demote
        must stay observed however cold it gets).
        """
        cold = [
            key
            for key, (heat, last) in self._entries.items()
            if self._decayed(heat, last, now) < floor and key not in keep
        ]
        for key in cold:
            del self._entries[key]
        return len(cold)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HeatTracker tracked={len(self._entries)} t½={self.half_life}>"
