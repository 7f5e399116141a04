"""Replication vectors: per-tier replica counts (paper §2.3).

A replication vector ``⟨M, S, H, R, U⟩`` states how many replicas of a
file live on each storage tier, with the special entry **U**
("Unspecified") counting replicas whose tier the system chooses via the
placement policy. The full spectrum between controllability and
automatability falls out of this one mechanism:

* all tiers explicit, ``U = 0`` — full user control;
* only ``U`` set — HDFS-compatible automatic behaviour (the old scalar
  replication factor ``r`` maps to ``U = r``);
* a mix — partial control.

Changing a file's vector expresses moves, copies, replica-count changes,
and per-tier deletes; :meth:`ReplicationVector.diff` computes the
per-tier additions/removals the replication manager must execute.

Vectors are immutable and hashable, and encode into 64 bits (8 bits per
entry, up to 7 tiers + U), matching the paper's claim that a vector is
as cheap to store as the old replication short.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import ReplicationVectorError

#: Pseudo-tier key for replicas whose tier the placement policy chooses.
UNSPECIFIED = "UNSPECIFIED"

#: Default tier axis: the paper's ⟨M, S, H, R⟩ ordering.
DEFAULT_TIER_ORDER = ("MEMORY", "SSD", "HDD", "REMOTE")

_MAX_ENTRY = 255  # 8 bits per entry
_MAX_TIERS = 7  # 7 tiers + U fit in 64 bits


class ReplicationVector:
    """An immutable mapping of tier name → replica count, plus U."""

    __slots__ = ("_counts", "_unspecified", "_encoded")

    def __init__(
        self,
        counts: Mapping[str, int] | None = None,
        unspecified: int = 0,
    ) -> None:
        cleaned: dict[str, int] = {}
        for tier, count in (counts or {}).items():
            if tier == UNSPECIFIED:
                unspecified += count
                continue
            self._check_entry(tier, count)
            if count:
                cleaned[tier.upper()] = int(count)
        self._check_entry(UNSPECIFIED, unspecified)
        self._counts = dict(sorted(cleaned.items()))
        self._unspecified = int(unspecified)
        #: The last ``(tier_order, encoding)`` pair :meth:`encode` produced.
        self._encoded: tuple[tuple[str, ...], int] | None = None

    @staticmethod
    def _check_entry(tier: str, count: int) -> None:
        if not isinstance(count, int):
            raise ReplicationVectorError(
                f"replica count for {tier!r} must be an int, got {count!r}"
            )
        if count < 0 or count > _MAX_ENTRY:
            raise ReplicationVectorError(
                f"replica count for {tier!r} out of range [0, {_MAX_ENTRY}]: {count}"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, **tier_counts: int) -> "ReplicationVector":
        """Keyword constructor: ``ReplicationVector.of(memory=1, hdd=2)``.

        ``unspecified=`` (or ``u=``) sets the U entry.
        """
        counts: dict[str, int] = {}
        unspecified = 0
        for key, value in tier_counts.items():
            upper = key.upper()
            if upper in ("U", UNSPECIFIED):
                unspecified += value
            else:
                counts[upper] = value
        return cls(counts, unspecified)

    @classmethod
    def from_replication_factor(cls, factor: int) -> "ReplicationVector":
        """HDFS backwards compatibility: scalar ``r`` becomes ``U = r``."""
        return cls(unspecified=factor)

    @classmethod
    def from_counts(
        cls,
        entries: Iterable[int],
        tier_order: Iterable[str] = DEFAULT_TIER_ORDER,
    ) -> "ReplicationVector":
        """Positional constructor following ``tier_order`` then U.

        ``from_counts([1, 0, 2, 0, 0])`` is the paper's ⟨1,0,2,0,0⟩.
        An entry list one longer than the tier order has its final
        element interpreted as U; equal lengths mean U = 0.
        """
        order = list(tier_order)
        values = list(entries)
        if len(values) == len(order) + 1:
            unspecified = values.pop()
        elif len(values) == len(order):
            unspecified = 0
        else:
            raise ReplicationVectorError(
                f"expected {len(order)} or {len(order) + 1} entries, "
                f"got {len(values)}"
            )
        return cls(dict(zip(order, values)), unspecified)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def count(self, tier: str) -> int:
        """Replica count for a tier (0 if absent); U via ``UNSPECIFIED``."""
        if tier == UNSPECIFIED:
            return self._unspecified
        return self._counts.get(tier.upper(), 0)

    @property
    def unspecified(self) -> int:
        return self._unspecified

    @property
    def tier_counts(self) -> dict[str, int]:
        """A copy of the explicit (non-U) tier counts."""
        return dict(self._counts)

    @property
    def total_replicas(self) -> int:
        return sum(self._counts.values()) + self._unspecified

    @property
    def explicit_tiers(self) -> list[str]:
        """Tiers with at least one explicitly requested replica."""
        return [tier for tier, count in self._counts.items() if count > 0]

    def is_satisfiable_with(self, available_tiers: Iterable[str]) -> bool:
        """True if every explicitly requested tier exists in the cluster."""
        available = {t.upper() for t in available_tiers}
        return all(tier in available for tier in self._counts)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_tier(self, tier: str, count: int) -> "ReplicationVector":
        """A new vector with one entry replaced."""
        if tier == UNSPECIFIED:
            return ReplicationVector(self._counts, count)
        counts = dict(self._counts)
        counts[tier.upper()] = count
        return ReplicationVector(counts, self._unspecified)

    def add(self, tier: str, delta: int = 1) -> "ReplicationVector":
        """A new vector with ``delta`` added to one entry."""
        return self.with_tier(tier, self.count(tier) + delta)

    def diff(self, target: "ReplicationVector") -> dict[str, int]:
        """Per-entry delta needed to turn ``self`` into ``target``.

        Positive values are replicas to add on that tier, negative are
        removals; the ``UNSPECIFIED`` key carries the U delta. Moving a
        replica between tiers therefore appears as ``{-1}`` on one tier
        and ``{+1}`` on another, exactly the §2.3 move/copy semantics.
        """
        keys = set(self._counts) | set(target._counts)
        delta = {
            key: target.count(key) - self.count(key)
            for key in sorted(keys)
            if target.count(key) != self.count(key)
        }
        if target.unspecified != self.unspecified:
            delta[UNSPECIFIED] = target.unspecified - self.unspecified
        return delta

    # ------------------------------------------------------------------
    # 64-bit encoding
    # ------------------------------------------------------------------
    def encode(self, tier_order: Iterable[str] = DEFAULT_TIER_ORDER) -> int:
        """Pack into 64 bits: 8 bits per tier in ``tier_order``, then U.

        The U entry occupies the least-significant byte; tier entries
        follow in order toward the most-significant end. The last
        encoding is remembered with its order and returned again for an
        equal one (vectors are immutable, a namespace has one tier axis,
        and the Master encodes on every journaled create).
        """
        cached = self._encoded
        if cached is not None and cached[0] == tier_order:
            return cached[1]
        given = tuple(tier_order)
        order = [t.upper() for t in given]
        if len(order) > _MAX_TIERS:
            raise ReplicationVectorError(
                f"at most {_MAX_TIERS} tiers fit in the 64-bit encoding"
            )
        unknown = set(self._counts) - set(order)
        if unknown:
            raise ReplicationVectorError(
                f"vector has tiers missing from the encode order: {sorted(unknown)}"
            )
        encoded = 0
        for tier in order:
            encoded = (encoded << 8) | self.count(tier)
        encoded = (encoded << 8) | self._unspecified
        self._encoded = (given, encoded)
        return encoded

    @classmethod
    def decode(
        cls, encoded: int, tier_order: Iterable[str] = DEFAULT_TIER_ORDER
    ) -> "ReplicationVector":
        """Inverse of :meth:`encode`."""
        if encoded < 0 or encoded >= 1 << 64:
            raise ReplicationVectorError("encoded vector must fit in 64 bits")
        order = [t.upper() for t in tier_order]
        unspecified = encoded & 0xFF
        encoded >>= 8
        counts: dict[str, int] = {}
        for tier in reversed(order):
            counts[tier] = encoded & 0xFF
            encoded >>= 8
        return cls(counts, unspecified)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReplicationVector):
            return NotImplemented
        return (
            self._counts == other._counts
            and self._unspecified == other._unspecified
        )

    def __hash__(self) -> int:
        return hash((tuple(self._counts.items()), self._unspecified))

    def __repr__(self) -> str:
        parts = [f"{tier}={count}" for tier, count in self._counts.items()]
        if self._unspecified:
            parts.append(f"U={self._unspecified}")
        return f"ReplicationVector({', '.join(parts) or 'empty'})"

    def shorthand(self, tier_order: Iterable[str] = DEFAULT_TIER_ORDER) -> str:
        """The paper's ⟨M,S,H,R,U⟩ notation, e.g. ``"<1,0,2,0,0>"``."""
        entries = [str(self.count(t)) for t in tier_order]
        entries.append(str(self._unspecified))
        return "<" + ",".join(entries) + ">"
