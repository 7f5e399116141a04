"""Replication-state analysis and replica-removal selection (paper §5).

The Master must keep every block at the replica counts its file's
replication vector demands, per tier. :func:`analyze_block` compares the
vector against the live replicas and produces the *actions*: replicas to
add (with or without a tier requirement) and the number to remove
(with the tiers removal may draw from).

The per-tier arithmetic: with ``have[t]`` live replicas on tier ``t``,
``need[t]`` explicit entries, and ``U`` unspecified entries, explicit
shortfalls become tier-bound additions; tier surpluses first satisfy the
U budget, and only the excess beyond U is over-replication.

Removal selection follows the paper exactly: for current replicas
``(m₁..m_r)``, score each of the ``r`` size-``(r−1)`` lists with the
global criterion (Eq. 11) and remove the replica whose absence yields
the lowest score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.objectives import ObjectiveContext, global_criterion_score
from repro.core.replication_vector import ReplicationVector
from repro.errors import BlockError

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.blocks import Replica


@dataclass
class ReplicationActions:
    """What the Master must do to bring one block to its target state."""

    #: Tiers needing a new replica; ``None`` entries may go on any tier.
    additions: list[str | None] = field(default_factory=list)
    #: How many replicas to remove.
    removals: int = 0
    #: Tiers removal may draw from, with the max removable per tier.
    removable_tiers: dict[str, int] = field(default_factory=dict)

    @property
    def balanced(self) -> bool:
        return not self.additions and self.removals == 0

    @property
    def under_replicated(self) -> bool:
        return bool(self.additions)

    @property
    def over_replicated(self) -> bool:
        return self.removals > 0


def analyze_block(
    vector: ReplicationVector, live_replicas: Sequence["Replica"]
) -> ReplicationActions:
    """Compare a block's live replicas against its file's vector."""
    have: dict[str, int] = {}
    for replica in live_replicas:
        have[replica.tier_name] = have.get(replica.tier_name, 0) + 1
    need = vector.tier_counts

    additions: list[str | None] = []
    surplus: dict[str, int] = {}
    # Sorted: set order follows PYTHONHASHSEED, and the Master schedules
    # repairs in the order of ``additions``.
    for tier in sorted(set(have) | set(need)):
        gap = need.get(tier, 0) - have.get(tier, 0)
        if gap > 0:
            additions.extend([tier] * gap)
        elif gap < 0:
            surplus[tier] = -gap

    total_surplus = sum(surplus.values())
    u_deficit = max(0, vector.unspecified - total_surplus)
    u_surplus = max(0, total_surplus - vector.unspecified)
    additions.extend([None] * u_deficit)

    return ReplicationActions(
        additions=additions,
        removals=u_surplus,
        removable_tiers=surplus if u_surplus else {},
    )


def choose_replica_to_remove(
    replicas: Sequence["Replica"],
    removable_tiers: dict[str, int],
    ctx: ObjectiveContext,
) -> "Replica":
    """Pick the replica whose removal leaves the best-scoring set (§5)."""
    candidates = [r for r in replicas if removable_tiers.get(r.tier_name, 0) > 0]
    if not candidates:
        raise BlockError(
            "over-replication flagged but no replica is on a surplus tier"
        )
    best_score = math.inf
    best: "Replica | None" = None
    for candidate in candidates:
        remaining = [r.medium for r in replicas if r is not candidate]
        score = global_criterion_score(remaining, ctx)
        if score < best_score:
            best_score = score
            best = candidate
    assert best is not None
    return best
