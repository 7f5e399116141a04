"""Decision provenance: the "why is this replica here?" ledger.

Every replica in the system exists because some decision put it there —
the MOOP placement solver scored it above its rivals, the replication
manager re-created it after a fault, the tiering policy promoted its
file. The rest of the observability stack records *what happened and
how slow it was*; the :class:`ProvenanceLedger` records *why*: one
compact, append-only decision record per replica-affecting action,
causally linked to the span that made it and the incident (if any)
that was open at the time.

The ledger follows the flight recorder's determinism contract exactly:

* **Pure observer** — it mints no metric instruments and emits no
  trace records, so trace/metrics/Prometheus exports of a run with an
  attached ledger are byte-identical to a run without one.
* **An empty slot when detached** — attaching takes the empty
  ``obs.ledger`` slot and detaching empties it; every decision site
  checks ``obs.ledger is not None`` before it builds a record, so a
  detached feed costs one attribute load and one check.
* **Byte-stable exports** — records carry only simulation-time
  timestamps and seed-stable identifiers (``path#index``, medium ids,
  deterministic span ids — never process-global block ids), and
  :meth:`ProvenanceLedger.export` serializes canonically, so two
  identically seeded runs dump byte-identical JSONL(.gz) ledgers.

On top of the raw stream, :func:`explain` rebuilds per-replica decision
chains — "why-here" (the causal chain that put a replica on its
medium: a tiering promotion → the vector change → the repair placement
that created it) and "why-not" (the score delta between the chosen
medium and the best rejected alternative of each placement entry).
``repro explain <path> --ledger ledger.jsonl`` is the CLI surface.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import ConfigurationError
from repro.obs.export import LEDGER_ACTION_KEYS, write_jsonl

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracing import Span

__all__ = [
    "ProvenanceLedger",
    "DECISION_ACTIONS",
    "decision_summary",
    "explain",
]

#: Every decision record's ``action`` is one of these.
DECISION_ACTIONS = tuple(LEDGER_ACTION_KEYS)

#: How many recent fault/liveness context entries a repair record
#: snapshots (the "triggering fault" evidence).
_CONTEXT_DEPTH = 5


def _require_enabled(obs) -> None:
    # Decision records read the live tracer, which exists only while
    # the bundle is enabled.
    if not obs.enabled:
        raise ConfigurationError(
            "ProvenanceLedger needs observability enabled; call "
            "obs.enable() first"
        )


class ProvenanceLedger:
    """Bounded, append-only decision records for replica-affecting actions.

    Construct with an enabled :class:`~repro.obs.Observability` bundle
    and call :meth:`attach`; every instrumented decision site then feeds
    it through ``obs.ledger``. ``max_records`` bounds memory — the
    oldest records fall off and are counted in :attr:`dropped`.
    """

    def __init__(self, obs, max_records: int = 100_000) -> None:
        _require_enabled(obs)
        if max_records < 1:
            raise ConfigurationError("max_records must be >= 1")
        self.obs = obs
        self.max_records = max_records
        self.records: deque = deque(maxlen=max_records)
        #: Records evicted by the bound (the sequence numbers still
        #: count up, so gaps are visible in the export).
        self.dropped = 0
        self.seq = 0
        #: Recent fault/liveness happenings, snapshot into repair
        #: records as their triggering context.
        self._context: deque = deque(maxlen=32)

    # ------------------------------------------------------------------
    # Lifecycle (mirrors FlightRecorder.attach/detach)
    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        return self.obs.ledger is self

    def attach(self) -> "ProvenanceLedger":
        """Take the empty ``obs.ledger`` slot so decision sites feed us."""
        _require_enabled(self.obs)
        if self.obs.ledger is self:
            raise ConfigurationError("ledger already attached")
        if self.obs.ledger is not None:
            raise ConfigurationError(
                "another ProvenanceLedger is already attached to this "
                "obs bundle; detach it first"
            )
        self.obs.ledger = self
        return self

    def detach(self) -> None:
        """Empty the slot (idempotent); recorded state survives."""
        if self.obs.ledger is self:
            self.obs.ledger = None

    # ------------------------------------------------------------------
    # Record plumbing
    # ------------------------------------------------------------------
    def _base(self, action: str, path: str, span: "Span | None") -> dict:
        if span is None:
            span = self.obs.tracer.current
        recorder = self.obs.recorder
        open_incident = recorder.open_incident if recorder is not None else None
        self.seq += 1
        return {
            "kind": "decision",
            "seq": self.seq,
            "time": self.obs.now(),
            "action": action,
            "path": path,
            "span_id": span.span_id if span is not None else None,
            "trace_id": span.trace_id if span is not None else None,
            "incident": open_incident["id"] if open_incident else None,
        }

    def _append(self, record: dict) -> dict:
        if len(self.records) == self.max_records:
            self.dropped += 1
        self.records.append(record)
        return record

    def recent_context(self) -> list[dict]:
        """The last few fault/liveness entries (for repair records)."""
        entries = list(self._context)
        return [dict(entry) for entry in entries[-_CONTEXT_DEPTH:]]

    # ------------------------------------------------------------------
    # Context feeds (not decisions themselves; evidence for them)
    # ------------------------------------------------------------------
    def on_fault(self, event: dict) -> None:
        """Fed by the catalog from each ``fault.<kind>`` trace event."""
        attrs = event["attrs"]
        self._remember(event, attrs["target"], attrs["detail"])

    def on_liveness(self, event: dict) -> None:
        """Fed by the catalog from each ``worker.dead`` and
        ``worker.silent`` trace event."""
        self._remember(event, event["attrs"]["worker"], "")

    def _remember(self, event: dict, target: str, detail: str) -> None:
        self._context.append(
            {
                "time": event["time"],
                "kind": event["name"],
                "target": target,
                "detail": detail,
            }
        )

    # ------------------------------------------------------------------
    # Decision feeds
    # ------------------------------------------------------------------
    def on_placement(
        self,
        path: str,
        block: str,
        vector: str,
        cause: str,
        targets: Sequence,
        decision: dict | None,
        span: "Span | None" = None,
    ) -> dict:
        """One initial-placement decision (``cause="allocate"``).

        ``decision`` is ``obs.last_placement`` — ``None`` for policies
        that bypass the MOOP solver (rule-based, stock HDFS), in which
        case the record still pins down *where* but carries no scores.
        """
        record = self._base("placement", path, span)
        record.update(
            block=block,
            vector=vector,
            cause=cause,
            targets=[
                {
                    "medium": m.medium_id,
                    "tier": m.tier_name,
                    "node": m.node.name,
                }
                for m in targets
            ],
        )
        if decision is not None:
            record["score"] = decision["score"]
            record["objectives"] = dict(decision["objectives"])
            record["entries"] = decision.get("entries")
        return self._append(record)

    def on_repair(
        self,
        path: str,
        block: str,
        tier: str | None,
        source: str,
        destination: str,
        destination_tier: str,
        placement: dict | None,
        context: list[dict],
        span: "Span | None" = None,
    ) -> dict:
        """One re-replication copy, with its triggering context."""
        record = self._base("repair", path, span)
        record.update(
            block=block,
            tier=tier,
            source=source,
            destination=destination,
            destination_tier=destination_tier,
            context=context,
            outcome="scheduled",
        )
        if placement is not None:
            record["score"] = placement["score"]
            record["entries"] = placement.get("entries")
        return self._append(record)

    def on_repair_outcome(self, record: dict | None, outcome: str) -> None:
        """Resolve a repair record once its copy finished or failed."""
        if record is not None:
            record["outcome"] = outcome

    def on_tiering(
        self,
        path: str,
        kind: str,
        tier: str,
        heat: float,
        outcome: str,
        detail: str,
        policy,
        round_number: int,
        span: "Span | None" = None,
    ) -> dict:
        """One tiering decision: policy identity, thresholds, budget."""
        record = self._base("tiering", path, span)
        record.update(
            tiering_kind=kind,
            tier=tier,
            heat=round(heat, 6),
            outcome=outcome,
            detail=detail,
            policy=policy.name,
            round=round_number,
        )
        thresholds = {}
        for attr in (
            "promote_heat",
            "demote_heat",
            "movement_budget",
            "min_residency",
            "cooldown",
            "headroom",
        ):
            value = getattr(policy, attr, None)
            if value is not None:
                thresholds[attr] = value
        if thresholds:
            record["thresholds"] = thresholds
        return self._append(record)

    def on_set_replication(
        self,
        path: str,
        old: str,
        new: str,
        cas: bool,
        outcome: str = "applied",
        span: "Span | None" = None,
    ) -> dict:
        record = self._base("set_replication", path, span)
        record.update(old=old, new=new, cas=cas, outcome=outcome)
        return self._append(record)

    def on_replica_removed(
        self,
        path: str,
        block: str,
        medium: str,
        tier: str,
        cause: str,
        span: "Span | None" = None,
    ) -> dict:
        record = self._base("replica_removed", path, span)
        record.update(block=block, medium=medium, tier=tier, cause=cause)
        return self._append(record)

    def on_delete(
        self, path: str, blocks: int, span: "Span | None" = None
    ) -> dict:
        record = self._base("delete", path, span)
        record.update(blocks=blocks)
        return self._append(record)

    # ------------------------------------------------------------------
    # Export / introspection
    # ------------------------------------------------------------------
    def export(self, path: str) -> None:
        """Write the ledger as schema-versioned JSONL (``.gz`` compresses
        byte-deterministically, like every other export)."""
        write_jsonl(self.records, path, stream="ledger")

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "attached" if self.attached else "detached"
        return (
            f"<ProvenanceLedger {state} records={len(self.records)} "
            f"dropped={self.dropped}>"
        )


# ----------------------------------------------------------------------
# The explain query layer
# ----------------------------------------------------------------------
def _why_not(entries: list | None) -> list[dict]:
    """Per placement entry: the chosen option vs the best rejected one."""
    out: list[dict] = []
    for entry in entries or ():
        alternatives = entry.get("alternatives") or []
        item = {
            "chosen": {
                "medium": entry["medium"],
                "tier": entry["tier"],
                "score": entry["score"],
            },
            "required_tier": entry.get("required_tier"),
            "options_considered": entry.get("options_considered"),
        }
        if alternatives:
            best = alternatives[0]
            item["best_rejected"] = dict(best)
            # The chosen option minimizes the global-criterion score, so
            # the delta is how much worse the runner-up would have been.
            item["delta"] = best["score"] - entry["score"]
        out.append(item)
    return out


def decision_summary(record: dict) -> str:
    """One human line per record, used by timeline and text renderings."""
    action = record["action"]
    if action == "placement":
        tiers = "+".join(t["tier"] for t in record.get("targets", ()))
        score = record.get("score")
        score_text = f" score={score:.4f}" if score is not None else ""
        return (
            f"{record.get('cause', 'allocate')} {record.get('block', '')} "
            f"vector={record.get('vector', '?')} -> [{tiers}]{score_text}"
        )
    if action == "repair":
        context = record.get("context") or []
        trigger = context[-1]["kind"] if context else "unknown"
        return (
            f"re-replicate {record.get('block', '')} -> "
            f"{record.get('destination', '?')} "
            f"({record.get('destination_tier', '?')}) "
            f"[{record.get('outcome', '?')}] triggered by {trigger}"
        )
    if action == "tiering":
        thresholds = record.get("thresholds") or {}
        bands = (
            f" promote>{thresholds['promote_heat']}"
            f" demote<={thresholds['demote_heat']}"
            if "promote_heat" in thresholds
            else ""
        )
        return (
            f"{record.get('tiering_kind', '?')} to {record.get('tier', '?')} "
            f"heat={record.get('heat', 0)} round={record.get('round', '?')} "
            f"policy={record.get('policy', '?')}{bands} "
            f"[{record.get('outcome', '?')}]"
        )
    if action == "set_replication":
        cas = " (CAS)" if record.get("cas") else ""
        return (
            f"vector {record.get('old', '?')} -> {record.get('new', '?')}"
            f"{cas} [{record.get('outcome', '?')}]"
        )
    if action == "replica_removed":
        return (
            f"remove {record.get('block', '')} from "
            f"{record.get('medium', '?')} ({record.get('cause', '?')})"
        )
    if action == "delete":
        return f"delete ({record.get('blocks', 0)} block(s) freed)"
    return action


def explain(records: Iterable[dict], path: str) -> dict:
    """Rebuild the decision chains that shaped ``path``'s replicas.

    A pure function of an exported record stream (headers tolerated):
    filters the records touching ``path``, replays them in sequence
    order, and returns, per destination medium, the causal chain that
    put (or re-put) a replica there — for a repair that follows a
    tiering promotion and its vector change, the chain contains all
    three — plus "why-not" score deltas for every scored placement.
    """
    mine = sorted(
        (
            r
            for r in records
            if r.get("kind") == "decision" and r.get("path") == path
        ),
        key=lambda r: r["seq"],
    )
    replicas: dict[str, dict] = {}
    #: Latest applied vector change / tiering action, for chain linking.
    last_vector_change: dict | None = None
    last_tiering: dict | None = None

    def born(medium: str, tier: str, record: dict, chain: list[dict]) -> None:
        replicas[medium] = {
            "medium": medium,
            "tier": tier,
            "created_at": record["time"],
            "created_by": record["action"],
            "chain": [
                {
                    "seq": c["seq"],
                    "time": c["time"],
                    "action": c["action"],
                    "summary": decision_summary(c),
                }
                for c in chain
            ],
            "removed": None,
        }

    def removed(medium: str, record: dict, cause: str) -> None:
        entry = replicas.get(medium)
        if entry is not None and entry["removed"] is None:
            entry["removed"] = {
                "seq": record["seq"],
                "time": record["time"],
                "cause": cause,
            }

    for record in mine:
        action = record["action"]
        if action == "placement":
            for target in record.get("targets", ()):
                born(target["medium"], target["tier"], record, [record])
        elif action == "repair":
            if record.get("outcome") == "failed":
                continue  # no replica materialized; timeline still shows it
            chain: list[dict] = []
            tier = record.get("destination_tier")
            if (
                last_tiering is not None
                and last_tiering.get("tier") == tier
                and last_tiering.get("outcome") == "applied"
            ):
                chain.append(last_tiering)
            if last_vector_change is not None:
                chain.append(last_vector_change)
            chain.append(record)
            born(record["destination"], tier, record, chain)
        elif action == "tiering":
            last_tiering = record
        elif action == "set_replication":
            if record.get("outcome") == "applied":
                last_vector_change = record
        elif action == "replica_removed":
            removed(record["medium"], record, record.get("cause", "removed"))
        elif action == "delete":
            for medium in replicas:
                removed(medium, record, "file_deleted")

    placements = [
        r for r in mine if r["action"] in ("placement", "repair")
        and r.get("entries")
    ]
    why_not = [
        {
            "seq": r["seq"],
            "time": r["time"],
            "action": r["action"],
            "entries": _why_not(r.get("entries")),
        }
        for r in placements
    ]
    return {
        "path": path,
        "records": len(mine),
        "timeline": [
            {
                "seq": r["seq"],
                "time": r["time"],
                "action": r["action"],
                "incident": r.get("incident"),
                "summary": decision_summary(r),
            }
            for r in mine
        ],
        "replicas": [
            replicas[medium] for medium in sorted(replicas)
        ],
        "why_not": why_not,
    }

