"""Whole-system consistency checks shared by tests and chaos harnesses.

The invariants a converged OctopusFS deployment must satisfy, factored
out of the test suite so scripted fault scenarios, chaos runs, and the
Hypothesis property tests all assert the same things:

* **accounting** — per-medium ``used``/``reserved`` sanity, and the
  cluster-wide used-byte total and every file's (and the root's)
  per-tier quota usage matching the replicas in the block map;
* **uniqueness** — no medium holds two replicas of one block;
* **replication** — after convergence, every complete file's block set
  satisfies its replication vector exactly
  (:func:`repro.core.replication.analyze_block` reports ``balanced``);
* **readability** — every complete file is fully readable.

:func:`block_map_fingerprint` renders the replica layout in a
block-id-agnostic form (block ids are process-global counters), which is
what lets two independent runs of the same seeded fault scenario be
compared for bit-for-bit equivalence.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from repro.core.replication import analyze_block

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.system import OctopusFileSystem


def accounting_violations(
    fs: "OctopusFileSystem", live: bool = False
) -> list[str]:
    """Capacity accounting and replica-uniqueness violations.

    ``live=True`` relaxes the two conditions that only hold on a
    quiesced system: in-flight writes legitimately hold reservations
    (checked for range instead of zero), and the used-bytes total lags
    the block map while transfers commit (skipped). Everything else —
    range sanity, replica uniqueness, and tier usage mirroring the block
    map — must hold at every instant.
    """
    violations: list[str] = []
    # Unreachable (silent) nodes keep their data and stay in the block
    # map, so they count; failed media/nodes hold only garbage bytes.
    surviving = [
        m
        for m in fs.cluster.media.values()
        if not m.failed and not m.node.failed
    ]
    for medium in surviving:
        if not 0 <= medium.used <= medium.capacity:
            violations.append(
                f"{medium.medium_id}: used={medium.used} out of "
                f"[0, {medium.capacity}]"
            )
        if live:
            if (
                medium.reserved < 0
                or medium.used + medium.reserved > medium.capacity
            ):
                violations.append(
                    f"{medium.medium_id}: reservation {medium.reserved} "
                    f"outside remaining capacity"
                )
        elif medium.reserved != 0:
            violations.append(
                f"{medium.medium_id}: dangling reservation of "
                f"{medium.reserved} bytes"
            )
    if not live:
        total_used = sum(m.used for m in surviving)
        expected = sum(
            meta.block.size * len(meta.replicas)
            for meta in fs.master.block_map.values()
        )
        if total_used != expected:
            violations.append(
                f"cluster used bytes {total_used} != block map total "
                f"{expected}"
            )
    # Tier usage (what quotas are enforced against) mirrors the block map.
    attached: dict = {}  # inode -> Counter of attached replica bytes per tier
    total: Counter = Counter()
    for meta in fs.master.block_map.values():
        media_ids = [r.medium.medium_id for r in meta.replicas]
        if len(media_ids) != len(set(media_ids)):
            violations.append(
                f"block {meta.block.block_id}: duplicate replicas on "
                f"{sorted(media_ids)}"
            )
        usage = attached.setdefault(meta.inode, Counter())
        for replica in meta.replicas:
            usage[replica.tier_name] += meta.block.size
            total[replica.tier_name] += meta.block.size
    namespace = fs.master.namespace
    for inode in namespace.iter_files():
        expected = attached.get(inode, Counter())
        if Counter(inode.tier_bytes) != expected:
            violations.append(
                f"{inode.path()}: tier usage {dict(inode.tier_bytes)} != attached "
                f"replica bytes {dict(expected)}"
            )
    if Counter(namespace.root.subtree_tier_bytes) != total:
        violations.append(
            f"root tier usage {dict(namespace.root.subtree_tier_bytes)} != block "
            f"map total {dict(total)}"
        )
    return violations


def replication_violations(fs: "OctopusFileSystem") -> list[str]:
    """Blocks whose live replicas do not balance their file's vector.

    Only complete (not under-construction) files are checked.
    """
    violations: list[str] = []
    for inode in fs.master.namespace.iter_files():
        if inode.under_construction:
            continue
        for block in inode.blocks:
            meta = fs.master.block_map.get(block.block_id)
            if meta is None:
                violations.append(
                    f"{inode.path()}: block {block.block_id} missing from "
                    "the block map"
                )
                continue
            live = meta.live_replicas()
            actions = analyze_block(inode.rep_vector, live)
            if not actions.balanced:
                violations.append(
                    f"{inode.path()}: block {block.block_id} vs vector "
                    f"{inode.rep_vector.shorthand()} needs "
                    f"+{actions.additions} -{actions.removals} "
                    f"(live tiers: {sorted(r.tier_name for r in live)})"
                )
    return violations


def readability_violations(
    fs: "OctopusFileSystem", via: str | None = None
) -> list[str]:
    """Complete files that cannot be read end to end."""
    violations: list[str] = []
    reader = fs.client(on=via)
    for inode in fs.master.namespace.iter_files():
        if inode.under_construction:
            continue
        path = inode.path()
        try:
            got = reader.open(path).read_size()
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            violations.append(f"{path}: read failed: {exc!r}")
            continue
        if got != inode.length:
            violations.append(
                f"{path}: read {got} bytes, expected {inode.length}"
            )
    return violations


#: Categories :func:`collect_violations` can evaluate mid-run. The
#: readability check is deliberately absent: it issues real reads
#: (nested ``engine.run``), which is only safe on a quiesced system.
LIVE_CHECKS = ("accounting", "replication")


def collect_violations(
    fs: "OctopusFileSystem",
    checks: tuple[str, ...] = LIVE_CHECKS,
) -> dict[str, list[str]]:
    """Non-asserting invariant sweep, per category.

    Returns ``{category: [violation, ...]}`` for every requested
    category (empty lists included), so a live health monitor can track
    each category's state independently. ``replication`` violations are
    *expected* transiently while repair is in flight — callers decide
    how long a violation must persist before it matters.
    """
    collectors = {
        # Live mode: in-flight writes hold reservations legitimately.
        "accounting": lambda fs: accounting_violations(fs, live=True),
        "replication": replication_violations,
        "readability": readability_violations,
    }
    unknown = [c for c in checks if c not in collectors]
    if unknown:
        raise ValueError(f"unknown invariant checks: {unknown}")
    return {check: collectors[check](fs) for check in checks}


def check_system_invariants(
    fs: "OctopusFileSystem",
    require_balanced: bool = True,
    check_readability: bool = True,
    via: str | None = None,
) -> None:
    """Assert every invariant, raising with the full violation list."""
    violations = accounting_violations(fs)
    if require_balanced:
        violations += replication_violations(fs)
    if check_readability:
        violations += readability_violations(fs, via=via)
    assert not violations, "invariant violations:\n" + "\n".join(violations)


def block_map_fingerprint(fs: "OctopusFileSystem") -> dict[str, list[list[str]]]:
    """Replica layout keyed by path, independent of block ids.

    Maps each complete file path to a per-block list of sorted medium
    ids holding a live replica — equal fingerprints mean two runs ended
    in the same physical layout.
    """
    layout: dict[str, list[list[str]]] = {}
    for inode in fs.master.namespace.iter_files():
        blocks: list[list[str]] = []
        for block in inode.blocks:
            meta = fs.master.block_map.get(block.block_id)
            replicas = meta.live_replicas() if meta else []
            blocks.append(sorted(r.medium.medium_id for r in replicas))
        layout[inode.path()] = blocks
    return layout
