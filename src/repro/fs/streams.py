"""Client-side data streams: the write pipeline and the read path.

``FSDataOutputStream`` implements §3.1: data is written one block at a
time; for each block the client asks the Master for target locations
(placement policy), organizes a worker-to-worker pipeline, and streams
the block as a single fluid flow whose rate the slowest stage sets. A
pipeline failure aborts the block and retries with fresh locations.

``FSDataInputStream`` implements §4.1: for each block the Master returns
replica locations ordered by the retrieval policy; the client reads from
the first and falls over to the next on failure, reporting corrupt
replicas back to the Master.

Every stream offers two calling styles:

* **process** methods (``write_proc`` / ``read_proc`` / …) are
  generators to be driven inside simulation processes — used by the
  concurrent workload generators;
* **synchronous** wrappers (``write`` / ``read`` / …) spawn the process
  and run the engine until it finishes — convenient for scripts and
  tests with a single logical client.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.errors import BlockError, FileSystemError, RetrievalError
from repro.fs.blocks import Block, Replica
from repro.fs.transfer import pipeline_resources, read_resources

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import Node
    from repro.fs.master import Master
    from repro.fs.system import OctopusFileSystem

_PIPELINE_RETRIES = 3


def _label(path: str, block: Block) -> str:
    """A block's export name, from the path its stream was opened on."""
    return f"{path}#{block.index}"


class FSDataOutputStream:
    """A write handle for one file; not reentrant."""

    def __init__(
        self,
        system: "OctopusFileSystem",
        path: str,
        client_node: "Node | None",
        append: bool = False,
    ) -> None:
        self._system = system
        self._master = system.master_for(path)
        self._path = path
        self._client_node = client_node
        self._buffer = bytearray()
        self._pending_size = 0  # simulated (size-only) bytes not yet flushed
        self._closed = False
        inode = self._master.namespace.get_file(path)
        self._block_size = inode.block_size
        self.bytes_written = 0
        # Appends fill the partial tail block (if any) before allocating
        # new blocks, matching HDFS append semantics.
        self._tail_block = None
        if append and inode.blocks and inode.blocks[-1].size < inode.block_size:
            self._tail_block = inode.blocks[-1]

    # ------------------------------------------------------------------
    # Synchronous API
    # ------------------------------------------------------------------
    def write(self, data: bytes) -> None:
        """Append real bytes (stored on the replicas for later reads)."""
        self._system.run_to_completion(self.write_proc(data))

    def write_size(self, nbytes: int) -> None:
        """Append ``nbytes`` of simulated data (sizes only, no content)."""
        self._system.run_to_completion(self.write_size_proc(nbytes))

    def close(self) -> None:
        self._system.run_to_completion(self.close_proc())

    def __enter__(self) -> "FSDataOutputStream":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is None:
            self.close()

    # ------------------------------------------------------------------
    # Process API
    # ------------------------------------------------------------------
    def write_proc(self, data: bytes) -> Generator:
        """Process: append real bytes, flushing full blocks as they fill."""
        self._check_open()
        self._buffer.extend(data)
        if self._tail_block is not None and self._buffer:
            room = self._tail_block.capacity - self._tail_block.size
            chunk = bytes(self._buffer[:room])
            if len(self._buffer) >= room:
                del self._buffer[:room]
                yield from self._extend_tail_proc(len(chunk), chunk)
        while len(self._buffer) >= self._block_size:
            chunk = bytes(self._buffer[: self._block_size])
            del self._buffer[: self._block_size]
            yield from self._flush_block_proc(len(chunk), chunk)

    def write_size_proc(self, nbytes: int) -> Generator:
        """Process: append simulated data without materializing bytes."""
        self._check_open()
        if self._buffer:
            raise FileSystemError("cannot mix byte and size-only writes")
        self._pending_size += int(nbytes)
        if self._tail_block is not None and self._pending_size:
            room = self._tail_block.capacity - self._tail_block.size
            if self._pending_size >= room:
                self._pending_size -= room
                yield from self._extend_tail_proc(room, None)
        while self._pending_size >= self._block_size:
            self._pending_size -= self._block_size
            yield from self._flush_block_proc(self._block_size, None)

    def close_proc(self) -> Generator:
        """Process: flush the tail block and seal the file."""
        if self._closed:
            return
        if self._tail_block is not None and (self._buffer or self._pending_size):
            # A short final append that still fits the old tail block.
            if self._buffer:
                chunk = bytes(self._buffer)
                self._buffer.clear()
                yield from self._extend_tail_proc(len(chunk), chunk)
            else:
                tail, self._pending_size = self._pending_size, 0
                yield from self._extend_tail_proc(tail, None)
        if self._buffer:
            chunk = bytes(self._buffer)
            self._buffer.clear()
            yield from self._flush_block_proc(len(chunk), chunk)
        if self._pending_size:
            tail, self._pending_size = self._pending_size, 0
            yield from self._flush_block_proc(tail, None)
        self._closed = True
        self._master.complete_file(self._path)

    def _extend_tail_proc(self, payload: int, data: bytes | None) -> Generator:
        """Grow the reopened file's partial tail block in place."""
        block = self._tail_block
        assert block is not None
        if payload >= block.capacity - block.size:
            self._tail_block = None  # tail is full after this write
        if payload <= 0:
            return
        meta = self._master.block_map.get(block.block_id)
        replicas = meta.live_replicas() if meta else []
        if not replicas:
            raise BlockError(
                f"cannot append: tail block {block.block_id} has no live replica"
            )
        resources = pipeline_resources(
            self._system.cluster.topology,
            self._client_node,
            [r.medium for r in replicas],
        )
        obs = self._system.obs
        span = None
        if obs.enabled:
            span = obs.tracer.start_span(
                "client.append_block",
                path=self._path,
                block=_label(self._path, block),
                size=payload,
            )
        try:
            yield self._system.cluster.flows.transfer(
                payload, resources, label=f"append:{block.block_id}",
                parent=span,
            )
        except Exception as exc:
            if span is not None:
                span.end("error", error=type(exc).__name__)
            raise
        self._master.extend_block(block, payload, replicas)
        for replica in replicas:
            if data is not None and replica.data is not None:
                replica.data = replica.data + data
            elif data is None:
                replica.data = None
        self.bytes_written += payload
        if span is not None:
            for replica in replicas:
                obs.metrics.counter(
                    "bytes_written_total", tier=replica.tier_name
                ).inc(payload)
            obs.metrics.histogram("block_write_seconds").observe(span.duration)
            span.end()

    # ------------------------------------------------------------------
    # Pipeline internals (§3.1)
    # ------------------------------------------------------------------
    def _flush_block_proc(self, payload: int, data: bytes | None) -> Generator:
        master = self._master
        obs = self._system.obs
        failures = 0
        while True:
            span = None
            if obs.enabled:
                # The op span is explicit (this generator yields, so the
                # implicit stack cannot hold it), but it *is* pushed
                # around the synchronous master RPC so the allocation
                # span — and the placement decision under it — become
                # its children.
                span = obs.tracer.start_span(
                    "client.write_block",
                    path=self._path,
                    size=payload,
                    attempt=failures,
                )
                try:
                    with obs.tracer.use(span):
                        block, targets = master.allocate_block(
                            self._path, client_node=self._client_node
                        )
                except Exception as exc:
                    span.end("error", error=type(exc).__name__)
                    raise
                span.annotate(
                    block=_label(self._path, block),
                    tiers=[m.tier_name for m in targets],
                )
            else:
                block, targets = master.allocate_block(
                    self._path, client_node=self._client_node
                )
            inode = master.namespace.get_file(self._path)
            bound = master.bound_tiers_for_targets(inode.rep_vector, targets)
            replicas: list[Replica] = [
                master.worker_for(medium.node).create_replica(
                    block, medium, tier, data=data
                )
                for medium, tier in zip(targets, bound)
            ]
            resources = pipeline_resources(
                self._system.cluster.topology, self._client_node, targets
            )
            flow = self._system.cluster.flows.start_flow(
                payload, resources, label=f"write:{block.block_id}", parent=span
            )
            if flow.span is not None:
                # The block transfer span carries the MOOP per-objective
                # scores of the placement decision that created it.
                flow.span.annotate(
                    op="write",
                    block=_label(self._path, block),
                    tiers=[m.tier_name for m in targets],
                )
                if obs.last_placement is not None:
                    flow.span.annotate(
                        moop=obs.last_placement["objectives"],
                        placement_score=obs.last_placement["score"],
                    )
            try:
                yield flow.completed
            except Exception as exc:
                master.abort_block(block, replicas)
                failures += 1
                if span is not None:
                    span.end("error", error=type(exc).__name__)
                    obs.metrics.counter("block_writes_failed_total").inc()
                if failures > _PIPELINE_RETRIES:
                    raise
                continue
            master.commit_block(block, payload, replicas)
            self.bytes_written += payload
            if span is not None:
                for replica in replicas:
                    obs.metrics.counter(
                        "bytes_written_total", tier=replica.tier_name
                    ).inc(payload)
                obs.metrics.counter("blocks_written_total").inc()
                obs.metrics.histogram("block_write_seconds").observe(
                    span.duration
                )
                span.end()
            return

    def _check_open(self) -> None:
        if self._closed:
            raise FileSystemError(f"stream for {self._path!r} is closed")


class FSDataInputStream:
    """A read handle for one file."""

    def __init__(
        self,
        system: "OctopusFileSystem",
        path: str,
        client_node: "Node | None",
    ) -> None:
        self._system = system
        self._master = system.master_for(path)
        self._path = path
        self._client_node = client_node
        self.bytes_read = 0

    # ------------------------------------------------------------------
    # Synchronous API
    # ------------------------------------------------------------------
    def read(self) -> bytes | None:
        """Read the full content; ``None`` if it was size-only data."""
        return self._system.run_to_completion(self.read_proc())

    def read_size(self) -> int:
        """Read (timing-only) the full content; returns bytes moved."""
        self._system.run_to_completion(self.read_proc(collect=False))
        return self.bytes_read

    def __enter__(self) -> "FSDataInputStream":
        return self

    def __exit__(self, *_exc) -> None:
        return None

    # ------------------------------------------------------------------
    # Process API
    # ------------------------------------------------------------------
    def read_proc(self, collect: bool = True) -> Generator:
        """Process: read every block, best replica first with failover."""
        chunks: list[bytes] = []
        have_all_bytes = True
        inode = self._master.namespace.get_file(self._path)
        ordered_blocks = self._master.order_block_replicas(
            inode, self._path, self._client_node
        )
        for block, replicas in zip(inode.blocks, ordered_blocks):
            replica = yield from self._read_block_proc(block, replicas)
            if replica.data is None:
                have_all_bytes = False
            elif collect:
                chunks.append(replica.data)
            self.bytes_read += block.size
        if collect and have_all_bytes:
            return b"".join(chunks)
        return None

    def _read_block_proc(
        self, block: Block, replicas: list[Replica]
    ) -> Generator:
        obs = self._system.obs
        span = None
        if obs.enabled:
            span = obs.tracer.start_span(
                "client.read_block",
                path=self._path,
                block=_label(self._path, block),
                size=block.size,
            )
        last_error: Exception | None = None
        attempts = 0
        for replica in replicas:
            worker_record = self._master.workers.get(replica.node.name)
            if worker_record is None or not worker_record.reachable:
                continue
            attempts += 1
            try:
                verified = worker_record.worker.read_replica(
                    block.block_id, replica.medium.medium_id
                )
            except BlockError as exc:
                # Checksum failure: tell the Master, try the next replica.
                self._master.report_corrupt_replica(
                    block.block_id, replica.medium.medium_id
                )
                last_error = exc
                if span is not None:
                    obs.metrics.counter("read_failovers_total").inc()
                continue
            resources = read_resources(
                self._system.cluster.topology, replica.medium, self._client_node
            )
            flow = self._system.cluster.flows.start_flow(
                block.size, resources, label=f"read:{block.block_id}",
                parent=span,
            )
            if flow.span is not None:
                flow.span.annotate(
                    op="read",
                    block=_label(self._path, block),
                    tier=replica.tier_name,
                )
            try:
                yield flow.completed
            except Exception as exc:  # worker died mid-read
                last_error = exc
                if span is not None:
                    obs.metrics.counter("read_failovers_total").inc()
                continue
            if span is not None:
                tier = replica.tier_name
                obs.metrics.counter("bytes_read_total", tier=tier).inc(
                    block.size
                )
                obs.metrics.counter("tier_read_hits_total", tier=tier).inc()
                obs.metrics.counter("blocks_read_total").inc()
                obs.metrics.histogram("block_read_seconds").observe(
                    span.duration
                )
                obs.metrics.histogram(
                    "tier_read_seconds", tier=tier
                ).observe(span.duration)
                span.end(tier=tier, attempts=attempts)
            return verified
        if span is not None:
            span.end("error", attempts=attempts)
            obs.metrics.counter("block_reads_failed_total").inc()
        raise RetrievalError(
            f"all replicas of block {block.block_id} failed"
        ) from last_error
