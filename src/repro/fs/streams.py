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

from collections import deque
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
    ) -> None:
        self._system = system
        self._master = system.master
        self._path = path
        self._client_node = client_node
        # Bytes written but not yet flushed. Real ones are also kept as
        # the pieces they were written in: ``bytes`` objects and
        # zero-copy windows over them; size-only data has no pieces.
        self._pending = 0
        self._pieces: deque[bytes | memoryview] = deque()
        self._closed = False
        self._block_size = self._master.namespace.get_file(path).block_size
        self.bytes_written = 0

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
        """Process: append real bytes, flushing full blocks as they fill.

        ``bytes`` are held, not copied: a block whose content is exactly
        one written ``bytes`` object stores that object. Any other
        buffer is copied once here, since its owner may reuse it.
        """
        self._check_open()
        if type(data) is not bytes:
            data = memoryview(data).tobytes()
        if not data:
            return
        if self._pending and not self._pieces:
            raise FileSystemError("cannot mix byte and size-only writes")
        self._pieces.append(data)
        self._pending += len(data)
        yield from self._drain_proc()

    def write_size_proc(self, nbytes: int) -> Generator:
        """Process: append simulated data without materializing bytes."""
        self._check_open()
        if nbytes < 0:
            raise FileSystemError(f"cannot write {nbytes} bytes")
        if self._pieces:
            raise FileSystemError("cannot mix byte and size-only writes")
        self._pending += int(nbytes)
        yield from self._drain_proc()

    def close_proc(self) -> Generator:
        """Process: flush the tail block and seal the file."""
        if self._closed:
            return
        if self._pending:
            # Less than a block is left: it goes to one new block.
            size = self._pending
            yield from self._flush_block_proc(size, self._take(size))
        self._closed = True
        self._master.complete_file(self._path)

    def _drain_proc(self) -> Generator:
        """Flush every whole block the pending data fills."""
        while self._pending >= self._block_size:
            size = self._block_size
            yield from self._flush_block_proc(size, self._take(size))

    def _take(self, size: int) -> bytes | None:
        """Cut the first ``size`` pending bytes (``None`` if size-only):
        one whole ``bytes`` piece by reference, anything else by one
        copy."""
        self._pending -= size
        pieces, parts = self._pieces, []
        if not pieces:
            return None
        while size:
            piece = pieces.popleft()
            if len(piece) > size:
                view = memoryview(piece)
                pieces.appendleft(view[size:])
                piece = view[:size]
            parts.append(piece)
            size -= len(piece)
        return b"".join(parts)  # a lone ``bytes`` part comes back as itself

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
                    "client.write_block", path=self._path, size=payload,
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
                if failures > _PIPELINE_RETRIES:
                    raise
                continue
            master.commit_block(block, payload, replicas)
            self.bytes_written += payload
            if span is not None:
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
        self._master = system.master
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
        chunks: list[bytes | None] = []
        inode = self._master.namespace.get_file(self._path)
        ordered_blocks = self._master.order_block_replicas(
            inode, self._path, self._client_node
        )
        for block, replicas in zip(inode.blocks, ordered_blocks):
            replica = yield from self._read_block_proc(block, replicas)
            chunks.append(replica.data)
            self.bytes_read += block.size
        if collect and None not in chunks:
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
                continue
            if span is not None:
                span.end(tier=replica.tier_name, attempts=attempts)
            return verified
        if span is not None:
            span.end("error", attempts=attempts)
        raise RetrievalError(
            f"all replicas of block {block.block_id} failed"
        ) from last_error
