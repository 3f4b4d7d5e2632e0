"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GraphConstructionError(ReproError):
    """Raised when an edge list or CSR structure cannot be built as requested."""


class PartitioningError(ReproError):
    """Raised when a partitioning request is invalid (e.g. more partitions than edges)."""


class RoutingError(ReproError):
    """Raised when a routing topology cannot be constructed or a route is invalid."""


class CommunicationError(ReproError):
    """Raised on mailbox / network protocol violations."""


class TraversalError(ReproError):
    """Raised when an asynchronous traversal cannot run or fails an internal
    invariant.

    ``stats`` optionally carries the partial
    :class:`~repro.runtime.trace.TraversalStats` gathered up to the failure
    (populated by the engine's ``max_ticks`` abort so stalled runs can be
    post-mortemed: per-rank counters, tick count, timeline).
    """

    def __init__(self, *args, stats=None) -> None:
        super().__init__(*args)
        self.stats = stats


class TerminationError(TraversalError):
    """Raised when the quiescence detector reaches an inconsistent state."""


class WorkerCrash(ReproError):
    """A parallel-executor worker process failed a barrier.

    Raised parent-side by the worker pool when a worker's pipe reports an
    exception, hits EOF, the process dies, or a barrier deadline expires.
    Carries enough structure for the supervisor to charge the failing
    worker's restart budget (re-fork or graceful degradation), and for
    the final :class:`TraversalError` (fail-fast mode) to show the
    worker-side traceback instead of discarding it.

    ``kind`` is one of ``"error"`` (the worker caught an exception and
    reported it before exiting), ``"crash"`` (the process died or its
    pipe hit EOF — e.g. SIGKILL), or ``"hang"`` (a barrier deadline
    expired while the process was still alive; the pool force-kills it).
    """

    def __init__(self, *args, worker=None, ranks=(), kind="crash",
                 exitcode=None, worker_traceback=None) -> None:
        super().__init__(*args)
        self.worker = worker
        self.ranks = tuple(ranks)
        self.kind = kind
        self.exitcode = exitcode
        self.worker_traceback = worker_traceback


class MemorySystemError(ReproError):
    """Raised on invalid page-cache or device configuration."""


class CheckpointCorruptionError(ReproError):
    """Raised when a durable resume finds no valid epoch on disk.

    The durability layer tolerates individual corrupt epochs (torn writes,
    bit flips, truncated or incomplete manifests) by falling back to the
    previous valid epoch; this error is the end of that ladder — every
    epoch in the durable directory failed validation, so the run cannot be
    resumed.  ``examined`` carries the number of epochs that were checked
    and rejected."""

    def __init__(self, *args, examined=0) -> None:
        super().__init__(*args)
        self.examined = examined


class ConfigurationError(ReproError):
    """Raised when a machine model or engine configuration is invalid."""
