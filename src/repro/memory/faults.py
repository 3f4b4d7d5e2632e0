"""Deterministic fault injection for the simulated memory system.

The network got its hostile substrate in :mod:`repro.comm.faults`; this
module does the same for storage.  A :class:`StorageFaultPlan` is an
immutable, seed-driven description of how a :class:`~repro.memory.device.
MemoryDevice` misbehaves under load: transient read errors (retried with
backoff), latency spikes, torn pages (detected by the page cache's
per-page checksums and re-read), and sustained bandwidth degradation.
The :class:`StorageFaultInjector` is the runtime: one seeded stream per
rank, a fixed number of draws per page miss, so the stream position —
and therefore every later decision — depends only on the *number* of
misses so far, never on earlier outcomes.  Because the logical miss
sequence of a traversal is itself deterministic, storage faults perturb
only simulated time and the fault counters, never results.

A read that still fails after ``max_retries`` attempts is a *permanent*
failure: the page cache surfaces it to the engine, which either escalates
into the :class:`~repro.runtime.recovery.RecoveryManager` (re-fetching the
page from a checkpoint replica) or raises
:class:`~repro.errors.MemorySystemError` when no recovery path exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.utils.rng import spawn_rngs
from repro.utils.spec import parse_spec


@dataclass(frozen=True)
class StorageFaultPlan:
    """Seeded description of storage misbehaviour.

    ``read_error_rate`` / ``spike_rate`` / ``torn_rate`` are independent
    per-miss probabilities; ``bandwidth_degradation`` divides the device's
    sustained bandwidth for the whole run (a worn or contended device).  A
    plan with all rates zero and degradation 1 is a valid no-op.
    """

    seed: int = 0
    #: Probability one device read fails transiently and is retried.
    read_error_rate: float = 0.0
    #: Probability one device read hits a latency spike.
    spike_rate: float = 0.0
    #: Extra latency of one spike, microseconds.
    spike_us: float = 500.0
    #: Probability one page arrives torn (checksum mismatch -> re-read).
    torn_rate: float = 0.0
    #: Factor by which sustained bandwidth is degraded (>= 1).
    bandwidth_degradation: float = 1.0
    #: Read attempts before a failing page is declared permanently lost.
    max_retries: int = 3
    #: Backoff before retry ``i`` (charged ``i * retry_backoff_us``).
    retry_backoff_us: float = 50.0

    def __post_init__(self) -> None:
        for name in ("read_error_rate", "spike_rate", "torn_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1), got {rate}")
        if self.bandwidth_degradation < 1.0:
            raise ConfigurationError(
                f"bandwidth_degradation must be >= 1, got {self.bandwidth_degradation}"
            )
        if self.max_retries < 1:
            raise ConfigurationError(f"max_retries must be >= 1, got {self.max_retries}")
        if self.spike_us < 0 or self.retry_backoff_us < 0:
            raise ConfigurationError("spike_us and retry_backoff_us must be >= 0")

    # ------------------------------------------------------------------ #
    @property
    def any_faults(self) -> bool:
        """True when the plan can actually perturb a run."""
        return bool(
            self.read_error_rate
            or self.spike_rate
            or self.torn_rate
            or self.bandwidth_degradation > 1.0
        )

    # ------------------------------------------------------------------ #
    @classmethod
    def from_spec(cls, spec: str) -> "StorageFaultPlan":
        """Parse the CLI storage-fault mini-language.

        ``SPEC`` is a comma-separated ``key=value`` list::

            seed=7,readerr=0.05,spike=0.02,spikeus=800,torn=0.01,slow=4,retries=3,backoff=50
        """
        return cls(**parse_spec(spec, "storage fault", {
            "seed": ("seed", int),
            "readerr": ("read_error_rate", float),
            "spike": ("spike_rate", float),
            "spikeus": ("spike_us", float),
            "torn": ("torn_rate", float),
            "slow": ("bandwidth_degradation", float),
            "retries": ("max_retries", int),
            "backoff": ("retry_backoff_us", float),
        }))


@dataclass
class EpochStorageFaults:
    """Outcome of one epoch's miss batch through the injector."""

    retries: int = 0
    spikes: int = 0
    torn_pages: int = 0
    #: Pages that exhausted ``max_retries`` (escalated to recovery).
    permanent_failures: int = 0
    #: Simulated time added by retries, backoff, spikes and re-reads.
    extra_us: float = 0.0


class StorageFaultInjector:
    """Runtime of a :class:`StorageFaultPlan` for one rank's device.

    Every page miss consumes exactly three uniforms (error, spike, torn)
    regardless of outcome.  The retry count for a failing read is derived
    *geometrically from the single error uniform* — attempt ``k`` fails
    iff ``u < rate ** k`` — so no extra draws are needed and the stream
    position stays a pure function of the miss count.
    """

    def __init__(self, plan: StorageFaultPlan, rank: int, num_ranks: int) -> None:
        self.plan = plan
        self._rng = spawn_rngs(plan.seed, num_ranks)[rank]
        # cumulative tallies (surfaced via TraversalStats)
        self.retries = 0
        self.spikes = 0
        self.torn_pages = 0
        self.permanent_failures = 0

    def snapshot_state(self) -> dict:
        """Stream position + tallies for durable checkpoints."""
        return {
            "rng": self._rng.bit_generator.state,
            "retries": self.retries,
            "spikes": self.spikes,
            "torn_pages": self.torn_pages,
            "permanent_failures": self.permanent_failures,
        }

    def restore_state(self, snap: dict) -> None:
        """Reinstall a :meth:`snapshot_state` image (same plan/rank)."""
        self._rng.bit_generator.state = snap["rng"]
        self.retries = snap["retries"]
        self.spikes = snap["spikes"]
        self.torn_pages = snap["torn_pages"]
        self.permanent_failures = snap["permanent_failures"]

    def inspect_epoch(self, num_misses: int, device, page_size: int) -> EpochStorageFaults:
        """Draw the fault outcomes for one epoch's batch of page misses.

        Returns the epoch tally, including the simulated time the faults
        add on top of the healthy batch-read cost.  Degraded bandwidth is
        charged here too (the extra transfer time the slow device needs),
        so the healthy :meth:`~repro.memory.device.MemoryDevice.
        batch_read_us` stays untouched for baseline comparisons.
        """
        plan = self.plan
        out = EpochStorageFaults()
        if num_misses == 0:
            return out
        if plan.bandwidth_degradation > 1.0:
            healthy = num_misses * page_size / device.bandwidth_bytes_per_us
            out.extra_us += healthy * (plan.bandwidth_degradation - 1.0)
        if not (plan.read_error_rate or plan.spike_rate or plan.torn_rate):
            return out
        u = self._rng.random((num_misses, 3))
        per_read = device.read_latency_us * plan.bandwidth_degradation
        for i in range(num_misses):
            ue = u[i, 0]
            if ue < plan.read_error_rate:
                # attempt k (1-based) fails iff ue < rate**k, capped
                failed = 1
                threshold = plan.read_error_rate * plan.read_error_rate
                while ue < threshold and failed < plan.max_retries:
                    failed += 1
                    threshold *= plan.read_error_rate
                if failed >= plan.max_retries:
                    out.permanent_failures += 1
                retried = min(failed, plan.max_retries)
                out.retries += retried
                for attempt in range(1, retried + 1):
                    out.extra_us += attempt * plan.retry_backoff_us + per_read
            if u[i, 1] < plan.spike_rate:
                out.spikes += 1
                out.extra_us += plan.spike_us
            if u[i, 2] < plan.torn_rate:
                # checksum mismatch: the page is re-read once
                out.torn_pages += 1
                out.extra_us += per_read + page_size / (
                    device.bandwidth_bytes_per_us / plan.bandwidth_degradation
                )
        self.retries += out.retries
        self.spikes += out.spikes
        self.torn_pages += out.torn_pages
        self.permanent_failures += out.permanent_failures
        return out
