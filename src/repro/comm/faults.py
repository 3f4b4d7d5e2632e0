"""Deterministic fault injection for the simulated network fabric.

A :class:`FaultPlan` is an immutable, seed-driven description of how the
fabric misbehaves: per-transmission packet drop / duplication / delay
probabilities, plus whole-rank crash events pinned to specific logical
ticks.  The plan is *data*; the :class:`FaultInjector` is the runtime that
draws from one :mod:`repro.utils.rng` stream in a fixed per-transmission
pattern, so the same seed always produces the same fault sequence on the
same workload — which is what makes chaos runs replayable bit-for-bit and
lets the fault-equivalence suite diff faulty runs against fault-free ones.

Faults apply to every wire *transmission* (first sends, retransmissions,
acks alike); the reliable-delivery layer (:mod:`repro.comm.reliable`) is
what turns the resulting lossy, duplicating fabric back into exactly-once
in-order logical delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.utils.rng import resolve_rng
from repro.utils.spec import Events, parse_spec


@dataclass(frozen=True)
class CrashEvent:
    """One rank failure: ``rank`` dies at the start of logical tick
    ``tick``'s delivery phase, stays down for ``down_rounds`` fabric
    rounds, then restarts (restoring its last checkpoint and replaying
    its delivery log — see :mod:`repro.runtime.recovery`)."""

    tick: int
    rank: int
    down_rounds: int = 4

    def __post_init__(self) -> None:
        if self.tick < 1:
            raise ConfigurationError(f"crash tick must be >= 1, got {self.tick}")
        if self.rank < 0:
            raise ConfigurationError(f"crash rank must be >= 0, got {self.rank}")
        if self.down_rounds < 1:
            raise ConfigurationError(
                f"down_rounds must be >= 1, got {self.down_rounds}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of fabric misbehaviour.

    ``drop_rate`` / ``duplicate_rate`` / ``delay_rate`` are independent
    per-transmission probabilities; a delayed transmission arrives
    ``1..max_delay`` fabric rounds late.  ``crashes`` is a tuple of
    :class:`CrashEvent`.  A plan with all rates zero and no crashes is a
    valid no-op (useful for measuring the reliable layer's no-fault tax).
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    max_delay: int = 3
    crashes: tuple[CrashEvent, ...] = field(default=())

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1), got {rate}")
        if self.max_delay < 1:
            raise ConfigurationError(f"max_delay must be >= 1, got {self.max_delay}")
        # normalise list -> tuple so the plan stays hashable/frozen
        if not isinstance(self.crashes, tuple):
            object.__setattr__(self, "crashes", tuple(self.crashes))

    # ------------------------------------------------------------------ #
    @property
    def any_faults(self) -> bool:
        """True when the plan can actually perturb a run."""
        return bool(
            self.drop_rate or self.duplicate_rate or self.delay_rate or self.crashes
        )

    @property
    def has_crashes(self) -> bool:
        return bool(self.crashes)

    def crashes_at(self, tick: int) -> list[CrashEvent]:
        """Crash events scheduled for logical tick ``tick``."""
        return [ev for ev in self.crashes if ev.tick == tick]

    # ------------------------------------------------------------------ #
    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse the CLI fault spec mini-language.

        ``SPEC`` is a comma-separated ``key=value`` list::

            seed=7,drop=0.02,dup=0.01,delay=0.05,maxdelay=3,crash=40:2:6

        ``crash`` takes ``tick:rank[:down_rounds]`` and may be repeated by
        joining events with ``+`` (``crash=40:2+90:1:8``).
        """
        return cls(**parse_spec(spec, "fault", {
            "seed": ("seed", int),
            "drop": ("drop_rate", float),
            "dup": ("duplicate_rate", float),
            "delay": ("delay_rate", float),
            "maxdelay": ("max_delay", int),
            "crash": ("crashes", Events(
                CrashEvent, "crash", "tick:rank[:down_rounds]", (2, 3))),
        }))


#: Worker-fault kinds understood by the supervisor / worker protocol.
WORKER_FAULT_KINDS = ("kill", "hang", "exita")


@dataclass(frozen=True)
class WorkerFaultEvent:
    """One injected worker-process failure: the worker owning ``rank``
    misbehaves when it receives the barrier command for logical tick
    ``tick``.

    ``kind`` selects the failure mode: ``"kill"`` — SIGKILL itself on
    command receipt (no cleanup, pipe EOF); ``"hang"`` — finish the
    tick's work but sleep forever instead of reporting at the barrier
    (detected by the deadline, force-killed); ``"exita"`` — hard-exit
    midway through phase A, after the first owned rank's tick (partial
    state mutations, no reply).
    """

    tick: int
    rank: int
    kind: str = "kill"

    def __post_init__(self) -> None:
        if self.tick < 1:
            raise ConfigurationError(
                f"worker fault tick must be >= 1, got {self.tick}"
            )
        if self.rank < 0:
            raise ConfigurationError(
                f"worker fault rank must be >= 0, got {self.rank}"
            )
        if self.kind not in WORKER_FAULT_KINDS:
            raise ConfigurationError(
                f"worker fault kind must be one of {WORKER_FAULT_KINDS}, "
                f"got {self.kind!r}"
            )


@dataclass(frozen=True)
class WorkerFaultPlan:
    """Seeded description of worker-process failures for the parallel
    executor's supervision layer (:mod:`repro.runtime.parallel`).

    Unlike :class:`FaultPlan` this perturbs the *host* processes running
    the simulation, not the simulated fabric: the supervisor injects each
    event once into the worker owning the event's rank, detects the
    failure at the barrier, and rolls the run back to its last epoch on
    a re-forked pool (or in-process when the restart budget runs out).
    ``seed`` drives only the host-side retry backoff jitter; results stay
    bit-identical to the unfailed run by construction.  ``fork_failures``
    makes the first N re-fork attempts fail, exercising the degradation
    path.
    """

    seed: int = 0
    events: tuple[WorkerFaultEvent, ...] = field(default=())
    fork_failures: int = 0

    def __post_init__(self) -> None:
        if self.fork_failures < 0:
            raise ConfigurationError(
                f"fork_failures must be >= 0, got {self.fork_failures}"
            )
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))

    # ------------------------------------------------------------------ #
    @property
    def any_faults(self) -> bool:
        """True when the plan can actually perturb a run."""
        return bool(self.events) or self.fork_failures > 0

    def events_at(self, tick: int) -> list[WorkerFaultEvent]:
        """Worker-fault events scheduled for logical tick ``tick``."""
        return [ev for ev in self.events if ev.tick == tick]

    # ------------------------------------------------------------------ #
    @classmethod
    def from_spec(cls, spec: str) -> "WorkerFaultPlan":
        """Parse the CLI worker-fault spec mini-language.

        ``SPEC`` is a comma-separated ``key=value`` list::

            seed=7,kill=4:1,hang=9:0,exita=6:3,forkfail=2

        ``kill`` / ``hang`` / ``exita`` take ``tick:rank`` and may be
        repeated by joining events with ``+`` (``kill=4:1+9:3``);
        ``forkfail=N`` fails the first N re-forks.
        """
        fields = {
            kind: ("events", Events(
                lambda tick, rank, kind=kind: WorkerFaultEvent(tick, rank, kind),
                "worker fault", "tick:rank", (2,)))
            for kind in WORKER_FAULT_KINDS
        }
        fields["seed"] = ("seed", int)
        fields["forkfail"] = ("fork_failures", int)
        return cls(**parse_spec(spec, "worker fault", fields))


@dataclass
class FaultDecision:
    """Outcome of one transmission's fault draws."""

    dropped: bool = False
    duplicated: bool = False
    delay: int = 0
    dup_delay: int = 0


class FaultInjector:
    """Runtime of a :class:`FaultPlan`: one seeded stream, fixed draws.

    Every transmission consumes exactly four uniforms (drop, duplicate,
    delay?, delay amount) regardless of outcome, so the stream position —
    and therefore every later decision — depends only on the *number* of
    transmissions so far, never on earlier fault outcomes' branchings.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = resolve_rng(plan.seed)
        # cumulative tallies (surfaced via TraversalStats)
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0

    def snapshot_state(self) -> dict:
        """Stream position + tallies for durable checkpoints."""
        return {
            "rng": self._rng.bit_generator.state,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
        }

    def restore_state(self, snap: dict) -> None:
        """Reinstall a :meth:`snapshot_state` image (same plan/seed)."""
        self._rng.bit_generator.state = snap["rng"]
        self.dropped = snap["dropped"]
        self.duplicated = snap["duplicated"]
        self.delayed = snap["delayed"]

    def decide(self) -> FaultDecision:
        """Draw the fault outcome for one wire transmission."""
        plan = self.plan
        u = self._rng.random(4)
        decision = FaultDecision()
        if u[0] < plan.drop_rate:
            decision.dropped = True
            self.dropped += 1
            return decision
        if u[1] < plan.duplicate_rate:
            decision.duplicated = True
            self.duplicated += 1
            decision.dup_delay = 1 + int(u[3] * plan.max_delay) % plan.max_delay
        if u[2] < plan.delay_rate:
            decision.delay = 1 + int(u[3] * plan.max_delay) % plan.max_delay
            self.delayed += 1
        return decision
