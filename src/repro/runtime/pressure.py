"""Straggler modelling and mitigation (resource-pressure layer).

Scale-free traversals are communication-bound, so one slow rank drags the
whole machine: every tick lasts as long as its critical path, and the
quiescence waves that decide termination circulate at the speed of the
slowest participant.  A :class:`StragglerPlan` is a seeded, immutable
description of per-rank slowdowns — which ranks run slow and by how much —
plus the two mitigations the engine applies:

* **work-stealing rebalance** (``rebalance`` in ``[0, 1]``): the fraction
  of a straggler's excess per-tick work that idle ranks steal.  At 0 the
  tick costs the full skewed critical path; at 1 it costs the best
  achievable balance (never better than the unskewed critical path or the
  mean skewed load).
* **adaptive tick pacing** (``pacing``): the engine tracks an EWMA of the
  observed skew (scaled / unscaled critical path) and stretches the idle-
  tick floor by it, modelling slow ranks polling their mailboxes and
  termination waves proportionally less often.  Without it a skewed
  machine would finish its control-plane drain at full speed, which no
  real cluster does.

Like every pressure mechanism, stragglers charge *simulated time only*:
the logical schedule — who visits what on which tick — is untouched, so
results and logical counters stay bit-identical to the uniform-speed run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import resolve_rng
from repro.utils.spec import parse_spec, plus_ints


@dataclass(frozen=True)
class StragglerPlan:
    """Seeded description of per-rank slowdown skew.

    ``factor`` multiplies the per-tick compute cost of each straggler
    rank.  Stragglers are either listed explicitly (``ranks``) or drawn
    deterministically from ``seed``: each rank independently straggles
    with probability ``fraction``, with at least one straggler forced
    (the worst case is the interesting one) when ``fraction > 0``.
    """

    seed: int = 0
    #: Slowdown multiplier applied to straggler ranks (>= 1).
    factor: float = 4.0
    #: Fraction of ranks that straggle (ignored when ``ranks`` is given).
    fraction: float = 0.25
    #: Explicit straggler ranks (overrides seeded selection).
    ranks: tuple[int, ...] = ()
    #: Work-stealing efficiency in [0, 1]: fraction of straggler excess
    #: work idle ranks absorb each tick.
    rebalance: float = 0.0
    #: Stretch idle-tick pacing by the observed skew EWMA.
    pacing: bool = True

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ConfigurationError(f"factor must be >= 1, got {self.factor}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in [0, 1], got {self.fraction}")
        if not 0.0 <= self.rebalance <= 1.0:
            raise ConfigurationError(f"rebalance must be in [0, 1], got {self.rebalance}")
        if not isinstance(self.ranks, tuple):
            object.__setattr__(self, "ranks", tuple(self.ranks))
        if any(r < 0 for r in self.ranks):
            raise ConfigurationError("straggler ranks must be >= 0")

    # ------------------------------------------------------------------ #
    @property
    def any_skew(self) -> bool:
        """True when the plan can actually slow a run down."""
        return self.factor > 1.0 and (bool(self.ranks) or self.fraction > 0.0)

    def slowdowns(self, num_ranks: int) -> np.ndarray:
        """Per-rank slowdown multipliers (float64, length ``num_ranks``)."""
        out = np.ones(num_ranks, dtype=np.float64)
        if self.factor <= 1.0:
            return out
        if self.ranks:
            for r in self.ranks:
                if r >= num_ranks:
                    raise ConfigurationError(
                        f"straggler rank {r} out of range for p={num_ranks}"
                    )
                out[r] = self.factor
            return out
        if self.fraction <= 0.0:
            return out
        rng = resolve_rng(self.seed)
        mask = rng.random(num_ranks) < self.fraction
        if not mask.any():
            mask[int(rng.integers(num_ranks))] = True
        out[mask] = self.factor
        return out

    # ------------------------------------------------------------------ #
    @classmethod
    def from_spec(cls, spec: str) -> "StragglerPlan":
        """Parse the CLI straggler mini-language.

        ``SPEC`` is a comma-separated ``key=value`` list::

            seed=3,factor=4,fraction=0.25,rebalance=0.5,pacing=1

        ``ranks`` pins the straggler set explicitly, joining ranks with
        ``+`` (``ranks=1+5``).
        """
        return cls(**parse_spec(spec, "straggler", {
            "seed": ("seed", int),
            "factor": ("factor", float),
            "fraction": ("fraction", float),
            "rebalance": ("rebalance", float),
            "pacing": ("pacing", lambda v: bool(int(v))),
            "ranks": ("ranks", plus_ints),
        }))


class StragglerClock:
    """Engine-side runtime of a :class:`StragglerPlan`.

    Turns the per-rank cost vector of one tick into the tick's effective
    critical-path cost, accounting for skew, work stealing and pacing.
    All methods are pure float arithmetic on deterministic inputs, so the
    same workload always produces the same simulated times.
    """

    #: EWMA smoothing weight for the observed-skew estimate.
    ALPHA = 0.2

    def __init__(self, plan: StragglerPlan, num_ranks: int) -> None:
        self.plan = plan
        self.slowdowns = plan.slowdowns(num_ranks)
        self.max_slowdown = float(self.slowdowns.max())
        self._skew_ewma = 1.0
        # cumulative tallies (surfaced via TraversalStats)
        self.stall_us = 0.0
        self.rebalanced_us = 0.0

    def tick_cost(self, costs: np.ndarray) -> float:
        """Effective critical-path cost of one tick under skew.

        ``costs`` is the unscaled per-rank cost vector.  Straggler ranks'
        work is stretched by their slowdown; work stealing then moves a
        ``rebalance`` fraction of the gap between the skewed critical path
        and the best achievable balance — which is bounded below by both
        the *unskewed* critical path (stolen work still has to run
        somewhere) and the mean skewed load (perfect spreading).
        """
        base = float(costs.max())
        scaled = costs * self.slowdowns
        skewed = float(scaled.max())
        if skewed <= base:
            return base
        balanced = max(base, float(scaled.mean()))
        effective = skewed - self.plan.rebalance * (skewed - balanced)
        self.stall_us += effective - base
        self.rebalanced_us += skewed - effective
        if base > 0.0:
            self._skew_ewma += self.ALPHA * (skewed / base - self._skew_ewma)
        return effective

    def pacing_floor(self, min_tick_us: float) -> float:
        """The idle-tick duration floor under adaptive pacing."""
        if not self.plan.pacing:
            return min_tick_us
        return min_tick_us * min(self._skew_ewma, self.max_slowdown)

    def snapshot_state(self) -> dict:
        """EWMA + tallies for durable checkpoints (the EWMA feeds the
        pacing floor, so it is part of the simulated clock's state)."""
        return {
            "skew_ewma": self._skew_ewma,
            "stall_us": self.stall_us,
            "rebalanced_us": self.rebalanced_us,
        }

    def restore_state(self, snap: dict) -> None:
        """Reinstall a :meth:`snapshot_state` image (same plan)."""
        self._skew_ewma = snap["skew_ewma"]
        self.stall_us = snap["stall_us"]
        self.rebalanced_us = snap["rebalanced_us"]
