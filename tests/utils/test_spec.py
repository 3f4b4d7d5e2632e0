"""The one ``key=value`` spec loop behind the five plan parsers."""

from __future__ import annotations

import pytest

from repro.comm.faults import CrashEvent, FaultPlan, WorkerFaultPlan
from repro.errors import ConfigurationError
from repro.memory.faults import StorageFaultPlan
from repro.runtime.durability import DurableFaultPlan
from repro.runtime.pressure import StragglerPlan
from repro.utils.spec import Events, parse_spec, plus_ints


@pytest.mark.parametrize("plan, spec", [
    (WorkerFaultPlan, "kill"),            # item without '='
    (StorageFaultPlan, "readerr"),        # item without '='
    (DurableFaultPlan, "torn"),           # item without '='
    (DurableFaultPlan, "bitflip=16+x"),   # non-integer tick
    (DurableFaultPlan, "seed=x"),         # non-integer seed
    (StragglerPlan, "factor=lots"),       # non-number
    (StragglerPlan, "pacing=yes"),        # non-integer flag
])
def test_bad_spec_items_rejected(plan, spec):
    with pytest.raises(ConfigurationError):
        plan.from_spec(spec)


def test_event_keys_accumulate_and_scalars_replace():
    plan = FaultPlan.from_spec("crash=4:1,seed=1,crash=9:2:6+12:0,seed=3")
    assert plan.crashes == (
        CrashEvent(4, 1), CrashEvent(9, 2, 6), CrashEvent(12, 0),
    )
    assert plan.seed == 3
    worker = WorkerFaultPlan.from_spec("hang=6:0,kill=4:1,hang=2:3")
    assert [(e.tick, e.rank, e.kind) for e in worker.events] == [
        (6, 0, "hang"), (4, 1, "kill"), (2, 3, "hang"),
    ]


def test_only_keys_declared_as_events_accumulate():
    """Accumulation follows the declared converter, not the shape of the
    value it returns: a plain converter returning a list still replaces."""
    fields = {
        "ev": ("ev", Events(lambda a, b: (a, b), "test", "a:b", (2,))),
        "ls": ("ls", lambda v: [int(x) for x in v.split("+")]),
    }
    assert parse_spec("ev=1:2,ls=1+2,ev=3:4,ls=5", "test", fields) == {
        "ev": ((1, 2), (3, 4)), "ls": [5],
    }


def test_parse_spec_keys_are_case_and_space_insensitive():
    fields = {"seed": ("seed", int), "ticks": ("ticks", plus_ints)}
    assert parse_spec(" SEED=7 , ticks=1+2,,", "test", fields) == {
        "seed": 7, "ticks": (1, 2),
    }
    with pytest.raises(ConfigurationError, match="unknown test spec key 'tick'"):
        parse_spec("tick=1", "test", fields)
