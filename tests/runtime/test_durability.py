"""Unit tests for the durable checkpoint layer (INTERNALS §13).

Covers the epoch file format and its atomic commit protocol, the fault
injector's four corruption modes and the fallback ladder they exercise,
a fuzz of hand-damaged epochs, retention pruning, the orphaned-tmp sweep,
the config-key guard against resuming a different run, and the
engine-config validation surface.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.algorithms.bfs import BFSAlgorithm, bfs
from repro.bench.harness import build_rmat_graph, pick_bfs_source
from repro.errors import CheckpointCorruptionError, ConfigurationError
from repro.runtime.costmodel import EngineConfig, laptop
from repro.runtime.durability import DurableFaultPlan, sweep_orphans
from repro.runtime.engine import SimulationEngine
from repro.runtime.trace import DURABILITY_STATS_FIELDS, TraversalStats


@pytest.fixture(scope="module")
def small():
    """A tiny partitioned RMAT graph plus a BFS source (module-cached)."""
    edges, graph = build_rmat_graph(7, num_partitions=4, num_ghosts=32, seed=5)
    return edges, graph, pick_bfs_source(edges, seed=5)


def _rebuild():
    return build_rmat_graph(7, num_partitions=4, num_ghosts=32, seed=5)[1]


# --------------------------------------------------------------------- #
# DurableFaultPlan
# --------------------------------------------------------------------- #
class TestDurableFaultPlan:
    def test_from_spec(self):
        plan = DurableFaultPlan.from_spec(
            "seed=7,torn=32,bitflip=16+48,manifest=64,missing=80"
        )
        assert plan.seed == 7
        assert plan.torn == (32,)
        assert plan.bitflip == (16, 48)
        assert plan.manifest == (64,)
        assert plan.missing == (80,)
        assert plan.any_faults

    def test_empty_plan_has_no_faults(self):
        assert not DurableFaultPlan().any_faults

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            DurableFaultPlan.from_spec("seed=7,shred=3")

    def test_bad_tick_rejected(self):
        with pytest.raises(ConfigurationError):
            DurableFaultPlan.from_spec("torn=0")


# --------------------------------------------------------------------- #
# EngineConfig validation
# --------------------------------------------------------------------- #
class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("durable_resume", True),
        ("durable_faults", DurableFaultPlan(torn=(4,))),
        ("kill_at_tick", 8),
    ])
    def test_durable_knobs_require_dir(self, field, value):
        with pytest.raises(ConfigurationError, match="durable_dir"):
            EngineConfig(**{field: value})

    def test_interval_and_keep_bounds(self, tmp_path):
        with pytest.raises(ConfigurationError):
            EngineConfig(durable_dir=str(tmp_path), durable_interval=0)
        with pytest.raises(ConfigurationError):
            EngineConfig(durable_dir=str(tmp_path), durable_keep=0)


# --------------------------------------------------------------------- #
# Epoch write / prune / orphan sweep
# --------------------------------------------------------------------- #
class TestEpochFiles:
    def test_epochs_written_and_pruned(self, small, tmp_path):
        _, graph, src = small
        d = str(tmp_path / "dur")
        result = bfs(graph, src, durable_dir=d, durable_interval=4,
                     durable_keep=1)
        assert result.stats.durable_checkpoints >= 2
        names = sorted(os.listdir(d))
        # keep=1: exactly one (bin, manifest) pair survives pruning.
        assert len(names) == 2
        assert names[0].endswith(".bin") and names[1].endswith(".json")
        assert result.stats.durable_disk_bytes > 0
        assert result.stats.durable_bytes > 0
        assert result.stats.durable_io_us > 0.0

    def test_no_tmp_files_left_behind(self, small, tmp_path):
        _, graph, src = small
        d = str(tmp_path / "dur")
        bfs(graph, src, durable_dir=d, durable_interval=4)
        assert not [n for n in os.listdir(d) if ".tmp" in n]

    def test_orphan_sweep(self, tmp_path):
        d = tmp_path / "dur"
        d.mkdir()
        (d / f"epoch_00000004.bin.tmp{os.getpid()}").write_bytes(b"torn")
        (d / "epoch_00000008.json.tmp12345").write_bytes(b"torn")
        (d / "epoch_00000004.bin").write_bytes(b"keep")
        assert sweep_orphans(str(d)) == 2
        assert sorted(os.listdir(d)) == ["epoch_00000004.bin"]

    def test_manager_sweeps_orphans_on_init(self, small, tmp_path):
        """A SIGKILL mid-write leaves epoch tmp files; the next durable
        run over the same directory must clean them up (the SpillPager-
        style temp-leak fix, applied at the durability layer)."""
        _, graph, src = small
        d = tmp_path / "dur"
        d.mkdir()
        orphan = d / "epoch_00000099.bin.tmp4242"
        orphan.write_bytes(b"half-written epoch from a killed process")
        bfs(graph, src, durable_dir=str(d), durable_interval=4)
        assert not orphan.exists()
        assert not [n for n in os.listdir(d) if ".tmp" in n]

    def test_stats_fields_exist(self):
        stats = TraversalStats(algorithm="bfs", machine="laptop",
                               topology="direct", num_ranks=1,
                               num_vertices=1, num_edges=1)
        for field in DURABILITY_STATS_FIELDS:
            assert hasattr(stats, field)
        assert hasattr(stats, "durable_io_us")
        assert hasattr(stats, "order_digest")


# --------------------------------------------------------------------- #
# Corruption fallback ladder
# --------------------------------------------------------------------- #
class TestCorruptionFallback:
    @pytest.mark.parametrize("mode", ["torn", "bitflip", "manifest", "missing"])
    def test_each_mode_falls_back(self, small, tmp_path, mode):
        _, graph, src = small
        d = str(tmp_path / "dur")
        full = bfs(graph, src, durable_dir=d, durable_interval=4,
                   durable_faults=DurableFaultPlan.from_spec(f"{mode}=8"))
        # Write-time read-back verification already counts the bad epoch.
        assert full.stats.durable_corrupt_epochs == 1
        resumed = bfs(_rebuild(), src, durable_dir=d, durable_interval=4,
                      durable_resume=True)
        assert resumed.stats.durable_resumes == 1
        # Fallback landed on a valid epoch, never the corrupted tick-8 one.
        assert resumed.stats.durable_resume_tick != 8
        assert resumed.stats.durable_resume_tick > 0
        assert (resumed.data.levels == full.data.levels).all()

    def test_all_epochs_corrupt_raises(self, small, tmp_path):
        _, graph, src = small
        d = str(tmp_path / "dur")
        bfs(graph, src, durable_dir=d, durable_interval=4,
            durable_faults=DurableFaultPlan.from_spec("bitflip=4+8+12"))
        with pytest.raises(CheckpointCorruptionError, match="failed verification"):
            bfs(_rebuild(), src, durable_dir=d, durable_interval=4,
                durable_resume=True)

    def test_fallbacks_counted(self, small, tmp_path):
        _, graph, src = small
        d = str(tmp_path / "dur")
        bfs(graph, src, durable_dir=d, durable_interval=4, durable_keep=3,
            durable_faults=DurableFaultPlan.from_spec("torn=12"))
        resumed = bfs(_rebuild(), src, durable_dir=d, durable_interval=4,
                      durable_resume=True)
        assert resumed.stats.durable_fallbacks == 1
        assert resumed.stats.durable_corrupt_epochs == 1
        assert resumed.stats.durable_resume_tick == 8

    def test_resume_empty_dir_starts_fresh(self, small, tmp_path):
        _, graph, src = small
        d = str(tmp_path / "empty")
        baseline = bfs(graph, src)
        resumed = bfs(_rebuild(), src, durable_dir=d, durable_interval=1000,
                      durable_resume=True)
        assert resumed.stats.durable_resumes == 0
        assert (resumed.data.levels == baseline.data.levels).all()


# --------------------------------------------------------------------- #
# Config-key guard
# --------------------------------------------------------------------- #
class TestConfigKey:
    def test_different_run_rejected(self, small, tmp_path):
        """Epochs from a different workload are a user error, not
        corruption — the fallback ladder must not silently absorb them."""
        from repro.algorithms.kcore import kcore

        _, graph, src = small
        d = str(tmp_path / "dur")
        bfs(graph, src, durable_dir=d, durable_interval=4)
        with pytest.raises(ConfigurationError, match="different run"):
            kcore(_rebuild(), 3, durable_dir=d, durable_interval=4,
                  durable_resume=True)

    def test_warm_caches_with_resume_rejected(self, small, tmp_path):
        from repro.algorithms.bfs import BFSAlgorithm
        from repro.memory.page_cache import PageCache
        from repro.runtime.costmodel import hyperion_dit
        from repro.runtime.engine import SimulationEngine

        _, graph, src = small
        machine = hyperion_dit("nvram")
        caches = [
            PageCache(capacity_pages=32, page_size=machine.page_size,
                      device=machine.storage)
            for _ in range(graph.num_partitions)
        ]
        with pytest.raises(ConfigurationError, match="warm"):
            SimulationEngine(
                graph, BFSAlgorithm(src), machine,
                config=EngineConfig(durable_dir=str(tmp_path / "dur"),
                                    durable_resume=True),
                page_caches=caches,
            )


# --------------------------------------------------------------------- #
# Damaged-epoch fuzz: any damage ends in a valid epoch or a typed error
# --------------------------------------------------------------------- #
FUZZ_CONFIG = dict(durable_interval=2, durable_keep=2)

#: JSON values a damaged manifest field may hold: wrong types, nesting,
#: unhashable containers, negative and oversize integers.
_json_values = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=False)
    | st.integers(min_value=-(1 << 40), max_value=1 << 40) | st.text(max_size=8)
    | st.sampled_from(["ranks", "loop", "stats", "network"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_fields = st.sampled_from(["format", "tick", "config", "sections"])
_entry_keys = st.sampled_from(["name", "offset", "length", "blake2b"])
_mutations = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True)),
    st.tuples(st.just("bitflip"), st.floats(0, 1, exclude_max=True),
              st.integers(0, 7)),
    st.tuples(st.just("drop"), _fields),
    st.tuples(st.just("retype"), _fields, _json_values),
    st.tuples(st.just("nest"), _fields),
    st.tuples(st.just("entry_drop"), st.integers(0, 6), _entry_keys),
    st.tuples(st.just("entry_set"), st.integers(0, 6), _entry_keys, _json_values),
    st.tuples(st.just("entry_swap"), st.integers(0, 6), st.integers(0, 6)),
    st.tuples(st.just("append"), _json_values),
)


@pytest.fixture(scope="module")
def epoch_dir(small, tmp_path_factory):
    """A finished BFS run's durable directory (two intact epochs), its
    source vertex and each epoch's pickled loop section by tick."""
    _, _, src = small
    d = str(tmp_path_factory.mktemp("epochs"))
    _fuzz_engine(d, src, resume=False).run()
    loops = {}
    for tick in _fuzz_engine(d, src, resume=False).durable.epoch_ticks():
        eng = _fuzz_engine(d, src, resume=True)
        loops[tick] = pickle.dumps(eng.durable._try_load(tick)["loop"])
    assert len(loops) == 2
    return d, src, loops


def _fuzz_engine(d, src, *, resume):
    cfg = EngineConfig(durable_dir=d, durable_resume=resume, **FUZZ_CONFIG)
    return SimulationEngine(_rebuild(), BFSAlgorithm(src), laptop(), config=cfg)


def _damage(path_stem, mutation):
    """Apply one mutation to the epoch whose files start at ``path_stem``."""
    kind = mutation[0]
    if kind in ("truncate", "bitflip"):
        with open(path_stem + ".bin", "r+b") as fh:
            data = bytearray(fh.read())
            at = int(mutation[1] * len(data))
            if kind == "truncate":
                data = data[:at]
            else:
                data[at] ^= 1 << mutation[2]
            fh.seek(0)
            fh.truncate()
            fh.write(bytes(data))
        return
    with open(path_stem + ".json") as fh:
        manifest = json.load(fh)
    entries = manifest["sections"]
    if kind == "drop":
        del manifest[mutation[1]]
    elif kind == "retype":
        manifest[mutation[1]] = mutation[2]
    elif kind == "nest":
        manifest[mutation[1]] = {mutation[1]: [manifest[mutation[1]]]}
    elif kind == "entry_drop":
        del entries[mutation[1]][mutation[2]]
    elif kind == "entry_set":
        entries[mutation[1]][mutation[2]] = mutation[3]
    elif kind == "entry_swap":
        a, b = entries[mutation[1]], entries[mutation[2]]
        a["name"], b["name"] = b["name"], a["name"]
    else:
        entries.append({"name": mutation[1]})
    with open(path_stem + ".json", "w") as fh:
        json.dump(manifest, fh)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=_mutations, every_epoch=st.booleans())
@example(mutation=("append", ["ranks"]), every_epoch=True)
@example(mutation=("entry_swap", 0, 1), every_epoch=True)
def test_damaged_epochs_fall_back_or_raise_typed(epoch_dir, mutation, every_epoch):
    """Resume from hand-damaged epochs restores an epoch that still
    verifies or raises ``CheckpointCorruptionError`` — and
    ``ConfigurationError`` only when the config key itself was changed.
    Never any other exception."""
    pristine, src, pristine_loops = epoch_dir
    with tempfile.TemporaryDirectory() as d:
        for name in os.listdir(pristine):
            shutil.copy(os.path.join(pristine, name), d)
        stems = sorted({os.path.join(d, n.rsplit(".", 1)[0])
                        for n in os.listdir(d)})
        for stem in stems if every_epoch else stems[-1:]:
            _damage(stem, mutation)
        eng = _fuzz_engine(d, src, resume=True)
        try:
            resume = eng.durable.load_latest()
        except CheckpointCorruptionError:
            return
        except ConfigurationError:
            assert mutation[0] in ("retype", "nest") and mutation[1] == "config"
            return
    # Whichever epoch it restored, it restored it intact.
    assert pickle.dumps(resume.loop) == pristine_loops[resume.tick]
