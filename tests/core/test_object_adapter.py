"""Tests for Algorithm 1's per-rank visitor queue semantics, driven by
object visitors through :class:`~repro.core.object_adapter.ObjectAdapter`.

A minimal *recording* algorithm drives the queue so the replica-forwarding
and ghost-filter behaviour can be observed directly, without any real graph
algorithm in the way.
"""

import pickle

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRankVisitor
from repro.core.batch import GhostArrayTable, VisitorBatch
from repro.core.batch_queue import ScalarHeapImage
from repro.core.object_adapter import (
    ObjectAdapter,
    ObjectStateBlock,
    VisitorHeapImage,
)
from repro.core.traversal import run_traversal
from repro.core.visitor import ROLE_GHOST, ROLE_MASTER, AsyncAlgorithm, Visitor
from repro.graph.distributed import DistributedGraph
from repro.graph.edge_list import EdgeList
from repro.runtime.costmodel import EngineConfig


class RecordingState:
    __slots__ = ("seen", "role")

    def __init__(self, role):
        self.seen = 0
        self.role = role


class TouchVisitor(Visitor):
    """Accept-once visitor: pre_visit passes only the first time."""

    __slots__ = ()

    def pre_visit(self, state):
        state.seen += 1
        return state.seen == 1

    def visit(self, ctx):
        pass


class TouchAll(AsyncAlgorithm):
    """Sends one visitor to every vertex; records which copies saw it."""

    name = "touch-all"
    uses_ghosts = False
    visitor_bytes = 8

    def make_state(self, vertex, degree, role):
        return RecordingState(role)

    def initial_visitors(self, graph, rank):
        for v in graph.masters_on(rank):
            yield TouchVisitor(int(v))

    def finalize(self, graph, states_per_rank):
        return states_per_rank


@pytest.fixture
def hub_graph():
    """Star: hub 0 with 16 leaves, 4 partitions -> hub's list is split."""
    el = EdgeList.from_pairs([(0, i) for i in range(1, 17)], 17).simple_undirected()
    return DistributedGraph.build(el, 4)


class TestReplicaForwarding:
    def test_split_vertex_reaches_all_replicas(self, hub_graph):
        """A visitor accepted at the master is forwarded along the whole
        replica chain (Algorithm 1, check_mailbox)."""
        result = run_traversal(hub_graph, TouchAll())
        states = result.data
        hub = 0
        assert hub_graph.is_split(hub)
        for rank in hub_graph.replica_ranks(hub):
            lo = hub_graph.partitions[rank].state_lo
            assert states[rank][hub - lo].seen == 1

    def test_rejected_visitor_not_forwarded(self, hub_graph):
        """pre_visit returning false stops the chain (and the local queue)."""

        class RejectVisitor(Visitor):
            __slots__ = ()

            def pre_visit(self, state):
                state.seen += 1
                return False

            def visit(self, ctx):  # pragma: no cover - must not run
                raise AssertionError("visit must not run after pre_visit False")

        class RejectAll(TouchAll):
            name = "reject-all"

            def initial_visitors(self, graph, rank):
                if rank == 0:
                    yield RejectVisitor(0)

        result = run_traversal(hub_graph, RejectAll())
        states = result.data
        hub = 0
        master = hub_graph.min_owner(hub)
        lo = hub_graph.partitions[master].state_lo
        assert states[master][hub - lo].seen == 1
        # replicas never heard about it
        for rank in list(hub_graph.replica_ranks(hub))[1:]:
            plo = hub_graph.partitions[rank].state_lo
            assert states[rank][hub - plo].seen == 0

    def test_nonsplit_vertex_single_copy(self, hub_graph):
        result = run_traversal(hub_graph, TouchAll())
        states = result.data
        for v in range(1, 17):
            if hub_graph.is_split(v):
                continue
            copies = 0
            for rank in range(4):
                part = hub_graph.partitions[rank]
                if part.holds_vertex(v) and states[rank][v - part.state_lo].seen:
                    copies += 1
            assert copies == 1


class TestStateRoles:
    def test_master_and_replica_roles_assigned(self, hub_graph):
        result = run_traversal(hub_graph, TouchAll())
        states = result.data
        hub = 0
        chain = list(hub_graph.replica_ranks(hub))
        master_rank = chain[0]
        lo = hub_graph.partitions[master_rank].state_lo
        assert states[master_rank][hub - lo].role == ROLE_MASTER
        for rank in chain[1:]:
            plo = hub_graph.partitions[rank].state_lo
            assert states[rank][hub - plo].role == "replica"


class TestGhostFiltering:
    class CountingGhostAlgorithm(TouchAll):
        """Every rank pushes a visitor at the remote hub; ghosts filter the
        duplicates locally."""

        name = "ghost-count"
        uses_ghosts = True

        def initial_visitors(self, graph, rank):
            # all ranks bombard vertex 0 (the hub) with 5 visitors each
            for _ in range(5):
                yield TouchVisitor(0)

    def test_ghosts_reduce_sends(self):
        el = EdgeList.from_pairs([(0, i) for i in range(1, 17)], 17).simple_undirected()
        with_ghosts = DistributedGraph.build(el, 4, num_ghosts=4)
        without = DistributedGraph.build(el, 4, num_ghosts=0)
        algo = self.CountingGhostAlgorithm()
        r_with = run_traversal(with_ghosts, algo)
        r_without = run_traversal(without, algo)
        assert r_with.stats.total_ghost_filtered > 0
        assert (
            r_with.stats.total_visitors_sent < r_without.stats.total_visitors_sent
        )

    def test_ghost_role_state_created(self):
        el = EdgeList.from_pairs([(0, i) for i in range(1, 17)], 17).simple_undirected()
        g = DistributedGraph.build(el, 4, num_ghosts=4)
        roles = []

        class RoleSpy(TouchAll):
            uses_ghosts = True

            def make_state(self, vertex, degree, role):
                roles.append(role)
                return RecordingState(role)

        run_traversal(g, RoleSpy())
        assert ROLE_GHOST in roles


class TestLocalityOrdering:
    def test_equal_priority_orders_by_vertex(self):
        """Section V-A: equal-priority visitors pop in vertex-id order."""
        el = EdgeList.from_pairs([(0, 1), (1, 2), (2, 0)], 3).simple_undirected()
        g = DistributedGraph.build(el, 1)
        order = []

        class OrderSpyVisitor(Visitor):
            __slots__ = ()

            def visit(self, ctx):
                order.append(self.vertex)

        class OrderSpy(AsyncAlgorithm):
            name = "order-spy"
            visitor_bytes = 8

            def make_state(self, vertex, degree, role):
                return RecordingState(role)

            def initial_visitors(self, graph, rank):
                # pushed in descending order; heap must pop ascending
                for v in (2, 0, 1):
                    yield OrderSpyVisitor(v)

            def finalize(self, graph, states_per_rank):
                return None

        run_traversal(g, OrderSpy(), config=EngineConfig(locality_ordering=True))
        assert order == [0, 1, 2]

    def test_arrival_order_without_locality(self):
        el = EdgeList.from_pairs([(0, 1), (1, 2), (2, 0)], 3).simple_undirected()
        g = DistributedGraph.build(el, 1)
        order = []

        class OrderSpyVisitor(Visitor):
            __slots__ = ()

            def visit(self, ctx):
                order.append(self.vertex)

        class OrderSpy(AsyncAlgorithm):
            name = "order-spy"
            visitor_bytes = 8

            def make_state(self, vertex, degree, role):
                return RecordingState(role)

            def initial_visitors(self, graph, rank):
                for v in (2, 0, 1):
                    yield OrderSpyVisitor(v)

            def finalize(self, graph, states_per_rank):
                return None

        run_traversal(g, OrderSpy(), config=EngineConfig(locality_ordering=False))
        assert order == [2, 0, 1]


class TestCounters:
    def test_pushes_and_visits_counted(self, hub_graph):
        result = run_traversal(hub_graph, TouchAll())
        stats = result.stats
        assert stats.total_pushes == 17          # one initial push per vertex
        # every push pre_visits once at the master; split hub adds replicas
        assert stats.total_previsits >= 17
        assert stats.total_visits >= 17


class TestFullyExternalStatePaging:
    @pytest.mark.parametrize("batch", [False, True], ids=["object", "batch"])
    def test_state_access_paged_and_correct(self, rmat_small, batch):
        """Fully-external mode charges page touches for vertex state without
        changing any result (``VisitContext.state_of`` meters them for
        object visitors)."""
        import numpy as np

        from repro.algorithms.bfs import bfs
        from repro.reference.bfs import bfs_levels
        from repro.runtime.costmodel import EngineConfig, hyperion_dit

        g = DistributedGraph.build(rmat_small, 4)
        machine = hyperion_dit("nvram", cache_bytes_per_rank=16 * 1024,
                               page_size=256)
        s = int(rmat_small.src[0])
        semi = bfs(g, s, machine=machine, batch=batch)
        full = bfs(g, s, machine=machine,
                   config=EngineConfig(page_vertex_state=True, batch=batch))
        assert np.array_equal(full.data.levels, bfs_levels(rmat_small, s))
        assert np.array_equal(full.data.levels, semi.data.levels)
        # fully-external performs strictly more page accesses
        touches = lambda r: r.stats.total_cache_hits + r.stats.total_cache_misses
        assert touches(full) > touches(semi)

    def test_flag_ignored_on_dram(self, rmat_small):
        from repro.algorithms.bfs import bfs
        from repro.runtime.costmodel import EngineConfig

        g = DistributedGraph.build(rmat_small, 4)
        r = bfs(g, 0, config=EngineConfig(page_vertex_state=True))
        assert r.stats.total_cache_misses == 0


class DictVisitor(Visitor):
    """A visitor subclass without ``__slots__`` (instances carry a dict)."""

    def __init__(self, vertex, note):
        super().__init__(vertex)
        self.note = note


def _entries(heap):
    """Heap entries as comparable plain values (class, slot values)."""
    out = []
    for *key, v in heap:
        names = [n for k in type(v).__mro__[:-1] for n in k.__dict__.get("__slots__", ())]
        state = tuple((n, getattr(v, n), type(getattr(v, n))) for n in names)
        out.append((tuple(key), type(v), state, getattr(v, "__dict__", None)))
    return out


class TestHeapImage:
    """Object-visitor heap snapshots pickle column-wise and load back
    entry-for-entry equal.  Entries are the rank's five-field
    ``(priority, tie, seq, vertex, visitor)``."""

    def _roundtrip(self, heap):
        image = VisitorHeapImage(heap)
        back = pickle.loads(pickle.dumps(image, protocol=pickle.HIGHEST_PROTOCOL))
        assert type(back) is VisitorHeapImage
        assert _entries(back) == _entries(heap)
        return back

    def test_single_class_heap(self):
        heap = [(-0.5 * i, i % 3, i, i % 7, PageRankVisitor(i % 7, 0.5 * i, 0.85, 1e-4))
                for i in range(50)]
        back = self._roundtrip(heap)
        assert back[3][4] is not heap[3][4]  # rebuilt, not shared

    def test_one_slot_class_and_mixed_classes(self):
        heap = [(0, i, i, i, TouchVisitor(i) if i % 2 else PageRankVisitor(i, 1.0, 0.85, 0.5))
                for i in range(20)]
        self._roundtrip(heap)
        self._roundtrip([(0, i, i, i, TouchVisitor(i)) for i in range(5)])

    def test_empty_heap(self):
        assert self._roundtrip([]) == []

    def test_dict_visitors_pickle_whole(self):
        heap = [(0, 1, 1, 3, DictVisitor(3, "a")), (0, 2, 2, 4, TouchVisitor(4))]
        back = self._roundtrip(heap)
        assert back[0][4].note == "a"

    def test_unset_slot_pickles_whole(self):
        v = PageRankVisitor.__new__(PageRankVisitor)
        v.vertex, v.amount = 1, 2.0
        back = pickle.loads(pickle.dumps(VisitorHeapImage([(0, 1, 1, 1, v)])))
        assert (back[0][4].vertex, back[0][4].amount) == (1, 2.0)
        assert not hasattr(back[0][4], "damping")

    def test_scalar_heap_image(self):
        """The native batch heap pickles memo-free and loads back equal,
        types included."""
        heap = [(0.5 * i, i, i, i % 5, 0.25 * i, -i) for i in range(40)]
        back = pickle.loads(pickle.dumps(ScalarHeapImage(heap)))
        assert type(back) is ScalarHeapImage
        assert back == heap
        assert [tuple(map(type, e)) for e in back] == [tuple(map(type, e)) for e in heap]
        assert pickle.loads(pickle.dumps(ScalarHeapImage())) == []

    def test_snapshot_heap_is_an_image(self, hub_graph):
        from repro.runtime.costmodel import laptop
        from repro.runtime.engine import SimulationEngine

        eng = SimulationEngine(hub_graph, TouchAll(), laptop())
        snap = eng.ranks[0].snapshot_state()
        assert isinstance(snap["heap"], VisitorHeapImage)
        assert isinstance(snap["arrays"], list)  # the state objects, deep-copied


class TestAdapter:
    """The adapter's batch hooks, one at a time."""

    def test_engine_wraps_only_without_native_hooks(self, hub_graph):
        from repro.algorithms.bfs import BFSAlgorithm
        from repro.runtime.costmodel import EngineConfig, laptop
        from repro.runtime.engine import SimulationEngine

        native = SimulationEngine(hub_graph, BFSAlgorithm(0), laptop())
        twin = SimulationEngine(hub_graph, BFSAlgorithm(0), laptop(),
                                config=EngineConfig(batch=False))
        user = SimulationEngine(hub_graph, TouchAll(), laptop())
        assert isinstance(native.algorithm, BFSAlgorithm)
        assert isinstance(twin.algorithm, ObjectAdapter)
        assert isinstance(user.algorithm, ObjectAdapter)
        assert twin.algorithm.name == "bfs" and user.algorithm.name == "touch-all"

    def test_state_block_rows_and_roles(self):
        adapter = ObjectAdapter(TouchAll())
        block = adapter.make_state_arrays(
            np.array([4, 5, 6]), np.array([1, 2, 3]), ROLE_MASTER,
            masters=np.array([True, False, True]),
        )
        assert [s.role for s in block.states] == [ROLE_MASTER, "replica", ROLE_MASTER]
        ghosts = adapter.make_state_arrays(np.array([1, 2]), np.array([5, 5]), ROLE_GHOST)
        assert [s.role for s in ghosts.states] == [ROLE_GHOST, ROLE_GHOST]

    def test_previsit_runs_in_arrival_order(self):
        """Duplicates resolve sequentially: the accept-once visitor passes
        on its row's first arrival only."""
        block = ObjectStateBlock([RecordingState(ROLE_MASTER) for _ in range(3)])
        visitors = [TouchVisitor(v) for v in (2, 0, 2, 1, 0)]
        payloads = np.empty(5, dtype=object)
        payloads[:] = visitors
        mask = block.previsit_batch(np.array([2, 0, 2, 1, 0]),
                                    VisitorBatch(np.array([2, 0, 2, 1, 0]), payloads))
        assert mask.tolist() == [True, True, False, True, False]
        assert [s.seen for s in block.states] == [2, 1, 2]

    def test_snapshot_is_deep_and_restore_keeps_it_pristine(self):
        block = ObjectStateBlock([RecordingState(ROLE_MASTER)])
        snap = block.snapshot()
        block.states[0].seen = 5
        block.restore(snap)
        block.states[0].seen = 7
        block.restore(snap)
        assert block.states[0].seen == 0

    def test_priorities_are_the_visitors(self):
        adapter = ObjectAdapter(TouchAll())
        payloads = np.empty(2, dtype=object)
        payloads[:] = [PageRankVisitor(1, 0.5, 0.85, 1e-4), TouchVisitor(2)]
        assert adapter.batch_priorities(payloads).tolist() == [-0.5, 0]

    def test_initial_batch_packs_the_visitors(self, hub_graph):
        batch = ObjectAdapter(TouchAll()).initial_batch(hub_graph, 0)
        masters = [int(v) for v in hub_graph.masters_on(0)]
        assert batch.vertices.tolist() == masters
        assert [v.vertex for v in batch.payloads] == masters
        assert batch.payloads.dtype == object

    def test_dict_visitors_run_end_to_end(self, hub_graph):
        """A visitor without ``__slots__`` rides the object payload column."""

        class NoteAll(TouchAll):
            def initial_visitors(self, graph, rank):
                for v in graph.masters_on(rank):
                    yield DictVisitor(int(v), f"v{int(v)}")

        result = run_traversal(hub_graph, NoteAll())
        assert result.stats.total_pushes == 17


class TestObjectGhostTable:
    """The ghost filter over an object state block."""

    def _table(self, vertices):
        return GhostArrayTable(
            np.array(vertices),
            ObjectStateBlock([RecordingState(ROLE_GHOST) for _ in vertices]),
        )

    def test_filter_kills_the_second_arrival(self):
        table = self._table([3, 7])
        assert len(table) == 2
        visitors = np.empty(4, dtype=object)
        visitors[:] = [TouchVisitor(v) for v in (7, 4, 7, 3)]
        keep, previsits, filtered = table.filter(np.array([7, 4, 7, 3]), visitors)
        assert keep.tolist() == [True, True, False, True]
        assert (previsits, filtered) == (3, 1)
        assert (table.filter_hits, table.filter_passes) == (1, 2)
        assert [s.seen for s in table.state.states] == [1, 2]

    def test_snapshot_restore(self):
        table = self._table([1, 2])
        snap = table.snapshot_state()
        visitors = np.empty(1, dtype=object)
        visitors[:] = [TouchVisitor(2)]
        table.filter(np.array([2]), visitors)
        table.restore_state(snap)
        assert [s.seen for s in table.state.states] == [0, 0]
        assert table.filter_passes == 0

    def test_vertices_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            self._table([9, 1, 5])

    def test_filter_counters_start_zero(self):
        table = self._table([1])
        assert table.filter_hits == 0 and table.filter_passes == 0
