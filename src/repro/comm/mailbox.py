"""The routed, aggregating mailbox (Sections III-B and V).

Per the paper, the mailbox exposes exactly two operations to the visitor
queue::

    send(rank, data)  -- sends data to rank, using the routing and
                         aggregation network
    receive()         -- receives messages from any sender

``send`` never puts an envelope on the wire immediately: envelopes are
buffered per *next hop* and flushed as aggregated packets, either when a
buffer reaches ``aggregation_size`` or at the end of the tick.  Envelopes
arriving at an intermediate hop are re-buffered toward their next hop, so
multi-hop routes re-aggregate traffic at every stage — the mechanism that
lets 2D routing trade hop latency for O(sqrt(p)) channel counts and fatter
packets.

Messages destined for the local rank short-circuit the fabric (delivered
through a local queue, zero network cost) but still count toward the
visitor send/receive totals used by quiescence detection.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from repro.comm.message import ENVELOPE_HEADER_BYTES, KIND_VISITOR, Envelope, Packet
from repro.comm.network import Network
from repro.comm.routing import Topology
from repro.errors import CommunicationError
from repro.memory.spill import NS_MAILBOX


class Mailbox:
    """One rank's endpoint on the routed aggregation network."""

    def __init__(
        self,
        rank: int,
        topology: Topology,
        network: Network,
        *,
        aggregation_size: int = 16,
        capacity_bytes: int | None = None,
        spill=None,
    ) -> None:
        if aggregation_size < 1:
            raise CommunicationError(f"aggregation_size must be >= 1, got {aggregation_size}")
        if capacity_bytes is not None and capacity_bytes < 1:
            raise CommunicationError(f"capacity_bytes must be >= 1, got {capacity_bytes}")
        self.rank = rank
        self.topology = topology
        self.network = network
        self.aggregation_size = aggregation_size
        #: Per-destination (per next hop) DRAM cap on buffered wire bytes.
        #: None = unbounded (no backpressure accounting at all).  With a
        #: cap, bytes beyond it backpressure the producer — each overflow
        #: message is a credit stall — and overflow wire bytes live in the
        #: external-memory spill log until the buffer flushes.  The cap is
        #: pure flow control: it never changes which envelopes go into
        #: which packet, so logical counters stay bit-identical.
        self.capacity_bytes = capacity_bytes
        #: Optional :class:`~repro.memory.spill.SpillPager` charging the
        #: overflow bytes' device I/O (None = account, don't meter).
        self.spill = spill
        self._buffers: dict[int, list[Envelope]] = {}
        #: logical message count per hop buffer (an envelope contributes
        #: ``count`` — batch envelopes stand for many messages).
        self._buffer_counts: dict[int, int] = {}
        #: total buffered wire bytes per hop (DRAM-resident + spilled).
        self._buffer_bytes: dict[int, int] = {}
        #: the spilled (beyond-cap) portion of each hop buffer, bytes.
        self._spill_bytes: dict[int, int] = {}
        self._local: list[Envelope] = []
        # next-hop row of this rank (hot path: one index instead of a
        # routing-method call per enqueued envelope)
        self._hop_np = topology.next_hops(rank)
        # --- counters ---------------------------------------------------
        #: visitor envelopes originated or forwarded from this rank
        #: (the "visitor send count" of the quiescence algorithm).
        self.visitors_sent = 0
        #: visitor envelopes delivered at their final destination here.
        self.visitors_received = 0
        #: aggregated packets this rank put on the wire.
        self.packets_sent = 0
        #: wire bytes this rank put on the network.
        self.bytes_sent = 0
        #: envelopes re-routed here mid-route (intermediate-hop traffic).
        self.envelopes_forwarded = 0
        #: logical messages that hit backpressure (landed beyond the cap).
        self.bp_stalls = 0
        #: wire bytes spilled to external memory under backpressure.
        self.bp_spilled_bytes = 0
        #: spilled bytes read back at flush time.
        self.bp_unspilled_bytes = 0
        #: high-water mark of DRAM-resident buffered bytes on any one hop
        #: (the backpressure invariant: never exceeds ``capacity_bytes``).
        self.max_resident_bytes = 0

    # ------------------------------------------------------------------ #
    def send(self, dest: int, kind: int, payload: object, size_bytes: int) -> None:
        """Queue one message for ``dest`` (aggregated, routed): a plain
        append to its next hop's buffer."""
        env = Envelope(dest=dest, kind=kind, payload=payload, size_bytes=size_bytes)
        if kind == KIND_VISITOR:
            self.visitors_sent += 1
        if dest == self.rank:
            self._local.append(env)
            return
        hop = int(self._hop_np[dest])
        buffered = self._buffer_counts.pop(hop, 0) + 1
        full = buffered >= self.aggregation_size
        read_back, _ = self._ledger([(hop, buffered - 1, 1, int(full))],
                                    size_bytes + ENVELOPE_HEADER_BYTES)
        if full:
            self._read_back(read_back[0])
            self._emit(hop, self._buffers.pop(hop, []) + [env])
        else:
            self._buffers.setdefault(hop, []).append(env)
            self._buffer_counts[hop] = buffered

    def send_batch(self, dest: int, batch, size_bytes: int) -> None:
        """Queue a :class:`~repro.core.batch.VisitorBatch` of N visitors for
        ``dest`` exactly as N :meth:`send` calls would (``size_bytes`` is
        the per-visitor payload size)."""
        self.send_stream(np.full(len(batch), dest), batch, size_bytes)

    def send_stream(self, dests: np.ndarray, batch, size_bytes: int) -> None:
        """Queue a mixed-destination :class:`VisitorBatch` stream: visitor
        ``i`` of ``batch`` goes to rank ``dests[i]``.

        Exactly equivalent to N :meth:`send` calls in stream order (see
        :meth:`_segment`): the same packets, emitted in the same global
        order — which the fault injector's single decision stream keys
        off — with the same counters.
        """
        n = len(batch)
        if n == 0:
            return
        self.visitors_sent += n
        hops = self._hop_np[dests]
        self_m = hops == self.rank  # loopback: next_hop is self only for self
        if self_m.any():
            # _local is drained only at receive(); its position relative to
            # the remote enqueues below is unobservable, so the loopback
            # visitors travel as one envelope (stream order preserved).
            sub = batch.take(self_m) if not self_m.all() else batch
            self._local.append(Envelope(self.rank, KIND_VISITOR, sub, size_bytes, len(sub)))
            if len(sub) == n:
                return
            keep = ~self_m
            batch, dests, hops = batch.take(keep), dests[keep], hops[keep]
        # the arena: the stream grouped stably by hop, columns gathered once
        n, pos = len(batch), range(len(batch))  # pos: arena index -> stream position
        if n > 1 and (hops[1:] < hops[:-1]).any():
            order = np.argsort(hops, kind="stable")
            hops, dests, batch, pos = hops[order], dests[order], batch.take(order), order.tolist()
        lo = [0, *(np.flatnonzero(dests[1:] != dests[:-1]) + 1).tolist()]
        self._segment([
            (h, a, Envelope(d, KIND_VISITOR, batch.slice(a, b), size_bytes, b - a))
            for h, d, a, b in zip(hops[lo].tolist(), dests[lo].tolist(), lo, [*lo[1:], n],
                                  strict=True)
        ], pos)

    def _segment(self, pieces: list, pos) -> None:
        """The segment pass: enqueue a visitor stream exactly as N
        per-message enqueues in stream order would.

        ``pieces`` are ``(hop, a, envelope)``: envelopes of one wire size,
        grouped stably by next hop (never this rank); message ``k`` of a
        piece sits at stream position ``pos[a + k]``.  A hop holding ``c0``
        messages fills packets at group offsets ``agg - c0 + j*agg``, the
        hop's earlier buffer rides in its first packet, and the remainder
        stays buffered.  Each packet reads its fill window's spill back in
        the stream order of its filling message.

        On an ordered fabric each packet is emitted alone, at that stream
        position, carrying one envelope per piece it holds (batch pieces
        are sliced at packet boundaries).  On a fabric that takes packet
        trains each hop's full packets leave as one train
        (:attr:`Packet.count`), and a piece is sliced only where the hop's
        last full packet ends.  Envelope boundaries, and on a train fabric
        the packet objects, are all that differs from per-message sends.
        """
        agg = self.aggregation_size
        trains = self.network.packet_trains
        metered = self.capacity_bytes is not None
        groups = []  # [hop, buffered count, new messages, packets] per hop
        cuts, fills, rests, envs = [], [], [], []  # (stream position, group, ...)
        for hop, a, env in pieces:
            if not groups or hop != groups[-1][0]:
                if envs:
                    rests.append((pos[start], len(groups) - 1, envs, c))
                c = self._buffer_counts.get(hop, 0)
                groups.append([hop, c, 0, 0])
                envs = []
            g, m, k = len(groups) - 1, env.count, 0
            groups[g][2] += m
            while k < m:
                # packets this cut fills: every one it can on a train
                # fabric, at most one on an ordered one
                n = (c + m - k) // agg if trains else int(c + m - k >= agg)
                take = n * agg - c if n else m - k
                if not envs:
                    start = a + k
                envs.append(env if take == m else Envelope(
                    env.dest, KIND_VISITOR, env.payload.slice(k, k + take), env.size_bytes, take))
                if n:
                    if metered:
                        fills.extend((pos[a + j], g) for j in range(k + agg - c - 1, k + take, agg))
                    if trains and cuts and cuts[-1][1] == g:
                        cuts[-1][2].extend(envs)  # the hop's train grows
                    else:
                        cuts.append((pos[a + k + take - 1], g, envs))
                    groups[g][3] += n
                    envs, c = [], 0
                else:
                    c += take
                k += take
        if envs:
            rests.append((pos[start], len(groups) - 1, envs, c))
        pm = ENVELOPE_HEADER_BYTES + pieces[0][2].size_bytes  # wire bytes per message
        read_back, full_spill = self._ledger(groups, pm)
        for _, g in sorted(fills):
            self._read_back(read_back[g])
            read_back[g] = full_spill  # only the first packet holds earlier bytes
        for _, g, envs in cuts if trains else sorted(cuts):
            hop = groups[g][0]
            self._buffer_counts.pop(hop, None)
            self._emit(hop, self._buffers.pop(hop, []) + envs, groups[g][3] if trains else 1)
        # remainders join the hop dict in stream order of their first
        # visitor: flush() walks that order at tick end
        for _, g, envs, c in sorted(rests):
            self._buffers.setdefault(groups[g][0], []).extend(envs)
            self._buffer_counts[groups[g][0]] = c

    def _ledger(self, groups: list, pm: int) -> tuple[list, int]:
        """Flow control of one segment pass (a no-op without a byte cap):
        each group ``[hop, c, m, k]`` is a hop holding ``c`` messages that
        takes ``m`` more of ``pm`` wire bytes each and emits ``k`` packets,
        one fill window each; the remainder's window stays in the ledger.
        In a window, bytes beyond the cap spill and each message whose end
        byte lies beyond it is a credit stall.  Returns each hop's first
        read-back (earlier spill included) and every later one's.  The
        pager only advances a cursor on a spill, so the whole pass writes
        once, before any read-back.
        """
        agg, cap = self.aggregation_size, self.capacity_bytes
        if cap is None:
            return [0] * len(groups), 0
        before = self.bp_spilled_bytes

        def fill(pre: int, m: int, times: int = 1) -> int:
            post = pre + m * pm
            spilled = max(post - cap, 0) - max(pre - cap, 0)
            self.bp_spilled_bytes += times * spilled
            self.bp_stalls += times * -(-spilled // pm)
            self.max_resident_bytes = max(self.max_resident_bytes, min(post, cap))
            return spilled

        read_back = []
        for hop, c, m, k in groups:
            pre = self._buffer_bytes.pop(hop, 0)
            spilled = self._spill_bytes.pop(hop, 0)
            read_back.append(spilled + fill(pre, agg - c) if k else 0)
            if k > 1:
                fill(0, agg, k - 1)
            if k:
                m -= agg * k - c
                pre = spilled = 0
            if m:
                self._buffer_bytes[hop] = pre + m * pm
                spilled += fill(pre, m)
                if spilled:
                    self._spill_bytes[hop] = spilled
        if self.spill is not None:
            # repro-lint: disable=RPR005 -- the engine drains this pager's epoch into tick costs
            self.spill.spill(NS_MAILBOX, self.bp_spilled_bytes - before)
        return read_back, max(agg * pm - cap, 0)

    def _read_back(self, spilled: int) -> None:
        """Read one packet's fill-window overflow back from the spill log
        before it goes on the wire."""
        if spilled:
            self.bp_unspilled_bytes += spilled
            if self.spill is not None:
                # repro-lint: disable=RPR005 -- the engine drains this pager's epoch into tick costs
                self.spill.unspill(NS_MAILBOX, spilled)

    def _emit(self, hop: int, envelopes: list[Envelope], count: int = 1) -> None:
        """Put ``count`` packets on the wire to ``hop`` as one object."""
        pkt = Packet(src=self.rank, hop_dest=hop, envelopes=envelopes, count=count)
        self.network.send_packet(pkt)
        self.packets_sent += count
        self.bytes_sent += pkt.wire_bytes

    def flush(self) -> None:
        """Flush all aggregation buffers (called at every tick end so
        messages are never stranded)."""
        for hop in list(self._buffers):
            self._buffer_counts.pop(hop, None)
            self._buffer_bytes.pop(hop, None)
            self._read_back(self._spill_bytes.pop(hop, 0))
            self._emit(hop, self._buffers.pop(hop))

    # ------------------------------------------------------------------ #
    def receive(self, packets: list[Packet]) -> list[Envelope]:
        """Process arriving packets; return envelopes terminating here.

        Envelopes addressed elsewhere are transit traffic: they are
        re-buffered toward their next hop (re-aggregated with whatever else
        this rank is sending) and do not appear in the returned list.
        """
        delivered: list[Envelope] = []
        run: list[Envelope] = []  # transit envelopes of one wire size
        for pkt in packets:
            if pkt.hop_dest != self.rank:
                raise CommunicationError(
                    f"rank {self.rank} handed a packet addressed to hop {pkt.hop_dest}"
                )
            for env in pkt.envelopes:
                if env.dest == self.rank:
                    delivered.append(env)
                    continue
                self.envelopes_forwarded += env.count
                if run and env.size_bytes != run[0].size_bytes:
                    run = self._forward(run)
                run.append(env)
        self._forward(run)
        if self._local:
            delivered.extend(self._local)
            self._local = []
        for env in delivered:
            if env.kind == KIND_VISITOR:
                self.visitors_received += env.count
        return delivered

    def _forward(self, run: list[Envelope]) -> list[Envelope]:
        """Re-buffer a run of transit envelopes as one segment pass;
        returns a fresh run."""
        if run:
            hops = self._hop_np[[e.dest for e in run]].tolist()
            at = list(accumulate((e.count for e in run), initial=0))
            self._segment([(hops[i], at[i], run[i])
                           for i in sorted(range(len(run)), key=hops.__getitem__)],
                          range(at[-1]))
        return []

    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """Checkpointable endpoint state (counters + unflushed envelopes).

        Envelopes and visitor payloads are never mutated after construction,
        so the snapshot shares them and copies only the containers.  The
        flow-control ledger (per-hop byte totals, spilled portions, credit
        counters) round-trips with the buffers: restoring buffered
        multi-hop envelopes without their byte accounting would desynchronise
        the backpressure ledger on the first replayed flush.
        """
        return {
            "buffers": {hop: list(buf) for hop, buf in self._buffers.items()},
            "buffer_counts": dict(self._buffer_counts),
            "buffer_bytes": dict(self._buffer_bytes),
            "spill_bytes": dict(self._spill_bytes),
            "local": list(self._local),
            "visitors_sent": self.visitors_sent,
            "visitors_received": self.visitors_received,
            "packets_sent": self.packets_sent,
            "bytes_sent": self.bytes_sent,
            "envelopes_forwarded": self.envelopes_forwarded,
            "bp_stalls": self.bp_stalls,
            "bp_spilled_bytes": self.bp_spilled_bytes,
            "bp_unspilled_bytes": self.bp_unspilled_bytes,
            "max_resident_bytes": self.max_resident_bytes,
        }

    def restore_state(self, snap: dict) -> None:
        """Reinstall a :meth:`snapshot_state` checkpoint in place.

        Any beyond-cap portion of the restored buffers is re-written to
        the spill log: the pre-crash copy was consumed when the original
        flush read it back, and the restarted rank's DRAM copy is gone, so
        without the re-write a replayed flush would read past the log end.
        (Engine checkpoints are taken post-flush with empty buffers, where
        this is a no-op; it matters for mid-buffer snapshots.)
        """
        self._buffers = {hop: list(buf) for hop, buf in snap["buffers"].items()}
        self._buffer_counts = dict(snap["buffer_counts"])
        self._buffer_bytes = dict(snap["buffer_bytes"])
        self._spill_bytes = dict(snap["spill_bytes"])
        if self.spill is not None:
            for spilled in self._spill_bytes.values():
                # repro-lint: disable=RPR005 -- restore-time re-spill; the crash tick's drain charges it
                self.spill.spill(NS_MAILBOX, spilled)
        self._local = list(snap["local"])
        self.visitors_sent = snap["visitors_sent"]
        self.visitors_received = snap["visitors_received"]
        self.packets_sent = snap["packets_sent"]
        self.bytes_sent = snap["bytes_sent"]
        self.envelopes_forwarded = snap["envelopes_forwarded"]
        self.bp_stalls = snap["bp_stalls"]
        self.bp_spilled_bytes = snap["bp_spilled_bytes"]
        self.bp_unspilled_bytes = snap["bp_unspilled_bytes"]
        self.max_resident_bytes = snap["max_resident_bytes"]

    # ------------------------------------------------------------------ #
    def resident_bytes(self, hop: int | None = None) -> int:
        """DRAM-resident buffered wire bytes on ``hop`` (or the maximum
        over all hops when None) — the quantity the backpressure invariant
        bounds by :attr:`capacity_bytes`."""
        cap = self.capacity_bytes

        def _resident(h: int) -> int:
            total = self._buffer_bytes.get(h, 0)
            return total if cap is None or total <= cap else cap

        if hop is not None:
            return _resident(hop)
        return max((_resident(h) for h in self._buffer_bytes), default=0)

    def has_buffered(self) -> bool:
        """True when unflushed envelopes are sitting in aggregation buffers
        or the local loopback queue."""
        return bool(self._local) or any(self._buffers.values())

    def buffered_visitor_count(self) -> int:
        """Logical visitor messages sitting in unflushed aggregation
        buffers or the local loopback queue (quiescence cross-checks)."""
        total = 0
        for buf in self._buffers.values():
            for env in buf:
                if env.kind == KIND_VISITOR:
                    total += env.count
        for env in self._local:
            if env.kind == KIND_VISITOR:
                total += env.count
        return total

