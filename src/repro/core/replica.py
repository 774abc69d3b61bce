"""The replica shell every protocol runs in: Lyra, Pompē and Fino.

§VI-C compares Lyra with Pompē on one client rig and one batching policy,
so that the gap between them comes from the protocols and not from their
hosts.  :class:`Replica` is that host, written once:

- identity and PKI (``pid``, ``n``, ``f``, signer registry, threshold
  scheme), the per-node config, its crypto costs and the replica's own
  RNG stream;
- ``attach()``, which wires :class:`~repro.core.services.ProtocolServices`
  to the network through :meth:`Replica._proto_send` /
  :meth:`Replica._proto_broadcast` (Lyra overrides the broadcast to
  piggyback its commit state) and counts what protocol instances drop for
  its shape;
- the client door: a ``client.tx`` is queued in the :class:`Mempool`, or
  counted in ``stats.malformed_messages`` when its ``tx`` is junk;
- batching (§VI-B): a full mempool, or the batch-flush timer, hands a
  batch to the protocol's one :meth:`Replica._propose` hook;
- :meth:`Replica._executed`: the client replies, the mempool release and
  the ``on_executed(batch)`` hook, and :meth:`Replica._readable`, the
  ``on_readable(batch)`` hook each protocol fires where a payload first
  becomes readable at this replica (Pompē's ordering request, Lyra's and
  Fino's execution).  The cluster sets both hooks itself.

Each protocol keeps its own hot receive path (``_RECEIVE_COSTS``,
``_receive_cost``, ``_process``), its ``stats`` object (which carries
``malformed_messages`` and ``txs_executed``) and the timers
:meth:`Replica.start` arms, among them :meth:`Replica._arm_batch_flush`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.batching import Mempool
from repro.core.services import ProtocolServices
from repro.core.types import Batch, Transaction
from repro.crypto.signatures import KeyRegistry
from repro.crypto.threshold import ThresholdScheme
from repro.net.message import Message
from repro.sim.engine import Simulator
from repro.sim.process import SimProcess
from repro.sim.rng import RngRegistry

CLIENT_TX_KIND = "client.tx"
CLIENT_REPLY_KIND = "client.reply"


class Replica(SimProcess):
    """Host plumbing shared by every protocol's replica.

    ``config`` needs ``batch_size``, ``batch_timeout_us`` and ``costs``.
    Subclasses name their RNG stream in ``_RNG_STREAM``, set ``stats``,
    and implement :meth:`_arm_timers` and :meth:`_propose`.
    """

    #: The label of this replica's RNG stream (``rng.get(label, pid)``).
    _RNG_STREAM: str

    def __init__(
        self,
        pid: int,
        sim: Simulator,
        *,
        n: int,
        f: int,
        registry: KeyRegistry,
        threshold: ThresholdScheme,
        config,
        rng: Optional[RngRegistry] = None,
    ) -> None:
        super().__init__(pid, sim)
        self.n = n
        self.f = f
        self.registry = registry
        self.threshold_scheme = threshold
        self.config = config
        self.costs = config.costs
        self.rng = (rng or RngRegistry(0)).get(self._RNG_STREAM, str(pid))
        self.mempool = Mempool(config.batch_size)
        # Built at attach() time (needs the network's Δ).
        self.services: Optional[ProtocolServices] = None
        self._batch_counter = 0
        self._tx_origin: Dict[Tuple[int, int], int] = {}
        self._started = False
        #: Called with every batch this replica executes.
        self.on_executed: Optional[Callable[[Batch], None]] = None
        #: Called with every batch where its payload first becomes
        #: readable here (a colocated MEV bot's view).
        self.on_readable: Optional[Callable[[Batch], None]] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, network) -> None:
        super().attach(network)
        self.services = ProtocolServices(
            pid=self.pid,
            n=self.n,
            f=self.f,
            sim=self.sim,
            delta_us=network.delta_us,
            signer=self.registry.signer(self.pid),
            registry=self.registry,
            threshold=self.threshold_scheme,
            costs=self.costs,
            send_fn=self._proto_send,
            broadcast_fn=self._proto_broadcast,
            on_malformed=self._count_malformed,
            timers=self.timers,
        )

    def start(self) -> None:
        """Arm the protocol's timers (once)."""
        if not self._started:
            self._started = True
            self._arm_timers()

    def _arm_timers(self) -> None:
        raise NotImplementedError

    def _proto_send(self, dst: int, message: Message) -> None:
        self.send(dst, message)

    def _proto_broadcast(self, message: Message) -> None:
        self.broadcast(message)

    def _count_malformed(self) -> None:
        """A message dropped for its shape (junk from a Byzantine peer)."""
        self.stats.malformed_messages += 1

    # ------------------------------------------------------------------
    # Client path and batching (§VI-B)
    # ------------------------------------------------------------------
    def _on_client_tx(self, payload: dict, sender: int) -> None:
        tx = payload.get("tx")
        if isinstance(tx, Transaction):
            self.submit(tx, client_pid=sender)
        else:
            self._count_malformed()

    def submit(self, tx: Transaction, client_pid: Optional[int] = None) -> None:
        """Accept a transaction for ordering (local API; clients send
        ``client.tx`` messages).  The submitting client is replied to when
        it executes."""
        if client_pid is not None:
            self._tx_origin[tx.key()] = client_pid
        if self.mempool.add(tx):
            while self.mempool.full:
                self._propose(self.mempool.take_batch())

    def _arm_batch_flush(self) -> None:
        self.timers.set(
            "batch-flush", self.config.batch_timeout_us, self._batch_flush_tick
        )

    def _batch_flush_tick(self) -> None:
        if len(self.mempool) > 0:
            self._propose(self.mempool.take_batch())
        self._arm_batch_flush()

    def _propose(self, txs: List[Transaction]) -> None:
        """Order one batch of transactions (the protocol's propose step)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Execution and observation
    # ------------------------------------------------------------------
    def _executed(self, batch: Batch) -> None:
        """``batch`` executed here: reply to its clients, release its
        mempool keys, fire ``on_executed``."""
        self.stats.txs_executed += len(batch)
        for tx in batch.txs:
            client = self._tx_origin.pop(tx.key(), None)
            if client is not None:
                self.send(client, Message(CLIENT_REPLY_KIND, {"key": tx.key()}, 24))
        self.mempool.drop_committed(batch.txs)
        if self.on_executed is not None:
            self.on_executed(batch)

    def _readable(self, batch: Batch) -> None:
        """``batch``'s payload is readable at this replica for the first
        time."""
        if self.on_readable is not None:
            self.on_readable(batch)


__all__ = ["Replica", "CLIENT_TX_KIND", "CLIENT_REPLY_KIND"]
