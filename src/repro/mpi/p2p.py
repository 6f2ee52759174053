"""Point-to-point messaging: eager and rendezvous protocols.

The BG/P messaging stack (DCMF, [15]) moves point-to-point messages in two
ways, and the collectives of the paper inherit their cost structure:

``eager``
    The sender pushes the payload immediately; it lands in the receiver's
    *memory FIFO* and the receiving core copies it out to the application
    buffer (one staging copy).  Cheap to start — no handshake — so it wins
    for short messages.

``rendezvous``
    The sender posts a request-to-send; the receiver answers with a
    clear-to-send carrying the destination address; the payload is then
    direct-put into the application buffer with no staging copy.  Two
    handshake packets of latency buy a zero-copy body — it wins for large
    messages.

Intra-node messages use the same two shapes through the node's own
resources (staging FIFO copy vs DMA local direct put).

:func:`run_pingpong` measures the classic ping-pong microbenchmark and
reports the one-way latency and bandwidth; the eager/rendezvous crossover
it exposes is governed by :attr:`~repro.hardware.params.BGPParams` values
the same way the collective crossovers are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hardware.machine import Machine
from repro.util.units import bandwidth_mbs

#: protocol switch point (bytes): eager below, rendezvous at/above
DEFAULT_EAGER_LIMIT = 1024

#: bytes of protocol header/handshake packets
_HEADER_BYTES = 128


def select_protocol(nbytes: int) -> str:
    """The stack's size policy: eager for short, rendezvous for long."""
    return "eager" if nbytes < DEFAULT_EAGER_LIMIT else "rendezvous"


@dataclass
class PingPongResult:
    """Outcome of a ping-pong measurement."""

    protocol: str
    nbytes: int
    #: one-way time (round-trip / 2), µs
    latency_us: float
    iterations: int

    @property
    def bandwidth_mbs(self) -> float:
        if self.nbytes == 0:
            return 0.0
        return bandwidth_mbs(self.nbytes, self.latency_us)

    def __str__(self) -> str:
        return (
            f"pingpong[{self.protocol}]: {self.nbytes} B one-way in "
            f"{self.latency_us:.2f} us ({self.bandwidth_mbs:.1f} MB/s)"
        )


def _send(machine: Machine, src_rank: int, dst_rank: int, nbytes: int,
          protocol: str):
    """Sub-generator: one message from ``src_rank`` to ``dst_rank``.

    Runs in the *sender's* coroutine; models the receiver's completion
    inline (the caller alternates roles, as ping-pong does).
    """
    params = machine.params
    engine = machine.engine
    src_node = machine.rank_to_node(src_rank)
    dst_node = machine.rank_to_node(dst_rank)
    same_node = src_node == dst_node
    node = machine.nodes[dst_node]
    dma = machine.dma[src_node]

    def wire(payload: int):
        """Sub-generator: move ``payload`` bytes src -> dst over the wire."""
        if same_node:
            yield dma.local_copy_flow(payload, name="p2p.local")
        else:
            yield machine.network.ptp_send(
                0, src_node, dst_node, payload, name="p2p"
            )

    yield engine.timeout(params.mpi_overhead)
    if protocol == "eager":
        # Post and push: payload + header land in the reception FIFO...
        yield engine.timeout(params.dma_startup)
        yield from wire(nbytes + _HEADER_BYTES)
        yield engine.timeout(params.dma_fifo_overhead)
        # ...and the receiving core copies it out to the application buffer.
        yield from node.fifo_copy(nbytes, name="p2p.eager-out")
    elif protocol == "rendezvous":
        # RTS -> CTS handshake (two header packets), then zero-copy put.
        yield engine.timeout(params.dma_startup)
        yield from wire(_HEADER_BYTES)  # RTS
        yield engine.timeout(params.dma_startup)
        yield from _reverse_wire(machine, src_node, dst_node)  # CTS
        yield engine.timeout(params.dma_startup)
        yield from wire(nbytes)  # direct put into the application buffer
        yield engine.timeout(params.dma_counter_poll)
    else:
        raise KeyError(f"unknown protocol {protocol!r}")


def _reverse_wire(machine: Machine, src_node: int, dst_node: int):
    if src_node == dst_node:
        yield machine.engine.timeout(machine.params.flag_cost)
    else:
        yield machine.network.ptp_send(
            1, dst_node, src_node, _HEADER_BYTES, name="p2p.cts"
        )


def run_pingpong(
    machine: Machine,
    nbytes: int,
    rank_a: int = 0,
    rank_b: Optional[int] = None,
    protocol: str = "auto",
    iters: int = 4,
) -> PingPongResult:
    """Measure a ping-pong between two ranks.

    ``rank_b`` defaults to the rank farthest from ``rank_a`` on the torus
    (worst-case hop count).  With ``protocol="auto"`` the stack's
    eager/rendezvous size policy applies.
    """
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    machine.check_rank(rank_a)
    if rank_b is None:
        node_a = machine.rank_to_node(rank_a)
        far_node = max(
            range(machine.nnodes),
            key=lambda n: machine.network.hop_distance(node_a, n),
        )
        rank_b = machine.node_ranks(far_node)[0]
    machine.check_rank(rank_b)
    if rank_a == rank_b:
        raise ValueError("ping-pong needs two distinct ranks")
    chosen = (
        select_protocol(nbytes) if protocol == "auto" else protocol
    )
    machine.set_working_set(max(1, nbytes))
    samples = []

    def pingpong():
        for _ in range(iters):
            start = machine.engine.now
            yield from _send(machine, rank_a, rank_b, nbytes, chosen)
            yield from _send(machine, rank_b, rank_a, nbytes, chosen)
            samples.append((machine.engine.now - start) / 2.0)

    proc = machine.spawn(pingpong(), name="pingpong")
    machine.engine.run_until_processes_finish([proc])
    return PingPongResult(
        protocol=chosen,
        nbytes=nbytes,
        latency_us=sum(samples) / len(samples),
        iterations=iters,
    )
