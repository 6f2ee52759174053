"""repro — a reproduction of *Optimizing MPI Collectives Using Efficient
Intra-node Communication Techniques over the Blue Gene/P Supercomputer*
(Mamidala, Faraj, Kumar, Miller, Blocksome, Gooding, Heidelberger, Dozsa;
IBM Research Report RC25088 / IPDPS 2011).

The package has two faces:

* a **calibrated discrete-event simulator** of the BG/P platform — nodes,
  memory system, DMA engine, 3D torus with deposit-bit line broadcasts, the
  combining collective network, and the CNK process-window system calls —
  over which every collective algorithm of the paper (baselines and
  proposed) is implemented and measured (see :mod:`repro.hardware`,
  :mod:`repro.collectives`, :mod:`repro.bench`);
* **thread-executable concurrent data structures** from section IV — the
  atomic-counter point-to-point FIFO, the Bcast FIFO, and software message
  counters — runnable on real OS threads (:mod:`repro.structures`).

Quickstart
----------
>>> from repro import Machine, Mode, Communicator
>>> machine = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
>>> comm = Communicator(machine)
>>> result = comm.bcast(nbytes="1M", algorithm="torus-shaddr", verify=True)
>>> print(result)  # doctest: +SKIP
"""

from repro.util.lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "Machine",
    "Mode",
    "BGPParams",
    "Communicator",
    "CollectiveResult",
    "UINT8",
    "INT32",
    "INT64",
    "FLOAT",
    "DOUBLE",
    "SUM",
    "MAX",
    "MIN",
    "PROD",
    "AtomicCounter",
    "PtPFifo",
    "BcastFifo",
    "BcastConsumer",
    "MessageCounter",
    "CompletionCounter",
    "__version__",
]

# ``import repro`` imports none of these modules: each is imported when
# one of its names is first read, so a timing-only run never loads
# numpy, the MPI layer or the thread-executable FIFOs.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.collectives.base": ("CollectiveResult",),
    "repro.hardware": ("BGPParams", "Machine", "Mode"),
    "repro.mpi": (
        "Communicator", "UINT8", "INT32", "INT64", "FLOAT", "DOUBLE",
        "SUM", "MAX", "MIN", "PROD",
    ),
    "repro.structures": (
        "AtomicCounter", "PtPFifo", "BcastFifo", "BcastConsumer",
        "MessageCounter", "CompletionCounter",
    ),
})
