#!/usr/bin/env python3
"""Where do the bytes go?  Profile + predict the broadcast bottlenecks.

For each torus broadcast algorithm this script:

1. prints the *analytic* steady-state bounds (which resource should bind,
   straight from the hardware constants and route accounting), then
2. runs the simulator and prints the *measured* bandwidth and per-resource
   utilization —

making the paper's core argument visible end to end: the current
direct-put baseline saturates the DMA while the wires idle; the
shared-address scheme drains the same wires three times harder with the
DMA relieved.

Run:  python examples/bottleneck_profile.py
"""

from repro import Machine, Mode
from repro.analysis import predict_torus_bcast
from repro.bench import format_report, run_collective, utilization_report
from repro.hardware import BGPParams
from repro.util.units import MIB

DIMS = (2, 2, 2)
MESSAGE = 2 * MIB


def main() -> None:
    params = BGPParams()
    for algorithm, mode in [
        ("torus-direct-put", Mode.QUAD),
        ("torus-fifo", Mode.QUAD),
        ("torus-shaddr", Mode.QUAD),
    ]:
        print("=" * 64)
        print(f"{algorithm}  ({MESSAGE // MIB} MiB broadcast on "
              f"{DIMS[0]}x{DIMS[1]}x{DIMS[2]} quad)")
        prediction = predict_torus_bcast(
            params, algorithm, DIMS, MESSAGE, ppn=mode.processes_per_node
        )
        print("analytic bounds:")
        print(prediction)
        machine = Machine(torus_dims=DIMS, mode=mode, params=params)
        result = run_collective(machine, "bcast", algorithm, MESSAGE)
        print(f"measured: {result.bandwidth_mbs:.1f} MB/s "
              f"(ceiling {prediction.value:.1f}, "
              f"{result.bandwidth_mbs / prediction.value:.0%} of it)")
        print(format_report(utilization_report(machine)))
        print()


if __name__ == "__main__":
    main()
