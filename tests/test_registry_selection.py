"""The unified registry and the data-driven protocol-selection table.

Covers the capability metadata of every registered algorithm, the exact
crossover boundaries of the section-V selection policy (8 KiB / 256 KiB
for bcast, 64 KiB for allreduce, 8 KiB blocks for allgather), the SMP
fallbacks, and the generic ``run_collective`` driver.
"""

import pytest

from repro.bench.harness import FAMILY_SPECS, run_collective
from repro.collectives import registry
from repro.collectives.base import CollectiveResult, InvocationBase
from repro.collectives.registry import (
    ALL_MODES,
    algorithm_info,
    families,
    get_algorithm,
    iter_algorithms,
    list_algorithms,
    select_protocol,
)
from repro.collectives.selection import SELECTION_TABLE, selectable_families
from repro.hardware.machine import Machine, Mode
from repro.util.units import KIB

QUAD211 = dict(torus_dims=(2, 1, 1), mode=Mode.QUAD)


class TestRegistryMetadata:
    def test_every_family_populated(self):
        assert families() == sorted(
            ["bcast", "allreduce", "allgather", "alltoall", "barrier",
             "gather", "reduce", "scatter"]
        )
        for family in families():
            assert list_algorithms(family), f"{family} registered nothing"

    def test_metadata_matches_module(self):
        """Each record's family and network must match the class itself."""
        for info in iter_algorithms():
            assert info.cls.name == info.name
            assert info.cls.network == info.network
            # The class must live in its family's package (barrier is a
            # plain module, the others are packages).
            assert info.cls.__module__.startswith(
                f"repro.collectives.{info.family}"
            ), f"{info.name} registered as {info.family} but lives in " \
               f"{info.cls.__module__}"

    def test_shared_address_tag_matches_naming(self):
        """The shaddr schemes — and only they — need window mappings."""
        for info in iter_algorithms():
            assert info.shared_address == ("shaddr" in info.name), info.name

    def test_only_barrier_is_timing_only(self):
        for info in iter_algorithms():
            assert info.data_carrying == (info.family != "barrier")

    def test_modes_metadata_matches_constructor_checks(self):
        """Classes restricted to a mode subset must reject other ppn."""
        machine_by_ppn = {
            1: Machine(torus_dims=(2, 1, 1), mode=Mode.SMP),
            4: Machine(**QUAD211),
        }
        for info in iter_algorithms():
            if info.modes == ALL_MODES:
                continue
            bad_ppn = next(p for p in (1, 4) if p not in info.modes)
            machine = machine_by_ppn[bad_ppn]
            spec = FAMILY_SPECS[info.family]
            with pytest.raises(ValueError):
                spec.build(info.cls, machine, 1024, None, 0, True)

    def test_capabilities_attribute_installed(self):
        cls = get_algorithm("bcast", "tree-shaddr")
        assert cls.capabilities is algorithm_info("bcast", "tree-shaddr")
        assert cls.capabilities.modes == (4,)
        assert cls.capabilities.supports_ppn(4)
        assert not cls.capabilities.supports_ppn(1)

    def test_unknown_family_and_name(self):
        with pytest.raises(KeyError):
            get_algorithm("bcast", "nope")
        with pytest.raises(KeyError):
            get_algorithm("scan", "anything")
        with pytest.raises(KeyError):
            list_algorithms("scan")

    def test_duplicate_registration_rejected(self):
        cls = get_algorithm("bcast", "torus-shaddr")

        class Impostor:
            name = "torus-shaddr"
            network = "torus"

        with pytest.raises(ValueError, match="duplicate"):
            registry.register("bcast")(Impostor)
        # Re-decorating the same class is idempotent, not a duplicate.
        assert registry.register("bcast", shared_address=True)(cls) is cls


class TestSelectionBoundaries:
    def test_bcast_exact_crossovers(self):
        assert select_protocol("bcast", 8 * KIB, 4) == "tree-shmem"
        assert select_protocol("bcast", 8 * KIB + 1, 4) == "tree-shaddr"
        assert select_protocol("bcast", 256 * KIB, 4) == "tree-shaddr"
        assert select_protocol("bcast", 256 * KIB + 1, 4) == "torus-shaddr"

    def test_bcast_smp_fallbacks(self):
        assert select_protocol("bcast", 256 * KIB, 1) == "tree-smp"
        assert select_protocol("bcast", 256 * KIB + 1, 1) == (
            "torus-direct-put-smp"
        )

    def test_bcast_matches_historical_select_bcast(self):
        """The table reproduces the hand-written policy exactly."""
        def legacy(nbytes, ppn):
            if ppn == 1:
                return "tree-smp" if nbytes <= 256 * KIB else (
                    "torus-direct-put-smp"
                )
            if nbytes <= 8 * KIB:
                return "tree-shmem"
            if nbytes <= 256 * KIB:
                return "tree-shaddr"
            return "torus-shaddr"

        sizes = [0, 1, 256, 8 * KIB - 1, 8 * KIB, 8 * KIB + 1,
                 64 * KIB, 256 * KIB - 1, 256 * KIB, 256 * KIB + 1,
                 2 * 1024 * KIB]
        for ppn in (1, 2, 4):
            for nbytes in sizes:
                assert select_protocol("bcast", nbytes, ppn) == legacy(
                    nbytes, ppn
                ), (nbytes, ppn)

    def test_allreduce_crossover_and_smp(self):
        # 64 KiB of doubles is the last tree size; quad mode beyond it
        # moves to the shared-address torus scheme (section V-C).
        assert select_protocol("allreduce", 64 * KIB, 4) == "allreduce-tree"
        assert select_protocol("allreduce", 64 * KIB + 8, 4) == (
            "allreduce-torus-shaddr"
        )
        # The torus scheme is quad-only: other modes stay on the tree.
        for ppn in (1, 2):
            assert select_protocol("allreduce", 4 * 1024 * KIB, ppn) == (
                "allreduce-tree"
            )

    def test_allgather_crossover_and_smp(self):
        assert select_protocol("allgather", 8 * KIB, 4) == (
            "allgather-ring-current"
        )
        assert select_protocol("allgather", 8 * KIB + 1, 4) == (
            "allgather-ring-shaddr"
        )
        # SMP mode has no intra-node stage to share windows over.
        assert select_protocol("allgather", 1024 * KIB, 1) == (
            "allgather-ring-current"
        )

    def test_reduce_mode_policy(self):
        assert select_protocol("reduce", 1024, 4) == "reduce-torus-shaddr"
        for ppn in (1, 2):
            assert select_protocol("reduce", 1024, ppn) == (
                "reduce-torus-current"
            )

    def test_selected_names_are_registered_and_mode_compatible(self):
        """Every table entry resolves, and supports the ppn it's picked
        for."""
        for family, rules in SELECTION_TABLE.items():
            remaining = {1, 2, 4}  # rules match first-wins, in order
            for modes, ladder in rules:
                ppns = remaining & set(modes) if modes is not None else (
                    set(remaining)
                )
                remaining -= ppns
                for _max, name in ladder:
                    info = algorithm_info(family, name)
                    for ppn in ppns:
                        # tree-shaddr for ppn=2 predates the table and is
                        # kept verbatim (quad-only class, historical
                        # behaviour of select_bcast).
                        if (family, name, ppn) == ("bcast", "tree-shaddr", 2):
                            continue
                        assert info.supports_ppn(ppn), (family, name, ppn)

    def test_bad_inputs(self):
        with pytest.raises(KeyError):
            select_protocol("alltoall", 1024, 4)  # no policy for alltoall
        with pytest.raises(ValueError):
            select_protocol("bcast", -1, 4)
        with pytest.raises(ValueError):
            select_protocol("bcast", 1024, 0)
        assert "bcast" in selectable_families()

    def test_auto_resolution_through_run_collective(self):
        machine = Machine(**QUAD211)
        result = run_collective(machine, "bcast", "auto", 256, verify=True)
        assert result.algorithm == "tree-shmem"
        machine = Machine(**QUAD211)
        result = run_collective(machine, "allgather", "auto", 512,
                                verify=True)
        assert result.algorithm == "allgather-ring-current"

    def test_auto_without_policy_raises(self):
        machine = Machine(**QUAD211)
        with pytest.raises(KeyError):
            run_collective(machine, "alltoall", "auto", 512)


class TestGenericDriver:
    @pytest.mark.parametrize("family, algorithm", [
        ("allreduce", "allreduce-tree"),
        ("reduce", "reduce-torus-shaddr"),
        ("allgather", "allgather-ring-shaddr"),
        ("alltoall", "alltoall-shift-shaddr"),
        ("gather", "gather-ring-shaddr"),
        ("scatter", "scatter-ring-shaddr"),
        ("barrier", "barrier-gi"),
    ])
    def test_root_is_refused_where_the_family_takes_none(self, family,
                                                          algorithm):
        with pytest.raises(ValueError, match="takes no root"):
            run_collective(Machine(**QUAD211), family, algorithm, 64,
                           root=1)
        result = run_collective(Machine(**QUAD211), family, algorithm, 64,
                                root=0)
        assert result.elapsed_us > 0

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            run_collective(Machine(**QUAD211), "scan", "anything", 1)

    def test_barrier_rejects_verify(self):
        with pytest.raises(ValueError):
            run_collective(Machine(**QUAD211), "barrier", "barrier-gi",
                           verify=True)

    def test_barrier_bandwidth_is_zero_not_an_error(self):
        result = run_collective(Machine(**QUAD211), "barrier", "barrier-gi")
        assert result.nbytes == 0
        assert result.bandwidth_mbs == 0.0
        assert "0.0 MB/s" in str(result)

    def test_session_shares_windows_across_invocations(self):
        session = InvocationBase.session()
        machine = Machine(**QUAD211)
        cls = get_algorithm("bcast", "tree-shaddr")
        first = session.adopt(cls(machine, 0, 1024))
        second = session.adopt(cls(machine, 0, 1024))
        assert first.windows_by_rank is second.windows_by_rank
        assert first.windows_by_rank is session.windows_by_rank


class TestCollectiveResultGuards:
    def test_zero_elapsed(self):
        result = CollectiveResult(
            algorithm="x", nbytes=1024, nprocs=2, elapsed_us=0.0
        )
        assert result.bandwidth_mbs == 0.0

    def test_zero_bytes(self):
        result = CollectiveResult(
            algorithm="x", nbytes=0, nprocs=2, elapsed_us=12.5
        )
        assert result.bandwidth_mbs == 0.0


class TestMachineCheckRank:
    def test_public_name(self):
        machine = Machine(**QUAD211)
        machine.check_rank(0)
        with pytest.raises(ValueError):
            machine.check_rank(machine.nprocs)
