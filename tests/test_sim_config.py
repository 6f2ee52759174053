"""Solver-mode resolution semantics (:mod:`repro.sim.config`).

The flow network used to snapshot ``REPRO_SIM_SLOWPATH``/``REPRO_SIM_DEBUG``
at construction, so flipping an environment variable between runs silently
did nothing.  These tests pin the repaired contract: environment-derived
modes are re-read at call time (the harness refreshes before every run),
while explicitly configured modes stay pinned across refreshes.
"""

import pytest

from repro.bench.harness import run_collective
from repro.hardware.machine import Machine, Mode
from repro.sim import Engine, FlowNetwork
from repro.sim.config import (
    ENV_DEBUG,
    ENV_SLOWPATH,
    SolverConfig,
    env_flag,
    resolve_solver_config,
)

ALL_ENV = (ENV_SLOWPATH, ENV_DEBUG)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in ALL_ENV:
        monkeypatch.delenv(name, raising=False)


# ---------------------------------------------------------------------------
# env_flag parsing
# ---------------------------------------------------------------------------

def test_env_flag_parses_only_zero_and_one(monkeypatch):
    assert env_flag(ENV_DEBUG, True) is True
    assert env_flag(ENV_DEBUG, False) is False
    monkeypatch.setenv(ENV_DEBUG, "1")
    assert env_flag(ENV_DEBUG, False) is True
    monkeypatch.setenv(ENV_DEBUG, "0")
    assert env_flag(ENV_DEBUG, True) is False
    # stray values keep the documented default instead of guessing
    monkeypatch.setenv(ENV_DEBUG, "yes")
    assert env_flag(ENV_DEBUG, True) is True
    assert env_flag(ENV_DEBUG, False) is False


# ---------------------------------------------------------------------------
# resolve_solver_config: defaults, env, pinning
# ---------------------------------------------------------------------------

def test_defaults_are_incremental_no_debug():
    config = resolve_solver_config()
    assert (config.incremental, config.debug) == (True, False)
    assert not (config.incremental_pinned or config.debug_pinned)
    assert config.mode == "incremental"


def test_mode_labels():
    assert SolverConfig(False, False).mode == "slowpath"
    assert SolverConfig(True, False).mode == "incremental"
    # debug cross-checks never change the label
    assert SolverConfig(True, True).mode == "incremental"
    assert SolverConfig(False, True).mode == "slowpath"


def test_env_variables_steer_unpinned_fields(monkeypatch):
    monkeypatch.setenv(ENV_SLOWPATH, "1")
    monkeypatch.setenv(ENV_DEBUG, "1")
    config = resolve_solver_config()
    assert config.mode == "slowpath"
    assert config.debug is True


def test_explicit_arguments_pin_across_refreshes(monkeypatch):
    pinned = resolve_solver_config(incremental=False, debug=False)
    assert pinned.mode == "slowpath"
    assert pinned.incremental_pinned and pinned.debug_pinned
    # Environment now says the opposite; the pins must win on refresh.
    monkeypatch.setenv(ENV_SLOWPATH, "0")
    monkeypatch.setenv(ENV_DEBUG, "1")
    refreshed = resolve_solver_config(base=pinned)
    assert refreshed.mode == "slowpath"
    assert refreshed.debug is False


def test_unpinned_fields_track_environment_between_refreshes(monkeypatch):
    base = resolve_solver_config(incremental=True)
    assert base.debug is False
    monkeypatch.setenv(ENV_DEBUG, "1")
    assert resolve_solver_config(base=base).debug is True
    monkeypatch.delenv(ENV_DEBUG)
    assert resolve_solver_config(base=base).debug is False
    # the pinned field ignores the environment throughout
    monkeypatch.setenv(ENV_SLOWPATH, "1")
    assert resolve_solver_config(base=base).incremental is True


# ---------------------------------------------------------------------------
# FlowNetwork.configure / refresh_config
# ---------------------------------------------------------------------------

def test_flownet_refresh_sees_env_change_after_construction(monkeypatch):
    net = FlowNetwork(Engine())
    assert net.solver_mode == "incremental"
    monkeypatch.setenv(ENV_SLOWPATH, "1")
    # Construction-time snapshot would miss this; refresh must not.
    net.refresh_config()
    assert net.solver_mode == "slowpath"
    monkeypatch.delenv(ENV_SLOWPATH)
    net.refresh_config()
    assert net.solver_mode == "incremental"


def test_flownet_explicit_configure_survives_refresh(monkeypatch):
    net = FlowNetwork(Engine())
    net.configure(incremental=False)
    assert net.solver_mode == "slowpath"
    monkeypatch.setenv(ENV_SLOWPATH, "0")
    net.refresh_config()
    assert net.solver_mode == "slowpath"


def test_switching_to_incremental_recarves_inflight_flows():
    """configure() mid-run must rebuild the component cache so the
    incremental path picks up flows the slowpath created."""

    def run(switch):
        engine = Engine()
        net = FlowNetwork(engine, incremental=not switch, debug=True)
        port = net.add_resource("mem", 8.0)
        done = {}

        def proc(name, nbytes, start):
            if start:
                yield engine.timeout(start)
            yield net.transfer({port: 1.0}, nbytes, name=name)
            done[name] = engine.now

        def flip():
            yield engine.timeout(5.0)
            if switch:
                net.configure(incremental=True)

        for name, nbytes, start in [("a", 256.0, 0.0), ("b", 512.0, 2.0),
                                    ("c", 128.0, 8.0)]:
            engine.spawn(proc(name, nbytes, start))
        engine.spawn(flip())
        engine.run()
        return done

    assert run(switch=True) == run(switch=False)


def test_harness_rereads_env_per_run(monkeypatch):
    """Satellite regression: flipping REPRO_SIM_SLOWPATH *after* machine
    construction must steer the very next run (manifest records it)."""
    machine = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
    result = run_collective(machine, "bcast", "tree-shaddr", 4096)
    assert result.manifest.solver_mode == "incremental"
    monkeypatch.setenv(ENV_SLOWPATH, "1")
    result = run_collective(machine, "bcast", "tree-shaddr", 4096)
    assert result.manifest.solver_mode == "slowpath"
    monkeypatch.delenv(ENV_SLOWPATH)
    result = run_collective(machine, "bcast", "tree-shaddr", 4096)
    assert result.manifest.solver_mode == "incremental"
