"""Configuration semantics: one table of ``REPRO_*`` variables
(:mod:`repro.util.config`), and a flow network that fixes its solver
modes when it is built.

Every variable is read through :func:`setting`: an explicit argument,
then the environment at call time, then the default.  A stray value
raises instead of silently meaning the default.  Every point builds a
fresh machine, so a variable flipped between points steers the next one.
"""

from pathlib import Path

import pytest

from repro.bench.parallel import run_point
from repro.sim import Engine, FlowNetwork, SimulationError
from repro.util.config import VARIABLES, setting

#: variable -> (documented values -> what they mean, a stray value or
#: None when every non-blank value is accepted)
CASES = {
    "REPRO_SIM_SLOWPATH": ({"0": False, "1": True}, "yes"),
    "REPRO_SIM_DEBUG": ({"0": False, "1": True}, "yes"),
    "REPRO_JOBS": ({"3": 3, " 5 ": 5, "0": 0, "-1": -1}, "many"),
    "REPRO_CHUNK_TIMEOUT_S": ({"2.5": 2.5, "30": 30.0}, "0"),
    "REPRO_FARM": ({"127.0.0.1:7000": "127.0.0.1:7000",
                    " host:9 ": "host:9"}, None),
    "REPRO_FARM_AUTHKEY": ({"a secret": "a secret"}, None),
    "REPRO_FLIGHT_DIR": ({"/var/tmp/flight": "/var/tmp/flight"}, None),
    "REPRO_LOG_LEVEL": ({"debug": "debug", "info": "info",
                         "WARNING": "warning", "error": "error"}, "verbose"),
    "REPRO_RUNTIME_LOG": ({"console": "console", "json": "json",
                           " JSON ": "json"}, "off"),
}


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in VARIABLES:
        monkeypatch.delenv(name, raising=False)


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

def test_every_variable_has_a_case():
    assert set(CASES) == set(VARIABLES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_variable_takes_its_documented_values(monkeypatch, name):
    values, stray = CASES[name]
    default = VARIABLES[name].default
    assert setting(name) == default
    for blank in ("", "  "):
        monkeypatch.setenv(name, blank)
        assert setting(name) == default
    for raw, meaning in values.items():
        monkeypatch.setenv(name, raw)
        assert setting(name) == meaning
    if stray is not None:
        monkeypatch.setenv(name, stray)
        with pytest.raises(ValueError) as error:
            setting(name)
        assert name in str(error.value)
        assert VARIABLES[name].accepts in str(error.value)


def test_an_explicit_argument_beats_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert setting("REPRO_JOBS", 3) == 3
    # an explicit value is never parsed, so a stray environment value
    # behind it does not matter
    monkeypatch.setenv("REPRO_JOBS", "many")
    assert setting("REPRO_JOBS", 3) == 3
    assert setting("REPRO_SIM_SLOWPATH", False) is False


def test_an_unknown_name_is_refused():
    with pytest.raises(KeyError):
        setting("REPRO_NOT_A_VARIABLE")


# ---------------------------------------------------------------------------
# FlowNetwork: modes fixed when it is built
# ---------------------------------------------------------------------------

def test_defaults_are_incremental_no_debug():
    net = FlowNetwork(Engine())
    assert (net.incremental, net._debug) == (True, False)
    assert net.solver_mode == "incremental"


def test_mode_labels():
    for incremental, debug in [(False, False), (True, False), (True, True),
                               (False, True)]:
        net = FlowNetwork(Engine(), incremental=incremental, debug=debug)
        # debug cross-checks never change the label
        assert net.solver_mode == ("incremental" if incremental
                                   else "slowpath")


def test_env_variables_steer_unpinned_fields(monkeypatch):
    """A mode given no explicit argument comes from the environment as
    it is when the network is built: after the variable is set, slowpath;
    before it, incremental for good."""
    before = FlowNetwork(Engine())
    monkeypatch.setenv("REPRO_SIM_SLOWPATH", "1")
    monkeypatch.setenv("REPRO_SIM_DEBUG", "1")
    after = FlowNetwork(Engine())
    assert (after.solver_mode, after._debug) == ("slowpath", True)
    # the network built before keeps the modes it was built with
    assert (before.solver_mode, before._debug) == ("incremental", False)


def test_explicit_arguments_beat_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SLOWPATH", "1")
    monkeypatch.setenv("REPRO_SIM_DEBUG", "1")
    net = FlowNetwork(Engine(), incremental=True, debug=False)
    assert (net.solver_mode, net._debug) == ("incremental", False)


def test_a_stray_solver_flag_refuses_to_build_a_network(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SLOWPATH", "yes")
    with pytest.raises(ValueError, match="REPRO_SIM_SLOWPATH"):
        FlowNetwork(Engine())


def test_configure_sets_modes_on_an_idle_network():
    net = FlowNetwork(Engine())
    net.configure(incremental=False)
    assert (net.solver_mode, net._debug) == ("slowpath", False)
    net.configure(debug=True)
    assert (net.solver_mode, net._debug) == ("slowpath", True)


def test_configure_with_a_flow_in_flight_raises():
    engine = Engine()
    net = FlowNetwork(engine, incremental=False)
    port = net.add_resource("mem", 8.0)
    outcome = {}

    def proc():
        yield net.transfer({port: 1.0}, 64.0)
        outcome["done"] = engine.now

    def flip():
        yield engine.timeout(2.0)
        with pytest.raises(SimulationError, match="in flight"):
            net.configure(incremental=True)
        outcome["refused"] = engine.now

    engine.spawn(proc())
    engine.spawn(flip())
    engine.run()
    assert outcome == {"refused": 2.0, "done": 8.0}
    assert net.solver_mode == "slowpath"
    # once the flow has finished, the network is idle again
    net.configure(incremental=True)
    assert net.solver_mode == "incremental"


def test_run_point_records_the_mode_set_before_it(monkeypatch):
    """Every point builds a fresh machine, so a variable flipped between
    points steers the next one, and its manifest says so."""
    spec = {"family": "bcast", "algorithm": "torus-shaddr", "x": 4096}
    first = run_point(spec)
    assert first.manifest.solver_mode == "incremental"
    monkeypatch.setenv("REPRO_SIM_SLOWPATH", "1")
    second = run_point(spec)
    assert second.manifest.solver_mode == "slowpath"
    assert second.elapsed_us == first.elapsed_us
    monkeypatch.delenv("REPRO_SIM_SLOWPATH")
    assert run_point(spec).manifest.solver_mode == "incremental"


def test_usage_docs_list_every_variable_once():
    """docs/usage.md's "Environment variables" table names exactly the
    variables of the config table, once each, with the same accepted
    values."""
    text = (Path(__file__).resolve().parent.parent / "docs" / "usage.md"
            ).read_text(encoding="utf-8")
    section = text.split("## Environment variables", 1)[1].split("\n## ")[0]
    rows = [
        [cell.strip().replace("`", "") for cell in line.strip("|").split("|")]
        for line in section.splitlines() if line.startswith("| `REPRO_")
    ]
    assert [row[0] for row in rows] == list(VARIABLES)
    for name, _default, accepts, _meaning in rows:
        assert accepts == VARIABLES[name].accepts, name
