"""Unit tests for the DES kernel: engine, events, processes."""

import pytest

from repro.sim import Engine, SimulationError
from repro.sim.events import AllOf, Event, Timeout


class TestEngineBasics:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_timeout_advances_clock(self):
        eng = Engine()
        log = []

        def p():
            yield eng.timeout(5.0)
            log.append(eng.now)
            yield eng.timeout(2.5)
            log.append(eng.now)

        eng.spawn(p())
        eng.run()
        assert log == [5.0, 7.5]

    def test_negative_timeout_rejected(self):
        eng = Engine()
        with pytest.raises(ValueError):
            Timeout(eng, -1.0)

    def test_deterministic_tie_break_is_fifo(self):
        eng = Engine()
        order = []

        def p(i):
            yield eng.timeout(1.0)
            order.append(i)

        for i in range(5):
            eng.spawn(p(i))
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_run_until_stops_clock(self):
        eng = Engine()

        def p():
            yield eng.timeout(100.0)

        eng.spawn(p())
        eng.run(until=10.0)
        assert eng.now == 10.0

    def test_cannot_schedule_in_past(self):
        eng = Engine()

        def p():
            yield eng.timeout(5.0)
            eng.call_at(1.0, lambda _v: None)

        eng.spawn(p())
        with pytest.raises(SimulationError):
            eng.run()

    def test_process_return_value_via_join(self):
        eng = Engine()
        got = []

        def child():
            yield eng.timeout(3.0)
            return 42

        def parent():
            value = yield eng.spawn(child(), name="child")
            got.append((value, eng.now))

        eng.spawn(parent(), name="parent")
        eng.run()
        assert got == [(42, 3.0)]

    def test_yield_non_waitable_raises(self):
        eng = Engine()

        def p():
            yield "nope"

        eng.spawn(p())
        with pytest.raises(SimulationError):
            eng.run()

    def test_exception_in_process_annotated(self):
        eng = Engine()

        def p():
            yield eng.timeout(1.0)
            raise RuntimeError("boom")

        eng.spawn(p(), name="bad")
        with pytest.raises(SimulationError, match="bad"):
            eng.run()

    def test_deadlock_detection(self):
        eng = Engine()

        def p():
            yield Event(eng)  # never triggered

        proc = eng.spawn(p(), name="stuck")
        with pytest.raises(SimulationError, match="deadlock"):
            eng.run_until_processes_finish([proc])


class TestEvents:
    def test_event_wakes_all_waiters(self):
        eng = Engine()
        ev = Event(eng)
        woke = []

        def w(i):
            value = yield ev
            woke.append((i, value, eng.now))

        for i in range(3):
            eng.spawn(w(i))

        def t():
            yield eng.timeout(4.0)
            ev.trigger("data")

        eng.spawn(t())
        eng.run()
        assert woke == [(0, "data", 4.0), (1, "data", 4.0), (2, "data", 4.0)]

    def test_already_triggered_event_resumes_immediately(self):
        eng = Engine()
        ev = Event(eng)
        ev.trigger(7)
        got = []

        def p():
            value = yield ev
            got.append((value, eng.now))

        eng.spawn(p())
        eng.run()
        assert got == [(7, 0.0)]

    def test_double_trigger_raises(self):
        eng = Engine()
        ev = Event(eng)
        ev.trigger()
        with pytest.raises(RuntimeError):
            ev.trigger()

    def test_on_trigger_callback_immediate_when_done(self):
        eng = Engine()
        ev = Event(eng)
        ev.trigger(3)
        seen = []
        ev.on_trigger(seen.append)
        assert seen == [3]

    def test_allof_waits_for_all(self):
        eng = Engine()
        events = [Event(eng) for _ in range(3)]
        got = []

        def p():
            values = yield AllOf(eng, events)
            got.append((values, eng.now))

        eng.spawn(p())

        def t():
            for i, ev in enumerate(events):
                yield eng.timeout(1.0)
                ev.trigger(i)

        eng.spawn(t())
        eng.run()
        assert got == [([0, 1, 2], 3.0)]

    def test_allof_empty_resumes_immediately(self):
        eng = Engine()
        got = []

        def p():
            values = yield AllOf(eng, [])
            got.append(values)

        eng.spawn(p())
        eng.run()
        assert got == [[]]
