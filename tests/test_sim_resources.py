"""Unit tests for Store, SimBarrier, SimCounter."""

import pytest

from repro.sim import Engine, SimBarrier, SimCounter, Store


class TestStore:
    def test_fifo_order(self):
        eng = Engine()
        store = Store(eng)
        got = []

        def producer():
            for i in range(3):
                yield eng.timeout(1.0)
                store.put(i)

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append((item, eng.now))

        eng.spawn(consumer())
        eng.spawn(producer())
        eng.run()
        assert got == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_get_before_put_hands_off_directly(self):
        eng = Engine()
        store = Store(eng)
        got = []

        def consumer():
            item = yield store.get()
            got.append((item, eng.now))

        def producer():
            yield eng.timeout(2.0)
            store.put("x")

        eng.spawn(consumer())
        eng.spawn(producer())
        eng.run()
        assert got == [("x", 2.0)]


class TestSimBarrier:
    def test_releases_all_at_last_arrival(self):
        eng = Engine()
        barrier = SimBarrier(eng, 3)
        log = []

        def p(i):
            yield eng.timeout(float(i))
            yield barrier.wait()
            log.append((i, eng.now))

        for i in range(3):
            eng.spawn(p(i))
        eng.run()
        assert log == [(0, 2.0), (1, 2.0), (2, 2.0)]

    def test_latency_applied(self):
        eng = Engine()
        barrier = SimBarrier(eng, 2, latency=1.3)
        log = []

        def p():
            yield barrier.wait()
            log.append(eng.now)

        eng.spawn(p())
        eng.spawn(p())
        eng.run()
        assert log == [1.3, 1.3]

    def test_cyclic_reuse(self):
        eng = Engine()
        barrier = SimBarrier(eng, 2)
        log = []

        def p(i):
            for _round in range(3):
                yield eng.timeout(1.0 * (i + 1))
                yield barrier.wait()
            log.append((i, eng.now))

        eng.spawn(p(0))
        eng.spawn(p(1))
        eng.run()
        assert barrier.generation == 3
        assert log == [(0, 6.0), (1, 6.0)]


class TestSimCounter:
    def test_wait_threshold(self):
        eng = Engine()
        counter = SimCounter(eng)
        log = []

        def waiter():
            value = yield counter.wait_for(10)
            log.append((value, eng.now))

        def adder():
            for _ in range(4):
                yield eng.timeout(1.0)
                counter.add(3)

        eng.spawn(waiter())
        eng.spawn(adder())
        eng.run()
        assert log == [(12, 4.0)]

    def test_immediate_when_already_met(self):
        eng = Engine()
        counter = SimCounter(eng, value=5)
        log = []

        def p():
            value = yield counter.wait_for(5)
            log.append(value)

        eng.spawn(p())
        eng.run()
        assert log == [5]

    def test_decrease_rejected(self):
        eng = Engine()
        counter = SimCounter(eng)
        with pytest.raises(ValueError):
            counter.add(-1)

    def test_set_at_least(self):
        eng = Engine()
        counter = SimCounter(eng, value=5)
        counter.set_at_least(3)
        assert counter.value == 5
        counter.set_at_least(9)
        assert counter.value == 9
