"""Unit and threaded stress tests for AtomicCounter."""

import threading

from repro.structures import AtomicCounter


class TestAtomicCounterBasics:
    def test_initial_value(self):
        assert AtomicCounter(5).load() == 5

    def test_fetch_and_increment_returns_previous(self):
        c = AtomicCounter(10)
        assert c.fetch_and_increment() == 10
        assert c.load() == 11

    def test_fetch_and_increment_amount(self):
        c = AtomicCounter()
        assert c.fetch_and_increment(7) == 0
        assert c.load() == 7

    def test_fetch_and_decrement(self):
        c = AtomicCounter(3)
        assert c.fetch_and_decrement() == 3
        assert c.load() == 2

    def test_add_returns_new(self):
        c = AtomicCounter(1)
        assert c.add(4) == 5

    def test_store(self):
        c = AtomicCounter()
        c.store(99)
        assert c.load() == 99


class TestAtomicCounterThreaded:
    def test_unique_slot_reservation(self):
        """The paper's core requirement: no two fetch-and-increments return
        the same value (slot uniqueness, section IV-A attribute (a))."""
        c = AtomicCounter()
        results = [[] for _ in range(8)]

        def worker(i):
            for _ in range(500):
                results[i].append(c.fetch_and_increment())

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        flat = [x for sub in results for x in sub]
        assert sorted(flat) == list(range(8 * 500))
        assert c.load() == 8 * 500

    def test_concurrent_add_no_lost_updates(self):
        c = AtomicCounter()

        def worker():
            for _ in range(1000):
                c.add(1)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.load() == 6000
