"""Tests for generator-based processes and composite events."""

import pytest

from repro.sim.events import Event, SimulationError, Simulator
from repro.sim.process import (Interrupt, all_of, any_of, quorum,
                               run_process, spawn, timeout)


def test_process_sleeps_and_returns_value():
    sim = Simulator()

    def worker():
        yield timeout(sim, 1.5)
        return "done"

    proc = spawn(sim, worker())
    sim.run()
    assert proc.ok
    assert proc.result() == "done"
    assert sim.now == 1.5


def test_yield_delivers_event_value():
    sim = Simulator()
    ev = Event(sim)
    got = []

    def worker():
        value = yield ev
        got.append(value)

    spawn(sim, worker())
    sim.schedule(1.0, lambda: ev.succeed(99))
    sim.run()
    assert got == [99]


def test_failed_event_raises_inside_process():
    sim = Simulator()
    ev = Event(sim)
    caught = []

    def worker():
        try:
            yield ev
        except ValueError as err:
            caught.append(str(err))

    spawn(sim, worker())
    sim.schedule(1.0, lambda: ev.fail(ValueError("bad")))
    sim.run()
    assert caught == ["bad"]


def test_process_exception_fails_the_process_event():
    sim = Simulator()

    def worker():
        yield timeout(sim, 1.0)
        raise RuntimeError("exploded")

    proc = spawn(sim, worker())
    sim.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.exception, RuntimeError)


def test_processes_compose():
    sim = Simulator()

    def inner():
        yield timeout(sim, 2.0)
        return 7

    def outer():
        value = yield spawn(sim, inner())
        return value * 2

    proc = spawn(sim, outer())
    sim.run()
    assert proc.result() == 14


def test_interrupt_wakes_process_early():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield timeout(sim, 100.0)
            log.append("slept")
        except Interrupt as intr:
            log.append(("interrupted", intr.cause, sim.now))

    proc = spawn(sim, sleeper())
    sim.schedule(1.0, lambda: proc.interrupt("wake"))
    sim.run()
    assert log == [("interrupted", "wake", 1.0)]


def test_interrupt_after_completion_is_noop():
    sim = Simulator()

    def fast():
        yield timeout(sim, 0.1)

    proc = spawn(sim, fast())
    sim.run()
    proc.interrupt("late")  # must not raise
    sim.run()
    assert proc.ok


def test_unhandled_interrupt_fails_process():
    sim = Simulator()

    def sleeper():
        yield timeout(sim, 100.0)

    proc = spawn(sim, sleeper())
    sim.schedule(1.0, lambda: proc.interrupt())
    sim.run()
    assert proc.triggered and not proc.ok


def test_stale_event_after_interrupt_is_ignored():
    sim = Simulator()
    resumed = []

    def sleeper():
        try:
            yield timeout(sim, 5.0)
            resumed.append("timer")
        except Interrupt:
            yield timeout(sim, 10.0)
            resumed.append("post-interrupt")

    spawn(sim, sleeper())
    sim.schedule(1.0, lambda: None)  # noop marker

    def interrupter():
        yield timeout(sim, 1.0)
        # interrupt while the 5s timeout is pending; the timeout still
        # fires at t=5 but must not resume the process a second time.
        proc.interrupt()

    proc = None
    proc = spawn(sim, sleeper())
    spawn(sim, interrupter())
    sim.run()
    assert resumed.count("post-interrupt") == 1


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    proc = spawn(sim, bad())
    sim.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.exception, SimulationError)


def test_all_of_collects_every_value():
    sim = Simulator()
    cond = all_of(sim, [timeout(sim, 1.0, "a"), timeout(sim, 3.0, "b"),
                        timeout(sim, 2.0, "c")])
    sim.run()
    assert cond.result() == ["a", "b", "c"]
    assert sim.now == 3.0


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()
    cond = all_of(sim, [])
    assert cond.ok


def test_any_of_returns_first():
    sim = Simulator()
    cond = any_of(sim, [timeout(sim, 5.0, "slow"), timeout(sim, 1.0, "fast")])
    sim.run_until_complete(cond)
    assert cond.result() == (1, "fast")


def test_quorum_waits_for_k_of_n():
    sim = Simulator()
    q = quorum(sim, [timeout(sim, 1.0, "a"), timeout(sim, 2.0, "b"),
                     timeout(sim, 9.0, "c")], need=2)
    sim.run_until_complete(q)
    assert sim.now == 2.0
    assert sorted(q.result()) == ["a", "b"]


def test_quorum_fails_when_unreachable():
    sim = Simulator()
    evs = [Event(sim), Event(sim), Event(sim)]
    q = quorum(sim, evs, need=2)
    evs[0].fail(RuntimeError("x"))
    evs[1].fail(RuntimeError("y"))
    assert q.triggered and not q.ok


def test_quorum_more_than_population_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        quorum(sim, [Event(sim)], need=2)


def test_run_process_returns_result_at_a_poll_boundary():
    sim = Simulator()

    def worker():
        yield timeout(sim, 0.12)
        return "done"

    assert run_process(sim, worker(), limit=1.0) == "done"
    # Polled in 0.05 s slices: the clock stops at the first slice
    # boundary after completion, not at the completion instant.
    assert sim.now == pytest.approx(0.15)


def test_run_process_timeout_names_what():
    sim = Simulator()

    def forever():
        while True:
            yield timeout(sim, 1.0)

    with pytest.raises(SimulationError, match="the slow thing"):
        run_process(sim, forever(), limit=2.0, what="the slow thing")
    assert sim.now == pytest.approx(2.0)


def test_run_process_reraises_the_process_exception():
    sim = Simulator()

    def broken():
        yield timeout(sim, 0.1)
        raise KeyError("boom")

    with pytest.raises(KeyError, match="boom"):
        run_process(sim, broken(), limit=1.0)


def test_run_process_waits_on_a_running_process():
    sim = Simulator()

    def worker():
        yield timeout(sim, 0.3)
        return 7

    proc = spawn(sim, worker())
    sim.run(until=0.1)
    assert run_process(sim, proc, limit=1.0) == 7
