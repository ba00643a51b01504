"""Unit tests for the simulated network, the event queue, the clock, and
the load generator's seeding and structured-failure contracts."""

import pytest

from repro.net.loadgen import (
    FAILURE_KINDS,
    FAILURE_PROTOCOL,
    FAILURE_REFUSED,
    FAILURE_TIMEOUT,
    ScriptedSession,
    SessionFailure,
    SessionLoad,
)
from repro.net.sockets import Network
from repro.vm.clock import Clock, CostModel
from repro.vm.events import EventQueue


class TestNetwork:
    def test_listen_and_connect(self):
        network = Network()
        lfd = network.listen(80)
        assert not network.has_pending(lfd)
        endpoint = network.client_connect(80)
        assert network.has_pending(lfd)
        fd = network.accept(lfd)
        assert fd == endpoint.fd

    def test_connect_refused_without_listener(self):
        network = Network()
        with pytest.raises(ConnectionRefusedError):
            network.client_connect(81)

    def test_duplicate_listener_rejected(self):
        network = Network()
        network.listen(80)
        with pytest.raises(ValueError):
            network.listen(80)

    def test_accept_queue_is_fifo(self):
        network = Network()
        lfd = network.listen(80)
        first = network.client_connect(80)
        second = network.client_connect(80)
        assert network.accept(lfd) == first.fd
        assert network.accept(lfd) == second.fd
        assert network.accept(lfd) is None

    def test_read_line_semantics(self):
        network = Network()
        lfd = network.listen(80)
        endpoint = network.client_connect(80)
        fd = network.accept(lfd)
        assert network.read_line(fd) is None  # would block
        endpoint.send("hello\r\nwor")
        assert network.has_line(fd)
        assert network.read_line(fd) == "hello"
        assert network.read_line(fd) is None  # partial line
        endpoint.send("ld\n")
        assert network.read_line(fd) == "world"

    def test_eof_after_client_close(self):
        network = Network()
        lfd = network.listen(80)
        endpoint = network.client_connect(80)
        fd = network.accept(lfd)
        endpoint.send("last")
        endpoint.close()
        assert network.read_line(fd) == "last"  # trailing unterminated data
        assert network.read_line(fd) is None
        assert network.is_eof(fd)

    def test_server_write_and_client_receive(self):
        network = Network()
        lfd = network.listen(80)
        endpoint = network.client_connect(80)
        fd = network.accept(lfd)
        network.write(fd, "response\n")
        assert endpoint.receive_line() == "response"
        assert endpoint.receive() == ""

    def test_write_after_close_is_dropped(self):
        network = Network()
        lfd = network.listen(80)
        endpoint = network.client_connect(80)
        fd = network.accept(lfd)
        network.close(fd)
        assert not network.is_open(fd)
        network.write(fd, "late")
        assert endpoint.receive() == ""

    def test_byte_accounting(self):
        network = Network()
        lfd = network.listen(80)
        endpoint = network.client_connect(80)
        fd = network.accept(lfd)
        endpoint.send("abc")
        network.write(fd, "defgh")
        connection = network.connection(fd)
        assert connection.bytes_to_server == 3
        assert connection.bytes_to_client == 5

    def test_read_exact_counts(self):
        network = Network()
        lfd = network.listen(80)
        endpoint = network.client_connect(80)
        fd = network.accept(lfd)
        endpoint.send("abcdef")
        assert network.has_data(fd, 4)
        assert network.read(fd, 4) == "abcd"
        assert not network.has_data(fd, 4)
        endpoint.close()
        assert network.has_data(fd, 4)  # close satisfies the wait
        assert network.read(fd, 4) == "ef"


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(5.0, lambda: fired.append("b"))
        queue.schedule(1.0, lambda: fired.append("a"))
        queue.schedule(9.0, lambda: fired.append("c"))
        for callback in queue.pop_due(6.0):
            callback()
        assert fired == ["a", "b"]
        assert queue.next_time() == 9.0

    def test_same_time_events_fifo(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: fired.append(1))
        queue.schedule(1.0, lambda: fired.append(2))
        for callback in queue.pop_due(1.0):
            callback()
        assert fired == [1, 2]

    def test_len_tracks_pending(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        assert len(queue) == 2
        queue.pop_due(1.5)
        assert len(queue) == 1


class TestClock:
    def test_ticks_accumulate(self):
        clock = Clock(CostModel(cycles_per_ms=1000))
        clock.instruction(5)
        clock.tick(995)
        assert clock.now_ms == 1.0

    def test_advance_never_goes_backwards(self):
        clock = Clock(CostModel(cycles_per_ms=1000))
        clock.advance_to_ms(5.0)
        clock.advance_to_ms(2.0)
        assert clock.now_ms == 5.0

    def test_advance_rounds_up_fractional_cycles(self):
        clock = Clock(CostModel(cycles_per_ms=3))
        clock.advance_to_ms(1.1)  # 3.3 cycles -> 4
        assert clock.cycles == 4
        assert clock.now_ms >= 1.1

    def test_idle_cycles_tracked(self):
        clock = Clock(CostModel(cycles_per_ms=1000))
        clock.instruction(100)
        clock.advance_to_ms(1.0)
        assert clock.busy_cycles == 100
        assert clock.idle_cycles == 900


class _LoadgenVM:
    """Just enough VM surface for session scheduling tests: an event
    queue, a network, and a clock position."""

    class _Clock:
        now_ms = 0.0

    def __init__(self):
        self.events = EventQueue()
        self.network = Network()
        self.clock = self._Clock()

    def drain_events(self, until_ms):
        self.clock.now_ms = until_ms
        for callback in self.events.pop_due(until_ms):
            callback()


class TestSessionFailure:
    def test_failure_kinds_are_closed_and_distinct(self):
        assert FAILURE_KINDS == (
            FAILURE_TIMEOUT, FAILURE_REFUSED, FAILURE_PROTOCOL,
        )
        assert len(set(FAILURE_KINDS)) == 3

    def test_stringifies_to_the_detail_for_old_callers(self):
        failure = SessionFailure(FAILURE_TIMEOUT, "timeout at step 2", 2)
        assert str(failure) == "timeout at step 2"
        assert SessionFailure(FAILURE_REFUSED).kind == str(
            SessionFailure(FAILURE_REFUSED)
        )

    def test_refused_connection_reports_structured_kind(self):
        vm = _LoadgenVM()
        session = ScriptedSession(vm, 9999, [("send", "HELO")]).start(5.0)
        assert session.failure_kind == ""  # not failed yet
        vm.drain_events(10.0)
        assert session.done and not session.succeeded
        assert session.failed.kind == FAILURE_REFUSED
        assert session.failure_kind == FAILURE_REFUSED
        assert session.failed.step_index == 0


class TestSessionLoadSeeding:
    @staticmethod
    def spawn_times(seed, jitter_ms=9.0, count=12):
        load = SessionLoad(
            _LoadgenVM(), 9999, lambda i: [("send", "x")],
            start_ms=10.0, interval_ms=50.0, count=count,
            seed=seed, jitter_ms=jitter_ms,
        )
        return load.spawn_times

    def test_same_seed_is_bit_for_bit_reproducible(self):
        assert self.spawn_times(42) == self.spawn_times(42)

    def test_different_seeds_diverge(self):
        assert self.spawn_times(42) != self.spawn_times(43)

    def test_jitter_stays_within_the_window(self):
        for index, at_ms in enumerate(self.spawn_times(42)):
            base = 10.0 + index * 50.0
            assert base <= at_ms < base + 9.0

    def test_no_seed_keeps_the_historical_fixed_schedule(self):
        times = self.spawn_times(None, jitter_ms=9.0, count=5)
        assert times == [10.0, 60.0, 110.0, 160.0, 210.0]

    def test_failure_kinds_aggregates_structured_categories(self):
        vm = _LoadgenVM()
        load = SessionLoad(
            vm, 9999, lambda i: [("send", "x")],
            start_ms=0.0, interval_ms=10.0, count=3,
        )
        vm.drain_events(100.0)
        assert load.completed == 0
        assert load.failure_kinds() == [FAILURE_REFUSED] * 3
        assert all(
            reason.startswith("load-") for reason in load.failure_reasons()
        )
