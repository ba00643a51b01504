"""Jetty application tests: HTTP serving, thread-pool behaviour, and the
paper's §4.2 update narrative (all updates apply except 5.1.3)."""

import pytest

from repro.apps.jetty.versions import HTTP_PORT, VERSIONS
from repro.harness.updates import AppDriver, harness_policy
from repro.net.httpclient import HttpConnectionClient, HttperfLoad


def make_driver(**kwargs):
    return AppDriver.for_app("jetty", **kwargs)


class TestHttpServing:
    def test_serves_file(self):
        driver = make_driver().boot("5.1.0")
        client = HttpConnectionClient(driver.vm, HTTP_PORT, "/index.html", 1).start(30)
        driver.run(until_ms=2_000)
        assert client.succeeded, client.failed
        assert client.statuses == [200]
        assert client.bytes_received > 20

    def test_404_for_missing_file(self):
        driver = make_driver().boot("5.1.0")
        client = HttpConnectionClient(driver.vm, HTTP_PORT, "/nope.html", 1).start(30)
        driver.run(until_ms=2_000)
        assert client.succeeded, client.failed
        assert client.statuses == [404]

    def test_keepalive_serial_requests(self):
        driver = make_driver().boot("5.1.0")
        client = HttpConnectionClient(driver.vm, HTTP_PORT, "/file.bin", 5).start(30)
        driver.run(until_ms=3_000)
        assert client.succeeded, client.failed
        assert client.statuses == [200] * 5
        assert client.bytes_received >= 5 * 2048

    def test_directory_maps_to_index_after_511(self):
        driver = make_driver().boot("5.1.1")
        client = HttpConnectionClient(driver.vm, HTTP_PORT, "/", 1).start(30)
        driver.run(until_ms=2_000)
        assert client.succeeded, client.failed
        assert client.statuses == [200]

    def test_pool_threads_handle_concurrent_connections(self):
        driver = make_driver().boot("5.1.0")
        clients = [
            HttpConnectionClient(driver.vm, HTTP_PORT, "/file.bin", 3).start(30 + i)
            for i in range(6)
        ]
        driver.run(until_ms=4_000)
        assert all(c.succeeded for c in clients), [c.failed for c in clients]

    def test_every_version_serves(self):
        for version in VERSIONS:
            driver = make_driver().boot(version)
            client = HttpConnectionClient(driver.vm, HTTP_PORT, "/file.bin", 2).start(30)
            driver.run(until_ms=2_500)
            assert client.succeeded, (version, client.failed)
            assert client.statuses == [200, 200], version

    def test_httperf_load_reports(self):
        driver = make_driver().boot("5.1.5")
        load = HttperfLoad(
            driver.vm, HTTP_PORT, "/file.bin",
            connections_per_second=50, duration_ms=500, start_ms=50,
        )
        driver.run(until_ms=3_000)
        assert load.completed_connections == len(load.clients), load.failure_reasons() if hasattr(load, "failure_reasons") else [c.failed for c in load.failed_connections]
        assert load.throughput_mb_per_s() > 0
        median, q1, q3 = load.latency_summary()
        assert q1 <= median <= q3


class TestUpdates:
    def _apply(self, from_version, to_version, request_at=300, timeout_ms=3_000,
               until_ms=5_000, load=True, inloop_osr="auto"):
        driver = make_driver().boot(from_version)
        clients = []
        if load:
            # periodic light traffic across the update window
            for i in range(6):
                clients.append(
                    HttpConnectionClient(driver.vm, HTTP_PORT, "/file.bin", 3)
                    .start(50 + 120 * i)
                )
        holder = driver.request_update_at(
            request_at, to_version,
            harness_policy(timeout_ms, inloop_osr=inloop_osr),
        )
        driver.run(until_ms=until_ms)
        return driver, holder["result"], clients

    def test_511_body_only(self):
        driver, result, clients = self._apply("5.1.0", "5.1.1")
        assert result.succeeded, result.reason
        assert all(c.succeeded for c in clients), [c.failed for c in clients]

    def test_512_signature_change(self):
        driver, result, clients = self._apply("5.1.1", "5.1.2")
        assert result.succeeded, result.reason
        assert all(c.succeeded for c in clients)

    def test_513_rescued_by_inloop_osr(self):
        # The paper's §4.2 abort: acceptSocket/PoolThread.run never leave
        # the stack. The osrmap pass proves a frame remap for both, so
        # after the retry budget burns down the engine OSRs the blocking
        # loop frames onto the new bodies and the update lands in place.
        driver, result, clients = self._apply(
            "5.1.2", "5.1.3", timeout_ms=1_000, until_ms=5_000
        )
        assert result.succeeded, result.reason
        assert result.osr_rescued
        assert result.extended_osr_frames > 0
        assert result.osr_plans_verified > 0
        assert not result.osr_plans_refused
        assert all(c.succeeded for c in clients), [c.failed for c in clients]
        # server healthy on the NEW version
        late = HttpConnectionClient(driver.vm, HTTP_PORT, "/file.bin", 2).start(
            driver.vm.clock.now_ms + 50
        )
        driver.run(until_ms=driver.vm.clock.now_ms + 1_500)
        assert late.succeeded, late.failed

    def test_513_paper_fidelity_never_reaches_safe_point(self):
        driver, result, clients = self._apply(
            "5.1.2", "5.1.3", timeout_ms=1_000, until_ms=5_000,
            inloop_osr="off",
        )
        assert result.status == "aborted"
        assert "timeout" in result.reason
        assert {"ThreadedServer.acceptSocket(I)V", "PoolThread.run()V"} & \
            result.blockers_seen or "ThreadedServer.run()V" in result.blockers_seen
        # server still healthy on the old version
        late = HttpConnectionClient(driver.vm, HTTP_PORT, "/file.bin", 2).start(
            driver.vm.clock.now_ms + 50
        )
        driver.run(until_ms=driver.vm.clock.now_ms + 1_500)
        assert late.succeeded, late.failed

    def test_514_through_517_class_updates(self):
        for from_v, to_v in [("5.1.3", "5.1.4"), ("5.1.4", "5.1.5"),
                             ("5.1.5", "5.1.6"), ("5.1.6", "5.1.7")]:
            driver, result, clients = self._apply(from_v, to_v)
            assert result.succeeded, (from_v, to_v, result.reason)
            assert all(c.succeeded for c in clients), (from_v, to_v)

    def test_518_to_5110_body_only(self):
        for from_v, to_v in [("5.1.7", "5.1.8"), ("5.1.8", "5.1.9"),
                             ("5.1.9", "5.1.10")]:
            driver, result, clients = self._apply(from_v, to_v)
            assert result.succeeded, (from_v, to_v, result.reason)
            assert all(c.succeeded for c in clients), (from_v, to_v)

    def test_515_to_516_keeps_serving_after_update(self):
        # The Figure-5 pair: after the update the server serves identically.
        driver, result, clients = self._apply("5.1.5", "5.1.6")
        assert result.succeeded, result.reason
        after = HttpConnectionClient(driver.vm, HTTP_PORT, "/file.bin", 5).start(
            driver.vm.clock.now_ms + 50
        )
        driver.run(until_ms=driver.vm.clock.now_ms + 2_000)
        assert after.succeeded, after.failed
        assert after.statuses == [200] * 5
