"""CrossFTP application tests: protocol behaviour and live updates
(the paper's §4.4)."""

import pytest

from repro.harness.updates import AppDriver, harness_policy
from repro.net.ftpclient import browse_script, long_session_script, upload_script
from repro.net.loadgen import ScriptedSession


def make_driver():
    return AppDriver.for_app("crossftp")


class TestProtocol:
    def test_login_and_browse(self):
        driver = make_driver().boot("1.05")
        session = ScriptedSession(driver.vm, 2121, browse_script()).start(20)
        driver.run(until_ms=2_000)
        assert session.succeeded, session.failed
        assert any("230 user alice" in line for line in session.transcript)
        assert any("welcome to crossftp" in line for line in session.transcript)

    def test_bad_password_rejected(self):
        driver = make_driver().boot("1.05")
        script = [
            ("expect", "220"),
            ("send", "USER alice"),
            ("expect", "331"),
            ("send", "PASS wrong"),
            ("expect", "530"),
            ("send", "QUIT"),
            ("expect", "221"),
            ("close",),
        ]
        session = ScriptedSession(driver.vm, 2121, script).start(20)
        driver.run(until_ms=2_000)
        assert session.succeeded, session.failed

    def test_upload_then_download(self):
        driver = make_driver().boot("1.06")
        session = ScriptedSession(
            driver.vm, 2121, upload_script("notes.txt", "hello dsu")
        ).start(20)
        driver.run(until_ms=2_000)
        assert session.succeeded, session.failed
        assert driver.vm.filesystem["/srv/ftp/notes.txt"] == "hello dsu"

    def test_anonymous_cannot_store_in_106(self):
        driver = make_driver().boot("1.06")
        script = [
            ("expect", "220"),
            ("send", "USER anonymous"),
            ("expect", "331"),
            ("send", "PASS "),
            ("expect", "230"),
            ("send", "STOR evil.txt"),
            ("expect", "550"),
            ("send", "QUIT"),
            ("expect", "221"),
            ("close",),
        ]
        session = ScriptedSession(driver.vm, 2121, script).start(20)
        driver.run(until_ms=2_000)
        assert session.succeeded, session.failed

    def test_107_adds_size_and_syst(self):
        driver = make_driver().boot("1.07")
        script = [
            ("expect", "220"),
            ("send", "SYST"),
            ("expect", "215"),
            ("send", "SIZE readme.txt"),
            ("expect", "213"),
            ("send", "QUIT"),
            ("expect", "221"),
            ("close",),
        ]
        session = ScriptedSession(driver.vm, 2121, script).start(20)
        driver.run(until_ms=2_000)
        assert session.succeeded, session.failed

    def test_concurrent_sessions(self):
        driver = make_driver().boot("1.05")
        sessions = [
            ScriptedSession(driver.vm, 2121, browse_script()).start(20 + 5 * i)
            for i in range(4)
        ]
        driver.run(until_ms=3_000)
        assert all(s.succeeded for s in sessions), [s.failed for s in sessions]


class TestUpdates:
    def test_105_to_106_applies_while_idle(self):
        driver = make_driver().boot("1.05")
        before = ScriptedSession(driver.vm, 2121, browse_script()).start(20)
        holder = driver.request_update_at(300, "1.06")
        after = ScriptedSession(driver.vm, 2121, browse_script()).start(600)
        driver.run(until_ms=3_000)
        result = holder["result"]
        assert result.succeeded, result.reason
        assert before.succeeded and after.succeeded
        # Post-update sessions see the new banner.
        assert any("1.06" in line for line in after.transcript)
        # The accept loop (FtpServer.main) is category-2 and always on
        # stack: the update goes through via OSR.
        assert result.used_osr

    def test_106_to_107_custom_config_transformer(self):
        driver = make_driver().boot("1.06")
        holder = driver.request_update_at(200, "1.07")
        driver.run(until_ms=2_000)
        result = holder["result"]
        assert result.succeeded, result.reason
        vm = driver.vm
        config = vm.registry.get("FtpConfig")
        assert vm.jtoc.read(config.static_slots["maxConnections"]) == 64
        assert vm.jtoc.read(config.static_slots["timeoutSeconds"]) == 300

    def test_107_to_108_under_load_times_out(self):
        driver = make_driver().boot("1.07")
        # A long NOOP session holds RequestHandler.run on the stack across
        # the whole attempt window.
        session = ScriptedSession(
            driver.vm, 2121, long_session_script(noops=400), poll_ms=5.0,
            timeout_ms=20_000,
        ).start(20)
        holder = driver.request_update_at(100, "1.08", harness_policy(800))
        driver.run(until_ms=6_000)
        result = holder["result"]
        assert result.status == "aborted"
        assert "RequestHandler.run()V" in result.blockers_seen
        assert session.succeeded  # the session itself is unharmed

    def test_107_to_108_applies_when_idle_and_folds_transfer_log(self):
        driver = make_driver().boot("1.07")
        # Generate some transfers first so TransferLog has state to fold.
        session = ScriptedSession(driver.vm, 2121, browse_script()).start(20)
        holder = driver.request_update_at(500, "1.08", harness_policy(2_000))
        after = ScriptedSession(driver.vm, 2121, browse_script()).start(900)
        driver.run(until_ms=4_000)
        result = holder["result"]
        assert result.succeeded, result.reason
        assert session.succeeded and after.succeeded
        vm = driver.vm
        stats = vm.registry.get("Stats")
        # TransferLog.transfers (1 RETR) carried into Stats.transfers, and
        # the new session's RETR incremented it post-update.
        assert vm.jtoc.read(stats.static_slots["transfers"]) == 2
        assert vm.registry.maybe_get("TransferLog") is None
        assert vm.registry.maybe_get("v107_TransferLog") is not None

    def test_105_to_106_with_active_session_uses_return_barrier(self):
        # RequestHandler.run's bytecode changes in 1.06, so a live session
        # blocks the update until it ends; a return barrier picks it up.
        driver = make_driver().boot("1.05")
        slow = ScriptedSession(
            driver.vm, 2121, long_session_script(noops=40), poll_ms=10.0,
            timeout_ms=20_000,
        ).start(20)
        holder = driver.request_update_at(100, "1.06", harness_policy(5_000))
        driver.run(until_ms=8_000)
        result = holder["result"]
        assert result.succeeded, result.reason
        assert result.used_return_barriers
        assert slow.succeeded, slow.failed
        # The update landed only after the blocking session's server side
        # wound down (client poll granularity makes the client-observed
        # finish time slightly later).
        assert result.attempts >= 2
        assert result.finished_at_ms >= slow.finished_at - 15

    def test_106_to_107_transforms_live_session_via_osr(self):
        # In 1.07 RequestHandler.run's *bytecode* is unchanged but its class
        # gains fields: the blocked run frame is category-2 and is rescued
        # by OSR; the live RequestHandler object is transformed in place
        # (its login state survives, so the session keeps working).
        driver = make_driver().boot("1.06")
        slow = ScriptedSession(
            driver.vm, 2121, long_session_script(noops=60), poll_ms=10.0,
            timeout_ms=20_000,
        ).start(20)
        holder = driver.request_update_at(200, "1.07", harness_policy(5_000))
        driver.run(until_ms=8_000)
        result = holder["result"]
        assert result.succeeded, result.reason
        assert result.used_osr
        assert slow.succeeded, slow.failed
        assert result.objects_transformed >= 1  # the live RequestHandler
        # The update landed while the session was still running.
        assert result.finished_at_ms < slow.finished_at
