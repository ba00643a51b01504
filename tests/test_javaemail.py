"""JavaEmailServer application tests: mail flow end-to-end and the paper's
§4.3 update narrative (1.3 aborts; 1.3.2 and 1.3.3 need OSR)."""

import pytest

from repro.apps.javaemail.versions import POP3_PORT, SMTP_PORT, VERSIONS
from repro.harness.updates import AppDriver, harness_policy
from repro.net.loadgen import ScriptedSession
from repro.net.popclient import fetch_script, stat_script
from repro.net.smtpclient import send_mail_script


def make_driver():
    return AppDriver.for_app("javaemail")


def send_and_fetch(driver, recipient="alice@example.org", pop_user="alice",
                   pop_pass="apass", send_at=30, fetch_at=400):
    smtp = ScriptedSession(
        driver.vm, SMTP_PORT,
        send_mail_script("bob@example.org", recipient, ["hello there", "bye"]),
    ).start(send_at)
    pop = ScriptedSession(
        driver.vm, POP3_PORT, fetch_script(pop_user, pop_pass)
    ).start(fetch_at)
    return smtp, pop


class TestMailFlow:
    def test_send_then_retrieve(self):
        driver = make_driver().boot("1.2.1")
        smtp, pop = send_and_fetch(driver)
        driver.run(until_ms=2_500)
        assert smtp.succeeded, smtp.failed
        assert pop.succeeded, pop.failed
        assert any("hello there" in line for line in pop.transcript)

    def test_forwarding_delivers_copy(self):
        # bob's account forwards to alice: mail sent to bob shows up for
        # alice as well.
        driver = make_driver().boot("1.2.1")
        smtp, pop = send_and_fetch(
            driver, recipient="bob@example.org", pop_user="alice", pop_pass="apass"
        )
        driver.run(until_ms=2_500)
        assert smtp.succeeded and pop.succeeded, (smtp.failed, pop.failed)
        assert any("hello there" in line for line in pop.transcript)

    def test_bad_pop_login(self):
        driver = make_driver().boot("1.2.1")
        script = [
            ("expect", "+OK jes pop3"),
            ("send", "USER alice"),
            ("expect", "+OK"),
            ("send", "PASS wrong"),
            ("expect", "-ERR"),
            ("send", "QUIT"),
            ("expect", "+OK bye"),
            ("close",),
        ]
        session = ScriptedSession(driver.vm, POP3_PORT, script).start(30)
        driver.run(until_ms=2_000)
        assert session.succeeded, session.failed

    def test_mail_flow_on_every_version(self):
        # Every release must remain a working mail server.
        for version in VERSIONS:
            driver = make_driver().boot(version)
            smtp, pop = send_and_fetch(driver)
            driver.run(until_ms=2_500)
            assert smtp.succeeded, (version, smtp.failed)
            assert pop.succeeded, (version, pop.failed)
            assert any("hello there" in line for line in pop.transcript), version

    def test_14_relay_policy(self):
        driver = make_driver().boot("1.4")
        script = [
            ("expect", "220"),
            ("send", "HELO client"),
            ("expect", "250"),
            ("send", "MAIL FROM:<spammer@evil.example>"),
            ("expect", "250"),
            ("send", "RCPT TO:<victim@elsewhere.example>"),
            ("expect", "550"),
            ("send", "QUIT"),
            ("expect", "221"),
            ("close",),
        ]
        session = ScriptedSession(driver.vm, SMTP_PORT, script).start(30)
        driver.run(until_ms=2_000)
        assert session.succeeded, session.failed


class TestUpdates:
    def _apply(self, from_version, to_version, request_at=300, timeout_ms=3_000,
               until_ms=6_000, inloop_osr="auto"):
        driver = make_driver().boot(from_version)
        # light traffic before the update
        smtp, pop = send_and_fetch(driver)
        holder = driver.request_update_at(
            request_at, to_version,
            harness_policy(timeout_ms, inloop_osr=inloop_osr),
        )
        driver.run(until_ms=until_ms)
        return driver, holder["result"], (smtp, pop)

    def test_122_body_only_applies_immediately(self):
        driver, result, sessions = self._apply("1.2.1", "1.2.2")
        assert result.succeeded, result.reason
        assert not result.used_osr
        assert all(s.succeeded for s in sessions)

    def test_123_class_update_applies(self):
        driver, result, sessions = self._apply("1.2.2", "1.2.3")
        assert result.succeeded, result.reason
        assert all(s.succeeded for s in sessions)

    def test_13_config_rework_rescued_by_inloop_osr(self):
        # The processors' run() loops change and are never off-stack (the
        # paper's §4.3 abort) — but the osrmap pass proves remaps for all
        # of them, so the engine OSRs the spinning frames in place.
        driver, result, sessions = self._apply(
            "1.2.4", "1.3", timeout_ms=1_000, until_ms=5_000
        )
        assert result.succeeded, result.reason
        assert result.osr_rescued
        assert result.extended_osr_frames > 0
        assert not result.osr_plans_refused
        # Mail flows on the NEW version after the in-place rescue.
        smtp2 = ScriptedSession(
            driver.vm, SMTP_PORT,
            send_mail_script("bob@example.org", "alice@example.org", ["post-rescue"]),
        ).start(5_100)
        driver.run(until_ms=7_000)
        assert smtp2.succeeded, smtp2.failed

    def test_13_paper_fidelity_aborts(self):
        driver, result, sessions = self._apply(
            "1.2.4", "1.3", timeout_ms=1_000, until_ms=5_000,
            inloop_osr="off",
        )
        assert result.status == "aborted"
        assert "timeout" in result.reason
        blocking = {
            "SMTPProcessor.run()V",
            "Pop3Processor.run()V",
            "SMTPSender.run()V",
        }
        assert blocking & result.blockers_seen
        # The server is unharmed: mail still flows on the old version.
        smtp2 = ScriptedSession(
            driver.vm, SMTP_PORT,
            send_mail_script("bob@example.org", "alice@example.org", ["post-abort"]),
        ).start(5_100)
        driver.run(until_ms=7_000)
        assert smtp2.succeeded, smtp2.failed

    def test_132_paper_example_uses_osr(self):
        driver, result, sessions = self._apply("1.3.1", "1.3.2")
        assert result.succeeded, result.reason
        assert result.used_osr
        # Only SMTPSender.run still needs OSR: the semantic-diff minimizer
        # proves the POP3/SMTP processor loops' baked User offsets stable
        # (the Figure-3 field change hits the *last* flattened slot), so
        # they escape category 2 and keep running old compiled code.
        assert result.osr_frames >= 1
        assert all(s.succeeded for s in sessions)
        # Forwarding still works after the transformation: bob's forward
        # list was rebuilt as EmailAddress objects by the Figure-3
        # transformer.
        smtp2 = ScriptedSession(
            driver.vm, SMTP_PORT,
            send_mail_script("carol@example.org", "bob@example.org", ["fwd me"]),
        ).start(driver.vm.clock.now_ms + 50)
        pop2 = ScriptedSession(
            driver.vm, POP3_PORT, fetch_script("alice", "apass", message_index=2)
        ).start(driver.vm.clock.now_ms + 500)
        driver.run(until_ms=driver.vm.clock.now_ms + 2_000)
        assert smtp2.succeeded, smtp2.failed
        assert pop2.succeeded, pop2.failed
        assert any("fwd me" in line for line in pop2.transcript)

    def test_133_debug_knob_uses_osr(self):
        driver, result, sessions = self._apply("1.3.2", "1.3.3")
        assert result.succeeded, result.reason
        assert result.used_osr
        assert all(s.succeeded for s in sessions)

    def test_134_applies(self):
        driver, result, sessions = self._apply("1.3.3", "1.3.4")
        assert result.succeeded, result.reason
        assert all(s.succeeded for s in sessions)

    def test_14_applies_and_message_ids_flow(self):
        driver, result, sessions = self._apply("1.3.4", "1.4")
        assert result.succeeded, result.reason
        assert all(s.succeeded for s in sessions)
        # New messages get ids from the new MessageIdGenerator.
        smtp2 = ScriptedSession(
            driver.vm, SMTP_PORT,
            send_mail_script("bob@example.org", "alice@example.org", ["with id"]),
        ).start(driver.vm.clock.now_ms + 50)
        driver.run(until_ms=driver.vm.clock.now_ms + 1_500)
        assert smtp2.succeeded, smtp2.failed
        generator = driver.vm.registry.get("MessageIdGenerator")
        assert driver.vm.jtoc.read(generator.static_slots["counter"]) >= 1


class TestSpecs:
    def test_paper_shape_of_spec_classification(self):
        driver = make_driver()
        # 1.2.1 -> 1.2.2 is body-only.
        prepared = driver.prepare_pair("1.2.1", "1.2.2")
        assert prepared.spec.method_body_only()
        # 1.3.1 -> 1.3.2 changes User's signature and makes the processor
        # loops indirect. The minimizer then proves Pop3Processor.run's
        # baked User.username offset stable (the changed field occupies
        # the last flattened slot) so it escapes; SMTPSender.run touches
        # the changed accessors and stays restricted.
        prepared = driver.prepare_pair("1.3.1", "1.3.2")
        spec = prepared.spec
        assert "User" in spec.class_updates
        assert "EmailAddress" in spec.added_classes
        indirect_names = {key[0] + "." + key[1] for key in spec.indirect_methods}
        assert "SMTPSender.run" in indirect_names
        escaped_names = {key[0] + "." + key[1] for key in spec.escaped_indirect}
        assert "Pop3Processor.run" in escaped_names
        assert not spec.method_body_only()
