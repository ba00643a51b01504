"""Regenerates the **§4 Experience results** — the paper's headline, plus
this system's in-loop OSR extension:

* 22 updates across Jetty, JavaEmailServer and CrossFTP;
* the paper applies 20 and aborts 2 (Jetty 5.1.3 and JavaEmailServer 1.3,
  whose changed methods sit in infinite loops that never leave the stack);
* the osrmap pass statically proves frame remaps for both abort culprits,
  so with the rescue on (the default) all **22 of 22** land — the two
  historical aborts are remapped in place by in-loop OSR;
* ``--paper-fidelity`` (rescue off) keeps reproducing the paper's 20/2;
* OSR rescues the JavaEmailServer 1.3.2 and 1.3.3 updates;
* CrossFTP 1.07 -> 1.08 applies only when the server is idle;
* a method-body-only system would support far fewer updates (paper: 9).
"""

import pytest

from benchmarks.conftest import emit
from repro.harness.tables import render_experience_table, run_experience_sweep


@pytest.mark.benchmark(group="experience")
def test_experience_sweep(benchmark):
    outcomes = benchmark.pedantic(run_experience_sweep, rounds=1, iterations=1)
    emit("experience_updates", render_experience_table(outcomes))

    assert len(outcomes) == 22
    # With the in-loop OSR rescue on, every update lands.
    assert all(o.result.succeeded for o in outcomes)
    rescued = [o for o in outcomes if o.result.osr_rescued]
    assert {(o.app, o.to_version) for o in rescued} == {
        ("jetty", "5.1.3"),
        ("javaemail", "1.3"),
    }
    assert all(o.result.extended_osr_frames > 0 for o in rescued)
    # Every measured outcome matches the expectation (no MISMATCH notes).
    assert not any("MISMATCH" in o.notes for o in outcomes)
    # OSR used for the two JavaEmailServer updates the paper calls out.
    by_update = {(o.app, o.to_version): o for o in outcomes}
    assert by_update[("javaemail", "1.3.2")].result.used_osr
    assert by_update[("javaemail", "1.3.3")].result.used_osr
    # Method-body-only support is a small fraction (paper: 9 of 22).
    body_only = sum(1 for o in outcomes if o.body_only_supported)
    assert 5 <= body_only <= 10
    # No client session was harmed by any update attempt.
    assert all(o.sessions_failed == 0 for o in outcomes)


@pytest.mark.benchmark(group="experience")
def test_experience_sweep_paper_fidelity(benchmark):
    """Rescue off: the sweep reproduces the paper's §4 numbers exactly."""
    outcomes = benchmark.pedantic(
        run_experience_sweep, kwargs={"paper_fidelity": True},
        rounds=1, iterations=1,
    )
    emit(
        "experience_updates_paper_fidelity",
        render_experience_table(outcomes),
    )

    assert len(outcomes) == 22
    applied = [o for o in outcomes if o.result.succeeded]
    aborted = [o for o in outcomes if not o.result.succeeded]
    assert len(applied) == 20
    assert {(o.app, o.to_version) for o in aborted} == {
        ("jetty", "5.1.3"),
        ("javaemail", "1.3"),
    }
    assert not any(o.result.osr_rescued for o in outcomes)
    assert not any("MISMATCH" in o.notes for o in outcomes)


@pytest.mark.benchmark(group="experience")
def test_crossftp_108_requires_idle(benchmark):
    """The §4.4 observation, measured both ways: under a persistent session
    the update times out; when idle it applies. The in-loop rescue does not
    change this — RequestHandler.run blocks in *session* natives, which
    drain on their own, so it is not an osrmap target."""
    from repro.harness.updates import AppDriver, harness_policy
    from repro.net.ftpclient import long_session_script
    from repro.net.loadgen import ScriptedSession

    def run_busy():
        driver = AppDriver.for_app("crossftp").boot("1.07")
        session = ScriptedSession(
            driver.vm, 2121, long_session_script(noops=400), poll_ms=5.0,
            timeout_ms=30_000,
        ).start(20)
        holder = driver.request_update_at(100, "1.08", harness_policy(700))
        driver.run(until_ms=4_000)
        return holder["result"]

    busy_result = benchmark.pedantic(run_busy, rounds=1, iterations=1)
    assert busy_result.status == "aborted"
    assert "RequestHandler.run()V" in busy_result.blockers_seen
