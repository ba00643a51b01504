"""Endurance run: one long-lived server survives its whole update stream.

The experience sweep and the pause sweep boot a *fresh* VM per update;
this harness answers the operational question they cannot: what does a
single server look like after its entire release history is applied
dynamically, in order, under continuous client traffic?  For each
bundled application one VM boots the oldest version and every
consecutive update is submitted against it in sequence with
``bypass="auto"``, so the con-free, method-body-only releases take the
zero-pause immediate-bypass path while the rest acquire a safe point.

Per transition the harness records the apply mode (``bypass`` /
``safepoint``), the suspension pause, the safe-point rounds used, and
the latency percentiles of the client sessions that overlapped the
transition — the numbers that show bypass updates are invisible to
traffic (0.00 ms pause, zero rounds) while safe-point updates pay their
documented pause.

The two §4 aborts (Jetty 5.1.2→5.1.3, JavaEmailServer 1.2.4→1.3) are
rescued here by the in-loop OSR extension: the engine remaps the
blocking loop frames onto the new bodies after the retry budget burns
down, so the long-lived server is updated *in place* — no restart, no
lost listener state.  With ``paper_fidelity`` the rescue is disabled
and they abort the way §4 reports; an operator faced with that verdict
restarts into the new version, and the harness does the same (a fresh
VM boots the target version, flagged ``restarted`` on the row) so the
stream continues on the registry's release ladder and the later
bypass-eligible updates are measured against their true predecessors.

The ``repro report`` row is :func:`endurance_figure`
(``BENCH_endurance.json``, one row per transition).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List

from ..apps.registry import (
    APPS,
    expected_bypass_eligible,
    expected_osr_rescued,
    update_pairs,
)
from ..apps.sessions import open_session
from ..net.loadgen import FAILURE_PROTOCOL
from ..obs.metrics import nearest_rank
from ..vm.vm import VM
from .updates import AppDriver, Figure, harness_policy, json_figure

#: traffic shape around each transition (simulated ms)
_SESSION_INTERVAL_MS = 90.0
_REQUEST_LEAD_MS = 300.0
_WINDOW_MS = 1_200.0
_SETTLE_MS = 3_300.0
#: per-round DSU safe-point window for non-bypass updates
_TIMEOUT_MS = 1_000.0


@dataclass
class TransitionRow:
    """One dynamic update applied to the long-lived server."""

    app: str
    from_version: str
    to_version: str
    status: str
    #: how the update went through: ``bypass`` (immediate, no safe point)
    #: or ``safepoint`` (classic suspend-and-update)
    mode: str
    #: the static con-freeness verdict recorded by the engine
    bc_verdict: str
    pause_ms: float
    #: safe-point acquisition rounds used (0 for bypass: none acquired)
    safepoint_rounds: int
    #: in-flight frames still on the old code at bypass-install time
    stale_frames: int
    objects_transformed: int
    #: abort attribution (``""`` when applied)
    abort_why: str = ""
    #: True when the abort forced an operator-style restart onto
    #: ``to_version`` (fresh VM) so the stream could continue
    restarted: bool = False
    #: True when the in-loop OSR rescue remapped blocking loop frames to
    #: land this update (the server was updated in place, no restart)
    osr_rescued: bool = False
    #: True when the run disabled the rescue (``paper_fidelity``)
    paper_fidelity: bool = False
    sessions_completed: int = 0
    sessions_failed: int = 0
    #: failure kinds of the failed sessions (a protocol mismatch is a problem)
    session_failure_kinds: List[str] = field(default_factory=list)
    latency_p50_ms: float = 0.0
    latency_p95_ms: float = 0.0
    latency_p99_ms: float = 0.0
    latency_samples: int = 0

    def problems(self) -> List[str]:
        """The invariants ``BENCH_endurance.json`` gates on."""
        problems = []
        expected = expected_bypass_eligible(
            self.app, self.from_version, self.to_version
        )
        if self.mode == "bypass":
            if self.pause_ms != 0.0:
                problems.append(
                    f"bypass update reports a {self.pause_ms:.6f} ms pause "
                    f"(must be exactly 0.0)"
                )
            if self.safepoint_rounds != 0:
                problems.append(
                    f"bypass update used {self.safepoint_rounds} safe-point "
                    f"round(s) (must be 0)"
                )
            if not expected:
                problems.append(
                    "took the bypass path, but the registry does not record "
                    "this pair as bypass-eligible"
                )
        elif expected:
            problems.append(
                f"registry records this pair bypass-eligible, but it went "
                f"through as {self.mode}/{self.status}"
            )
        rescue_expected = expected_osr_rescued(
            self.app, self.from_version, self.to_version
        )
        if self.osr_rescued and not rescue_expected:
            problems.append(
                "took the in-loop OSR rescue path, but the registry does "
                "not record this pair as OSR-rescued (the rescued surface "
                "drifted)"
            )
        elif rescue_expected and not self.paper_fidelity and not self.osr_rescued:
            problems.append(
                f"registry records this pair as rescued by in-loop OSR, "
                f"but it went through as {self.mode}/{self.status}"
            )
        elif rescue_expected and self.paper_fidelity and self.status != "aborted":
            problems.append(
                f"paper-fidelity mode must reproduce the §4 abort for this "
                f"pair, but it went through as {self.mode}/{self.status}"
            )
        if FAILURE_PROTOCOL in self.session_failure_kinds:
            problems.append(
                "a client session hit a protocol mismatch during the "
                "transition (traffic observed a half-installed update)"
            )
        return problems


def transition_traffic(vm: VM, app: str, start_ms: float) -> list:
    """Continuous client sessions covering one transition window."""
    sessions = []
    at = start_ms
    while at < start_ms + _WINDOW_MS:
        index = len(sessions)
        sessions.append(open_session(
            vm, app, index, at,
            text=f"endurance ping {index}", name="endurance",
        ))
        at += _SESSION_INTERVAL_MS
    return sessions


def _latencies(sessions) -> List[float]:
    values: List[float] = []
    for session in sessions:
        per_request = getattr(session, "latencies_ms", None)
        if per_request:
            values.extend(per_request)
            continue
        duration = getattr(session, "duration_ms", None)
        if duration is not None:
            values.append(duration)
    return values


def run_endurance(app: str, paper_fidelity: bool = False) -> List[TransitionRow]:
    """Walk one application's full update stream on a single server.

    ``paper_fidelity=True`` disables the in-loop OSR rescue: the two §4
    aborts abort, and the harness restarts onto the target release."""
    policy = harness_policy(
        _TIMEOUT_MS, bypass="auto",
        inloop_osr="off" if paper_fidelity else "auto",
    )
    pairs = update_pairs(app)
    driver = AppDriver.for_app(app).boot(pairs[0][0])
    rows: List[TransitionRow] = []
    for from_version, to_version in pairs:
        assert driver.current_version == from_version
        now = driver.vm.clock.now_ms
        sessions = transition_traffic(driver.vm, app, now + 40.0)
        holder = driver.request_update_at(
            now + _REQUEST_LEAD_MS, to_version, policy
        )
        driver.run(until_ms=now + _WINDOW_MS + _SETTLE_MS)
        result = holder["result"]
        if result.succeeded:
            driver.current_version = to_version

        latencies = sorted(_latencies(sessions))
        p50, p95, p99 = (
            round(nearest_rank(latencies, fraction), 3) if latencies else 0.0
            for fraction in (0.50, 0.95, 0.99)
        )
        failed = [s for s in sessions if s.failed]
        row = TransitionRow(
            app=app,
            from_version=from_version,
            to_version=to_version,
            status=result.status,
            mode=("bypass" if result.bypassed
                  else "inloop-osr" if result.osr_rescued
                  else "safepoint"),
            bc_verdict=result.bc_verdict,
            pause_ms=result.total_pause_ms if result.succeeded else 0.0,
            safepoint_rounds=(0 if result.bypassed
                              else result.retry_rounds + 1),
            stale_frames=result.bypass_stale_frames,
            objects_transformed=result.objects_transformed,
            abort_why=("" if result.succeeded else
                       f"{result.failed_phase}/{result.reason_code}"),
            osr_rescued=result.osr_rescued,
            paper_fidelity=paper_fidelity,
            sessions_completed=sum(1 for s in sessions if s.succeeded),
            sessions_failed=len(failed),
            session_failure_kinds=sorted({s.failed.kind for s in failed}),
            latency_p50_ms=p50,
            latency_p95_ms=p95,
            latency_p99_ms=p99,
            latency_samples=len(latencies),
        )
        if not result.succeeded:
            # The operator's move after a genuine abort: restart onto the
            # target release so the stream stays on the registry ladder.
            driver = AppDriver.for_app(app).boot(to_version)
            row.restarted = True
        rows.append(row)
    return rows


def endurance_report(rows: List[TransitionRow]) -> dict:
    """The ``BENCH_endurance.json`` payload."""
    return {
        "benchmark": "endurance",
        "clock": "simulated",
        "transitions": [asdict(row) for row in rows],
        "bypassed": sum(1 for row in rows if row.mode == "bypass"),
        "osr_rescued": sum(1 for row in rows if row.osr_rescued),
        "problems": {
            f"{row.app} {row.from_version}->{row.to_version}": problems
            for row in rows
            if (problems := row.problems())
        },
    }


def endurance_figure() -> Figure:
    """``BENCH_endurance.json``: one long-lived server per bundled app
    survives its entire update stream under continuous traffic, with
    ``bypass="auto"``.

    Its problems fail ``repro report`` if any bypass transition reports a
    nonzero suspension pause or uses a safe-point round, if the set of
    bypassed transitions differs from the registry's bypass-eligible set,
    if any client session hits a protocol mismatch mid-transition, or if
    the paper's two aborts are not rescued in place (no restart rows;
    ``EXPECTED_OSR_RESCUED`` drift fails)."""
    return json_figure(endurance_report(
        [row for app in APPS for row in run_endurance(app)]
    ))
