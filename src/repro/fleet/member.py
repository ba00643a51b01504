"""One fleet member: a full simulated VM running one application shard.

A :class:`FleetMember` wraps one
:class:`repro.harness.updates.AppDriver` generation — a private VM (heap,
scheduler, network, metrics) booted on one application version, plus the
:class:`~repro.dsu.engine.UpdateEngine` that updates it in place — and
adds the fleet lifecycle: state, crash recovery onto a fresh driver, and
session bookkeeping. The :class:`~repro.fleet.controller.FleetController`
drives all members in lockstep slices of the simulated clock and the
:class:`~repro.fleet.balancer.LoadBalancer` spawns client sessions on the
member's private network.

The driver's compile memo is process-wide, so booting an N-member fleet
compiles each version once, not N times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..apps.sessions import open_session
from ..dsu.engine import UpdateEngine, UpdateRequest, UpdateResult
from ..dsu.faults import FaultInjector, FaultPlan, VMCrash
from ..dsu.policy import UpdatePolicy
from ..dsu.upt import PreparedUpdate
from ..harness.updates import AppDriver
from ..vm.vm import VM

#: member lifecycle states (the rollout state machine's vocabulary)
STATE_SERVING = "serving"
STATE_DRAINING = "draining"
STATE_UPDATING = "updating"
STATE_VERIFYING = "verifying"
STATE_CRASHED = "crashed"

#: failure kind recorded for sessions lost to a member crash
FAILURE_MEMBER_CRASH = "member-crash"

#: client-side timeout of fleet sessions (the harnesses keep the client
#: classes' longer defaults)
SESSION_TIMEOUT_MS = 3_000.0

@dataclass
class SessionRecord:
    """One routed client session plus its fleet-side bookkeeping."""

    session: object
    member: str
    routed_at_ms: float
    #: already folded into the fleet availability/latency stats
    accounted: bool = False
    #: failed because its member was being drained past the deadline —
    #: an operational casualty, not a server regression
    drain_casualty: bool = False
    #: its member's VM crashed before the session could finish
    lost: bool = False
    #: a rollout phase (drain/update/verify) was in progress while it ran
    during_transition: bool = False

    @property
    def done(self) -> bool:
        return self.lost or self.session.done

    @property
    def succeeded(self) -> bool:
        return not self.lost and self.session.succeeded

    @property
    def failure_kind(self) -> str:
        if self.lost:
            return FAILURE_MEMBER_CRASH
        return self.session.failure_kind

    @property
    def duration_ms(self) -> Optional[float]:
        if self.lost:
            return None
        return self.session.duration_ms


class FleetMember:
    """One VM instance in the fleet, addressable by name (``m0``...)."""

    def __init__(self, name: str, app: str, version: str):
        self.name = name
        self.app = app
        self.state = STATE_SERVING
        self.crash: Optional[VMCrash] = None
        #: fleet time before which the balancer must not route here
        #: (post-boot / post-restart warmup)
        self.not_before_ms = 0.0
        #: every session ever routed to this member (including the current
        #: VM generation and any pre-crash generations)
        self.sessions: List[SessionRecord] = []
        self.restarts = 0
        self._boot(version)

    # ------------------------------------------------------------------
    # lifecycle

    def _boot(self, version: str) -> None:
        self.driver = AppDriver.for_app(self.app).boot(version)
        self.vm: VM = self.driver.vm
        self.engine: UpdateEngine = self.driver.engine
        self.state = STATE_SERVING
        self.crash = None

    @property
    def current_version(self) -> Optional[str]:
        return self.driver.current_version

    @current_version.setter
    def current_version(self, version: str) -> None:
        self.driver.current_version = version

    def restart(self, version: str, at_ms: float, warmup_ms: float = 60.0) -> None:
        """Crash recovery: replace the dead VM with a fresh one booted on
        ``version`` (normally the old version — an operational rollback).
        Sessions still open on the dead VM are marked lost."""
        for record in self.in_flight():
            record.lost = True
        self.restarts += 1
        self._boot(version)
        # Align the fresh VM's clock with fleet time; the boot work it
        # still has to do (running main, binding listeners) happens in the
        # upcoming slices, which is what the warmup window covers.
        self.vm.clock.advance_to_ms(at_ms)
        self.not_before_ms = at_ms + warmup_ms

    def run_slice(self, until_ms: float) -> None:
        """Advance this member's VM to ``until_ms`` fleet time. A
        :class:`VMCrash` escaping the scheduler marks the member crashed
        instead of propagating — the controller handles recovery."""
        if self.state == STATE_CRASHED:
            return
        try:
            self.vm.run(until_ms=until_ms)
        except VMCrash as crash:
            self.state = STATE_CRASHED
            self.crash = crash
            return
        # vm.run returns without advancing when fully idle; keep lockstep.
        self.vm.clock.advance_to_ms(until_ms)

    # ------------------------------------------------------------------
    # traffic

    def in_flight(self) -> List[SessionRecord]:
        return [r for r in self.sessions if not r.done]

    def spawn_session(self, at_ms: float) -> SessionRecord:
        """Create one app-appropriate client session on this member's
        private network, starting at ``at_ms``."""
        index = len(self.sessions)
        session = open_session(
            self.vm, self.app, index, at_ms, text=f"fleet ping {index}",
            timeout_ms=SESSION_TIMEOUT_MS, name=self.name,
        )
        record = SessionRecord(session, self.name, at_ms)
        self.sessions.append(record)
        return record

    # ------------------------------------------------------------------
    # updates

    def submit_update(
        self,
        prepared: PreparedUpdate,
        policy: UpdatePolicy,
        fault_plan: Optional[FaultPlan] = None,
    ) -> UpdateResult:
        """Submit one attempt at the rollout's one prepared update to this
        member's engine. The result fills in as the controller's slice loop
        drives the VM."""
        self.engine.fault_injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        request = UpdateRequest(prepared, policy=policy)
        self.state = STATE_UPDATING
        return self.engine.submit(request)
