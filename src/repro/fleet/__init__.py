"""Fleet-scale rolling updates: N simulated VMs behind a load balancer,
updated canary-first with health-gated automatic rollback.

The paper updates one VM; this package scales the mechanism out. A
:class:`FleetController` runs N :class:`FleetMember` VMs in lockstep on
the simulated clock, a :class:`LoadBalancer` routes client sessions to
admitted members, and :meth:`FleetController.rolling_update` drives the
drain → update → verify → readmit state machine with the
:class:`~repro.dsu.engine.UpdateEngine` doing the per-VM work. A regressed
canary is rolled back by updating it back to the old version.
"""

from .balancer import LoadBalancer
from .controller import (
    FAULT_CANARY_REGRESSION,
    FAULT_DRAIN_OVERRUN,
    FAULT_HEALTH_FLAP,
    FAULT_MEMBER_CRASH,
    FAULT_RETRY_EXHAUSTION,
    FleetController,
    MemberRollout,
    RolloutPolicy,
    RolloutReport,
)
from .health import HealthChecker, HealthPolicy, HealthVerdict
from .member import (
    STATE_CRASHED,
    STATE_DRAINING,
    STATE_SERVING,
    STATE_UPDATING,
    STATE_VERIFYING,
    FleetMember,
    SessionRecord,
)

__all__ = [
    "FleetController",
    "FleetMember",
    "HealthChecker",
    "HealthPolicy",
    "HealthVerdict",
    "LoadBalancer",
    "MemberRollout",
    "RolloutPolicy",
    "RolloutReport",
    "SessionRecord",
    "STATE_CRASHED",
    "STATE_DRAINING",
    "STATE_SERVING",
    "STATE_UPDATING",
    "STATE_VERIFYING",
    "FAULT_CANARY_REGRESSION",
    "FAULT_DRAIN_OVERRUN",
    "FAULT_HEALTH_FLAP",
    "FAULT_MEMBER_CRASH",
    "FAULT_RETRY_EXHAUSTION",
]
