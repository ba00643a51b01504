"""The Jvolve update engine.

Coordinates the whole dynamic update (paper §3):

1. The user signals the VM with a :class:`~repro.dsu.upt.PreparedUpdate`.
2. The engine raises the yield flag; threads stop at VM safe points.
3. At each world-stop it checks for a DSU safe point (no restricted method
   on any stack). If blocked, it installs return barriers on the topmost
   restricted frames and waits; a configurable timeout (15 s in the paper)
   aborts the update.
4. At a DSU safe point it installs the modified classes — renaming old
   versions (``v131_User``), reusing persistent method entries, building
   fresh TIBs and JTOC slots, invalidating replaced machine code — then
   OSR-replaces base-compiled category-(2) frames.
5. It runs a whole-heap GC with the update map, then executes class
   transformers and object transformers over the update log, with support
   for recursive forced transformation and cycle detection (§3.4).

Steps 4-5 are one transaction driver (:meth:`UpdateEngine._run_transaction`)
over an ordered :class:`Phase` list; the four apply modes — eager, lazy,
in-loop OSR rescue, bypass — are the rows of :data:`UPDATE_MODES`, not
separate code paths (table: docs/INTERNALS.md, "Update transactions").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from ..obs import Tracer
from ..vm.classloader import ClassLoadError
from ..vm.gc import GCStats
from ..vm.heap import HEAP_BASE, HeapPreflightError, OutOfMemoryError
from ..vm.machinecode import CompiledMethod, MethodEntry
from ..vm.osr import OSRError, osr_replace_all, osr_replace_mapped
from ..vm.rvmclass import RVMClass
from .faults import FaultInjector, InjectedFault, VMCrash
from .install import install_bodies, install_classes, retire_old_version
from .lazy import LazyEpoch
from .policy import UpdatePolicy
from .safepoint import (
    RestrictedSets,
    StackScan,
    install_return_barriers,
    resolve_restricted,
    scan_stacks,
)
from .specification import (
    PHASE_CLASSLOAD,
    PHASE_CLEANUP,
    PHASE_GC,
    PHASE_OSR,
    PHASE_PREFLIGHT,
    PHASE_SAFEPOINT,
    PHASE_TRANSFORM,
    REASON_BLACKLISTED,
    REASON_CLASSLOAD_FAILED,
    REASON_HEAP_PREFLIGHT,
    REASON_INTERNAL_ERROR,
    REASON_LINT_REJECTED,
    REASON_NOT_CON_FREE,
    REASON_OOM,
    REASON_OSR_FAILED,
    REASON_TIMEOUT,
    REASON_TRANSFORMER_CYCLE,
    REASON_TRANSFORMER_ERROR,
)
from .transaction import SCOPE_CODE_ONLY, SCOPE_FULL, UpdateTransaction
from .upt import TRANSFORMERS_CLASS, PreparedUpdate

if TYPE_CHECKING:  # pragma: no cover
    from ..vm.vm import VM

APPLIED = "applied"
ABORTED = "aborted"
PENDING = "pending"

#: the four apply modes — keys of :data:`UPDATE_MODES`
MODE_EAGER = "eager"
MODE_LAZY = "lazy"
MODE_OSR_RESCUE = "inloop-osr"
MODE_BYPASS = "bypass"


class TransformerCycleError(Exception):
    """Recursive object transformation revisited an in-progress object."""


#: a default object transformer as ``(old cell offset, new cell offset)``
#: copies
CopyPlan = Tuple[Tuple[int, int], ...]


def field_copy_plan(code: CompiledMethod) -> Optional[CopyPlan]:
    """The copies a compiled ``jvolveObject(to, from)`` body performs, when
    the body has exactly the UPT default shape — n x ``LOAD 0; LOAD 1;
    GETFIELD s; PUTFIELD d``, then ``RETURN`` — else ``None``. Such a body
    is straight-line and its only effect is ``to[d] = from[s]`` per field,
    so running the copies is equivalent to interpreting it. Any other body
    (custom overrides, helpers, ``Sys.forceTransform``, constants, statics)
    must be interpreted."""
    instructions = code.instructions
    if len(instructions) % 4 != 1 or instructions[-1].op != "RETURN":
        return None
    plan = []
    for pc in range(0, len(instructions) - 1, 4):
        load_to, load_from, get, put = instructions[pc:pc + 4]
        if (load_to.op != "LOAD" or load_to.a != 0
                or load_from.op != "LOAD" or load_from.a != 1
                or get.op != "GETFIELD" or put.op != "PUTFIELD"):
            return None
        plan.append((get.a, put.a))
    return tuple(plan)


def _classify_failure(
    current_phase: str, failure: Exception
) -> Tuple[str, str, str]:
    """Map an exception caught by :meth:`UpdateEngine._run_transaction`
    onto the ``(failed_phase, reason_code, human message)`` taxonomy."""
    if isinstance(failure, InjectedFault):
        return failure.phase, failure.reason_code, str(failure)
    if isinstance(failure, TransformerCycleError):
        return PHASE_TRANSFORM, REASON_TRANSFORMER_CYCLE, str(failure)
    if isinstance(failure, OSRError):
        return PHASE_OSR, REASON_OSR_FAILED, f"OSR failed: {failure}"
    if isinstance(failure, HeapPreflightError):
        return (
            PHASE_GC,
            REASON_HEAP_PREFLIGHT,
            f"update collection refused at pre-flight: the double copy of "
            f"updated objects needs an estimated {failure.needed_cells} "
            f"to-space cells but only {failure.available_cells} are "
            f"available; re-run with a heap of at least "
            f"{failure.suggested_heap_cells} cells (--heap-cells) or allow "
            f"in-place growth (--dsu-heap-grow)",
        )
    if isinstance(failure, (MemoryError, OutOfMemoryError)):
        if current_phase == PHASE_GC:
            message = (
                f"heap exhausted during the update collection ({failure}); "
                "the double copy of updated objects needs more headroom"
            )
        else:
            message = f"heap exhausted during {current_phase} ({failure})"
        return current_phase, REASON_OOM, message
    if isinstance(failure, ClassLoadError):
        return (
            PHASE_CLASSLOAD,
            REASON_CLASSLOAD_FAILED,
            f"class installation failed: {failure}",
        )
    if current_phase == PHASE_TRANSFORM:
        return (
            PHASE_TRANSFORM,
            REASON_TRANSFORMER_ERROR,
            f"transformer raised {type(failure).__name__}: {failure}",
        )
    if current_phase == PHASE_CLASSLOAD:
        return (
            PHASE_CLASSLOAD,
            REASON_CLASSLOAD_FAILED,
            f"class installation failed: "
            f"{type(failure).__name__}: {failure}",
        )
    return (
        current_phase,
        REASON_INTERNAL_ERROR,
        f"internal update failure in {current_phase}: "
        f"{type(failure).__name__}: {failure}",
    )


@dataclass
class UpdateResult:
    """Everything observable about one update attempt."""

    old_version: str
    new_version: str
    status: str = PENDING
    reason: str = ""
    #: which update phase the abort happened in (``""`` while pending or
    #: after success) — one of :data:`repro.dsu.specification.UPDATE_PHASES`
    failed_phase: str = ""
    #: machine-readable abort category — one of
    #: :data:`repro.dsu.specification.ABORT_REASONS`
    reason_code: str = ""
    #: True when the abort restored pre-update state via the transaction
    #: snapshot (aborts before installation are side-effect-free and do not
    #: need a rollback)
    rolled_back: bool = False
    #: safe-point acquisition rounds actually entered beyond the first
    retry_rounds: int = 0
    #: total rounds the retry policy allowed (1 = no retries)
    rounds_allowed: int = 1
    #: log lines from the fault injector, when one fired during this attempt
    injected_faults: List[str] = field(default_factory=list)
    #: number of world-stops at which a safe point was checked
    attempts: int = 0
    used_return_barriers: bool = False
    return_barriers_installed: int = 0
    used_osr: bool = False
    osr_frames: int = 0
    #: frames of *changed* methods replaced via state mappings (the §3.5
    #: extended-OSR extension) — user-supplied or analyzer-derived
    extended_osr_frames: int = 0
    #: True when the update landed through the last-resort in-loop OSR
    #: rescue: the retry budget burned down, but every blocking loop frame
    #: had a statically verified remap plan and was replaced in place
    osr_rescued: bool = False
    #: number of in-loop remap plans the osrmap pre-flight verified
    #: (``UpdatePolicy.inloop_osr="auto"`` only)
    osr_plans_verified: int = 0
    #: OM refusal codes from the osrmap pre-flight, one per unplannable
    #: blocking method
    osr_plans_refused: List[str] = field(default_factory=list)
    blockers_seen: Set[str] = field(default_factory=set)
    #: ``dsu-lint`` pre-flight summary, when ``UpdatePolicy.lint`` ran
    #: the analyzer: error/warning counts and the predicted
    #: ``"phase/reason"`` abort attribution ("" = predicted to land)
    lint_errors: int = 0
    lint_warnings: int = 0
    lint_predicted_abort: str = ""
    #: True when the update applied via the zero-pause immediate-bypass
    #: mode: new bodies installed under version tagging, no safe-point
    #: acquisition, no suspension, no update GC
    bypassed: bool = False
    #: in-flight frames still executing old-version code the moment the
    #: bypass install finished (they drain naturally; see the
    #: ``dsu.bypass.drained`` trace instant)
    bypass_stale_frames: int = 0
    #: the static con-freeness verdict string ("bypass-eligible" /
    #: "requires-safepoint") when ``UpdatePolicy.bypass`` was consulted
    bc_verdict: str = ""
    #: pause breakdown in simulated ms: suspend/classload/osr/gc/transform
    phase_ms: Dict[str, float] = field(default_factory=dict)
    objects_transformed: int = 0
    classes_installed: int = 0
    #: ``"eager"`` or ``"lazy"`` for safe-point applies (the requested
    #: :attr:`UpdatePolicy.transform` mode); ``""`` for bypass applies and
    #: pre-install aborts. Lazy applies defer the update collection and the
    #: object transformers out of the pause into an epoch drained by the
    #: read barrier and the idle-time sweep.
    transform_mode: str = ""
    #: upper bound on changed-class objects left untransformed behind the
    #: lazy epoch's read barrier at apply time (0 for eager applies)
    lazy_pending_upper: int = 0
    requested_at_ms: float = 0.0
    finished_at_ms: float = 0.0
    #: retained pre-update snapshot (``UpdatePolicy.hold_transaction``):
    #: the update applied, but the caller may still
    #: :meth:`UpdateEngine.rollback_applied` during a verification window.
    #: ``None`` once committed, rolled back, or when not requested.
    transaction: Optional[UpdateTransaction] = field(
        default=None, repr=False, compare=False
    )
    #: the lazy epoch retained alongside a held transaction so
    #: :meth:`UpdateEngine.rollback_applied` can zero its forwarding words
    #: exactly; ``None`` once committed, rolled back, or for eager applies
    lazy_epoch: Optional[LazyEpoch] = field(
        default=None, repr=False, compare=False
    )

    @property
    def total_pause_ms(self) -> float:
        return sum(self.phase_ms.values())

    @property
    def safepoint_wait_ms(self) -> float:
        """Simulated ms between the request and the pause starting: the
        time spent waiting for a DSU safe point (the paper's dominant
        disruption for blocked updates). For an aborted attempt this is
        everything up to the abort minus any pause work done."""
        if self.finished_at_ms <= self.requested_at_ms:
            return 0.0
        return max(
            0.0,
            self.finished_at_ms - self.requested_at_ms - self.total_pause_ms,
        )

    @property
    def succeeded(self) -> bool:
        return self.status == APPLIED


@dataclass
class UpdateRequest:
    """One dynamic-update submission — the :mod:`repro.api` unit of work.

    The *what* is the :class:`~repro.dsu.upt.PreparedUpdate`; the *how* is
    a single typed :class:`~repro.dsu.policy.UpdatePolicy` (retry budget,
    lint/bypass/in-loop-OSR modes, eager vs lazy transformation, held
    verification windows, heap growth) — see its presets
    ``UpdatePolicy.paper()`` / ``.fast()`` / ``.safe()``.
    """

    prepared: PreparedUpdate
    #: how to apply the update (default: ``UpdatePolicy.paper()``)
    policy: UpdatePolicy = field(default_factory=UpdatePolicy)
    #: optional tracer override: when set, the VM's tracer is replaced so
    #: the whole update (and everything the VM does around it) lands in
    #: this trace instead of the default per-VM one
    tracer: Optional[Tracer] = None


@dataclass(frozen=True)
class Phase:
    """One step of the update transaction, as the driver sees it."""

    #: ``UpdateResult.phase_ms`` key (``None``: not part of the pause)
    key: Optional[str]
    #: engine span around the step (``None``: the collector emits its own)
    span: Optional[str]
    #: the plain :class:`UpdateEngine` method: ``run(engine, active, span)``
    run: Callable[["UpdateEngine", "_ActiveUpdate", object], None]
    #: abort attribution when the exception type does not decide it
    failure_phase: str
    #: the :class:`FaultInjector` hooks consulted inside the step
    faults: Tuple[str, ...] = ()


class _ActiveUpdate:
    """Everything one in-flight update carries from submit to its end."""

    def __init__(self, prepared: PreparedUpdate, policy: UpdatePolicy,
                 result: UpdateResult, update_span):
        self.prepared = prepared
        self.policy = policy
        self.result = result
        #: trace spans open for the whole update / the current round
        self.update_span = update_span
        self.round_span = None
        #: restricted method sets, resolved once pre-flight has passed
        self.sets: Optional[RestrictedSets] = None
        #: current safe-point acquisition round (0-based)
        self.round = 0
        self.round_deadline_ms = 0.0
        #: verified in-loop OSR plans (method key -> ActiveMethodMapping),
        #: computed statically at submit time when ``inloop_osr="auto"``;
        #: consulted only by the last-resort rescue after the final round
        self.rescue_mappings: Dict[tuple, "ActiveMethodMapping"] = {}
        # -- transaction state, filled in by the phases ----------------
        self.txn: Optional[UpdateTransaction] = None
        #: the stack scan that found the world safe (``None`` for bypass)
        self.scan: Optional[StackScan] = None
        self.update_map: Dict[int, RVMClass] = {}
        self.renamed: List[RVMClass] = []
        #: the update collection's result; stays empty when it is skipped
        #: (no layout change), deferred (lazy) or never needed (bypass)
        self.gc_stats = GCStats()


class UpdateEngine:
    """Drives dynamic updates on one VM."""

    def __init__(
        self,
        vm: "VM",
        eager_old_copy_reclaim: bool = False,
        fault_injector: Optional[FaultInjector] = None,
    ):
        self.vm = vm
        #: §3.4 optimization: segregate old copies in a special region and
        #: reclaim them the moment the transformers finish, instead of
        #: waiting for the next collection
        self.eager_old_copy_reclaim = eager_old_copy_reclaim
        #: optional :class:`repro.dsu.faults.FaultInjector` exercising the
        #: abort paths; None in production
        self.fault_injector = fault_injector
        self.active: Optional[_ActiveUpdate] = None
        self.history: List[UpdateResult] = []
        #: the applied result whose ``hold_transaction`` window is open
        self._held: Optional[UpdateResult] = None
        self._transform_in_progress: Set[int] = set()
        #: per new class of the update being transformed: its
        #: ``jvolveObject`` entry, the compiled code the copy plan was read
        #: from, and the plan (``None``: interpret the body)
        self._object_transformers: Dict[
            RVMClass, Tuple[Optional[MethodEntry], Optional[CompiledMethod],
                            Optional[CopyPlan]]
        ] = {}
        #: old-version frames still in flight after the latest bypass
        #: install; decremented by the interpreter's retirement hook
        self._bypass_stale_outstanding = 0
        self._lazy_epoch: Optional[LazyEpoch] = None
        vm.on_world_stopped = self._world_stopped
        vm.return_barrier_hook = self._barrier_hit
        vm.stale_frame_retired_hook = self._stale_frame_retired

    @property
    def lazy_epoch(self) -> Optional[LazyEpoch]:
        """The open lazy-transformation epoch, when the last applied update
        used ``transform="lazy"`` and objects are still pending behind the
        read barrier; ``None`` once the sweep drains it (or a held-window
        rollback discards it)."""
        epoch = self._lazy_epoch
        return epoch if epoch is not None and epoch.armed else None

    # ------------------------------------------------------------------
    # public API

    def submit(self, request: UpdateRequest) -> UpdateResult:
        """Signal the VM that an update is available (paper step 2). The
        returned result object is filled in as the update progresses.

        ``request.policy`` shapes the attempt: static pre-flight first
        (:meth:`_preflight` — a refused or bypass-eligible update ends
        right here, synchronously), then safe-point acquisition on
        ``policy.retry``: the first round waits ``timeout_ms``; each
        further round multiplies the previous round's window by
        ``backoff`` before the final abort.

        The whole attempt is traced: a top-level ``dsu.update`` span opens
        here and closes when the update lands or aborts, with one child
        span per safe-point acquisition round and per update phase.
        """
        if self.active is not None:
            raise RuntimeError("an update is already in progress")
        if self._held is not None:
            # rollback_applied(held) would silently discard this update.
            raise RuntimeError(
                "an update is already in progress: its hold_transaction "
                "window is open (commit_applied or rollback_applied first)"
            )
        prepared = request.prepared
        policy = request.policy
        vm = self.vm
        if request.tracer is not None:
            vm.tracer = request.tracer
        vm.metrics.inc("dsu.updates_requested")
        result = UpdateResult(prepared.old_version, prepared.new_version)
        result.requested_at_ms = vm.clock.now_ms
        result.rounds_allowed = policy.retry.rounds
        update_span = vm.tracer.begin(
            "dsu.update", "dsu",
            old_version=prepared.old_version,
            new_version=prepared.new_version,
        )
        if self.lazy_epoch is not None:
            # At most one epoch at a time: overlapping update maps would
            # make the barrier ambiguous. Drain the previous one fully —
            # under this update's span and request stamp, so the O(heap)
            # drain is charged to the update that forced it.
            self.drain_lazy_epoch()
        active = self.active = _ActiveUpdate(prepared, policy, result,
                                             update_span)
        self.history.append(result)
        if self._preflight(active):
            self._signal_vm(active)
        return result

    def _preflight(self, active: _ActiveUpdate) -> bool:
        """Static pre-flight: one :func:`repro.analysis.analyze_update`
        pass when any of ``lint``, ``bypass`` or ``inloop_osr`` is on, none
        when all three are off. ``lint="warn"`` records its findings,
        ``"strict"`` refuses an update with errors instead of burning the
        retry budget on the same blocker. ``bypass`` reads the
        con-freeness verdict (:mod:`repro.analysis.confree`): an eligible
        update is applied right here with zero pause. ``inloop_osr="auto"``
        keeps the rescue plans. Returns True when the update must go on to
        acquire a DSU safe point, False when it already ended."""
        policy = active.policy
        if policy.lint == policy.bypass == policy.inloop_osr == "off":
            return True
        from ..analysis import analyze_update

        vm = self.vm
        tracer = vm.tracer
        result = active.result
        with tracer.span("dsu.preflight.lint", "dsu", mode=policy.lint,
                         bypass=policy.bypass) as span:
            report = analyze_update(
                dict(vm.classfiles), active.prepared,
                inloop_osr=policy.inloop_osr == "auto",
            )
            osr_report = report.osr_plans
            if osr_report is not None:
                span.args.update(
                    targets=len(osr_report.targets),
                    plans=len(osr_report.plans),
                    refused=len(osr_report.refusals),
                )
        if policy.lint != "off":
            result.lint_errors = len(report.errors())
            result.lint_warnings = len(report.warnings())
            result.lint_predicted_abort = report.predicted_abort
            if policy.lint == "strict" and report.has_errors:
                self._abort(
                    active, PHASE_PREFLIGHT, REASON_LINT_REJECTED,
                    f"dsu-lint: {result.lint_errors} error(s); "
                    f"first: {report.errors()[0]}",
                )
                return False
        if policy.bypass != "off":
            verdict = report.bc_verdict
            result.bc_verdict = verdict.verdict
            if verdict.eligible:
                self._run_transaction(active, MODE_BYPASS)
                return False
            violated = sorted({s.rule for s in verdict.violations()})
            if policy.bypass == "require":
                self._abort(
                    active, PHASE_PREFLIGHT, REASON_NOT_CON_FREE,
                    f"bypass required but the update is not con-free "
                    f"(violated: {', '.join(violated)}); "
                    f"first: {verdict.violations()[0]}",
                )
                return False
            # "auto": fall through to the ordinary safe-point protocol.
            tracer.instant("dsu.bypass.ineligible", "dsu",
                           violated=violated)
        if osr_report is not None:
            # Reported only by updates that go on to the safe point.
            active.rescue_mappings = osr_report.mappings()
            result.osr_plans_verified = len(osr_report.plans)
            result.osr_plans_refused = sorted(
                refusal.code for refusal in osr_report.refusals.values()
            )
        return True

    def _signal_vm(self, active: _ActiveUpdate) -> None:
        """Resolve the restricted sets, then open safe-point round 0."""
        vm = self.vm
        with vm.tracer.span("dsu.resolve-restricted", "dsu") as resolve_span:
            sets = active.sets = resolve_restricted(vm, active.prepared.spec)
            resolve_span.args.update(
                hard=len(sets.hard), recompile=len(sets.recompile)
            )
        vm.metrics.observe(
            "dsu.restricted_set_size", len(sets.hard) + len(sets.recompile)
        )
        self._begin_round(active)

    # ------------------------------------------------------------------
    # held-transaction verification window (canary updates)

    def commit_applied(self, result: UpdateResult) -> None:
        """End a ``hold_transaction`` verification window, keeping the
        new version: discard the retained snapshot and re-enable GC."""
        if result.transaction is None:
            raise ValueError("no held transaction on this result")
        result.transaction = None
        result.lazy_epoch = None
        self._held = None
        self.vm.gc_disabled = False
        self.vm.metrics.inc("dsu.held_txn_committed")

    def rollback_applied(self, result: UpdateResult) -> None:
        """Undo a *successfully applied* update from its retained
        snapshot — the canary regressed during verification.

        The caller must guarantee the world is parked at yield points
        (the fleet controller calls this between scheduler slices) and
        that no GC ran since the apply (the engine pinned
        ``vm.gc_disabled`` for exactly that reason). A lazy epoch rolls
        back exactly: see :meth:`LazyEpoch.rollback`."""
        txn = result.transaction
        if txn is None:
            raise ValueError("no held transaction on this result")
        if result.lazy_epoch is not None:
            result.lazy_epoch.rollback()
            result.lazy_epoch = None
        with self.vm.tracer.span(
            "dsu.canary-rollback", "dsu",
            old_version=result.old_version,
            new_version=result.new_version,
        ):
            txn.rollback()
        result.transaction = None
        self._held = None
        self.vm.gc_disabled = False
        self.vm.update_pending = False
        # Frames now running the rolled-back-from version drain on their
        # own; the outstanding count from the apply no longer means
        # anything.
        self._bypass_stale_outstanding = 0
        self.vm.metrics.inc("dsu.canary_rollbacks")

    def drain_lazy_epoch(self, max_objects: Optional[int] = None) -> int:
        """Synchronously drain the open lazy epoch (fully, or up to
        ``max_objects`` sweep visits). Used before a subsequent update and
        by harnesses measuring total lazy overhead. Returns objects
        transformed; 0 when no epoch is open."""
        epoch = self.lazy_epoch
        if epoch is None:
            return 0
        return epoch.sweep("drain", max_objects=max_objects)

    def _stale_frame_retired(self, thread, frame) -> None:
        """Interpreter callback: a frame whose method body was replaced
        underneath it (version-tagged dispatch) finished on the old code
        and popped."""
        if self._bypass_stale_outstanding <= 0:
            return
        self._bypass_stale_outstanding -= 1
        vm = self.vm
        vm.metrics.inc("dsu.bypass_stale_frames_retired")
        if self._bypass_stale_outstanding == 0:
            vm.tracer.instant("dsu.bypass.drained", "dsu")

    # ------------------------------------------------------------------
    # world-stop protocol

    def _begin_round(self, active: _ActiveUpdate) -> None:
        """Open safe-point acquisition round ``active.round``: arm its
        deadline and raise the yield flag so the next world-stop scans
        the stacks even if no return barrier fires in the meantime."""
        vm = self.vm
        window_ms = active.policy.retry.round_timeout_ms(active.round)
        active.round_deadline_ms = vm.clock.now_ms + window_ms
        active.round_span = vm.tracer.begin(
            "dsu.safepoint.round", "dsu", round=active.round,
            window_ms=window_ms,
        )
        vm.update_pending = True
        vm.yield_flag = True
        round_index = active.round

        def deadline_check() -> None:
            # (a newer round re-arms its own check)
            if self.active is active and active.round == round_index:
                self._round_expired()

        vm.events.schedule(active.round_deadline_ms, deadline_check)

    def _round_expired(self) -> None:
        """The current safe-point round ran out: start the next round with
        a backoff-extended window, or abort if the budget is spent."""
        active = self.active
        assert active is not None
        vm = self.vm
        retry = active.policy.retry
        self._close_round_span(
            active, outcome="expired",
            blockers=sorted(active.result.blockers_seen),
        )
        if active.round + 1 < retry.rounds:
            active.round += 1
            active.result.retry_rounds = active.round
            self._begin_round(active)
            return
        # Last resort before aborting (MODE_OSR_RESCUE): with verified
        # in-loop OSR plans, a re-scan that also treats plan-covered frames
        # as replaceable may find the world safe after all — the spinning
        # loop frames of changed methods get remapped onto the new bodies
        # inside the update transaction (so a later-phase failure still
        # rolls the original frames back exactly).
        if active.rescue_mappings:
            merged = dict(active.rescue_mappings)
            merged.update(active.prepared.active_method_mappings)
            scan = scan_stacks(vm, active.sets, merged)
            if scan.is_safe:
                active.result.osr_rescued = True
                vm.tracer.instant(
                    "dsu.osr.rescue", "dsu",
                    plans=len(active.rescue_mappings),
                    frames=len(scan.extended_osr),
                )
                vm.metrics.inc("dsu.inloop_osr_rescues")
                self._apply(active, scan)
                return
            active.result.blockers_seen.update(scan.blocking_method_names())
        blockers = sorted(active.result.blockers_seen)
        reason_code = REASON_TIMEOUT
        blacklist_names = {
            f"{c}.{n}{d}" for c, n, d in active.prepared.spec.blacklist
        }
        if blockers and set(blockers) <= blacklist_names:
            reason_code = REASON_BLACKLISTED
        self._abort(
            active, PHASE_SAFEPOINT, reason_code,
            f"timeout: no DSU safe point within {retry.rounds} round(s) "
            f"({retry.total_budget_ms():.0f} sim-ms budget); "
            f"blockers: {blockers}",
        )

    def _close_round_span(self, active: _ActiveUpdate, **args) -> None:
        """End the current safe-point-round span, if one is open."""
        if active.round_span is None:
            return
        if not active.round_span.closed:
            self.vm.tracer.end(active.round_span, **args)
        active.round_span = None

    def _world_stopped(self) -> None:
        active = self.active
        if active is None:
            self.vm.update_pending = False
            return
        vm = self.vm
        if vm.clock.now_ms >= active.round_deadline_ms:
            self._round_expired()
            return
        active.result.attempts += 1
        injector = self.fault_injector
        scan_span = vm.tracer.begin(
            "dsu.safepoint.scan", "dsu", attempt=active.result.attempts
        )
        if injector is not None and injector.blocks_safepoint():
            # Injected blocker: behave exactly like a blocked scan with no
            # barrier to install — defer and wait for the round deadline.
            active.result.blockers_seen.add("<injected-safepoint-blocker>")
            active.result.injected_faults = list(injector.fired)
            vm.tracer.end(scan_span, safe=False, injected_blocker=True)
            vm.update_pending = False
            vm.yield_flag = False
            return
        scan = scan_stacks(vm, active.sets, active.prepared.active_method_mappings)
        if scan.is_safe:
            vm.tracer.end(
                scan_span, safe=True,
                osr_candidates=len(scan.osr_candidates),
                extended_osr=len(scan.extended_osr),
            )
            self._close_round_span(active, outcome="acquired",
                                   round=active.round)
            self._apply(active, scan)
            return
        # Per-thread blocking-frame attribution: which method of which
        # thread kept the world from being a DSU safe point this time.
        blocking_by_thread: Dict[str, List[str]] = {}
        for thread, frame, why in scan.blocking:
            blocking_by_thread.setdefault(thread.name, []).append(
                f"{frame.code.entry.qualified_name} ({why})"
            )
        vm.tracer.end(scan_span, safe=False, blocking=blocking_by_thread)
        active.result.blockers_seen.update(scan.blocking_method_names())
        with vm.tracer.span("dsu.safepoint.arm-barriers", "dsu") as arm_span:
            installed = install_return_barriers(scan)
            arm_span.args["installed"] = installed
        if installed:
            active.result.used_return_barriers = True
            active.result.return_barriers_installed += installed
            vm.metrics.inc("dsu.return_barriers_installed", installed)
        # Defer: let threads run so restricted methods can return. The
        # barrier (or the round-deadline event) re-arms the check.
        vm.update_pending = False
        vm.yield_flag = False

    def _barrier_hit(self, thread, frame) -> None:
        if self.active is None:
            return
        # A restricted method returned: retry the update at the next stop.
        self.vm.update_pending = True
        self.vm.yield_flag = True

    def _apply(self, active: _ActiveUpdate, scan: StackScan) -> None:
        """The world is at a DSU safe point: pick the mode. A lazy request
        whose update changes no layout has nothing to defer."""
        active.scan = scan
        if (active.policy.transform == "lazy"
                and active.prepared.spec.class_updates):
            mode = MODE_LAZY
        elif active.result.osr_rescued:
            mode = MODE_OSR_RESCUE
        else:
            mode = MODE_EAGER
        self._run_transaction(active, mode)

    # ------------------------------------------------------------------
    # the one transaction driver

    def _run_transaction(self, active: _ActiveUpdate, mode: str) -> None:
        """Apply the update as one transaction: snapshot at the mode's
        scope, then run the mode's phases in order, each inside its span
        and charged to ``phase_ms`` by the cycles it ticked; *any*
        exception in any phase rolls the snapshot back and aborts with the
        old version intact and running."""
        vm = self.vm
        result = active.result
        scope, phases = UPDATE_MODES[mode]
        # The world is stopped (or, for bypass, never has to): drop the
        # yield flag so synchronous transformer/clinit runs go full speed.
        vm.yield_flag = False
        # A rolled-back attempt never retired its transformer class.
        self._object_transformers.clear()
        txn = active.txn = UpdateTransaction(vm, scope=scope)
        # An allocation-triggered collection inside the critical section
        # (e.g. from a <clinit> or transformer) would move objects under
        # the transaction snapshot; only the controlled update collection
        # may run, so ordinary GC stays disabled throughout.
        gc_was_disabled = vm.gc_disabled
        vm.gc_disabled = True
        try:
            for phase in phases:
                started = vm.clock.cycles
                if phase.span is None:
                    phase.run(self, active, None)
                else:
                    with vm.tracer.span(phase.span, "dsu") as span:
                        phase.run(self, active, span)
                if phase.key is not None:
                    result.phase_ms[phase.key] = (
                        (vm.clock.cycles - started)
                        / vm.clock.costs.cycles_per_ms
                    )
        except VMCrash:
            # A simulated process death gets no graceful abort: the VM is
            # left mid-install, exactly as a real crash would. Whoever owns
            # the process (the fleet controller) handles recovery.
            raise
        except Exception as failure:  # noqa: BLE001 — every failure aborts
            failed_phase, reason_code, message = _classify_failure(
                phase.failure_phase, failure
            )
            with vm.tracer.span("dsu.rollback", "dsu", scope=scope,
                                failed_phase=failed_phase,
                                reason=reason_code):
                txn.rollback()
            vm.metrics.inc("dsu.rollbacks")
            # A rescue only counts if the transaction committed: the
            # rollback just restored every pre-OSR frame, so nothing
            # stayed remapped.
            result.osr_rescued = False
            result.extended_osr_frames = 0
            self._abort(active, failed_phase, reason_code, message,
                        rolled_back=True)
            return
        finally:
            vm.gc_disabled = gc_was_disabled
        self._commit_or_hold(active, mode)

    def _commit_or_hold(self, active: _ActiveUpdate, mode: str) -> None:
        """Every phase succeeded: drop the snapshot — or keep it for the
        caller's verification window — open the lazy epoch, and finish the
        result as :data:`APPLIED`."""
        vm = self.vm
        result = active.result
        txn = active.txn
        hold = active.policy.hold_transaction
        if hold:
            result.transaction = txn
            self._held = result
            # A full snapshot pins the GC until commit_applied() /
            # rollback_applied(): an eager one still references the
            # pre-update heap image, and a lazy rollback truncates the heap
            # to the snapshot bump — both are destroyed by a collection
            # moving objects. A code-only (bypass) snapshot holds no heap
            # addresses, so ordinary GC keeps running while it is held.
            if txn.scope == SCOPE_FULL:
                vm.gc_disabled = True
            vm.metrics.inc("dsu.held_transactions")
        result.objects_transformed = active.gc_stats.objects_updated
        if txn.scope == SCOPE_FULL:
            result.transform_mode = active.policy.transform
            vm.metrics.observe("dsu.objects_transformed",
                               result.objects_transformed)
        if mode == MODE_LAZY:
            epoch = self._lazy_epoch = LazyEpoch(
                vm, active.prepared, dict(active.update_map),
                list(active.renamed),
                run_transformer=self._run_object_transformer,
                retire=self._retire_old_version,
            )
            epoch.open()
            result.lazy_pending_upper = epoch.pending_upper
            if hold:
                result.lazy_epoch = epoch
        pause_ms = float(result.total_pause_ms)  # sum() of no phases is int 0
        vm.metrics.observe("dsu.pause_ms", pause_ms)
        self._finish(
            active, APPLIED, mode=mode, pause_ms=round(pause_ms, 6),
            objects_transformed=result.objects_transformed,
            gc_skipped=not active.update_map,
        )

    def _abort(
        self,
        active: _ActiveUpdate,
        phase: str,
        reason_code: str,
        reason: str,
        rolled_back: bool = False,
    ) -> None:
        """Abandon ``active`` and let the VM resume the old version. Every
        abort funnels through here — pre-flight refusals and safe-point
        timeouts (side-effect-free by construction) and failed transactions
        (already rolled back); none of them halts the VM."""
        result = active.result
        result.reason = reason
        result.failed_phase = phase
        result.reason_code = reason_code
        result.rolled_back = rolled_back
        if self.fault_injector is not None:
            result.injected_faults = list(self.fault_injector.fired)
        # Remove any barriers we installed.
        for thread in self.vm.threads:
            for frame in thread.frames:
                frame.return_barrier = False
        self._transform_in_progress.clear()
        self._close_round_span(active, outcome="aborted")
        self._finish(active, ABORTED, failed_phase=phase,
                     reason=reason_code, rolled_back=rolled_back)

    def _finish(self, active: _ActiveUpdate, status: str, **span_args) -> None:
        """The one exit of every attempt: stamp the result, stand the VM
        down, close the ``dsu.update`` span, count the outcome."""
        vm = self.vm
        result = active.result
        result.status = status
        result.finished_at_ms = vm.clock.now_ms
        vm.update_pending = False
        vm.yield_flag = False
        if not active.update_span.closed:
            vm.tracer.end(active.update_span, status=status, **span_args)
        vm.metrics.inc(f"dsu.updates_{status}")  # ..._applied / ..._aborted
        vm.metrics.observe("dsu.safepoint_wait_ms", result.safepoint_wait_ms)
        self.active = None

    # ------------------------------------------------------------------
    # the phases (rows of UPDATE_MODES select among these)

    def _suspend(self, active: _ActiveUpdate, span) -> None:
        """Thread suspension (already stopped; account the cost)."""
        vm = self.vm
        threads = len(vm.runnable_threads())
        span.args["threads"] = threads
        vm.clock.tick(vm.clock.costs.thread_suspend * max(1, threads))

    def _classload(self, active: _ActiveUpdate, span) -> None:
        """Install modified classes and transformers (§3.3)."""
        install_classes(self.vm, active, self.fault_injector)
        span.args["classes"] = active.result.classes_installed

    def _osr(self, active: _ActiveUpdate, span) -> None:
        """OSR of base-compiled category-(2) frames — after class
        installation, as the paper requires (§3.2) — and extended OSR of
        mapped changed-method frames (§3.5; the in-loop rescue's plan-
        covered loop frames arrive here the same way)."""
        vm = self.vm
        result = active.result
        injector = self.fault_injector
        scan = active.scan
        if scan.osr_candidates:
            if injector is not None:
                injector.on_osr(
                    scan.osr_candidates[0].code.entry.qualified_name
                )
            result.used_osr = True
            result.osr_frames += osr_replace_all(vm, scan.osr_candidates)
        for frame, key in scan.extended_osr:
            # A user-supplied state mapping wins over a rescue plan.
            mapping = (active.prepared.active_method_mappings.get(key)
                       or active.rescue_mappings[key])
            if injector is not None:
                injector.on_osr(frame.code.entry.qualified_name)
            osr_replace_mapped(vm, frame, mapping.pc_map,
                               mapping.locals_map,
                               mapping.compensation)
            result.used_osr = True
            result.extended_osr_frames += 1
        span.args.update(
            frames=result.osr_frames,
            extended_frames=result.extended_osr_frames,
        )

    def _defer_gc(self, active: _ActiveUpdate, span) -> None:
        """Lazy mode: no update collection at the pause. Changed-class
        objects stay in place with their old (renamed) class; the epoch
        opened at commit transforms each on first touch and sweeps the
        rest in idle slices. The pause is therefore independent of heap
        occupancy."""
        vm = self.vm
        vm.tracer.instant("dsu.gc.deferred", "dsu",
                          reason="lazy-transform",
                          pending_classes=len(active.update_map))
        vm.metrics.inc("dsu.gc_deferred")

    def _transform(self, active: _ActiveUpdate, span) -> None:
        """Class transformers, then object transformers (§3.4): replaying
        the update log the collection built is the per-object work (the
        log is empty when the collection was skipped or deferred)."""
        vm = self.vm
        tracer = vm.tracer
        stats = active.gc_stats
        vm.force_transform_hook = self._force_transform
        try:
            with tracer.span("dsu.transform.classes", "dsu"):
                for name in sorted(active.prepared.spec.class_updates):
                    entry = vm.methods.lookup(
                        TRANSFORMERS_CLASS, "jvolveClass", f"(L{name};)V"
                    )
                    if entry is not None:
                        vm.run_static_method_synchronously(entry, [0])
                        vm.metrics.inc("dsu.transformer_invocations")
            with tracer.span("dsu.transform.log-replay", "dsu",
                             log_entries=len(stats.update_log)):
                self._transform_in_progress.clear()
                for old_address, new_address in stats.update_log:
                    self._transform_object(active, old_address, new_address)
            span.args["objects"] = stats.objects_updated
        finally:
            vm.force_transform_hook = None

    def _cleanup(self, active: _ActiveUpdate, span) -> None:
        """Drop the update log, retire old statics, and retire the
        transformer class. The cached old-version pointers are already
        gone: transforming each object zeroed its status word."""
        vm = self.vm
        # "Once it processes all pairs, the log is deleted, making the
        # duplicate old versions unreachable" (§3.4).
        active.gc_stats.update_log.clear()
        self._retire_old_version(active.prepared, active.renamed)
        if self.eager_old_copy_reclaim:
            # The duplicates lived in a segregated region: give it back
            # now rather than waiting for the next collection.
            vm.heap.reset_ceiling()

    def _cleanup_deferred(self, active: _ActiveUpdate, span) -> None:
        """Lazy mode: no update log to drop, and the old statics and the
        transformer class must outlive the last pending object — the
        epoch's close runs :meth:`_retire_old_version`."""

    def _bypass_install(self, active: _ActiveUpdate, span) -> None:
        """Install a bypass-eligible update with zero pause.

        No safe-point acquisition, no thread suspension, no OSR, no update
        GC: the con-freeness verdict proved the update is method-body-only
        and that no in-flight old frame can bind a new body mid-flight, so
        the new bodies are installed under version tagging while the
        application keeps running. Old frames finish on their old
        :class:`~repro.vm.machinecode.CompiledMethod` (frames hold the
        code object, not the entry); every new invocation recompiles from
        the entry's new bytecode. The simulated clock is never ticked —
        the suspension pause is literally 0.00 ms."""
        vm = self.vm
        prepared = active.prepared
        result = active.result
        changed = set(prepared.spec.method_body_updates)
        span.args["methods"] = len(changed)
        install_bodies(vm, prepared, changed)
        for name, classfile in prepared.new_classfiles.items():
            rvmclass = vm.registry.maybe_get(name)
            if rvmclass is not None and not rvmclass.obsolete:
                rvmclass.classfile = classfile
        stale = sum(
            frame.entered_at_version != frame.code.entry.bytecode_version
            for thread in vm.threads
            for frame in thread.frames
        )
        span.args["stale_frames"] = stale
        self._bypass_stale_outstanding = stale
        result.bypassed = True
        result.bypass_stale_frames = stale
        vm.metrics.inc("dsu.updates_bypassed")
        vm.metrics.observe("dsu.bypass_stale_frames", stale)

    def _update_gc(self, active: _ActiveUpdate, span) -> None:
        """The whole-heap collection with the update map — but only when
        the map is non-empty: its sole job at update time is transforming
        objects of changed classes (§3.4), so method-body-only and
        indirect-method updates skip the flip and the copy entirely and
        report a zero GC pause.

        The collection runs behind a to-space sizing estimate. If that
        does not fit, either grow the heap in place
        (``UpdatePolicy.heap_grow``) or raise :class:`HeapPreflightError`
        *before* any object is copied — from-space stays untouched, so the
        abort path has no mid-copy forwarding state to un-flip; §3.5 warns
        the double copy of updated objects "adds temporary memory
        pressure"."""
        vm = self.vm
        if not active.update_map:
            vm.tracer.instant("dsu.gc.skipped", "dsu",
                              reason="empty-transform-map")
            vm.metrics.inc("dsu.gc_skipped")
            return
        injector = self.fault_injector
        preflight = vm.collector.preflight_estimate(active.update_map)
        vm.tracer.instant(
            "dsu.gc.preflight", "dsu",
            needed_cells=preflight.needed_cells,
            available_cells=preflight.available_cells,
            live_cells_upper=preflight.live_cells_upper,
            update_extra_cells=preflight.update_extra_cells,
            updated_instances_upper=preflight.updated_instances_upper,
            fits=preflight.fits,
        )
        if not preflight.fits:
            if not active.policy.heap_grow:
                raise HeapPreflightError(
                    preflight.needed_cells,
                    preflight.available_cells,
                    preflight.suggested_heap_cells,
                )
            self._grow_heap_for_update(active, preflight)
        active.gc_stats = vm.collect(
            update_map=active.update_map,
            separate_old_copies=self.eager_old_copy_reclaim,
            oom_at_copy=(
                injector.gc_oom_threshold() if injector is not None else None
            ),
        )

    def _grow_heap_for_update(self, active: _ActiveUpdate, preflight) -> None:
        """Grow the heap so the estimate fits, preserving rollback-ability.

        ``Heap.grow`` only works with live data in the low semispace. When
        the high space is current, a plain collection evacuates first (it
        always fits — equal semispaces); the new halfway point is then
        pinned past the *old* heap end so the update collection cannot
        scribble over the pre-update from-space image the transaction
        snapshot still points into."""
        vm = self.vm
        heap = vm.heap
        old_size = heap.size
        min_half = 0
        grow_span = vm.tracer.begin("dsu.gc.grow", "dsu", from_cells=old_size)
        try:
            if heap.current_space != 0:
                # The evacuation writes forwarding words into the snapshot's
                # from-space; rollback zeroes them with the rest.
                vm.collect()
                # The evacuation established exact per-class live counts;
                # re-estimate for a tighter growth target. Keep the new
                # halfway point past the old heap end regardless: rollback
                # needs the pre-update image in the old high space intact.
                preflight = vm.collector.preflight_estimate(active.update_map)
                min_half = old_size
            new_half = max(
                preflight.needed_cells + HEAP_BASE,
                min_half,
                heap.size // 2 + 1,
            )
            heap.grow(2 * new_half)
        finally:
            vm.tracer.end(grow_span, to_cells=heap.size,
                          needed_cells=preflight.needed_cells)
        vm.metrics.inc("dsu.heap_grown")
        vm.metrics.observe("dsu.heap_grow_cells", heap.size - old_size)

    # ------------------------------------------------------------------
    # transformers (paper §3.4)

    def _retire_old_version(self, prepared: PreparedUpdate,
                            renamed: List[RVMClass]) -> None:
        """The post-transform cleanup — at the pause for eager applies,
        at epoch close (:class:`LazyEpoch`'s ``retire``) for lazy ones."""
        tag = f"retired{len(self.history)}_{prepared.new_version}"
        retire_old_version(self.vm, prepared, renamed, tag.replace(".", ""))
        self._object_transformers.clear()

    def _run_object_transformer(self, prefix: str, new_class: RVMClass,
                                new_address: int, old_address: int) -> None:
        """Run ``jvolveObject(new, old)`` for one object — the per-object
        work of both the eager log replay and the lazy epoch.

        A body with the UPT default shape (:func:`field_copy_plan`) runs
        as its copies instead of on an interpreter thread, charged exactly
        what interpreting it charges: its ``4n+1`` instructions and, while
        a lazy epoch's barrier is armed, one check per GETFIELD (on
        ``from``: pending and in progress, so the read goes through raw)
        and per PUTFIELD (on ``to``: a new-class object, a no-op)."""
        vm = self.vm
        clock = vm.clock
        costs = clock.costs
        # Reflective dispatch + field-by-field copy cost model (§4.1: "our
        # transformer functions use reflection to look up jvolveObject, and
        # this function copies one field at a time").
        clock.tick(
            costs.transform_dispatch
            + costs.transform_field * len(new_class.field_layout)
        )
        memo = self._object_transformers.get(new_class)
        if memo is None:
            descriptor = f"(L{new_class.name};,L{prefix}{new_class.name};)V"
            memo = self._object_transformers[new_class] = (
                vm.methods.lookup(TRANSFORMERS_CLASS, "jvolveObject",
                                  descriptor),
                None, None,
            )
        entry, planned_code, plan = memo
        if entry is None:
            return
        # Kept for the plan too: the first call's JIT cost and span.
        code = vm.jit.ensure_compiled(entry)
        if code is not planned_code:
            plan = field_copy_plan(code)
            self._object_transformers[new_class] = (entry, code, plan)
        if plan is None:
            vm.run_static_method_synchronously(entry, [new_address, old_address])
        else:
            cells = vm.heap.cells
            for old_offset, new_offset in plan:
                cells[new_address + new_offset] = cells[old_address + old_offset]
            steps = 4 * len(plan) + 1
            vm.interpreter.instructions_executed += steps
            clock.instruction(steps)
            if vm.interpreter.lazy_barrier_armed:
                clock.tick(costs.lazy_barrier_check * 2 * len(plan))
            vm.metrics.inc("dsu.transformer_plan_copies")
        vm.metrics.inc("dsu.transformer_invocations")

    def _transform_object(self, active: _ActiveUpdate, old_address: int,
                          new_address: int) -> None:
        vm = self.vm
        if vm.objects.status(new_address) == 0:
            return  # already transformed
        if new_address in self._transform_in_progress:
            raise TransformerCycleError(
                "recursive object transformation cycle detected "
                "(ill-defined transformer functions, paper §3.4)"
            )
        self._transform_in_progress.add(new_address)
        if self.fault_injector is not None:
            self.fault_injector.on_transform_object(new_address)
        self._run_object_transformer(
            active.prepared.prefix, vm.objects.class_of(new_address),
            new_address, old_address,
        )
        # Mark transformed *before* releasing in-progress status.
        vm.objects.set_status(new_address, 0)
        self._transform_in_progress.discard(new_address)

    def _force_transform(self, address: int) -> None:
        """``Sys.forceTransform(o)``: ensure ``o`` (a new-version object) is
        transformed before the caller dereferences its fields (§3.4)."""
        active = self.active
        if active is None or address == 0:
            return
        # The update collection cached the old copy's address in the new
        # object's status word (§3.4); 0 means not updated, or done.
        old_address = self.vm.objects.status(address)
        if old_address != 0:
            self._transform_object(active, old_address, address)


# ----------------------------------------------------------------------
# the mode table: which phases run, under which transaction scope

_SUSPEND = Phase("suspend", "dsu.suspend", UpdateEngine._suspend,
                 PHASE_CLASSLOAD)
_CLASSLOAD = Phase("classload", "dsu.classload", UpdateEngine._classload,
                   PHASE_CLASSLOAD, ("on_class_installed",))
_OSR = Phase("osr", "dsu.osr", UpdateEngine._osr, PHASE_OSR, ("on_osr",))
_UPDATE_GC = Phase("gc", None, UpdateEngine._update_gc, PHASE_GC,
                   ("gc_oom_threshold",))
_DEFER_GC = Phase("gc", None, UpdateEngine._defer_gc, PHASE_GC)
_TRANSFORM = Phase("transform", "dsu.transform", UpdateEngine._transform,
                   PHASE_TRANSFORM, ("on_transform_object",))
_CLEANUP = Phase("cleanup", "dsu.cleanup", UpdateEngine._cleanup,
                 PHASE_CLEANUP)
_CLEANUP_DEFERRED = Phase("cleanup", "dsu.cleanup",
                          UpdateEngine._cleanup_deferred, PHASE_CLEANUP)
_BYPASS_INSTALL = Phase(None, "dsu.bypass.install",
                        UpdateEngine._bypass_install, PHASE_CLASSLOAD)

_EAGER_PHASES = (_SUSPEND, _CLASSLOAD, _OSR, _UPDATE_GC, _TRANSFORM, _CLEANUP)

#: mode -> (transaction scope, ordered phases). The in-loop OSR rescue is
#: an *acquisition* variant — after the retry budget, a re-scan that counts
#: plan-covered loop frames as replaceable — so its row runs the eager
#: phases (or, with ``transform="lazy"`` and a layout change, the lazy
#: ones) with those frames in the scan's ``extended_osr`` list.
UPDATE_MODES: Dict[str, Tuple[str, Tuple[Phase, ...]]] = {
    MODE_EAGER: (SCOPE_FULL, _EAGER_PHASES),
    MODE_LAZY: (SCOPE_FULL, (_SUSPEND, _CLASSLOAD, _OSR, _DEFER_GC,
                             _TRANSFORM, _CLEANUP_DEFERRED)),
    MODE_OSR_RESCUE: (SCOPE_FULL, _EAGER_PHASES),
    MODE_BYPASS: (SCOPE_CODE_ONLY, (_BYPASS_INSTALL,)),
}
