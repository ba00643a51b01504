"""Shared machinery for the wall-clock benchmark.

Everything here measures the system **from outside**: it times calls into
the public functions of ``repro`` with :func:`time.perf_counter` and reads
the counters the VM already keeps. Nothing under ``src/`` knows this
directory exists.

The pieces:

* :class:`Probe` — the traced run's recorder. It is a ``repro.obs.Tracer``
  handed a duck-typed wall clock, used three ways (see ``README.md``,
  "Traced run"). With tracing off every call is a no-op.
* :func:`timed` — the one way a timed section is entered: host garbage
  collected and frozen first, ``perf_counter`` around the body.
* :class:`Rep` — what one repetition hands back: its samples and the
  simulated counters that must repeat exactly.
* :func:`boot_vm` / :func:`run_paired_rounds` / :func:`rate_ratios` — a
  fresh VM, and the interleaved slices the stock/attached/armed ratios are
  measured on.
* :func:`offline_prepare` / :func:`apply_update` — the two update steps
  every workload shares, so "offline" and "apply" mean the same thing in
  every row of the metric table.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import (
    analyze_update,
    build_call_graph,
    check_reachability,
    check_transformers,
    classify_update,
    compute_closure,
    compute_osr_plans,
)
from repro.api import (
    VM,
    UpdateEngine,
    UpdateRequest,
    compile_prelude,
    compile_source,
    diff_programs,
    prepare_update,
)
from repro.bytecode.verifier import verify_classfiles
from repro.compiler.codegen import ClassCodegen
from repro.lang.parser import parse
from repro.lang.symbols import ProgramSymbols
from repro.lang.typechecker import TypeChecker
from repro.obs import Tracer
from repro.vm.heap import HEAP_BASE

PENDING = "pending"
APPLIED = "applied"

#: simulated ms per ``vm.run`` slice while an update is in flight, and
#: how many slices an update may stay pending before the benchmark gives
#: up on it (the check on its status then fails)
APPLY_SLICE_MS = 50.0
MAX_APPLY_SLICES = 2_000


# ---------------------------------------------------------------------------
# statistics


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation: every reported value is
    one that was measured)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


# ---------------------------------------------------------------------------
# tracing: one Tracer on the host clock


class WallClock:
    """The duck-typed clock a :class:`repro.obs.Tracer` needs: one
    ``now_ms`` attribute, here read from the host's monotonic timer."""

    @property
    def now_ms(self) -> float:
        return time.perf_counter() * 1000.0


class Probe:
    """Span recording for the traced run; inert when ``tracer`` is None.

    The tracer is strictly stack-disciplined, and the engine keeps a
    ``dsu.update`` span open from ``submit`` until the update lands. A
    bench span may therefore wrap a whole apply, or sit entirely inside
    one scheduler call, but must never open inside an update and close
    outside it (or the reverse) — :func:`apply_update` and
    :meth:`run_vm` are written to that rule.
    """

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer

    @property
    def on(self) -> bool:
        return self.tracer is not None

    def span(self, name: str, category: str = "bench", **args):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, category, **args)

    def wrap(self, owner, attribute: str, name: str, category: str) -> None:
        """Instance-level wrapper: ``owner.attribute(...)`` runs inside a
        span. Set on the instance, so the class under test is untouched."""
        if self.tracer is None:
            return
        inner = getattr(owner, attribute)
        tracer = self.tracer

        def traced(*args, **kwargs):
            opened = tracer.begin(name, category)
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.end(opened)

        setattr(owner, attribute, traced)

    def attach_vm(self, vm) -> None:
        """Route one VM's built-in spans (``dsu.*``, ``gc.*``, ``jit.*``,
        ``osr.*``, ``sched.idle``) to the host-clock tracer and wrap the
        two layer entry points that emit none of their own."""
        if self.tracer is None:
            return
        vm.tracer = self.tracer
        self.wrap(vm.interpreter, "run_thread", "vm.interpreter.run_thread",
                  "vm")
        self.wrap(vm.loader, "load", "vm.classloader.load", "vm")

    def run_vm(self, vm, **limits) -> None:
        """``vm.run`` as a ``vm.run`` span. Only for steady sections: no
        update may be pending across the call (see the class docstring)."""
        with self.span("vm.run", "vm"):
            vm.run(**limits)


def new_tracer() -> Tracer:
    return Tracer(WallClock())


def _qualified(span) -> str:
    """Span names the layers need told apart by an argument."""
    if span.name == "gc.collect":
        kind = "update" if span.args.get("update") else "plain"
        return f"gc.collect.{kind}"
    if span.name == "dsu.lazy.sweep":
        return f"dsu.lazy.sweep.{span.args.get('mode', 'idle')}"
    return span.name


class SpanTotals:
    """Per-name totals over a span forest, in host ms. A layer's *self*
    time is its spans' duration minus the part their children cover."""

    def __init__(self) -> None:
        #: every duration by (qualified) name
        self.samples: Dict[str, List[float]] = {}
        self.self_ms: Dict[str, float] = {}
        #: numeric span arguments by ``(name, key)``
        self.args: Dict[tuple, List[float]] = {}
        self.spans = 0
        #: spans whose children cover more than the span itself — a child
        #: escaped its parent, so self time would not account for it
        self.overfull = 0

    def add(self, span) -> float:
        """Fold ``span`` and its subtree in; returns its duration."""
        if span.instant:
            return 0.0
        duration = span.duration_ms
        covered = sum(self.add(child) for child in span.children)
        if covered > duration + 1e-6:
            self.overfull += 1
        name = _qualified(span)
        self.samples.setdefault(name, []).append(duration)
        self.self_ms[name] = self.self_ms.get(name, 0.0) + duration - covered
        for key, value in span.args.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self.args.setdefault((name, key), []).append(value)
        self.spans += 1
        return duration

    def total(self, *names: str) -> float:
        return sum(sum(self.samples.get(name, ())) for name in names)

    def own(self, *names: str) -> float:
        return sum(self.self_ms.get(name, 0.0) for name in names)

    def calls(self, *names: str) -> int:
        return sum(len(self.samples.get(name, ())) for name in names)

    def per_call(self, name: str) -> float:
        return median(self.samples.get(name, ()))

    def arg_sum(self, name: str, key: str) -> float:
        return sum(self.args.get((name, key), ()))

    def arg_median(self, name: str, key: str) -> float:
        return median(self.args.get((name, key), ()))


# ---------------------------------------------------------------------------
# timed sections


class Stopwatch:
    seconds = 0.0


@contextmanager
def timed():
    """A timed section: collect and freeze host garbage first so a host GC
    pass over the VM's object graph is not charged to the code under
    test, then ``perf_counter`` around the body."""
    watch = Stopwatch()
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    try:
        yield watch
    finally:
        watch.seconds = time.perf_counter() - start
        gc.unfreeze()


@contextmanager
def quiet():
    """A short measured step inside an enclosing timed section: the host
    collector is held off for its duration. Otherwise a full collection
    whose threshold was mostly filled by *earlier* allocations lands in
    whichever step trips it — on ``update_stream`` that was a third of the
    apply time and most of its run-to-run noise. The deferred work still
    happens, and is still inside ``wall_s``."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# what one repetition reports


@dataclass
class Rep:
    """Samples from one repetition on fresh VMs."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: human-readable reasons behind ``failed``
    failures: List[str] = field(default_factory=list)
    #: simulated instructions retired in the timed section and the host
    #: seconds they took (``instr_per_s``)
    instructions: int = 0
    instruction_s: float = 0.0
    #: completed ops and the host seconds they took (``requests_per_s``)
    requests: int = 0
    request_s: float = 0.0
    #: paired rate ratios against ``stock`` (one per paired round)
    attached_ratios: List[float] = field(default_factory=list)
    armed_ratios: List[float] = field(default_factory=list)
    #: per update slot (a label that names the same update in every
    #: repetition): host ms of offline preparation (every sample: a
    #: repetition may prepare the same update more than once), host ms of
    #: apply, and heap objects carried ÷ host seconds of apply
    #: (``objects_per_s``)
    offline_ms: Dict[str, List[float]] = field(default_factory=dict)
    apply_ms: Dict[str, float] = field(default_factory=dict)
    object_rates: Dict[str, float] = field(default_factory=dict)
    #: ``UpdateResult.total_pause_ms`` of every update, simulated ms
    pauses_ms: List[float] = field(default_factory=list)
    #: simulated counters that must repeat exactly for a given seed
    sim: Dict[str, float] = field(default_factory=dict)
    #: workload-specific per-layer values for the traced run
    layer: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, reason: str) -> None:
        """Record one pass/fail check as an attempted op."""
        self.attempted += 1
        if not ok:
            self.fail(reason)

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(reason)

    def note_offline(self, slot: str, offline_ms: float) -> None:
        self.offline_ms.setdefault(slot, []).append(offline_ms)

    def note_vm(self, vm) -> None:
        """Fold one finished VM's simulated counters into ``sim``."""
        self.sim["sim.instructions"] = (
            self.sim.get("sim.instructions", 0)
            + vm.interpreter.instructions_executed
        )
        self.sim["sim.cycles"] = (
            self.sim.get("sim.cycles", 0) + vm.clock.cycles
        )
        self.add_layer("vm.classloader.classes", len(vm.classfiles))
        self.add_layer("vm.jit.base_compiles", vm.jit.base_compiles)
        self.add_layer("vm.jit.opt_compiles", vm.jit.opt_compiles)
        self.add_layer("vm.gc.collections", vm.collector.collections)
        counters = vm.metrics.counters
        for layer_name, counter in (
            ("vm.sched.idle_stalls", "sched.idle_stalls"),
            ("dsu.engine.lazy_touch_transforms", "dsu.lazy.touch_transforms"),
            ("dsu.engine.lazy_sweep_transforms", "dsu.lazy.sweep_transforms"),
        ):
            if counter in counters:
                self.add_layer(layer_name, counters[counter].value)

    def add_layer(self, name: str, value: float) -> None:
        self.layer[name] = self.layer.get(name, 0) + value

    def note_result(self, result) -> None:
        """Fold one terminal ``UpdateResult`` into the engine's per-layer
        counts and its simulated phase twins."""
        for phase in ("suspend", "classload", "osr", "gc", "transform",
                      "cleanup"):
            self.add_layer(f"dsu.engine.sim.{phase}_ms",
                           result.phase_ms.get(phase, 0.0))
        self.add_layer("dsu.engine.objects_transformed",
                       result.objects_transformed)
        self.add_layer("dsu.engine.safepoint_rounds",
                       0 if result.bypassed else result.retry_rounds + 1)
        self.add_layer("dsu.engine.osr_frames",
                       result.osr_frames + result.extended_osr_frames)
        self.add_layer("dsu.engine.bypassed", int(result.bypassed))
        self.add_layer("dsu.engine.osr_rescued", int(result.osr_rescued))

    def note_pauses(self) -> None:
        """The simulated pauses; sorted before summing so the order the
        repetition visited its updates in cannot move the last digit."""
        pauses = sorted(self.pauses_ms)
        self.sim["sim.pause_ms_total"] = round(math.fsum(pauses), 9)
        self.sim["sim_pause_ms_p50"] = round(median(pauses), 9)
        self.sim["sim_pause_ms_max"] = round(max(pauses, default=0.0), 9)


@dataclass
class Ctx:
    """What a workload needs to know about this run."""

    seed: int
    quick: bool = False
    #: deliberately wrong reference answers (``test_bench.py`` only)
    plant_failure: bool = False
    probe: Probe = field(default_factory=Probe)
    repetition: int = 0


# ---------------------------------------------------------------------------
# VMs and paired rounds


def boot_vm(probe: Probe, classfiles: dict, main_class: str,
            heap_cells: int, with_engine: bool = False,
            files: Optional[Dict[str, str]] = None):
    """A fresh VM with ``main_class.main`` started; returns ``(vm,
    engine)`` (``engine`` is None without ``with_engine``). ``files`` go
    into the simulated filesystem before boot — the programs' inputs."""
    vm = VM(heap_cells=heap_cells)
    probe.attach_vm(vm)
    vm.filesystem.update(files or {})
    engine = UpdateEngine(vm) if with_engine else None
    with probe.span("vm.boot", "vm"):
        vm.boot(classfiles)
    vm.start_main(main_class)
    return vm, engine


#: per configuration, the ``(instructions, host seconds)`` of every slice
Slices = Dict[str, List[Tuple[int, float]]]


def run_paired_rounds(probe: Probe, vms: Dict[str, object], rounds: int,
                      limit: Callable[[str, int], dict]) -> Slices:
    """``rounds`` paired rounds: in each, every VM runs one slice —
    ``vm.run(**limit(name, round))`` — in an order that alternates (ABC,
    CBA, ...) so no configuration always runs first."""
    names = tuple(vms)
    samples: Slices = {name: [] for name in names}
    for index in range(rounds):
        for name in names if index % 2 == 0 else names[::-1]:
            vm = vms[name]
            before = vm.interpreter.instructions_executed
            start = time.perf_counter()
            probe.run_vm(vm, **limit(name, index))
            elapsed = time.perf_counter() - start
            samples[name].append(
                (vm.interpreter.instructions_executed - before, elapsed)
            )
    return samples


def rate_ratios(samples: Slices, name: str, base: str = "stock",
                rounds: Optional[int] = None) -> List[float]:
    """Per paired round (the first ``rounds`` of them): ``name``'s
    instruction rate ÷ ``base``'s. Rounds in which either VM retired
    nothing (an idle slice) are skipped."""
    return [
        (n / t) / (n0 / t0)
        for (n, t), (n0, t0) in zip(samples[name][:rounds],
                                    samples[base][:rounds])
        if n and n0
    ]


# ---------------------------------------------------------------------------
# the front end, call by call


def compile_traced(probe: Probe, source: str, filename: str,
                   version: str) -> dict:
    """``compile_source`` — or, when tracing, the same pipeline one public
    call at a time with a span around each, plus the verifier the class
    loader would run."""
    if not probe.on:
        return compile_source(source, filename, version=version)
    lines = source.count("\n") + 1
    with probe.span("lang.parse", "lang", lines=lines, version=version):
        program = parse(source, filename)
    with probe.span("lang.symbols", "lang"):
        symbols = ProgramSymbols.build(program)
    with probe.span("lang.typecheck", "lang"):
        checker = TypeChecker(symbols)
        checker.check_program(program)
    with probe.span("compiler.codegen", "compiler") as span:
        codegen = ClassCodegen(symbols, checker, version)
        classfiles = {
            decl.name: codegen.compile_class(decl) for decl in program.classes
        }
        span.args["instructions"] = sum(
            len(method.instructions)
            for classfile in classfiles.values()
            for method in classfile.methods.values()
        )
    with probe.span("bytecode.verify", "bytecode"):
        table = dict(compile_prelude())
        table.update(classfiles)
        verify_classfiles(table)
    return classfiles


# ---------------------------------------------------------------------------
# the two update steps


@dataclass
class Prepared:
    new_classfiles: dict
    prepared: object
    offline_ms: float


def offline_prepare(
    probe: Probe,
    old_classfiles: dict,
    new_source: str,
    old_version: str,
    new_version: str,
    overrides: Optional[dict] = None,
    own_section: bool = False,
) -> Prepared:
    """What a developer does before signalling the VM: compile the new
    release, run the UPT (diff + transformers), lint it. One host-ms
    sample for ``offline_ms_p50``. ``own_section`` makes it a timed
    section of its own (for preparation that happens during set-up);
    otherwise it is a :func:`quiet` step of the caller's section."""
    with timed() if own_section else quiet():
        start = time.perf_counter()
        with probe.span("bench.offline", "bench", update=new_version):
            new_classfiles = compile_traced(
                probe, new_source, f"<{new_version}>", new_version
            )
            with probe.span("dsu.upt.prepare", "dsu"):
                prepared = prepare_update(
                    old_classfiles, new_classfiles, old_version, new_version,
                    transformer_overrides=overrides or None,
                )
            with probe.span("analysis.total", "analysis"):
                analyze_update(old_classfiles, prepared)
        offline_ms = (time.perf_counter() - start) * 1000.0
    if probe.on:
        _trace_offline_layers(probe, old_classfiles, new_classfiles,
                              prepared, overrides)
    return Prepared(new_classfiles, prepared, offline_ms)


def _trace_offline_layers(probe: Probe, old_classfiles: dict,
                          new_classfiles: dict, prepared,
                          overrides: Optional[dict]) -> None:
    """Traced run only: the same offline work again, one pass per span, so
    each ``dsu.upt`` / ``analysis`` layer gets its own host time. This is
    extra work the untraced run never does; it shows up as tracing
    overhead, not in any end-to-end number."""
    old_version, new_version = prepared.old_version, prepared.new_version
    with probe.span("bench.layer-probes", "bench"):
        with probe.span("dsu.upt.diff", "dsu"):
            diff_programs(old_classfiles, new_classfiles, old_version,
                          new_version)
        with probe.span("dsu.upt.prepare.unminimized", "dsu"):
            prepare_update(
                old_classfiles, new_classfiles, old_version, new_version,
                transformer_overrides=overrides or None, minimize=False,
            )
        program = dict(compile_prelude())
        program.update(old_classfiles)
        with probe.span("analysis.callgraph", "analysis") as span:
            graph = build_call_graph(program)
            span.args["edges"] = sum(
                len(callees) for callees in graph.callees.values()
            )
        with probe.span("analysis.confree", "analysis"):
            classify_update(old_classfiles, prepared, graph)
        with probe.span("analysis.closure", "analysis") as span:
            closure, _ = compute_closure(
                program, prepared.spec, graph, prepared.new_classfiles
            )
            span.args["restricted"] = len(closure.predicted)
        with probe.span("analysis.osrmap", "analysis"):
            plans = compute_osr_plans(
                old_classfiles, prepared, graph=graph, closure=closure
            )
        with probe.span("analysis.reachability", "analysis"):
            check_reachability(
                graph, closure, prepared.spec,
                prepared.active_method_mappings, osr_plans=plans,
            )
        with probe.span("analysis.transformers", "analysis"):
            check_transformers(old_classfiles, prepared)


def resident_objects(vm) -> int:
    """Objects in the current semispace, by a linear heap parse through
    ``ObjectModel.object_size_cells`` (the walk the lazy sweep does)."""
    heap = vm.heap
    cursor = max(heap.space_start, HEAP_BASE)
    count = 0
    size_of = vm.objects.object_size_cells
    while cursor < heap.bump:
        cursor += size_of(cursor)
        count += 1
    return count


def apply_update(
    probe: Probe,
    vm,
    engine: UpdateEngine,
    prepared,
    policy,
    rep: Rep,
    slot: str,
    drain: bool = True,
    slice_ms: float = APPLY_SLICE_MS,
    own_section: bool = False,
    carried: Optional[int] = None,
):
    """Submit one update and drive the VM until its result is terminal;
    then (``drain``) close any lazy epoch it opened, explicitly, so the
    next update is not charged a hidden drain. Records the apply under
    ``slot`` and returns ``(result, apply_ms)`` — host ms from ``submit``
    to terminal, the epoch close included when ``drain`` is set.
    ``own_section`` makes the apply a timed section of its own (for
    applies that happen during set-up); otherwise it is a :func:`quiet`
    step of the caller's section. ``carried`` is the object count for
    ``objects_per_s`` when the caller knows it; otherwise the heap is
    parsed for it."""
    if carried is None:
        carried = resident_objects(vm)
    request = UpdateRequest(prepared, policy=policy, tracer=probe.tracer)
    with timed() if own_section else quiet():
        start = time.perf_counter()
        with probe.span("bench.apply", "bench", update=prepared.new_version):
            result = engine.submit(request)
            slices = 0
            while result.status == PENDING and slices < MAX_APPLY_SLICES:
                vm.run(until_ms=vm.clock.now_ms + slice_ms)
                slices += 1
            if drain and engine.lazy_epoch is not None:
                engine.drain_lazy_epoch()
        apply_ms = (time.perf_counter() - start) * 1000.0
    rep.apply_ms[slot] = apply_ms
    rep.object_rates[slot] = carried / (apply_ms / 1000.0)
    rep.pauses_ms.append(result.total_pause_ms)
    return result, apply_ms
