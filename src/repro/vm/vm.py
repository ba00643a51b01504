"""The VM facade: heap + classes + threads + scheduler + services.

This is the analogue of the Jikes RVM process Jvolve extends. One `VM`
instance owns a simulated clock, a semi-space heap, the class/method
registries, a cooperative green-thread scheduler with yield points, the
two-tier JIT, the copying collector, a simulated network and filesystem,
and the hooks the DSU engine (:mod:`repro.dsu.engine`) installs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..bytecode.classfile import ClassFile
from ..compiler.compile import compile_prelude
from ..obs import Metrics, Tracer
from .classloader import ClassLoader
from .clock import Clock, CostModel
from .events import EventQueue
from .frames import Frame, VMThread
from .gc import SemiSpaceCollector
from .heap import Heap, NULL, OutOfMemoryError
from .interpreter import BLOCKED, Interpreter
from .jit import JITCompiler
from .jtoc import JTOC
from .machinecode import MethodEntry, MethodRegistry
from .objectmodel import ObjectModel, VMTrap
from .rvmclass import ClassRegistry, RVMClass
from .strings import StringTable

from ..net.sockets import Network

DEFAULT_HEAP_CELLS = 1 << 18  # 256 Ki cells
DEFAULT_QUANTUM = 400


class VMError(Exception):
    """A fatal VM-level failure (not a jmini-level trap)."""


class VM:
    """One simulated managed-runtime process."""

    def __init__(
        self,
        heap_cells: int = DEFAULT_HEAP_CELLS,
        quantum: int = DEFAULT_QUANTUM,
        seed: int = 42,
        costs: Optional[CostModel] = None,
    ):
        self.clock = Clock(costs)
        #: structured tracing + metrics (:mod:`repro.obs`); every subsystem
        #: emits spans/counters here, stamped from the simulated clock
        self.tracer = Tracer(self.clock)
        self.metrics = Metrics()
        self.heap = Heap(heap_cells)
        self.strings = StringTable()
        self.registry = ClassRegistry()
        self.objects = ObjectModel(self.heap, self.registry, self.strings)
        self.jtoc = JTOC()
        self.methods = MethodRegistry()
        self.classfiles: Dict[str, ClassFile] = {}
        self.jit = JITCompiler(self)
        self.collector = SemiSpaceCollector(self)
        self.loader = ClassLoader(self)

        self.threads: List[VMThread] = []
        self._schedule_index = 0
        self.quantum = quantum
        self.events = EventQueue()
        self.network = Network()
        self.filesystem: Dict[str, str] = {}
        self.console: List[str] = []
        self.trap_log: List[str] = []

        self.literal_interns: Dict[str, int] = {}
        self.native_roots: List[List[int]] = []
        self.extra_roots: List[List[int]] = []
        self.sleep_deadlines: Dict[int, tuple] = {}
        # after everything its handler table captures
        self.interpreter = Interpreter(self)

        self.halted = False
        self.yield_flag = False
        self.yield_requested = False
        self.gc_disabled = False
        self.max_stack_depth = 512
        self.last_gc_stats = None

        # DSU hooks, installed by repro.dsu.engine.UpdateEngine
        self.update_pending: bool = False
        self.on_world_stopped: Optional[Callable[[], None]] = None
        self.return_barrier_hook: Optional[Callable[[VMThread, Frame], None]] = None
        self.force_transform_hook: Optional[Callable[[int], None]] = None
        #: fired when a frame whose method body was replaced underneath it
        #: (``entered_at_version`` behind the entry's ``bytecode_version``)
        #: pops — the immediate-bypass path uses this to observe old-code
        #: frames draining after a zero-pause install
        self.stale_frame_retired_hook: Optional[
            Callable[[VMThread, Frame], None]
        ] = None
        #: background-work hook run inside ``sched.idle`` stalls before the
        #: clock fast-forwards: the lazy epoch's sweep drains here, ticking
        #: the clock itself up to the target time
        self.idle_work_hook: Optional[Callable[[float], None]] = None

        self._rng_state = seed or 1

        self._booted = False

    # ------------------------------------------------------------------
    # boot

    def boot(self, program_classfiles: Dict[str, ClassFile]) -> None:
        """Load the prelude and a program."""
        if not self._booted:
            self.loader.load(compile_prelude(), run_clinit=False)
            self.objects.string_class()  # register the string pseudo-class
            self._booted = True
        self.loader.load(dict(program_classfiles))

    def start_main(self, class_name: str, method_name: str = "main") -> VMThread:
        """Spawn the main thread on ``class_name.method_name()V`` (static)."""
        entry = self.methods.lookup(class_name, method_name, "()V")
        if entry is None:
            raise VMError(f"no static {method_name}()V in class {class_name}")
        thread = VMThread(name=f"main:{class_name}")
        code = self.jit.ensure_compiled(entry)
        thread.frames.append(Frame(code, [], 0))
        self.threads.append(thread)
        return thread

    def spawn_thread(self, runnable_address: int, name: str = "") -> VMThread:
        """Start ``runnable.run()`` on a fresh thread (Sys.spawn)."""
        if runnable_address == NULL:
            raise VMTrap("Sys.spawn(null)")
        rvmclass = self.objects.class_of(runnable_address)
        entry = rvmclass.tib.lookup("run", "()V")
        if entry is None:
            raise VMTrap(f"Sys.spawn: {rvmclass.name} has no run()V method")
        code = self.jit.ensure_compiled(entry)
        thread = VMThread(name=name or f"{rvmclass.name}.run")
        thread.frames.append(Frame(code, [runnable_address], 0))
        self.threads.append(thread)
        return thread

    # ------------------------------------------------------------------
    # allocation (with GC retry)

    def _allocate(self, alloc: Callable[[], int]) -> int:
        try:
            return alloc()
        except OutOfMemoryError:
            if self.gc_disabled:
                raise
            self.collect()
            try:
                return alloc()
            except OutOfMemoryError:
                raise VMTrap("out of memory")

    def allocate_object(self, rvmclass: RVMClass) -> int:
        return self._allocate(lambda: self.objects.alloc_object(rvmclass))

    def allocate_array(self, array_class: RVMClass, length: int) -> int:
        return self._allocate(lambda: self.objects.alloc_array(array_class, length))

    def allocate_string(self, text: str) -> int:
        payload = self.strings.intern_payload(text)
        return self._allocate(lambda: self.objects.alloc_string(payload))

    def intern_literal(self, text: str) -> int:
        address = self.literal_interns.get(text)
        if address is None or address == NULL:
            address = self.allocate_string(text)
            self.literal_interns[text] = address
        return address

    def collect(self, update_map=None, separate_old_copies=False,
                oom_at_copy=None):
        """Run a stop-the-world collection. All threads are at safe points
        by construction (cooperative scheduling parks them at yield points;
        the running thread triggers GC only at allocation instructions).
        ``oom_at_copy`` forwards the DSU fault-injection threshold (see
        :meth:`repro.vm.gc.SemiSpaceCollector.collect`)."""
        return self.collector.collect(update_map, separate_old_copies,
                                      oom_at_copy=oom_at_copy)

    # ------------------------------------------------------------------
    # DSU callbacks used by the interpreter

    def on_return_barrier(self, thread: VMThread, frame: Frame) -> None:
        if self.return_barrier_hook is not None:
            self.return_barrier_hook(thread, frame)

    def record_trap(self, thread: VMThread, trap: VMTrap) -> None:
        self.trap_log.append(f"{thread.name}: {trap}")

    def next_random(self) -> int:
        # xorshift: deterministic, seedable
        x = self._rng_state
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        self._rng_state = x
        return x & 0x7FFFFFFF

    # ------------------------------------------------------------------
    # scheduler

    def runnable_threads(self) -> List[VMThread]:
        return [t for t in self.threads if t.state == VMThread.RUNNABLE]

    def _wake_blocked(self) -> None:
        now = self.clock.now_ms
        for thread in self.threads:
            if thread.state != VMThread.BLOCKED:
                continue
            ready = False
            if thread.wake_at_ms is not None and now >= thread.wake_at_ms:
                ready = True
            elif thread.wake_condition is not None and thread.wake_condition():
                ready = True
            if ready:
                thread.state = VMThread.RUNNABLE
                thread.wake_condition = None
                thread.wake_at_ms = None

    def _next_wake_time(self) -> Optional[float]:
        times = []
        event_time = self.events.next_time()
        if event_time is not None:
            times.append(event_time)
        for thread in self.threads:
            if thread.state == VMThread.BLOCKED and thread.wake_at_ms is not None:
                times.append(thread.wake_at_ms)
        return min(times) if times else None

    def _pick_thread(self) -> Optional[VMThread]:
        runnable = self.runnable_threads()
        if not runnable:
            return None
        self._schedule_index = (self._schedule_index + 1) % len(runnable)
        return runnable[self._schedule_index]

    def process_events(self) -> None:
        for callback in self.events.pop_due(self.clock.now_ms):
            callback()

    def run(
        self,
        until_ms: Optional[float] = None,
        max_instructions: Optional[int] = None,
    ) -> None:
        """Drive the scheduler until ``until_ms`` simulated time, the
        instruction budget, VM halt, or global idleness (no runnable or
        wakeable threads and no events)."""
        start_instructions = self.interpreter.instructions_executed
        while not self.halted:
            if until_ms is not None and self.clock.now_ms >= until_ms:
                return
            if (
                max_instructions is not None
                and self.interpreter.instructions_executed - start_instructions
                >= max_instructions
            ):
                return
            self.process_events()
            self._wake_blocked()
            thread = self._pick_thread()
            if thread is None:
                # Every thread is blocked (or dead) — that is a VM safe
                # point too, so a pending update gets its chance here.
                if self.update_pending and self.on_world_stopped is not None:
                    self.on_world_stopped()
                    continue
                next_time = self._next_wake_time()
                if next_time is None:
                    return  # fully idle: nothing will ever run again
                if until_ms is not None and next_time > until_ms:
                    self._advance_idle(until_ms)
                    return
                self._advance_idle(next_time)
                continue
            self.interpreter.run_thread(thread, self.quantum)
            self._reap_dead_threads()
            # All threads are now parked at safe points: give the DSU
            # engine its chance (paper: "Once application threads on all
            # processors have reached VM safe points, Jvolve checks ...").
            if self.update_pending and self.on_world_stopped is not None:
                self.on_world_stopped()

    def _advance_idle(self, target_ms: float) -> None:
        """Fast-forward to ``target_ms`` with the stall attributed in the
        trace: every thread is blocked and the event queue has nothing due,
        so this is dead time the scheduler (or a pending update waiting on
        its safe point) simply sits through."""
        if target_ms <= self.clock.now_ms:
            self.clock.advance_to_ms(target_ms)
            return
        before_ms = self.clock.now_ms
        with self.tracer.span("sched.idle", "sched"):
            if self.idle_work_hook is not None:
                # Idle slices are where background work (the lazy epoch's
                # sweep) runs: it ticks the clock as it goes, and the
                # advance below is a no-op for whatever it consumed.
                self.idle_work_hook(target_ms)
            self.clock.advance_to_ms(target_ms)
        self.metrics.inc("sched.idle_stalls")
        self.metrics.observe("sched.idle_ms", self.clock.now_ms - before_ms)

    def _reap_dead_threads(self) -> None:
        if any(t.state == VMThread.DEAD for t in self.threads):
            self.threads = [t for t in self.threads if t.state != VMThread.DEAD]

    # ------------------------------------------------------------------
    # synchronous execution (bootstrap, <clinit>, transformers)

    def run_static_method_synchronously(
        self, entry: MethodEntry, args: Optional[List[int]] = None
    ) -> Optional[int]:
        """Execute a static method to completion on a dedicated thread while
        the rest of the world stays paused. Used for ``<clinit>`` and for
        the DSU engine's transformer invocations."""
        code = self.jit.ensure_compiled(entry)
        thread = VMThread(name=f"sync:{entry.qualified_name}")
        thread.frames.append(Frame(code, list(args or []), 0))
        self.threads.append(thread)
        try:
            while thread.is_alive():
                reason = self.interpreter.run_thread(thread, 1_000_000)
                if reason == BLOCKED:
                    raise VMError(
                        f"{entry.qualified_name} blocked during synchronous execution"
                    )
                if self.halted:
                    break
        finally:
            if thread in self.threads:
                self.threads.remove(thread)
        if thread.trap_message is not None:
            raise VMError(
                f"trap during synchronous {entry.qualified_name}: {thread.trap_message}"
            )
        return getattr(thread, "result", None)
