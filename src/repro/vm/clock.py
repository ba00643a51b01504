"""The simulated clock and cost model.

Every unit of work the VM performs — interpreting an instruction, copying a
heap cell during GC, reflectively copying a field in an object transformer —
advances a global cycle counter. Reported times (throughput, latency, pause
times) are derived from this counter, so the benchmark *shapes* in
EXPERIMENTS.md come from real work counts rather than wall-clock noise.

The constants encode the relative costs the paper observes in §4.1:
garbage-collection copying uses a highly optimized ``memcopy`` loop, while
object transformation "uses reflection to look up jvolveObject, and this
function copies one field at a time" — i.e. transformation is much more
expensive per field than GC copy is per cell. The measured consequence
(Figure 6) is that the transformer-time curve is steeper than the GC-time
curve and a fully-transformed heap costs roughly 4x an untransformed one.
"""

from __future__ import annotations

import math

from dataclasses import dataclass


@dataclass
class CostModel:
    """Cycle costs for each unit of simulated work."""

    #: one interpreted bytecode instruction
    instruction: int = 1
    #: one native call (on top of its per-unit work)
    native_call: int = 5
    #: GC: per heap cell copied (memcopy-style, cheap)
    gc_copy_cell: int = 2
    #: GC: per object scanned (header processing, forwarding)
    gc_scan_object: int = 3
    #: GC: extra bookkeeping per *updated* object (allocating the empty new
    #: version, the update-log entry, caching the old-version pointer —
    #: paper §3.4). Calibrated so a fully-updated heap roughly doubles GC
    #: time, as in the paper's Table 1.
    gc_update_log_entry: int = 17
    #: DSU: reflective lookup of the jvolveObject transformer, per object
    transform_dispatch: int = 12
    #: DSU: reflective field-by-field copy, per field (on top of the
    #: transformer body's own instruction costs, charged alike whether
    #: the body runs as a field-copy plan or interpreted)
    transform_field: int = 1
    #: DSU lazy mode: per read-barrier check while an epoch is open (a
    #: status-header load and compare on the touched reference)
    lazy_barrier_check: int = 1
    #: DSU lazy mode: per object visited by the background sweep (linear
    #: heap parse: size lookup + pending check)
    lazy_sweep_object: int = 2
    #: JIT: per bytecode instruction compiled (baseline tier)
    jit_base_per_instr: int = 8
    #: JIT: per bytecode instruction compiled (optimizing tier)
    jit_opt_per_instr: int = 40
    #: classloading: per method installed
    classload_per_method: int = 120
    #: classloading: per class installed
    classload_per_class: int = 600
    #: thread suspension: per thread, reaching a VM safe point
    thread_suspend: int = 40
    #: cycles per simulated millisecond
    cycles_per_ms: int = 20_000


class Clock:
    """Monotonic simulated time for one VM instance."""

    def __init__(self, costs: CostModel | None = None):
        self.costs = costs if costs is not None else CostModel()
        self.cycles = 0
        #: cycles skipped by idle fast-forwarding (no thread runnable);
        #: ``cycles - idle_cycles`` is the busy (CPU-modelled) work
        self.idle_cycles = 0

    def tick(self, cycles: int) -> None:
        self.cycles += cycles

    def instruction(self, count: int = 1) -> None:
        self.cycles += self.costs.instruction * count

    @property
    def now_ms(self) -> float:
        """Current simulated time in milliseconds."""
        return self.cycles / self.costs.cycles_per_ms

    def advance_to_ms(self, ms: float) -> None:
        """Jump forward (never backward) to an absolute simulated time.

        Rounds *up* to a whole cycle: truncating could leave ``now_ms``
        fractionally before a wake deadline and stall the scheduler.
        """
        target = math.ceil(ms * self.costs.cycles_per_ms)
        if target > self.cycles:
            self.idle_cycles += target - self.cycles
            self.cycles = target

    @property
    def busy_cycles(self) -> int:
        return self.cycles - self.idle_cycles
