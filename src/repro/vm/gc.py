"""The semi-space copying collector, with the Jvolve update extension.

Normal collections traverse the pointer graph from the roots (JTOC
reference slots, literal interns, native roots, and every thread frame's
locals and operand stack via the verifier's stack maps), copying reachable
objects into to-space and leaving forwarding pointers behind (paper §3.4).

During a dynamic update the collector is handed an *update map* (old class
id -> new ``RVMClass``). For each object whose class changed it:

1. copies the old object into to-space (the "old copy"),
2. allocates an empty object of the *new* class in to-space,
3. points the from-space forwarding pointer at the **new** object, so every
   reference in the heap ends up at the new version,
4. caches the old copy's address in the new object's status header cell
   ("we instead cache a pointer to the old version in the new version
   during the collection"),
5. appends ``(old_copy, new_object)`` to the update log that the DSU engine
   replays through the object transformers after the collection. The
   engine finds an object's old copy for ``Sys.forceTransform`` in that
   cached status word, and zeroes it once the object is transformed.

Outside an update window or an open lazy epoch every status word in the
current space is 0: only this collection (cross-space forwarding and the
old-copy cache) and a lazy epoch (same-space forwarding) write a non-zero
one, and an aborted update's rollback zeroes what either left behind.
Sizes and reference cells come from the class's one shape record
(``RVMClass.fixed_cells``, ``ref_offsets``, ``elements_are_refs``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .heap import HEADER_STATUS, HEADER_TIB
from .objectmodel import ARRAY_ELEMS_OFFSET, ARRAY_LENGTH_OFFSET
from .rvmclass import RVMClass

if TYPE_CHECKING:  # pragma: no cover
    from .vm import VM


@dataclass
class GCStats:
    """What one collection did (feeds the microbenchmark tables)."""

    objects_copied: int = 0
    cells_copied: int = 0
    objects_updated: int = 0  # changed-class objects double-copied
    update_log: List[Tuple[int, int]] = field(default_factory=list)
    gc_time_ms: float = 0.0
    #: roots scanned, for diagnostics
    roots_scanned: int = 0
    #: surviving instances per (post-collection) class id — becomes the
    #: heap's live baseline for the next update's sizing pre-flight
    survivors_by_class: Dict[int, int] = field(default_factory=dict)


@dataclass
class UpdatePreflight:
    """To-space sizing estimate for an update collection (§3.5: the double
    copy of updated objects "adds temporary memory pressure").

    ``needed_cells`` is a sound upper bound: every cell currently bump-
    allocated in from-space (live data can only be a subset) plus, for
    each updated class, an upper bound on its live instances times the
    new layout's size (the extra allocation the double copy performs),
    plus one new-layout object of slack for the segregated-region gap."""

    needed_cells: int = 0
    available_cells: int = 0
    #: from-space cells that bound the plain copy
    live_cells_upper: int = 0
    #: extra cells the double copy of updated-class instances may need
    update_extra_cells: int = 0
    #: upper bound on updated-class instances that will be double-copied
    updated_instances_upper: int = 0

    @property
    def fits(self) -> bool:
        return self.needed_cells <= self.available_cells

    @property
    def suggested_heap_cells(self) -> int:
        """Smallest total heap size whose semispaces hold the estimate."""
        from .heap import HEAP_BASE

        return 2 * (self.needed_cells + HEAP_BASE)


class StackMapMismatch(Exception):
    """A frame's runtime shape disagrees with its verifier stack map."""


class SemiSpaceCollector:
    """Stop-the-world semi-space copying GC over the VM heap."""

    def __init__(self, vm: "VM"):
        self.vm = vm
        self.collections = 0

    # ------------------------------------------------------------------

    def collect(
        self,
        update_map: Optional[Dict[int, RVMClass]] = None,
        separate_old_copies: bool = False,
        oom_at_copy: Optional[int] = None,
    ) -> GCStats:
        """Run one full collection. ``update_map`` maps *old* class ids of
        updated classes to their new RVMClass (DSU mode).

        With ``separate_old_copies`` the old copies of updated objects are
        segregated into a region at the top of to-space; the DSU engine can
        then reclaim them in O(1) after the transformers run, instead of
        waiting for the next collection (paper §3.4's suggested
        optimization).

        ``oom_at_copy`` is the fault-injection hook used by
        :mod:`repro.dsu.faults`: raise :class:`MemoryError` once this many
        objects have been copied, exactly as a genuine to-space overflow
        would, so abort/rollback paths can be exercised deterministically.
        """
        vm = self.vm
        stats = GCStats()
        start_cycles = vm.clock.cycles
        update_map = update_map or {}
        gc_span = vm.tracer.begin(
            "gc.collect", "gc", update=bool(update_map)
        )
        try:
            return self._collect_inner(
                stats, update_map, separate_old_copies, oom_at_copy,
                start_cycles, gc_span,
            )
        finally:
            vm.tracer.end(gc_span)

    def _collect_inner(
        self,
        stats: GCStats,
        update_map: Dict[int, RVMClass],
        separate_old_copies: bool,
        oom_at_copy: Optional[int],
        start_cycles: int,
        gc_span,
    ) -> GCStats:
        vm = self.vm
        heap = vm.heap
        clock = vm.clock
        costs = clock.costs
        # The per-object path reads only locals: the cells, the from-space
        # bounds, the class table, the cost constants and the result lists.
        cells = heap.cells
        classes = vm.registry.by_id
        from_lo, from_hi = heap._space_bounds[heap.current_space]
        scan = bump = heap.begin_flip()
        # Old copies grow downward from the top when segregated.
        old_top = heap._space_bounds[heap.other_space()][1]
        copy_cost = costs.gc_copy_cell
        plain_cost = costs.gc_scan_object
        update_cost = costs.gc_scan_object + costs.gc_update_log_entry
        survivors = stats.survivors_by_class
        update_log = stats.update_log
        # Each object's charge is owed here and put on the clock (with the
        # counts on ``stats``) at every span boundary and before any raise,
        # so every timestamp and the injected-OOM count stay exact.
        owed = objects_copied = cells_copied = objects_updated = 0

        def settle() -> None:
            nonlocal owed
            clock.cycles += owed
            owed = 0
            stats.objects_copied = objects_copied
            stats.cells_copied = cells_copied
            stats.objects_updated = objects_updated

        def overflow() -> MemoryError:
            return MemoryError(
                "to-space overflow during collection (heap too small)"
            )

        def forward(address: int) -> int:
            """Copy the object at ``address`` (if not already) and return
            its to-space address."""
            nonlocal bump, old_top, owed
            nonlocal objects_copied, cells_copied, objects_updated
            while True:
                if not from_lo <= address < from_hi:
                    # NULL, or already a to-space address (e.g. a root
                    # scanned twice).
                    return address
                status = cells[address + HEADER_STATUS]
                if status == 0:
                    break
                if not from_lo <= status < from_hi:
                    return status  # this collection's forwarding pointer
                # Same-space forwarding left by a lazy-transformation epoch
                # (repro.dsu.lazy): the object was transformed in place
                # before this collection. Chase it — the new-layout object
                # is the live one, and this old shell is never copied.
                address = status
            if oom_at_copy is not None and objects_copied >= oom_at_copy:
                raise MemoryError(
                    f"injected to-space overflow after {objects_copied} "
                    "object copies"
                )
            rvmclass = classes[cells[address + HEADER_TIB]]
            size = rvmclass.fixed_cells
            if size is None:
                size = ARRAY_ELEMS_OFFSET + cells[address + ARRAY_LENGTH_OFFSET]
            new_class = update_map.get(rvmclass.id) if update_map else None
            if new_class is None:
                destination = bump
                if destination + size > old_top:
                    raise overflow()
                bump = destination + size
                cells[destination:bump] = cells[address:address + size]
                cells[destination + HEADER_STATUS] = 0
                cells[address + HEADER_STATUS] = destination
                objects_copied += 1
                cells_copied += size
                survivors[rvmclass.id] = survivors.get(rvmclass.id, 0) + 1
                owed += copy_cost * size + plain_cost
                return destination
            # --- updated class: double copy + update log -------------
            # The retiring version first, segregated into the top region
            # when requested.
            if separate_old_copies:
                if bump + size > old_top - size:
                    raise overflow()
                old_top -= size
                old_copy = old_top
            else:
                old_copy = bump
                if old_copy + size > old_top:
                    raise overflow()
                bump = old_copy + size
            cells[old_copy:old_copy + size] = cells[address:address + size]
            cells_copied += size
            owed += copy_cost * size
            cells[old_copy + HEADER_STATUS] = 0
            # Allocating the empty new-version object is a bump + zero
            # fill, far cheaper than a data copy; its cost is folded into
            # the per-updated-object log-entry charge.
            new_object = bump
            new_size = new_class.fixed_cells
            if new_object + new_size > old_top:
                raise overflow()
            bump = new_object + new_size
            cells[new_object:bump] = [0] * new_size
            cells[new_object + HEADER_TIB] = new_class.id
            # cache the old version's address in the new header (§3.4)
            cells[new_object + HEADER_STATUS] = old_copy
            cells[address + HEADER_STATUS] = new_object
            objects_copied += 1
            objects_updated += 1
            survivors[new_class.id] = survivors.get(new_class.id, 0) + 1
            update_log.append((old_copy, new_object))
            owed += update_cost
            return new_object

        def scan_object(address: int) -> int:
            """Forward every reference cell of the object at ``address``;
            returns its size. Only a from-space value needs ``forward``."""
            rvmclass = classes[cells[address + HEADER_TIB]]
            size = rvmclass.fixed_cells
            if size is None:
                size = ARRAY_ELEMS_OFFSET + cells[address + ARRAY_LENGTH_OFFSET]
                if rvmclass.elements_are_refs:
                    for cell in range(address + ARRAY_ELEMS_OFFSET,
                                      address + size):
                        value = cells[cell]
                        if from_lo <= value < from_hi:
                            cells[cell] = forward(value)
            else:
                # New objects created for updated classes have empty fields
                # (all zero); scanning them is harmless and uniform.
                for offset in rvmclass.ref_offsets:
                    value = cells[address + offset]
                    if from_lo <= value < from_hi:
                        cells[address + offset] = forward(value)
            return size

        # --- roots ------------------------------------------------------
        with vm.tracer.span("gc.roots", "gc"):
            try:
                self._scan_roots(forward, stats)
            finally:
                settle()

        # --- Cheney scan --------------------------------------------------
        # The segregated old copies are greylist members too (their fields
        # must be forwarded so transformers see live referents); scanning
        # them can discover more work for the main region and vice versa.
        with vm.tracer.span("gc.copy", "gc"):
            try:
                scanned_old = 0
                while True:
                    while scan < bump:
                        scan += scan_object(scan)
                    # When not segregated, old copies live inside
                    # [start, bump) and the linear scan above covered them.
                    if separate_old_copies and scanned_old < len(update_log):
                        while scanned_old < len(update_log):
                            scan_object(update_log[scanned_old][0])
                            scanned_old += 1
                        continue
                    break
            finally:
                settle()

        heap.finish_flip(bump, ceiling=old_top)
        heap.record_survivors(stats.survivors_by_class)
        self.collections += 1
        stats.gc_time_ms = (vm.clock.cycles - start_cycles) / vm.clock.costs.cycles_per_ms
        vm.last_gc_stats = stats
        gc_span.args.update(
            objects_copied=stats.objects_copied,
            cells_copied=stats.cells_copied,
            objects_updated=stats.objects_updated,
            roots_scanned=stats.roots_scanned,
            gc_ms=round(stats.gc_time_ms, 6),
        )
        vm.metrics.inc("gc.collections")
        vm.metrics.inc("gc.objects_copied", stats.objects_copied)
        vm.metrics.inc("gc.objects_updated", stats.objects_updated)
        vm.metrics.observe("gc.cells_copied", stats.cells_copied)
        vm.metrics.observe("gc.pause_ms", stats.gc_time_ms)
        return stats

    # ------------------------------------------------------------------
    # update-collection sizing pre-flight

    def preflight_estimate(
        self, update_map: Dict[int, RVMClass]
    ) -> UpdatePreflight:
        """Estimate whether to-space can hold an update collection *before*
        copying anything, so an undersized heap aborts (or grows) at
        pre-flight instead of un-flipping after a mid-copy overflow.

        Sound over-approximation: the plain copy moves at most every
        bump-allocated from-space cell; the double copy additionally
        allocates one empty new-layout object per live updated-class
        instance, bounded by the heap's per-class allocation counters."""
        heap = self.vm.heap
        estimate = UpdatePreflight(
            live_cells_upper=heap.used_cells,
            available_cells=heap.semispace_capacity,
        )
        largest_new = 0
        for old_id, new_class in update_map.items():
            count = heap.live_instances_upper_bound(old_id)
            estimate.updated_instances_upper += count
            estimate.update_extra_cells += count * new_class.fixed_cells
            largest_new = max(largest_new, new_class.fixed_cells)
        # One extra new-layout object of slack: the segregated old-copy
        # region keeps a one-object gap between the two bump pointers.
        estimate.needed_cells = (
            estimate.live_cells_upper + estimate.update_extra_cells + largest_new
        )
        return estimate

    # ------------------------------------------------------------------
    # root enumeration

    def _scan_roots(self, forward, stats: GCStats) -> None:
        vm = self.vm
        # 1. JTOC static reference slots
        for index, is_ref in enumerate(vm.jtoc.is_ref):
            if is_ref:
                vm.jtoc.cells[index] = forward(vm.jtoc.cells[index])
                stats.roots_scanned += 1
        # 2. literal intern table
        for text, address in list(vm.literal_interns.items()):
            vm.literal_interns[text] = forward(address)
            stats.roots_scanned += 1
        # 3. native roots (addresses protected by in-flight natives)
        for root in vm.native_roots:
            root[0] = forward(root[0])
            stats.roots_scanned += 1
        # 4. extra root lists registered by subsystems (DSU engine)
        for root in vm.extra_roots:
            root[0] = forward(root[0])
            stats.roots_scanned += 1
        # 5. thread stacks via verifier stack maps
        for thread in vm.threads:
            if not thread.is_alive():
                continue
            for frame in thread.frames:
                self._scan_frame(frame, forward, stats)

    def _scan_frame(self, frame, forward, stats: GCStats) -> None:
        states = frame.code.stack_states
        state = states.get(frame.pc)
        if state is None:
            raise StackMapMismatch(
                f"no stack map at pc {frame.pc} in {frame.code.entry.qualified_name}"
            )
        local_refs, stack_refs = state.reference_map()
        if len(stack_refs) != len(frame.stack):
            raise StackMapMismatch(
                f"operand stack depth {len(frame.stack)} != map depth "
                f"{len(stack_refs)} at pc {frame.pc} in "
                f"{frame.code.entry.qualified_name}"
            )
        for index, is_ref in enumerate(local_refs):
            if is_ref and index < len(frame.locals):
                frame.locals[index] = forward(frame.locals[index])
                stats.roots_scanned += 1
        for index, is_ref in enumerate(stack_refs):
            if is_ref:
                frame.stack[index] = forward(frame.stack[index])
                stats.roots_scanned += 1

