"""The lazy-transformation epoch: read barrier, idle sweep, close, rollback.

A lazy apply (:data:`repro.dsu.engine.MODE_LAZY`) installs the new class
metadata at the pause but runs **no** update collection. The engine only
opens a :class:`LazyEpoch`, asks it to drain, and — for a held verification
window — asks it to roll back; every forwarding-word and sweep-cursor
decision lives here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from ..vm.heap import HEADER_STATUS, HEADER_TIB, NULL, OutOfMemoryError
from ..vm.objectmodel import VMTrap
from ..vm.rvmclass import RVMClass
from .upt import PreparedUpdate

if TYPE_CHECKING:  # pragma: no cover
    from ..vm.vm import VM


@dataclass
class LazyEpoch:
    """One lazy-transformation epoch: the window between a lazy apply and
    the moment every changed-class object has been transformed.

    Pending objects are transformed on first touch by the interpreter read
    barrier (:meth:`barrier`) — which writes a same-space forwarding
    pointer into the old object's status header and heals the touching
    stack slot — and drained in the background by the idle-time sweep
    (:meth:`sweep`), which walks the heap linearly from ``sweep_cursor``.
    New allocations land past the bump pointer captured by the walk and
    are never of an old class, so the sweep provably terminates.

    Heap cells are never healed during the epoch (only operand-stack
    slots are): the old objects keep their exact pre-update field image,
    and their status words are the only cells the epoch writes below the
    snapshot bump. That is what makes a mid-epoch rollback exact with no
    log: :meth:`rollback` only disarms, and the transaction zeroes every
    status word below its snapshot bump and truncates the heap there. The
    next ordinary collection collapses all epoch forwarding (the GC's
    ``forward`` chases same-space pointers) whether or not the epoch has
    drained.
    """

    vm: "VM"
    prepared: PreparedUpdate
    #: old class id -> installed new :class:`RVMClass` (the update map the
    #: eager path would have handed to the collector)
    new_class_by_old_id: Dict[int, RVMClass]
    #: the renamed old classes, handed to ``retire`` when the epoch closes
    renamed: List[RVMClass]
    #: the engine's one ``jvolveObject`` runner:
    #: ``run_transformer(prefix, new_class, new_address, old_address)``
    run_transformer: Callable[[str, RVMClass, int, int], None]
    #: the engine's post-transform cleanup (old ref statics, transformer
    #: class), deferred from the pause to epoch close:
    #: ``retire(prepared, renamed)``
    retire: Callable[[PreparedUpdate, List[RVMClass]], None]
    #: linear heap scan position of the background sweep
    sweep_cursor: int = 0
    #: ``vm.collector.collections`` at cursor time — a collection moves
    #: every object, so a changed count resets the cursor
    sweep_collections: int = 0
    pending_upper: int = 0
    transformed: int = 0
    touch_transforms: int = 0
    sweep_transforms: int = 0
    #: stack slots healed by the barrier chasing an existing forwarding
    heals: int = 0
    #: True while the barrier and the idle hook are installed
    armed: bool = False
    closed: bool = False
    #: old addresses whose transformer is currently on the stack — the
    #: barrier lets their reads through untransformed (a transformer
    #: reading its own old object must not recurse)
    _in_progress: Set[int] = field(default_factory=set)

    # ------------------------------------------------------------------
    # open / disarm

    def open(self) -> None:
        """Arm the epoch after a successful lazy apply: every object of a
        changed class is still in place with its old (renamed) class and
        an untouched field image; the barrier and the sweep take over."""
        vm = self.vm
        heap = vm.heap
        self.sweep_cursor = heap.space_start
        self.sweep_collections = vm.collector.collections
        self.pending_upper = sum(
            heap.live_instances_upper_bound(old_id)
            for old_id in self.new_class_by_old_id
        )
        self.armed = True
        vm.interpreter.arm_lazy_barrier(self.barrier, self.new_class_by_old_id)
        # Idle scheduler slices drain the epoch instead of just advancing
        # the clock: the hook is called with the slice's target time.
        vm.idle_work_hook = partial(self.sweep, "idle")
        vm.tracer.instant(
            "dsu.lazy.epoch-open", "dsu",
            pending_classes=len(self.new_class_by_old_id),
            pending_upper=self.pending_upper,
        )
        vm.metrics.inc("dsu.lazy.epochs_opened")

    def _disarm(self) -> None:
        self.vm.interpreter.disarm_lazy_barrier()
        self.vm.idle_work_hook = None
        self.armed = False
        self._in_progress.clear()

    # ------------------------------------------------------------------
    # transforming one object

    def _make_room(self, cells: int, may_collect: bool = True) -> str:
        """Allocate-or-collect-or-park: ``"room"`` when ``cells`` fit,
        ``"pinned"`` when they do not and a held update window has the GC
        pinned, ``"collected"`` after running a collection to make room
        (every address moved — the caller must re-read), ``"full"`` when
        a collection was not allowed."""
        vm = self.vm
        if vm.heap.can_allocate(cells):
            return "room"
        if vm.gc_disabled:
            return "pinned"
        if not may_collect:
            return "full"
        vm.collect()
        return "collected"

    def _transform(self, old_address: int, new_class: RVMClass) -> int:
        """Transform one pending object: allocate the new-layout object,
        run ``jvolveObject(new, old)``, and write a same-space forwarding
        pointer into the old object's status header. The old object's data
        cells are never written — the exact pre-update field image survives
        for a held-window rollback. Caller guarantees allocation capacity.
        """
        vm = self.vm
        # Pin addresses for the duration: the transformer may allocate, and
        # a collection here would move both copies mid-copy.
        gc_was_disabled = vm.gc_disabled
        vm.gc_disabled = True
        self._in_progress.add(old_address)
        try:
            new_address = vm.objects.alloc_object(new_class)
            self.run_transformer(
                self.prepared.prefix, new_class, new_address, old_address
            )
            vm.objects.set_status(old_address, new_address)
            self.transformed += 1
        finally:
            self._in_progress.discard(old_address)
            vm.gc_disabled = gc_was_disabled
        return new_address

    # ------------------------------------------------------------------
    # the read barrier

    def barrier(self, frame, slot: int, heal_only: bool = False) -> None:
        """The interpreter read barrier's slow path (armed by
        :meth:`repro.vm.interpreter.Interpreter.arm_lazy_barrier`): called
        with an operand-stack (or receiver) ``slot`` about to be
        dereferenced that holds a forwarded or pending-class object.
        Chases same-space forwarding left by earlier transforms — healing
        only the stack slot, never heap cells — and transforms a still-
        pending changed-class object on the spot.

        ``heal_only`` is the identity-comparison variant (REF_EQ): both
        operands are canonicalized through forwarding so ``old == new``
        compares equal, but an untouched pending object stays pending —
        comparing identities is not a field access."""
        vm = self.vm
        heap = vm.heap
        cells = heap.cells
        stack = frame.stack
        address = stack[slot]
        if address == NULL:
            return
        vm.clock.tick(vm.clock.costs.lazy_barrier_check)
        status = cells[address + HEADER_STATUS]
        healed = False
        while status != 0 and heap.in_space(status, heap.current_space):
            address = status
            status = cells[address + HEADER_STATUS]
            healed = True
        if healed:
            stack[slot] = address
            self.heals += 1
        if heal_only:
            return
        new_class = self.new_class_by_old_id.get(cells[address + HEADER_TIB])
        if new_class is None:
            return
        if address in self._in_progress:
            # A transformer reading its own old object: let the raw read
            # through (the eager path's cycle-tolerant barrier semantics).
            return
        room = self._make_room(new_class.fixed_cells)
        if room == "pinned":
            raise VMTrap(
                "out of memory: lazy transform inside a held update "
                "window (GC pinned)"
            )
        if room == "collected":
            # The collection healed every root — including this slot — and
            # collapsed all epoch forwarding; re-read and re-check.
            address = stack[slot]
            if address == NULL:
                return
            new_class = self.new_class_by_old_id.get(
                cells[address + HEADER_TIB]
            )
            if new_class is None:
                return
            if self._make_room(new_class.fixed_cells, False) != "room":
                raise VMTrap(
                    "out of memory: heap cannot hold the transformed copy"
                )
        stack[slot] = self._transform(address, new_class)
        self.touch_transforms += 1
        vm.metrics.inc("dsu.lazy.touch_transforms")

    # ------------------------------------------------------------------
    # the sweep

    def sweep(self, mode: str, deadline_ms: Optional[float] = None,
              max_objects: Optional[int] = None) -> int:
        """One traced sweep slice (``dsu.lazy.sweep``; ``mode`` is
        ``"idle"`` for ``vm.idle_work_hook`` slices, ``"drain"`` for a
        synchronous drain): walk the heap linearly from the cursor,
        transforming every still-pending object, until the deadline/budget
        runs out or the walk reaches the bump pointer — at which point the
        epoch is closed. Returns objects transformed.

        Termination: the walk is bounded by ``heap.bump`` at visit time;
        objects allocated after a cell is visited are never of an old
        (renamed) class, so nothing behind the cursor ever becomes pending
        again. A collection moves everything, so the cursor restarts —
        but each collection also discards every already-forwarded old
        object, so the pending population is monotonically shrinking."""
        with self.vm.tracer.span("dsu.lazy.sweep", "dsu", mode=mode) as span:
            transformed = self._sweep_some(deadline_ms, max_objects)
            span.args.update(transformed=transformed, drained=not self.armed)
        return transformed

    def _sweep_some(self, deadline_ms: Optional[float],
                    max_objects: Optional[int]) -> int:
        vm = self.vm
        heap = vm.heap
        transformed = 0
        visited = 0
        just_collected = False
        while self.armed:
            if deadline_ms is not None and vm.clock.now_ms >= deadline_ms:
                break
            if max_objects is not None and visited >= max_objects:
                break
            if self.sweep_collections != vm.collector.collections:
                # Every object moved; restart the walk in the new space.
                self.sweep_collections = vm.collector.collections
                self.sweep_cursor = heap.space_start
            cursor = self.sweep_cursor
            if cursor >= heap.bump:
                if vm.gc_disabled and self.transformed:
                    # Drained, but the closing collection (which collapses
                    # the epoch's forwarding so the barrier can come down)
                    # needs the GC a held update window has pinned. Park;
                    # commit/rollback re-enables collection and the next
                    # sweep slice closes for real.
                    break
                self._close()
                break
            vm.clock.tick(vm.clock.costs.lazy_sweep_object)
            visited += 1
            size = vm.objects.object_size_cells(cursor)
            new_class = None
            if heap.cells[cursor + HEADER_STATUS] == 0:
                new_class = self.new_class_by_old_id.get(
                    heap.cells[cursor + HEADER_TIB]
                )
            if new_class is not None:
                room = self._make_room(
                    new_class.fixed_cells, may_collect=not just_collected
                )
                if room == "pinned":
                    # Held window pins GC: park the sweep; it resumes
                    # after commit/rollback re-enables collection.
                    break
                if room == "full":
                    raise OutOfMemoryError(
                        "lazy sweep cannot allocate the transformed "
                        "copy even after collection"
                    )
                if room == "collected":
                    just_collected = True
                    continue
                self._transform(cursor, new_class)
                just_collected = False
                transformed += 1
                self.sweep_transforms += 1
            self.sweep_cursor = cursor + size
        if transformed:
            vm.metrics.inc("dsu.lazy.sweep_transforms", transformed)
        return transformed

    def _close(self) -> None:
        """The sweep reached the bump pointer: nothing is pending anymore.
        Collapse the epoch's forwarding, run the cleanup the eager path
        did at the pause (``retire``) and take the barrier and idle hook
        down.

        The closing collection is load-bearing: the barrier healed only
        the operand-stack slots it saw, so statics, heap cells and frame
        locals still hold old-shell addresses. Every read *and write*
        through those references depends on the barrier chasing the
        forwarding word; the barrier may only come down once a collection
        has rewritten every reference to the transformed copies (the GC's
        ``forward`` chases same-space forwarding for exactly this)."""
        vm = self.vm
        if self.transformed:
            vm.collect()
        self._disarm()
        self.retire(self.prepared, self.renamed)
        self.closed = True
        vm.tracer.instant(
            "dsu.lazy.epoch-drained", "dsu",
            transformed=self.transformed,
            touch_transforms=self.touch_transforms,
            sweep_transforms=self.sweep_transforms,
            heals=self.heals,
        )
        vm.metrics.inc("dsu.lazy.epochs_closed")
        vm.metrics.observe("dsu.lazy.touch_transforms", self.touch_transforms)
        vm.metrics.observe("dsu.lazy.sweep_transforms", self.sweep_transforms)

    # ------------------------------------------------------------------
    # held verification windows

    def rollback(self) -> None:
        """The held window is rolling back: take the barrier down. The
        barrier never wrote into old objects' data cells (only their
        status headers and operand-stack slots), so once the transaction
        zeroes every status word below its snapshot bump and truncates the
        heap there — discarding every new-layout object the epoch
        allocated — the pre-update heap image is restored bit for bit."""
        if self.armed:
            self._disarm()
        self.vm.metrics.inc("dsu.lazy.epochs_discarded")
