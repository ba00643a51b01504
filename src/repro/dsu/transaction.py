"""The update transaction: snapshot and rollback of mutable update state.

The paper's contract is that a failed update leaves the program running the
*old* version ("a configurable timeout aborts the update", §3.3). Reaching
a DSU safe point is trivially abortable — nothing has been touched yet —
but the apply path mutates a lot of VM state: class metadata is renamed,
method entries are re-owned and re-keyed, TIBs and compiled code are
invalidated, JTOC slots are allocated, frames are OSR-replaced, and the
update collection rewrites every root.

:class:`UpdateTransaction` captures all of that *before* the first mutation
and can restore it exactly. Three properties make the restore cheap:

1. **Metadata is small.** Class records, method entries, TIB tables, frame
   registers and the JTOC are Python-level structures; shallow copies of
   the mutable bits cost microseconds and restoring them is assignment.

2. **The semi-space GC is naturally transactional.** The update collection
   copies the heap from from-space into to-space and only ever *writes*
   from-space status headers (forwarding pointers). The data cells of every
   old-version object survive untouched in from-space until the next
   collection. Aborting after (or during) the update GC therefore does not
   need a heap image: roll the roots back to their saved from-space
   addresses, un-flip the space pointers, and zero the forwarding words.
   Everything the transformers did happened in to-space and simply becomes
   unreachable scribble.

3. **Status words are 0 outside a window.** Only the update collection
   writes a non-zero status word during the pause, and it never writes an
   old object's data cells. So every full-scope rollback zeroes every
   status word below the snapshot bump: it needs no flag saying whether
   a collection started.

Known limitation (documented in docs/INTERNALS.md): user code executed
*during* the update window — ``<clinit>`` of freshly installed classes and
transformer bodies — can in principle write fields of pre-existing heap
objects. Static writes are undone (the JTOC is snapshotted) and transformer
writes land in to-space (discarded by the un-flip), but a ``<clinit>`` that
mutates an old object's instance field before the collection leaves that
write behind. The paper's update model gives transformers, not clinits,
the job of touching old state, so this matches Jvolve's own guarantees.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from ..vm.heap import HEADER_STATUS
from ..vm.rvmclass import RVMClass

if TYPE_CHECKING:  # pragma: no cover
    from ..vm.vm import VM

#: snapshot everything an ordinary safe-point update mutates
SCOPE_FULL = "full"
#: snapshot only code metadata (class files, class records, method
#: entries) — the immediate-bypass path never touches frames, the JTOC,
#: or the heap, so its transaction carries no heap addresses at all
SCOPE_CODE_ONLY = "code-only"


class _ClassRecord:
    """Mutable per-class state the installer touches."""

    __slots__ = (
        "rvmclass", "name", "obsolete", "classfile",
        "tib_slot_index", "tib_code", "tib_methods",
    )

    def __init__(self, rvmclass: RVMClass):
        self.rvmclass = rvmclass
        self.name = rvmclass.name
        self.obsolete = rvmclass.obsolete
        self.classfile = rvmclass.classfile
        self.tib_slot_index = dict(rvmclass.tib.slot_index)
        self.tib_code = list(rvmclass.tib.code)
        self.tib_methods = list(rvmclass.tib.methods)

    def restore(self) -> None:
        rvmclass = self.rvmclass
        rvmclass.name = self.name
        rvmclass.obsolete = self.obsolete
        rvmclass.classfile = self.classfile
        rvmclass.tib.slot_index = self.tib_slot_index
        rvmclass.tib.code = self.tib_code
        rvmclass.tib.methods = self.tib_methods


class _EntryRecord:
    """Mutable per-method-entry state the installer touches."""

    __slots__ = (
        "entry", "owner", "info", "base_code", "opt_code",
        "invocations", "bytecode_version", "obsolete",
    )

    def __init__(self, entry):
        self.entry = entry
        self.owner = entry.owner
        self.info = entry.info
        self.base_code = entry.base_code
        self.opt_code = entry.opt_code
        self.invocations = entry.invocations
        self.bytecode_version = entry.bytecode_version
        self.obsolete = entry.obsolete

    def restore(self) -> None:
        entry = self.entry
        entry.owner = self.owner
        entry.info = self.info
        entry.base_code = self.base_code
        entry.opt_code = self.opt_code
        entry.invocations = self.invocations
        entry.bytecode_version = self.bytecode_version
        entry.obsolete = self.obsolete


class _FrameRecord:
    """Registers of one activation frame (pre-OSR, pre-GC)."""

    __slots__ = ("frame", "code", "pc", "locals", "stack",
                 "entered_at_version", "return_barrier")

    def __init__(self, frame):
        self.frame = frame
        self.code = frame.code
        self.pc = frame.pc
        self.locals = list(frame.locals)
        self.stack = list(frame.stack)
        self.entered_at_version = frame.entered_at_version
        self.return_barrier = frame.return_barrier

    def restore(self) -> None:
        frame = self.frame
        frame.code = self.code
        frame.pc = self.pc
        frame.locals = self.locals
        frame.stack = self.stack
        frame.entered_at_version = self.entered_at_version
        frame.return_barrier = self.return_barrier


class UpdateTransaction:
    """Snapshot of everything an update mutates, taken at the DSU safe
    point with the world stopped, plus the inverse operation."""

    def __init__(self, vm: "VM", scope: str = SCOPE_FULL):
        if scope not in (SCOPE_FULL, SCOPE_CODE_ONLY):
            raise ValueError(f"unknown transaction scope {scope!r}")
        self.vm = vm
        self.scope = scope
        self.rolled_back = False

        # --- class/method metadata -----------------------------------
        self.classfiles = dict(vm.classfiles)
        self.registry_len = len(vm.registry.by_id)
        self.registry_by_name = dict(vm.registry.by_name)
        self.class_records = [_ClassRecord(c) for c in vm.registry.by_id]
        self.entries_len = len(vm.methods.entries)
        self.methods_by_key = dict(vm.methods._by_key)
        self.entry_records = [_EntryRecord(e) for e in vm.methods.entries]

        if scope == SCOPE_CODE_ONLY:
            # The immediate-bypass path replaces method bodies and class
            # file pointers and nothing else: frames keep running (old
            # frames finish on old code by design — rolling them back
            # would rewind the application), and the heap, JTOC and other
            # roots are never written.
            return

        # --- roots ----------------------------------------------------
        self.jtoc_len = len(vm.jtoc.cells)
        self.jtoc_cells = list(vm.jtoc.cells)
        self.literal_interns = dict(vm.literal_interns)
        self.native_roots: List[Tuple[list, List[int]]] = [
            (box, list(box)) for box in vm.native_roots
        ]
        self.extra_roots: List[Tuple[list, List[int]]] = [
            (box, list(box)) for box in vm.extra_roots
        ]
        self.frame_records = [
            _FrameRecord(frame)
            for thread in vm.threads
            for frame in thread.frames
        ]

        # --- heap pointers & geometry --------------------------------
        heap = vm.heap
        self.heap_space = heap.current_space
        self.heap_bump = heap.bump
        self.heap_ceiling = heap.ceiling
        # The update GC's pre-flight may grow the heap in place
        # (``--dsu-heap-grow``); rollback must restore the pre-update
        # geometry or a retry would see different semispace bounds.
        self.heap_size = heap.size
        self.heap_space_bounds = heap._space_bounds
        self.heap_cells_len = len(heap.cells)
        self.class_alloc_counts = dict(heap.class_alloc_counts)
        self.class_live_counts = dict(heap.class_live_counts)

    # ------------------------------------------------------------------

    def rollback(self) -> None:
        """Restore the snapshot. Idempotent; safe in any phase."""
        if self.rolled_back:
            return
        vm = self.vm

        # Metadata first, so heap headers resolve to old-version classes.
        for record in self.class_records:
            record.restore()
        del vm.registry.by_id[self.registry_len:]
        vm.registry.by_name.clear()
        vm.registry.by_name.update(self.registry_by_name)
        for record in self.entry_records:
            record.restore()
        del vm.methods.entries[self.entries_len:]
        vm.methods._by_key.clear()
        vm.methods._by_key.update(self.methods_by_key)
        vm.classfiles.clear()
        vm.classfiles.update(self.classfiles)

        if self.scope == SCOPE_CODE_ONLY:
            # Code metadata restored (bodies, version tags, class file
            # pointers); frames, roots and the heap were never touched.
            self.rolled_back = True
            return

        # Roots.
        del vm.jtoc.cells[self.jtoc_len:]
        del vm.jtoc.is_ref[self.jtoc_len:]
        del vm.jtoc.labels[self.jtoc_len:]
        vm.jtoc.cells[:] = self.jtoc_cells
        vm.literal_interns.clear()
        vm.literal_interns.update(self.literal_interns)
        for box, values in self.native_roots:
            box[:] = values
        for box, values in self.extra_roots:
            box[:] = values
        for record in self.frame_records:
            record.restore()

        # Heap: shrink any in-place growth back to the snapshot geometry.
        # Growth only appends cells, and the grow path pins the relocated
        # high space above everything the snapshot still points into, so
        # whatever the update GC copied there is discardable scribble.
        # Then un-flip to the pre-update space and zero the status words
        # the (possibly partial) update collection left in the objects
        # the snapshot still owns.
        heap = vm.heap
        if len(heap.cells) > self.heap_cells_len:
            del heap.cells[self.heap_cells_len:]
        heap.size = self.heap_size
        heap._space_bounds = self.heap_space_bounds
        heap.class_alloc_counts = dict(self.class_alloc_counts)
        heap.class_live_counts = dict(self.class_live_counts)
        heap.current_space = self.heap_space
        heap.bump = self.heap_bump
        heap.ceiling = self.heap_ceiling
        self._zero_status_words()
        self.rolled_back = True

    # ------------------------------------------------------------------

    def _zero_status_words(self) -> None:
        """Walk the restored current space up to the snapshot bump and
        zero every status word. Outside an update window or an open epoch
        each of them is 0, and only the update collection (cross-space
        forwarding) and a lazy epoch (same-space forwarding) write one;
        neither writes an old object's data cells, so class ids and array
        lengths still parse."""
        vm = self.vm
        cells = vm.heap.cells
        size_of = vm.objects.object_size_cells
        address = vm.heap.space_start
        while address < self.heap_bump:
            cells[address + HEADER_STATUS] = 0
            address += size_of(address)
