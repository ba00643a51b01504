"""The semi-space heap.

Memory is a flat array of cells addressed by integer index, split into two
equal semispaces. Allocation bumps a pointer in the current space; when it
overflows, the VM runs the semi-space copying collector (:mod:`repro.vm.gc`)
and the spaces flip. Address ``0`` is the null reference; no object is ever
allocated below :data:`HEAP_BASE`.

Object layout (see :mod:`repro.vm.objectmodel`):

* scalar object: ``[tib_id, status, field0, field1, ...]``
* array:         ``[tib_id, status, length, elem0, elem1, ...]``
* string:        ``[tib_id, status, payload_index]``

``status`` is 0 in steady state; during a collection it holds the
forwarding pointer (any value >= HEAP_BASE means "forwarded"), and during a
dynamic update the collector uses it on *new* versions of updated objects to
cache the address of the old copy (paper §3.4: "we instead cache a pointer
to the old version in the new version during the collection").

A third use appears during a *lazy-transformation epoch*
(:mod:`repro.dsu.engine`): an object transformed on first touch keeps its
old cells intact and gets a **same-space** forwarding pointer in its status
word, pointing at the freshly allocated new-layout object. The two uses are
distinguishable by destination: a collection's forwarding always crosses
into the other semispace, lazy forwarding never leaves the current one.
The GC's ``forward`` chases lazy words; the interpreter's read barrier
heals stack slots through them; the next collection retires the old shells.
"""

from __future__ import annotations

from typing import Dict, List, Optional

NULL = 0
HEAP_BASE = 16

#: header size in cells: [tib_id, status]
HEADER_CELLS = 2
HEADER_TIB = 0
HEADER_STATUS = 1


class OutOfMemoryError(Exception):
    """The heap cannot satisfy an allocation even after collection."""


class HeapPreflightError(OutOfMemoryError):
    """The update-collection sizing pre-flight predicts a to-space overflow.

    Raised *before* any object is copied (paper §3.5 warns the double copy
    of updated objects "adds temporary memory pressure"), so the abort
    needs no un-flip: from-space was never touched. Carries the numbers
    the abort reason reports to the operator."""

    def __init__(self, needed_cells: int, available_cells: int,
                 suggested_heap_cells: int):
        super().__init__(
            f"pre-flight estimate: {needed_cells} to-space cells needed, "
            f"{available_cells} available"
        )
        self.needed_cells = needed_cells
        self.available_cells = available_cells
        self.suggested_heap_cells = suggested_heap_cells


class Heap:
    """A two-semispace bump-allocated heap."""

    def __init__(self, size_cells: int):
        if size_cells < 4 * HEAP_BASE:
            raise ValueError(f"heap of {size_cells} cells is too small")
        self.size = size_cells
        self.cells: List[int] = [0] * size_cells
        half = size_cells // 2
        # Both spaces reserve HEAP_BASE low cells so they have identical
        # capacity — a full from-space must always fit into to-space.
        self._space_bounds = ((HEAP_BASE, half), (half + HEAP_BASE, size_cells))
        self.current_space = 0
        self.bump = self._space_bounds[0][0]
        #: allocation limit; normally the space end, but an update GC that
        #: segregates old copies into a top-of-space region lowers it until
        #: the DSU engine reclaims that region (paper §3.4: "If we put them
        #: in a special space, we could reclaim them immediately")
        self.ceiling = self._space_bounds[0][1]
        #: statistics
        self.allocations = 0
        self.cells_allocated = 0
        #: per-class allocation accounting, feeding the update collection's
        #: to-space sizing pre-flight: ``class_live_counts`` holds the
        #: survivor count per class id as of the last collection,
        #: ``class_alloc_counts`` the allocations per class id since then.
        #: Their sum is an upper bound on the live instances of a class.
        self.class_alloc_counts: Dict[int, int] = {}
        self.class_live_counts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # allocation

    @property
    def space_start(self) -> int:
        return self._space_bounds[self.current_space][0]

    @property
    def space_end(self) -> int:
        return self._space_bounds[self.current_space][1]

    @property
    def free_cells(self) -> int:
        return self.ceiling - self.bump

    @property
    def used_cells(self) -> int:
        return self.bump - self.space_start

    def can_allocate(self, cells: int) -> bool:
        return self.bump + cells <= self.ceiling

    def allocate_raw(self, cells: int) -> int:
        """Bump-allocate ``cells`` zeroed cells; caller checks capacity."""
        if not self.can_allocate(cells):
            raise OutOfMemoryError(
                f"allocation of {cells} cells failed ({self.free_cells} free)"
            )
        address = self.bump
        self.bump += cells
        self.cells[address : address + cells] = [0] * cells
        self.allocations += 1
        self.cells_allocated += cells
        return address

    # ------------------------------------------------------------------
    # per-class accounting (update-collection sizing pre-flight)

    def note_class_allocation(self, class_id: int) -> None:
        """Record one allocation of an instance of ``class_id``; called by
        :class:`repro.vm.objectmodel.ObjectModel` on every allocation."""
        self.class_alloc_counts[class_id] = (
            self.class_alloc_counts.get(class_id, 0) + 1
        )

    def record_survivors(self, survivors_by_class: Dict[int, int]) -> None:
        """A collection finished: the survivor counts become the new live
        baseline and the since-last-GC allocation counters reset."""
        self.class_live_counts = dict(survivors_by_class)
        self.class_alloc_counts.clear()

    def live_instances_upper_bound(self, class_id: int) -> int:
        """An upper bound on the live instances of ``class_id``: everything
        that survived the last collection plus everything allocated since
        (some of which may already be garbage — this never undercounts)."""
        return (
            self.class_live_counts.get(class_id, 0)
            + self.class_alloc_counts.get(class_id, 0)
        )

    # ------------------------------------------------------------------
    # collection support

    def other_space(self) -> int:
        return 1 - self.current_space

    def begin_flip(self) -> int:
        """Start allocating in the other semispace; returns its base.

        Used by the collector: copies go to the new space, then
        :meth:`finish_flip` commits.
        """
        start, _ = self._space_bounds[self.other_space()]
        return start

    def finish_flip(self, new_bump: int, ceiling: Optional[int] = None) -> None:
        self.current_space = self.other_space()
        self.bump = new_bump
        self.ceiling = ceiling if ceiling is not None else self.space_end

    def reset_ceiling(self) -> None:
        """Reclaim the segregated old-copy region in O(1)."""
        self.ceiling = self.space_end

    @property
    def semispace_capacity(self) -> int:
        """Usable cells per semispace (both spaces are equal by invariant)."""
        start, end = self._space_bounds[0]
        return end - start

    def grow(self, new_size_cells: int) -> None:
        """Grow the heap to ``new_size_cells`` total cells in place,
        preserving the equal-semispace invariant and every live address.

        Only legal while the *low* semispace (space 0) is current: live
        data then sits below the new halfway point and never moves, while
        the empty high space is simply relocated upward into the appended
        cells. Callers holding live data in the high space must run a
        normal collection first (it always fits — equal semispaces) and
        then grow; that is what the DSU engine's pre-flight does.
        """
        if self.current_space != 0:
            raise ValueError(
                "Heap.grow() requires the low semispace to be current; "
                "run a collection first"
            )
        if new_size_cells % 2:
            new_size_cells += 1
        if new_size_cells <= self.size:
            raise ValueError(
                f"cannot grow heap from {self.size} to {new_size_cells} cells"
            )
        ceiling_was_full = self.ceiling == self.space_end
        self.cells.extend([0] * (new_size_cells - self.size))
        half = new_size_cells // 2
        self.size = new_size_cells
        self._space_bounds = ((HEAP_BASE, half), (half + HEAP_BASE, new_size_cells))
        if ceiling_was_full:
            self.ceiling = self.space_end

    def in_space(self, address: int, space: int) -> bool:
        start, end = self._space_bounds[space]
        return start <= address < end

    # ------------------------------------------------------------------
    # cell access

    def read(self, address: int) -> int:
        return self.cells[address]

    def write(self, address: int, value: int) -> None:
        self.cells[address] = value
