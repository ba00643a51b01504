"""Helpers for dynamic-software-update tests and benchmarks."""

from repro.compiler.compile import compile_source
from repro.dsu.engine import UpdateEngine, UpdateRequest
from repro.dsu.policy import UpdatePolicy
from repro.dsu.safepoint import RetryPolicy
from repro.dsu.upt import prepare_update
from repro.vm.vm import VM


class UpdateFixture:
    """Boots version 1 of a program and can update it to later versions."""

    def __init__(self, v1_source, v1="1.0", heap_cells=1 << 16, main_class="Main",
                 **vm_kwargs):
        self.sources = {v1: v1_source}
        self.classfiles = {v1: compile_source(v1_source, version=v1)}
        self.current_version = v1
        self.vm = VM(heap_cells=heap_cells, **vm_kwargs)
        self.vm.boot(self.classfiles[v1])
        self.engine = UpdateEngine(self.vm)
        self.main_class = main_class

    def start(self):
        self.vm.start_main(self.main_class)
        return self

    def prepare(self, v2_source, v2="2.0", overrides=None, helpers="", blacklist=()):
        self.sources[v2] = v2_source
        self.classfiles[v2] = compile_source(v2_source, version=v2)
        return prepare_update(
            self.classfiles[self.current_version],
            self.classfiles[v2],
            self.current_version,
            v2,
            transformer_overrides=overrides,
            transformer_helpers=helpers,
            blacklist=blacklist,
        )

    def update_at(self, time_ms, v2_source, v2="2.0", timeout_ms=15_000.0,
                  policy=None, **kwargs):
        """Schedule an update request at a simulated time; returns the
        (eventually filled-in) UpdateResult. ``policy`` overrides the
        default :class:`UpdatePolicy` (its retry timeout is taken from
        ``timeout_ms`` when not supplied)."""
        prepared = self.prepare(v2_source, v2, **kwargs)
        holder = {}

        if policy is None:
            policy = UpdatePolicy(retry=RetryPolicy(timeout_ms=timeout_ms))
        request_obj = UpdateRequest(prepared, policy=policy)

        def request():
            holder["result"] = self.engine.submit(request_obj)

        self.vm.events.schedule(time_ms, request)
        self._pending = holder
        self._pending_version = v2
        return holder

    def run(self, until_ms=None, max_instructions=5_000_000):
        self.vm.run(until_ms=until_ms, max_instructions=max_instructions)
        holder = getattr(self, "_pending", None)
        if holder and holder.get("result") and holder["result"].succeeded:
            self.current_version = self._pending_version
        return self

    @property
    def console(self):
        return self.vm.console


def nonzero_status_words(vm):
    """Addresses in the current space whose status word is not 0. Outside
    an update window or an open lazy epoch the list must be empty: only
    the update collection and an epoch write status words, and the update
    or the epoch zeroes what it wrote."""
    from repro.vm.heap import HEADER_STATUS

    cells = vm.heap.cells
    found = []
    address = vm.heap.space_start
    while address < vm.heap.bump:
        if cells[address + HEADER_STATUS] != 0:
            found.append(address)
        address += vm.objects.object_size_cells(address)
    return found


def stale_frames(vm):
    """Frames still running code an update replaced: their method entry is
    obsolete, or its body moved on since the frame was pushed (the
    entry's ``bytecode_version`` is not the one the frame entered at)."""
    return [
        frame
        for thread in vm.threads
        for frame in thread.frames
        if frame.code.entry.obsolete
        or frame.entered_at_version != frame.code.entry.bytecode_version
    ]
