"""The execution engine.

Executes resolved machine code (:mod:`repro.vm.machinecode`) one thread at a
time. Yield points sit at method entries, method exits and loop back edges,
exactly where Jikes RVM puts them (paper §3.2): when the VM wants to stop
the world (GC, DSU), it raises the yield flag and the running thread parks
at its next yield point with every frame in a stack-map-consistent state.

GC discipline: an instruction must not mutate the operand stack before its
last potential allocation, so that a collection triggered mid-instruction
still sees the operand stack exactly as the verifier's type state at the
current pc describes it.

Dispatch. A :class:`~repro.vm.machinecode.CompiledMethod` is decoded once,
on its first execution, into a flat per-pc list of ``(opcode, operand)``
pairs (:func:`decode`): the opcode is an index into :data:`OPCODE_NAMES`,
the operand is what the handler needs, already pulled out of the
:class:`~repro.bytecode.instructions.Instr`. The decoded form is cached on
that CompiledMethod, so new code (a recompile, an update, an OSR swap)
brings its own and nothing needs invalidating. It holds no heap address:
a ``CONST_STR`` keeps its text and looks the intern up when it runs.

Each VM's interpreter owns a handler table, one function per opcode
(:data:`OPCODE_NAMES` order, then the trap for an undecodable op), called
as ``handler(thread, frame, stack, pc, operand)``. A handler returns the
next pc, or ``None`` when the instruction was a yield point (a call, a
return, a back edge, a native) — it has then stored ``frame.pc`` itself.
:meth:`Interpreter.run_thread` keeps the frame, its decoded code, its
operand stack and its pc in locals and re-reads them only after a
``None``, so ``frame.pc`` lags while straight-line code runs. Every handler
that lets the VM look at the frame — an allocation (the collector reads
the stack map at ``frame.pc``), a call, a native, a barrier slow path —
stores ``frame.pc = pc`` first.

Barriers are table swaps. :meth:`Interpreter.arm_lazy_barrier` (a lazy
epoch opening) replaces the six barrier sites with armed variants;
disarming puts the plain entries back, so a disarmed VM tests no barrier
slot at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..bytecode.instructions import OPCODES, Instr
from .frames import Frame
from .heap import HEADER_STATUS, HEADER_TIB, NULL
from .natives import Block, NativeContext, lookup_native
from .objectmodel import VMTrap

if TYPE_CHECKING:  # pragma: no cover
    from .frames import VMThread
    from .machinecode import CompiledMethod
    from .vm import VM

#: reasons run_thread returns
RAN_QUANTUM = "quantum"
PARKED_AT_YIELD = "yield"
BLOCKED = "blocked"
THREAD_DIED = "died"
VM_HALTED = "halted"

#: the decoded opcode of each instruction-set member is its index here
OPCODE_NAMES: Tuple[str, ...] = tuple(sorted(OPCODES))
OPCODE: Dict[str, int] = {name: index for index, name in enumerate(OPCODE_NAMES)}
#: the decoded opcode of anything else: its handler raises when it runs
UNKNOWN = len(OPCODE_NAMES)

#: the instructions that dereference a reference a lazy epoch may have
#: left pending or forwarded
LAZY_BARRIER_SITES = ("GETFIELD", "PUTFIELD", "REF_EQ", "CHECKCAST",
                      "INSTANCEOF", "INVOKEVIRTUAL")

Handler = Callable[..., Optional[int]]
Decoded = List[Tuple[int, object]]


#: how :func:`decode` pulls an operand out of an ``Instr`` (default: ``a``)
_OPERANDS: Dict[str, Callable[[Instr], object]] = {
    "CONST_BOOL": lambda instr: 1 if instr.a else 0,
    "CONST_NULL": lambda instr: NULL,
    "INVOKEVIRTUAL": lambda instr: (instr.a, instr.b),
    "INVOKESTATIC": lambda instr: (instr.a, instr.b),
    "INVOKESPECIAL": lambda instr: (instr.a, instr.b),
    # (native name, argc, has a result)
    "INVOKENATIVE": lambda instr: (instr.a, instr.b[0], instr.b[1] != "V"),
    # has a return value
    "RETURN": lambda instr: False,
    "RETURN_VALUE": lambda instr: True,
}


def decode(code: "CompiledMethod") -> Decoded:
    """Decode ``code`` for dispatch and cache the result on it. An op
    outside the instruction set keeps its name as the operand of the
    unknown-op trap."""
    decoded: Decoded = []
    for instr in code.instructions:
        opcode = OPCODE.get(instr.op, UNKNOWN)
        shape = _OPERANDS.get(instr.op)
        if opcode == UNKNOWN:
            operand: object = instr.op
        elif shape is None:
            operand = instr.a
        else:
            operand = shape(instr)
        decoded.append((opcode, operand))
    code.decoded = decoded
    return decoded


class Interpreter:
    """Executes one thread at a time against the shared VM state."""

    def __init__(self, vm: "VM"):
        self.vm = vm
        self.instructions_executed = 0
        handlers = _plain_handlers(vm)
        #: the disarmed table, in :data:`OPCODE_NAMES` order plus the trap
        self.plain: Tuple[Handler, ...] = tuple(
            handlers[name] for name in OPCODE_NAMES
        ) + (handlers[None],)
        #: the table run_thread dispatches through; barriers swap entries
        #: in place
        self.handlers: List[Handler] = list(self.plain)
        self.lazy_barrier_armed = False

    # ------------------------------------------------------------------
    # barrier arming

    def arm_lazy_barrier(self, barrier: Callable[..., None],
                         pending: Dict[int, object]) -> None:
        """Swap the armed variants in at the six barrier sites.

        ``barrier(frame, slot, heal_only=False)`` is the epoch's slow path
        (:meth:`repro.dsu.lazy.LazyEpoch.barrier`); ``pending`` maps each
        pending old class id to its new class. An armed site charges the
        one ``lazy_barrier_check`` tick inline when its reference is
        non-null, unforwarded and not of a pending class, and calls
        ``barrier`` only otherwise."""
        armed = _lazy_barrier_handlers(self.vm, self.plain, barrier, pending)
        for name in LAZY_BARRIER_SITES:
            self.handlers[OPCODE[name]] = armed[name]
        self.lazy_barrier_armed = True

    def disarm_lazy_barrier(self) -> None:
        for name in LAZY_BARRIER_SITES:
            self.handlers[OPCODE[name]] = self.plain[OPCODE[name]]
        self.lazy_barrier_armed = False

    # ------------------------------------------------------------------
    # thread execution

    def run_thread(self, thread: "VMThread", quantum: int) -> str:
        """Run ``thread`` for up to ``quantum`` instructions.

        Returns the park reason; the thread's frames are always left in a
        safe-point-consistent state. The quantum is checked at yield points
        only, and the clock ticks after every instruction.
        """
        vm = self.vm
        clock = vm.clock
        cost = clock.costs.instruction
        handlers = self.handlers
        steps = 0
        frame: Optional[Frame] = None
        pc: Optional[int] = None
        try:
            while True:
                if vm.halted:
                    return VM_HALTED
                frames = thread.frames
                if not frames:
                    thread.state = thread.DEAD
                    return THREAD_DIED
                frame = frames[-1]
                code = frame.code
                decoded = code.decoded
                if decoded is None:
                    decoded = decode(code)
                stack = frame.stack
                pc = frame.pc
                while pc is not None:
                    opcode, operand = decoded[pc]
                    pc = handlers[opcode](thread, frame, stack, pc, operand)
                    steps += 1
                    clock.cycles += cost
                # A yield point, or a native that blocked.
                if thread.state == thread.BLOCKED:
                    return BLOCKED
                if vm.yield_flag or vm.yield_requested:
                    vm.yield_requested = False
                    return PARKED_AT_YIELD
                if steps >= quantum:
                    return RAN_QUANTUM
        except VMTrap as trap:
            thread.trap_message = str(trap)
            thread.state = thread.DEAD
            thread.frames.clear()
            vm.record_trap(thread, trap)
            return THREAD_DIED
        except BaseException:
            # Leave the frame at the instruction that raised, as a
            # safe-point-consistent frame always names its current pc.
            if pc is not None and frame is not None:
                frame.pc = pc
            raise
        finally:
            self.instructions_executed += steps


# ----------------------------------------------------------------------
# the plain handler table


def _plain_handlers(vm: "VM") -> Dict[Optional[str], Handler]:
    """One handler per opcode, keyed by name (``None``: the unknown-op
    trap). The closures capture the VM structures they touch; each is
    created once and only ever mutated in place."""
    clock = vm.clock
    costs = clock.costs
    cells = vm.heap.cells
    objects = vm.objects
    element_cell = objects.element_cell
    classes = vm.registry.by_id
    entries = vm.methods.entries
    statics = vm.jtoc.cells
    interns = vm.literal_interns
    jit = vm.jit

    # --- call machinery -------------------------------------------------

    def push_frame(thread, stack, code, arg_cells):
        frames = thread.frames
        if len(frames) >= vm.max_stack_depth:
            raise VMTrap("stack overflow")
        frames.append(Frame(code, stack[-arg_cells:] if arg_cells else [],
                            arg_cells))
        # Method entry is a yield point; the caller's pc stays at the call.
        return None

    def return_(thread, frame, stack, pc, has_value):
        frame.pc = pc  # the return hooks see the frame as it was
        return_value = stack[-1] if has_value else None
        thread.frames.pop()
        if frame.return_barrier:
            vm.on_return_barrier(thread, frame)
        # Version-tagged dispatch: a frame that outlived a bypass install
        # (its method's bytecode_version moved on while it ran the old
        # code) retires here — tell the engine one old-version frame is
        # gone so it can track the two-version window draining.
        if (
            vm.stale_frame_retired_hook is not None
            and frame.entered_at_version != frame.code.entry.bytecode_version
        ):
            vm.stale_frame_retired_hook(thread, frame)
        if thread.frames:
            caller = thread.frames[-1]
            if frame.arg_cells:
                del caller.stack[-frame.arg_cells:]
            if return_value is not None:
                caller.stack.append(return_value)
            caller.pc += 1
        else:
            thread.state = thread.DEAD
            if return_value is not None:
                thread.result = return_value
        return None

    def invoke_native(thread, frame, stack, native_name, argc, has_result):
        fn = lookup_native(native_name)
        args = stack[-argc:] if argc else []
        context = NativeContext(vm, thread)
        try:
            result = fn(context, args)
        finally:
            context.release_roots()
        if isinstance(result, Block):
            thread.state = thread.BLOCKED
            thread.wake_condition = result.wake_condition
            thread.wake_at_ms = result.wake_at_ms
            # pc unchanged: the native re-executes on wake.
            return None
        clock.cycles += costs.native_call
        if argc:
            del stack[-argc:]
        if has_result:
            stack.append(result)
        frame.pc += 1
        # Native-call completion is a yield point (this is also what makes
        # Sys.yield take effect immediately).
        return None

    def invoke_entry_native(thread, frame, stack, entry, argc):
        info = entry.info
        return invoke_native(thread, frame, stack,
                             f"{entry.owner.name}.{info.name}", argc,
                             not info.descriptor.endswith("V"))

    # --- constants / stack manipulation ----------------------------------

    def push(thread, frame, stack, pc, value):
        stack.append(value)
        return pc + 1

    def const_str(thread, frame, stack, pc, text):
        address = interns.get(text)
        if not address:  # not interned yet, or NULL
            frame.pc = pc
            address = vm.intern_literal(text)
        stack.append(address)
        return pc + 1

    def load(thread, frame, stack, pc, slot):
        stack.append(frame.locals[slot])
        return pc + 1

    def store(thread, frame, stack, pc, slot):
        frame.locals[slot] = stack.pop()
        return pc + 1

    def pop(thread, frame, stack, pc, _):
        stack.pop()
        return pc + 1

    def dup(thread, frame, stack, pc, _):
        stack.append(stack[-1])
        return pc + 1

    def swap(thread, frame, stack, pc, _):
        stack[-1], stack[-2] = stack[-2], stack[-1]
        return pc + 1

    # --- arithmetic ---------------------------------------------------------

    def add(thread, frame, stack, pc, _):
        right = stack.pop()
        stack[-1] = stack[-1] + right
        return pc + 1

    def sub(thread, frame, stack, pc, _):
        right = stack.pop()
        stack[-1] = stack[-1] - right
        return pc + 1

    def mul(thread, frame, stack, pc, _):
        right = stack.pop()
        stack[-1] = stack[-1] * right
        return pc + 1

    def div(thread, frame, stack, pc, _):
        right = stack.pop()
        if right == 0:
            raise VMTrap("division by zero")
        stack[-1] = int(stack[-1] / right)  # truncate toward zero
        return pc + 1

    def mod(thread, frame, stack, pc, _):
        right = stack.pop()
        if right == 0:
            raise VMTrap("modulo by zero")
        left = stack[-1]
        stack[-1] = left - int(left / right) * right
        return pc + 1

    def neg(thread, frame, stack, pc, _):
        stack[-1] = -stack[-1]
        return pc + 1

    def eq(thread, frame, stack, pc, _):
        right = stack.pop()
        stack[-1] = 1 if stack[-1] == right else 0
        return pc + 1

    def ne(thread, frame, stack, pc, _):
        right = stack.pop()
        stack[-1] = 1 if stack[-1] != right else 0
        return pc + 1

    def lt(thread, frame, stack, pc, _):
        right = stack.pop()
        stack[-1] = 1 if stack[-1] < right else 0
        return pc + 1

    def le(thread, frame, stack, pc, _):
        right = stack.pop()
        stack[-1] = 1 if stack[-1] <= right else 0
        return pc + 1

    def gt(thread, frame, stack, pc, _):
        right = stack.pop()
        stack[-1] = 1 if stack[-1] > right else 0
        return pc + 1

    def ge(thread, frame, stack, pc, _):
        right = stack.pop()
        stack[-1] = 1 if stack[-1] >= right else 0
        return pc + 1

    def not_(thread, frame, stack, pc, _):
        stack[-1] = 0 if stack[-1] else 1
        return pc + 1

    # --- strings (allocation-careful: peek, allocate, then pop) ------------

    def i2s(thread, frame, stack, pc, _):
        frame.pc = pc
        stack[-1] = vm.allocate_string(str(stack[-1]))
        return pc + 1

    def b2s(thread, frame, stack, pc, _):
        frame.pc = pc
        stack[-1] = vm.allocate_string("true" if stack[-1] else "false")
        return pc + 1

    def sconcat(thread, frame, stack, pc, _):
        frame.pc = pc
        left = objects.string_payload(stack[-2]) if stack[-2] != NULL else "null"
        right = objects.string_payload(stack[-1]) if stack[-1] != NULL else "null"
        address = vm.allocate_string(left + right)
        stack.pop()
        stack[-1] = address
        return pc + 1

    def seq(thread, frame, stack, pc, _):
        right = stack.pop()
        left = stack[-1]
        if left == NULL or right == NULL:
            stack[-1] = 1 if left == right else 0
        else:
            stack[-1] = (
                1
                if objects.string_payload(left) == objects.string_payload(right)
                else 0
            )
        return pc + 1

    def ref_eq(thread, frame, stack, pc, _):
        right = stack.pop()
        stack[-1] = 1 if stack[-1] == right else 0
        return pc + 1

    # --- heap access --------------------------------------------------------

    def new(thread, frame, stack, pc, class_id):
        frame.pc = pc
        stack.append(vm.allocate_object(classes[class_id]))
        return pc + 1

    def newarray(thread, frame, stack, pc, class_id):
        frame.pc = pc
        stack[-1] = vm.allocate_array(classes[class_id], stack[-1])
        return pc + 1

    def getfield(thread, frame, stack, pc, offset):
        address = stack[-1]
        if address == NULL:
            raise VMTrap("null dereference")
        stack[-1] = cells[address + offset]
        return pc + 1

    def putfield(thread, frame, stack, pc, offset):
        value = stack.pop()
        address = stack.pop()
        if address == NULL:
            raise VMTrap("null dereference")
        cells[address + offset] = value
        return pc + 1

    def getstatic(thread, frame, stack, pc, index):
        stack.append(statics[index])
        return pc + 1

    def putstatic(thread, frame, stack, pc, index):
        statics[index] = stack.pop()
        return pc + 1

    def aload(thread, frame, stack, pc, _):
        index = stack.pop()
        stack[-1] = cells[element_cell(stack[-1], index)]
        return pc + 1

    def astore(thread, frame, stack, pc, _):
        value = stack.pop()
        index = stack.pop()
        cells[element_cell(stack.pop(), index)] = value
        return pc + 1

    def arraylength(thread, frame, stack, pc, _):
        stack[-1] = objects.array_length(stack[-1])
        return pc + 1

    def checkcast(thread, frame, stack, pc, descriptor):
        objects.checkcast(stack[-1], descriptor)
        return pc + 1

    def instanceof(thread, frame, stack, pc, descriptor):
        stack[-1] = 1 if objects.is_instance(stack[-1], descriptor) else 0
        return pc + 1

    # --- control flow -------------------------------------------------------

    def jump(thread, frame, stack, pc, target):
        if target <= pc:  # back edge: yield point
            frame.pc = target
            return None
        return target

    def jump_if_false(thread, frame, stack, pc, target):
        return target if stack.pop() == 0 else pc + 1

    def jump_if_true(thread, frame, stack, pc, target):
        return target if stack.pop() != 0 else pc + 1

    # --- calls ----------------------------------------------------------------

    def invokevirtual(thread, frame, stack, pc, operand):
        tib_slot, argc = operand
        receiver = stack[-argc - 1]
        if receiver == NULL:
            raise VMTrap("null receiver in virtual call")
        frame.pc = pc
        tib = classes[cells[receiver + HEADER_TIB]].tib
        entry = tib.methods[tib_slot]
        # Refresh the TIB's code cache when the entry's active code changed
        # (invalidation or tier promotion).
        code = jit.code_for_call(entry)
        if tib.code[tib_slot] is not code:
            tib.code[tib_slot] = code
        if entry.info.is_native:
            return invoke_entry_native(thread, frame, stack, entry, argc + 1)
        return push_frame(thread, stack, code, argc + 1)

    def invoke_entry(thread, frame, stack, pc, operand):
        entry_id, argc = operand
        entry = entries[entry_id]
        if entry.obsolete:
            raise VMTrap(f"call to obsolete method {entry.qualified_name}")
        frame.pc = pc
        if entry.info.is_native:
            return invoke_entry_native(thread, frame, stack, entry, argc)
        return push_frame(thread, stack, jit.code_for_call(entry), argc)

    def invokenative(thread, frame, stack, pc, operand):
        native_name, argc, has_result = operand
        frame.pc = pc
        return invoke_native(thread, frame, stack, native_name, argc,
                             has_result)

    def unknown(thread, frame, stack, pc, op):
        raise VMTrap(f"unknown opcode {op}")

    return {
        "CONST_INT": push, "CONST_BOOL": push, "CONST_NULL": push,
        "CONST_STR": const_str, "LOAD": load, "STORE": store, "POP": pop,
        "DUP": dup, "SWAP": swap,
        "ADD": add, "SUB": sub, "MUL": mul, "DIV": div, "MOD": mod,
        "NEG": neg, "EQ": eq, "NE": ne, "LT": lt, "LE": le, "GT": gt,
        "GE": ge, "NOT": not_,
        "I2S": i2s, "B2S": b2s, "SCONCAT": sconcat, "SEQ": seq,
        "REF_EQ": ref_eq,
        "NEW": new, "NEWARRAY": newarray, "GETFIELD": getfield,
        "PUTFIELD": putfield, "GETSTATIC": getstatic,
        "PUTSTATIC": putstatic, "ALOAD": aload, "ASTORE": astore,
        "ARRAYLENGTH": arraylength, "CHECKCAST": checkcast,
        "INSTANCEOF": instanceof,
        "JUMP": jump, "JUMP_IF_FALSE": jump_if_false,
        "JUMP_IF_TRUE": jump_if_true,
        "INVOKEVIRTUAL": invokevirtual, "INVOKESTATIC": invoke_entry,
        "INVOKESPECIAL": invoke_entry, "INVOKENATIVE": invokenative,
        "RETURN": return_, "RETURN_VALUE": return_,
        None: unknown,
    }


# ----------------------------------------------------------------------
# armed variants


def _after_program_code(vm: "VM", frame: Frame, next_pc: int) -> Optional[int]:
    """A barrier slow path may run program code (a transformer). Had that
    halted the VM, the quantum ends right after this instruction, as it
    would at the next instruction boundary."""
    if vm.halted:
        frame.pc = next_pc
        return None
    return next_pc


def _lazy_barrier_handlers(vm: "VM", plain: Tuple[Handler, ...],
                           barrier: Callable[..., None],
                           pending: Dict[int, object]) -> Dict[str, Handler]:
    """The six barrier sites with the epoch's read barrier in front.

    The common case is inlined: a NULL reference costs nothing (the
    barrier never charges for one), and an unforwarded reference of a
    class that is not pending costs the one ``lazy_barrier_check`` tick.
    Anything else — a forwarding word to chase, a pending object to
    transform — calls ``barrier``, which charges that tick itself, and
    then runs the instruction on the healed slot."""
    clock = vm.clock
    check = clock.costs.lazy_barrier_check
    cells = vm.heap.cells
    objects = vm.objects
    plain_invokevirtual = plain[OPCODE["INVOKEVIRTUAL"]]

    def getfield(thread, frame, stack, pc, offset):
        address = stack[-1]
        if address == NULL:
            raise VMTrap("null dereference")
        if cells[address + HEADER_STATUS] or cells[address + HEADER_TIB] in pending:
            frame.pc = pc
            barrier(frame, -1)
            stack[-1] = cells[stack[-1] + offset]
            return _after_program_code(vm, frame, pc + 1)
        clock.cycles += check
        stack[-1] = cells[address + offset]
        return pc + 1

    def putfield(thread, frame, stack, pc, offset):
        address = stack[-2]
        if address == NULL:
            raise VMTrap("null dereference")
        if cells[address + HEADER_STATUS] or cells[address + HEADER_TIB] in pending:
            frame.pc = pc
            barrier(frame, -2)
            value = stack.pop()
            cells[stack.pop() + offset] = value
            return _after_program_code(vm, frame, pc + 1)
        clock.cycles += check
        cells[address + offset] = stack.pop()
        del stack[-1]
        return pc + 1

    # Type tests need the *new* class: a pending object still carries its
    # renamed old class, which is an instance of nothing the program can
    # name.
    def checkcast(thread, frame, stack, pc, descriptor):
        address = stack[-1]
        if address != NULL:
            if cells[address + HEADER_STATUS] or cells[address + HEADER_TIB] in pending:
                frame.pc = pc
                barrier(frame, -1)
                objects.checkcast(stack[-1], descriptor)
                return _after_program_code(vm, frame, pc + 1)
            clock.cycles += check
        objects.checkcast(address, descriptor)
        return pc + 1

    def instanceof(thread, frame, stack, pc, descriptor):
        address = stack[-1]
        if address != NULL:
            if cells[address + HEADER_STATUS] or cells[address + HEADER_TIB] in pending:
                frame.pc = pc
                barrier(frame, -1)
                stack[-1] = 1 if objects.is_instance(stack[-1], descriptor) else 0
                return _after_program_code(vm, frame, pc + 1)
            clock.cycles += check
        stack[-1] = 1 if objects.is_instance(address, descriptor) else 0
        return pc + 1

    def ref_eq(thread, frame, stack, pc, _):
        # Identity must be forwarding-blind during a lazy epoch:
        # canonicalize both operands (heal, never transform).
        for slot in (-1, -2):
            address = stack[slot]
            if address != NULL:
                if cells[address + HEADER_STATUS]:
                    barrier(frame, slot, heal_only=True)
                else:
                    clock.cycles += check
        right = stack.pop()
        stack[-1] = 1 if stack[-1] == right else 0
        return pc + 1

    def invokevirtual(thread, frame, stack, pc, operand):
        # Virtual dispatch reads the receiver's TIB: a pending object's
        # renamed old class has an invalidated TIB, so transform first.
        # The call is a yield point, where the quantum ends if the VM
        # halted meanwhile.
        slot = -operand[1] - 1
        receiver = stack[slot]
        if receiver != NULL:
            if (cells[receiver + HEADER_STATUS]
                    or cells[receiver + HEADER_TIB] in pending):
                frame.pc = pc
                barrier(frame, slot)
            else:
                clock.cycles += check
        return plain_invokevirtual(thread, frame, stack, pc, operand)

    return {
        "GETFIELD": getfield,
        "PUTFIELD": putfield,
        "REF_EQ": ref_eq,
        "CHECKCAST": checkcast,
        "INSTANCEOF": instanceof,
        "INVOKEVIRTUAL": invokevirtual,
    }

