"""Activation frames."""

from __future__ import annotations

from typing import List, Optional

from .machinecode import CompiledMethod


class Frame:
    """One activation record.

    ``pc`` always names the instruction *about to execute* (or currently
    blocked / being waited on). While a callee runs, the caller's ``pc``
    stays at the invoke instruction and the arguments stay on the caller's
    operand stack, so the verifier's type state at ``pc`` describes the
    runtime frame exactly — that is the stack-map contract the GC relies on.
    """

    __slots__ = (
        "code",
        "pc",
        "locals",
        "stack",
        "arg_cells",
        "return_barrier",
        "entered_at_version",
    )

    def __init__(self, code: CompiledMethod, arg_values: List[int], arg_cells: int = 0):
        self.code = code
        self.pc = 0
        self.locals: List[int] = list(arg_values) + [0] * (
            code.max_locals - len(arg_values)
        )
        self.stack: List[int] = []
        #: how many caller stack slots (receiver + args) this call consumed;
        #: popped by the caller when this frame returns
        self.arg_cells = arg_cells
        #: set by the DSU engine: notify on return (paper §3.2 return barriers)
        self.return_barrier = False
        #: bytecode version of the method when this frame was pushed
        self.entered_at_version = code.entry.bytecode_version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Frame {self.code.entry.qualified_name} pc={self.pc}>"


class VMThread:
    """A green thread scheduled cooperatively at yield points."""

    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    DEAD = "dead"

    _next_id = 1

    def __init__(self, name: str = ""):
        self.id = VMThread._next_id
        VMThread._next_id = VMThread._next_id + 1
        self.name = name or f"thread-{self.id}"
        self.frames: List[Frame] = []
        self.state = VMThread.RUNNABLE
        #: predicate () -> bool set while blocked; thread wakes when true
        self.wake_condition = None
        #: simulated-ms deadline for sleeps (None = no deadline)
        self.wake_at_ms: Optional[float] = None
        #: why the thread died, if it trapped
        self.trap_message: Optional[str] = None
        #: daemon threads do not keep the VM alive
        self.daemon = False
        #: return value of the thread's root frame, if it produced one
        self.result: Optional[int] = None

    @property
    def top_frame(self) -> Optional[Frame]:
        return self.frames[-1] if self.frames else None

    def is_alive(self) -> bool:
        return self.state != VMThread.DEAD

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VMThread {self.name} {self.state} depth={len(self.frames)}>"
