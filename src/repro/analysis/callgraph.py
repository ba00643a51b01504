"""Whole-program call graph over :class:`~repro.bytecode.classfile.ClassFile`
instruction streams.

``INVOKESTATIC``/``INVOKESPECIAL`` sites resolve through the superclass
chain exactly as the inliner does (:mod:`repro.vm.inlining`), so the edges
match what the JIT would bind. ``INVOKEVIRTUAL`` sites are approximated by
class-hierarchy analysis: the statically resolved implementation plus every
override declared by a subclass of the static receiver type. Unresolvable
sites (a missing owner or a broken superclass chain) are recorded rather
than dropped — the safe-point passes treat them as "could call anything
long-running" warnings instead of silently assuming they are harmless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..bytecode.classfile import ClassFile, MethodInfo
from ..dsu.specification import MethodKey

INVOKE_OPS = ("INVOKESTATIC", "INVOKESPECIAL", "INVOKEVIRTUAL")


@dataclass(frozen=True)
class UnresolvedCall:
    """A call site whose target method could not be found."""

    caller: MethodKey
    pc: int
    op: str
    owner: str
    name: str
    descriptor: str

    def describe(self) -> str:
        return (
            f"{self.op} {self.owner}.{self.name}{self.descriptor} "
            f"at pc {self.pc}"
        )


@dataclass
class CallGraph:
    """Nodes are method keys ``(class, name, descriptor)``; edges are
    may-call relations."""

    classfiles: Dict[str, ClassFile]
    callees: Dict[MethodKey, Set[MethodKey]] = field(default_factory=dict)
    callers: Dict[MethodKey, Set[MethodKey]] = field(default_factory=dict)
    #: native functions each method invokes directly (``INVOKENATIVE``)
    natives: Dict[MethodKey, Set[str]] = field(default_factory=dict)
    unresolved: List[UnresolvedCall] = field(default_factory=list)
    #: direct subclasses, for CHA dispatch
    subclasses: Dict[str, Set[str]] = field(default_factory=dict)
    #: :func:`~.reachability.never_return_closure`'s map, built on first
    #: use; the graph never changes after :func:`build_call_graph`
    never_return: Optional[Dict[MethodKey, MethodKey]] = field(
        default=None, repr=False
    )

    # ------------------------------------------------------------------
    # queries

    def nodes(self) -> List[MethodKey]:
        return sorted(self.callees)

    def method_info(self, key: MethodKey) -> Optional[MethodInfo]:
        classfile = self.classfiles.get(key[0])
        if classfile is None:
            return None
        return classfile.get_method(key[1], key[2])

    def transitive_callees(self, key: MethodKey) -> Set[MethodKey]:
        seen: Set[MethodKey] = set()
        stack = [key]
        while stack:
            current = stack.pop()
            for callee in self.callees.get(current, ()):
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return seen

    def roots(self) -> List[MethodKey]:
        """Methods no analyzed call site targets: thread entry points
        (``main``, spawned ``run`` methods) and dead code."""
        return sorted(k for k in self.callees if not self.callers.get(k))

    def depths(self) -> Dict[MethodKey, int]:
        """BFS distance from the roots — rank 0 is a thread entry point.
        Unreachable nodes (cycles with no root) get a large depth."""
        from collections import deque

        depth: Dict[MethodKey, int] = {}
        queue = deque()
        for root in self.roots():
            depth[root] = 0
            queue.append(root)
        while queue:
            current = queue.popleft()
            for callee in self.callees.get(current, ()):
                if callee not in depth:
                    depth[callee] = depth[current] + 1
                    queue.append(callee)
        fallback = (max(depth.values()) + 1) if depth else 0
        for key in self.callees:
            depth.setdefault(key, fallback)
        return depth

    # ------------------------------------------------------------------
    # construction

    def _add_edge(self, caller: MethodKey, callee: MethodKey) -> None:
        self.callees[caller].add(callee)
        self.callers.setdefault(callee, set()).add(caller)

    def _resolve_static(
        self, owner: str, name: str, descriptor: str
    ) -> Optional[MethodKey]:
        """Walk the superclass chain, as the JIT and the inliner do."""
        current: Optional[str] = owner
        while current is not None:
            classfile = self.classfiles.get(current)
            if classfile is None:
                return None
            if classfile.get_method(name, descriptor) is not None:
                return (current, name, descriptor)
            current = classfile.superclass
        return None

    def _all_subclasses(self, name: str) -> Set[str]:
        result: Set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            for sub in self.subclasses.get(current, ()):
                if sub not in result:
                    result.add(sub)
                    stack.append(sub)
        return result

    def _resolve_virtual(
        self, receiver: str, name: str, descriptor: str
    ) -> List[MethodKey]:
        """CHA: the inherited implementation plus every subclass override."""
        targets: List[MethodKey] = []
        base = self._resolve_static(receiver, name, descriptor)
        if base is not None:
            targets.append(base)
        for sub in sorted(self._all_subclasses(receiver)):
            classfile = self.classfiles.get(sub)
            if classfile is not None and classfile.get_method(
                name, descriptor
            ) is not None:
                targets.append((sub, name, descriptor))
        return targets


def build_call_graph(classfiles: Dict[str, ClassFile]) -> CallGraph:
    graph = CallGraph(dict(classfiles))
    for name, classfile in classfiles.items():
        if classfile.superclass is not None:
            graph.subclasses.setdefault(classfile.superclass, set()).add(name)
    for class_name, classfile in sorted(classfiles.items()):
        for (method_name, descriptor), method in classfile.methods.items():
            caller: MethodKey = (class_name, method_name, descriptor)
            graph.callees.setdefault(caller, set())
            graph.natives.setdefault(caller, set())
            for pc, instr in enumerate(method.instructions):
                if instr.op == "INVOKENATIVE":
                    graph.natives[caller].add(instr.a)
                    continue
                if instr.op not in INVOKE_OPS:
                    continue
                target_name, target_descriptor = instr.b
                if instr.op == "INVOKEVIRTUAL":
                    targets = graph._resolve_virtual(
                        instr.a, target_name, target_descriptor
                    )
                else:
                    found = graph._resolve_static(
                        instr.a, target_name, target_descriptor
                    )
                    targets = [found] if found is not None else []
                if not targets:
                    graph.unresolved.append(
                        UnresolvedCall(
                            caller, pc, instr.op, instr.a,
                            target_name, target_descriptor,
                        )
                    )
                    continue
                for target in targets:
                    graph._add_edge(caller, target)
    return graph
