"""Dynamic class loading.

Loading a set of class files (a program at boot, or the new classes of a
dynamic update) performs, per the paper's VM pipeline:

1. bytecode verification against the *current* class table (plus the
   incoming classes), with the access-override exemption only for
   transformer classes produced by :mod:`repro.compiler.jastadd`;
2. creation of runtime metadata (:class:`RVMClass`): instance field layout,
   JTOC slots for statics, method entries, TIB construction;
3. execution of ``<clinit>`` static initializers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..bytecode.classfile import CLINIT_NAME, CTOR_NAME, ClassFile
from ..bytecode.verifier import ClassTable, Verifier
from ..compiler.jastadd import has_access_override
from ..lang.types import parse_descriptor
from .rvmclass import RVMClass

if TYPE_CHECKING:  # pragma: no cover
    from .vm import VM


class ClassLoadError(Exception):
    """A class set could not be loaded."""


class ClassLoader:
    """Loads class files into the running VM."""

    def __init__(self, vm: "VM"):
        self.vm = vm

    # ------------------------------------------------------------------

    def load(
        self,
        classfiles: Dict[str, ClassFile],
        run_clinit: bool = True,
        allow_access_override: bool = False,
    ) -> List[RVMClass]:
        """Verify and install ``classfiles``; returns the new RVMClasses in
        superclass-first order."""
        vm = self.vm
        for name, classfile in classfiles.items():
            if has_access_override(classfile) and not allow_access_override:
                raise ClassLoadError(
                    f"class {name} carries the transformer access-override flag "
                    "and may only be loaded during a dynamic update"
                )
            if vm.registry.maybe_get(name) is not None:
                raise ClassLoadError(f"class {name} is already loaded")

        # Verify against the union of loaded classes and the incoming set.
        merged = dict(vm.classfiles)
        merged.update(classfiles)
        table = ClassTable(merged)
        for name, classfile in classfiles.items():
            override = has_access_override(classfile)
            Verifier(table, access_override=override).verify_class(classfile)

        created: List[RVMClass] = [
            self.install(classfile)
            for classfile in self.superclass_first(classfiles)
        ]
        vm.classfiles.update(classfiles)
        if run_clinit:
            for rvmclass in created:
                self._run_clinit(rvmclass)
        return created

    # ------------------------------------------------------------------

    def superclass_first(self, classfiles: Dict[str, ClassFile]) -> List[ClassFile]:
        ordered: List[ClassFile] = []
        visited = set()

        def visit(name: str) -> None:
            if name in visited or name not in classfiles:
                return
            visited.add(name)
            classfile = classfiles[name]
            if classfile.superclass is not None:
                if (
                    classfile.superclass not in classfiles
                    and self.vm.registry.maybe_get(classfile.superclass) is None
                ):
                    raise ClassLoadError(
                        f"class {name} extends unloaded class {classfile.superclass}"
                    )
                visit(classfile.superclass)
            ordered.append(classfile)

        for name in classfiles:
            visit(name)
        return ordered

    def install(self, classfile: ClassFile, adopt=None) -> RVMClass:
        """Build the :class:`RVMClass` for one verified class file. The
        update engine passes ``adopt(rvmclass, method) -> MethodEntry | None``
        to carry a replaced class's persistent method entries over instead
        of registering fresh ones."""
        vm = self.vm
        superclass: Optional[RVMClass] = None
        if classfile.superclass is not None:
            superclass = vm.registry.get(classfile.superclass)
        rvmclass = vm.registry.create(
            classfile.name, classfile=classfile, superclass=superclass
        )
        rvmclass.build_instance_layout()
        # Static fields -> fresh JTOC slots.
        for field_info in classfile.static_fields():
            is_ref = parse_descriptor(field_info.descriptor).is_reference()
            slot = vm.jtoc.allocate(is_ref, f"{classfile.name}.{field_info.name}")
            rvmclass.static_slots[field_info.name] = slot
            rvmclass.static_is_ref[field_info.name] = is_ref
        # Method entries + TIB.
        own_virtuals = {}
        for key, method in classfile.methods.items():
            entry = adopt(rvmclass, method) if adopt is not None else None
            if entry is None:
                entry = vm.methods.register(rvmclass, method)
            vm.clock.tick(vm.clock.costs.classload_per_method)
            if (
                not method.is_static
                and method.name not in (CTOR_NAME, CLINIT_NAME)
            ):
                own_virtuals[key] = entry
        rvmclass.tib.build(own_virtuals)
        vm.clock.tick(vm.clock.costs.classload_per_class)
        return rvmclass

    def _run_clinit(self, rvmclass: RVMClass) -> None:
        entry = self.vm.methods.lookup(rvmclass.name, CLINIT_NAME, "()V")
        if entry is not None:
            self.vm.run_static_method_synchronously(entry)
