"""Class installation (paper §3.3): the ``classload`` phase's work, the
body install it shares with the immediate bypass, and the post-transform
retirement of the old version. Everything here runs inside the engine's
update transaction; nothing here catches or rolls back.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..bytecode.classfile import CLINIT_NAME
from ..vm.classloader import ClassLoadError
from ..vm.machinecode import MethodEntry
from ..vm.rvmclass import RVMClass
from .faults import FaultInjector
from .upt import PreparedUpdate, old_class_stub

if TYPE_CHECKING:  # pragma: no cover
    from ..vm.vm import VM
    from .engine import _ActiveUpdate


def install_classes(vm: "VM", active: "_ActiveUpdate",
                    injector: Optional[FaultInjector]) -> None:
    """Install ``active.prepared`` at a DSU safe point, filling in
    ``active.renamed``, ``active.update_map`` and
    ``active.result.classes_installed`` as it goes."""
    prepared = active.prepared
    spec = prepared.spec

    # Capture the method entries of the classes being replaced, keyed
    # by their original names, before any renaming.
    old_classes: Dict[str, RVMClass] = {
        name: vm.registry.get(name) for name in spec.class_updates
    }
    carryover: Dict[Tuple[str, str, str], MethodEntry] = {
        (entry.owner.name, entry.info.name, entry.info.descriptor): entry
        for entry in vm.methods.all_entries()
        if not entry.obsolete
        and old_classes.get(entry.owner.name) is entry.owner
    }

    # 1. Rename old metadata (User -> v131_User); the methods of deleted
    #    classes are gone from the program.
    for name, old_class in old_classes.items():
        active.renamed.append(_rename_old_class(vm, prepared, name, old_class))
    for name in spec.deleted_classes:
        removed = vm.registry.maybe_get(name)
        if removed is not None:
            active.renamed.append(_rename_old_class(vm, prepared, name, removed))
            for entry in vm.methods.all_entries():
                if entry.owner is removed:
                    entry.obsolete = True
                    entry.invalidate()
    for entry in vm.methods.all_entries():
        if entry.owner in active.renamed:
            vm.methods.rekey(entry)

    # 2. Install fresh RVMClass metadata for updated + added classes,
    #    adopting persistent method entries where signatures survive.
    def adopt(new_class: RVMClass, info) -> Optional[MethodEntry]:
        entry = carryover.get((new_class.name, info.name, info.descriptor))
        if entry is not None:
            # Persistent identity: baked INVOKESTATIC/SPECIAL ids in
            # unrelated compiled code stay valid (paper §3.3: "modifies
            # the existing class metadata to refer to the replacement
            # methods' bytecode").
            entry.owner = new_class
            if entry.info.bytecode_hash() != info.bytecode_hash():
                entry.replace_bytecode(info)
            else:
                entry.info = info
                entry.invalidate()  # offsets of this class changed
            vm.methods.rekey(entry)
        return entry

    new_clinits: List[MethodEntry] = []
    for classfile in vm.loader.superclass_first({
        name: prepared.new_classfiles[name]
        for name in sorted(spec.class_updates | spec.added_classes)
    }):
        new_class = vm.loader.install(classfile, adopt)
        active.result.classes_installed += 1
        if injector is not None:
            injector.on_class_installed(new_class.name)
        clinit = vm.methods.lookup(new_class.name, CLINIT_NAME, "()V")
        if clinit is not None:
            new_clinits.append(clinit)
    # Entries of replaced classes that no update-side method adopted are
    # gone from the program: mark them unusable.
    for entry in carryover.values():
        if entry.owner.obsolete:
            entry.obsolete = True
            entry.invalidate()
    active.update_map = {
        old_class.id: vm.registry.get(name)
        for name, old_class in old_classes.items()
    }

    # 3. Publish the new program; method-body updates in classes whose
    #    signature did not change; opt code that inlined a restricted
    #    method loses its machine code too (the inlined body is stale).
    install_bodies(
        vm, prepared, active.sets.hard_keys | active.sets.recompile_keys
    )

    # 4. Category-(2) invalidation: unchanged bytecode, stale offsets.
    for key in active.sets.recompile_keys:
        entry = vm.methods.lookup(*key)
        if entry is not None:
            entry.invalidate()

    # 5. Load the transformer class (access override allowed only here).
    vm.loader.load(
        dict(prepared.transformer_classfiles),
        run_clinit=False,
        allow_access_override=True,
    )

    # 6. Static initializers of freshly installed classes.
    for clinit in new_clinits:
        vm.run_static_method_synchronously(clinit)


def _rename_old_class(vm: "VM", prepared: PreparedUpdate, name: str,
                      old_class: RVMClass) -> RVMClass:
    """Rename one replaced or deleted class out of the live namespace and
    swap in its field-only stub class file so transformer verification can
    still see its layout."""
    stub = old_class_stub(vm.classfiles.pop(name), prepared.spec)
    vm.registry.rename(old_class, stub.name)
    old_class.classfile = stub
    old_class.obsolete = True
    old_class.tib.invalidate_all()
    vm.classfiles[stub.name] = stub
    return old_class


def install_bodies(vm: "VM", prepared: PreparedUpdate,
                   stale_keys: Set[tuple]) -> None:
    """The body install every mode shares: publish the whole new program's
    class files (the JIT's verifier and the opt tier's inliner read bodies
    from ``vm.classfiles``, so recompiles of unchanged callers must already
    see the new program), replace the bytecode of each
    ``method_body_updates`` entry under version tagging, and drop opt code
    that inlined any of ``stale_keys`` (free at update time; the next
    invocation recompiles lazily)."""
    for name, classfile in prepared.new_classfiles.items():
        vm.classfiles[name] = classfile
    for key in sorted(prepared.spec.method_body_updates):
        class_name, method_name, descriptor = key
        entry = vm.methods.lookup(*key)
        new_info = prepared.new_classfiles[class_name].get_method(
            method_name, descriptor
        )
        if entry is None or new_info is None:
            raise ClassLoadError(
                f"body install: no live method entry for "
                f"{class_name}.{method_name}{descriptor}"
            )
        entry.replace_bytecode(new_info)
    for entry in vm.methods.all_entries():
        opt = entry.opt_code
        if opt is not None and opt.inlined & stale_keys:
            entry.invalidate()


def retire_old_version(vm: "VM", prepared: PreparedUpdate,
                       renamed: List[RVMClass], retired_tag: str) -> None:
    """Post-transform cleanup, run once per applied update — at the pause
    for eager applies, at epoch close for lazy ones: clear the old
    classes' ref statics and rename the transformer class out of the live
    namespace so the next update can load a fresh one ("the VM may delete
    it after transformation", §2.3)."""
    for old_class in renamed:
        for name, slot in old_class.static_slots.items():
            if old_class.static_is_ref.get(name):
                vm.jtoc.write(slot, 0)
    for name in prepared.transformer_classfiles:
        rvmclass = vm.registry.maybe_get(name)
        if rvmclass is None:
            continue
        new_name = f"{name}_{retired_tag}"
        vm.registry.rename(rvmclass, new_name)
        rvmclass.obsolete = True
        classfile = vm.classfiles.pop(name, None)
        if classfile is not None:
            # A renamed copy: the prepared update's own class file stays
            # applicable to the next VM.
            rvmclass.classfile = vm.classfiles[new_name] = replace(
                classfile, name=new_name
            )
        for entry in vm.methods.all_entries():
            if entry.owner is rvmclass:
                entry.obsolete = True
                entry.invalidate()
                vm.methods.rekey(entry)
