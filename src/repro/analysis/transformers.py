"""Transformer type checking.

Transformers run once, mid-update, against a class table that exists
nowhere else: the new program plus field-only ``v131_``-prefixed stubs of
the replaced classes. A transformer compiled against a *different* old
version (a stale artifact, a hand-edited class file) can read fields the
stubs don't carry or write values the new layouts reject — and at
runtime that surfaces as an abort in the transform phase, after the
safe point was already paid for.

This pass builds the same transform-time class table the UPT compiled
the transformers against and the installer
(:func:`repro.dsu.install.install_classes`) installs: one stub rule,
:func:`repro.dsu.upt.old_class_stub`, serves all three. It
abstract-interprets every transformer method against that table with
the real bytecode verifier, honoring the compiler's access-override flag
the way the classloader does. It subsumes the old PUTFIELD field-coverage
heuristic from ``dsu/validation.py`` — now keyed by *(owner, field)* so a
same-named field of an unrelated class no longer masks an unassigned
field.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..bytecode.classfile import ClassFile
from ..bytecode.verifier import ClassTable, Verifier, VerifyError
from ..compiler.compile import compile_prelude
from ..compiler.jastadd import has_access_override
from ..dsu.upt import TRANSFORMERS_CLASS, PreparedUpdate, old_class_stub
from .report import (
    CODE_FIELD_UNASSIGNED,
    CODE_MISSING_TRANSFORMER,
    CODE_TRANSFORMER_READ,
    CODE_TRANSFORMER_VERIFY,
    CODE_TRANSFORMER_WRITE,
    Diagnostic,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
)

_READ_OPS = ("GETFIELD", "GETSTATIC")
_WRITE_OPS = ("PUTFIELD", "PUTSTATIC")


def build_transform_table(
    old_classfiles: Dict[str, ClassFile], prepared: PreparedUpdate
) -> Dict[str, ClassFile]:
    """The class table transformers execute against: prelude + the whole
    new program + the :func:`~repro.dsu.upt.old_class_stub` of every
    replaced/deleted class + the transformer classes themselves."""
    spec = prepared.spec
    table: Dict[str, ClassFile] = dict(compile_prelude())
    for name, classfile in old_classfiles.items():
        table.setdefault(name, classfile)
    table.update(prepared.new_classfiles)
    for name in spec.class_updates | spec.deleted_classes:
        if name in old_classfiles:
            stub = old_class_stub(old_classfiles[name], spec)
            table[stub.name] = stub
    for name in spec.deleted_classes:
        table.pop(name, None)
    table.update(prepared.transformer_classfiles)
    return table


def check_transformers(
    old_classfiles: Dict[str, ClassFile], prepared: PreparedUpdate
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    spec = prepared.spec
    prefix = prepared.prefix
    transformers = prepared.transformer_classfiles.get(TRANSFORMERS_CLASS)

    # Presence: every updated class wants both transformer methods.
    if transformers is None:
        diagnostics.append(
            Diagnostic(
                CODE_MISSING_TRANSFORMER,
                SEVERITY_WARNING,
                "no JvolveTransformers class was compiled",
            )
        )
        return diagnostics
    for name in sorted(spec.class_updates):
        object_desc = f"(L{name};,L{prefix}{name};)V"
        if transformers.get_method("jvolveObject", object_desc) is None:
            diagnostics.append(
                Diagnostic(
                    CODE_MISSING_TRANSFORMER,
                    SEVERITY_WARNING,
                    f"updated class {name} has no jvolveObject transformer: "
                    f"instances will keep only default field values",
                )
            )
        if transformers.get_method("jvolveClass", f"(L{name};)V") is None:
            diagnostics.append(
                Diagnostic(
                    CODE_MISSING_TRANSFORMER,
                    SEVERITY_WARNING,
                    f"updated class {name} has no jvolveClass transformer: "
                    f"its statics will reset to <clinit> values",
                )
            )

    # Field coverage, keyed by (owner, field): a transformer assigning a
    # same-named field of an unrelated class must not mask an unassigned
    # new/retyped field of the updated class.
    for name in sorted(spec.class_updates):
        method = transformers.get_method(
            "jvolveObject", f"(L{name};,L{prefix}{name};)V"
        )
        if method is None:
            continue
        assigned = {
            (instr.a, instr.b)
            for instr in method.instructions
            if instr.op == "PUTFIELD"
        }
        new_cf = prepared.new_classfiles.get(name)
        old_cf = old_classfiles.get(name)
        if new_cf is None or old_cf is None:
            continue
        old_fields = {f.name: f.descriptor for f in old_cf.instance_fields()}
        for field_info in new_cf.instance_fields():
            is_new = field_info.name not in old_fields
            retyped = (
                not is_new
                and old_fields[field_info.name] != field_info.descriptor
            )
            if (is_new or retyped) and (name, field_info.name) not in assigned:
                kind = "new" if is_new else "retyped"
                diagnostics.append(
                    Diagnostic(
                        CODE_FIELD_UNASSIGNED,
                        SEVERITY_WARNING,
                        f"{name}.{field_info.name} is {kind} but the object "
                        f"transformer never assigns it (stays 0/null)",
                    )
                )

    # Abstract interpretation against the transform-time class table.
    table_files = build_transform_table(old_classfiles, prepared)
    table = ClassTable(table_files)
    stub_names: Set[str] = {
        prefix + name for name in spec.class_updates | spec.deleted_classes
    }
    for classfile in prepared.transformer_classfiles.values():
        verifier = Verifier(
            table, access_override=has_access_override(classfile)
        )
        for method in classfile.methods.values():
            if method.is_native:
                continue
            where = f"{classfile.name}.{method.name}{method.descriptor}"
            shallow = False
            for pc, instr in enumerate(method.instructions):
                if instr.op in _READ_OPS + _WRITE_OPS:
                    if table.lookup_field(instr.a, instr.b) is None:
                        reading = instr.op in _READ_OPS
                        origin = (
                            "the old-version stub" if instr.a in stub_names
                            else "the transform-time class table"
                        )
                        diagnostics.append(
                            Diagnostic(
                                CODE_TRANSFORMER_READ if reading
                                else CODE_TRANSFORMER_WRITE,
                                SEVERITY_ERROR,
                                f"transformer {where} "
                                f"{'reads' if reading else 'writes'} "
                                f"{instr.a}.{instr.b} at pc {pc}, but "
                                f"{origin} has no such field — was this "
                                f"transformer compiled against a different "
                                f"{'old' if instr.a in stub_names else 'new'}"
                                f" version?",
                            )
                        )
                        shallow = True
                    elif instr.op in _WRITE_OPS and instr.a in stub_names:
                        diagnostics.append(
                            Diagnostic(
                                CODE_TRANSFORMER_WRITE,
                                SEVERITY_WARNING,
                                f"transformer {where} writes to the retired "
                                f"old version ({instr.a}.{instr.b} at pc "
                                f"{pc}); old copies are discarded right "
                                f"after transformation, so the store is "
                                f"dead",
                            )
                        )
            if shallow:
                continue  # the verifier would re-report the missing field
            try:
                verifier.verify_method(classfile.name, method)
            except VerifyError as failure:
                pc = failure.pc
                op = (
                    method.instructions[pc].op
                    if 0 <= pc < len(method.instructions) else ""
                )
                if op in _READ_OPS:
                    code = CODE_TRANSFORMER_READ
                elif op in _WRITE_OPS:
                    code = CODE_TRANSFORMER_WRITE
                else:
                    code = CODE_TRANSFORMER_VERIFY
                diagnostics.append(
                    Diagnostic(
                        code,
                        SEVERITY_ERROR,
                        f"transformer {where} fails verification against "
                        f"the transform-time class table: {failure}",
                    )
                )
    return diagnostics
