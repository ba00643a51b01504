"""The Update Preparation Tool (UPT).

"To determine the changed and transitively-affected classes for a given
release, we wrote a simple Update Preparation Tool that examines
differences between the old and new classes provided by the user" (§3.1).

Given the class files of two program versions, the UPT:

1. classifies every change — class updates (signature/layout), method body
   updates, indirect method updates (category 2) — into an
   :class:`~repro.dsu.specification.UpdateSpecification`;
2. builds the *old-class stubs* (``v131_User``-style class files, fields
   only) with :func:`old_class_stub`, with field types mapped so that
   fields of old objects are typed by the **new** versions of updated
   classes (paper §2.3: old object fields point at transformed objects).
   This one function is the transform-time class table's only stub rule:
   the installer (:mod:`repro.dsu.install`) renames the old classes to
   these same stubs and ``dsu-lint`` verifies transformers against them;
3. generates the default ``JvolveTransformers`` source, which copies
   unchanged fields and leaves new/retyped fields at their defaults, and
   which programmers may override per class;
4. compiles only that source with the access-override compiler
   (:mod:`repro.compiler.jastadd`), type-checked against the declarations
   of the new program's class files plus the stubs, producing a
   :class:`PreparedUpdate` that the DSU engine consumes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

from ..bytecode.classfile import CLINIT_NAME, ClassFile, MethodInfo
from ..compiler.jastadd import compile_transformers
from .specification import ClassChangeSummary, MethodKey, UpdateSpecification

TRANSFORMERS_CLASS = "JvolveTransformers"


def version_prefix(version: str) -> str:
    """``1.3.1`` -> ``v131_`` — the renaming scheme from the paper (§2.3)."""
    return "v" + re.sub(r"[^0-9A-Za-z]", "", version) + "_"


@dataclass
class ActiveMethodMapping:
    """User-supplied state mapping for updating a method *while it runs* —
    the paper's §3.5 future work, modelled on UpStare: "the user would map
    the yield point at the end of the old loop to the yield point at the
    end of the new loop" and provide the analogue of an object transformer
    for the stack frame.

    ``pc_map`` maps old-code pcs (where the frame may be parked: yield
    points and call sites) to equivalent new-code pcs. ``locals_map`` maps
    old local slots to new slots; unmapped new slots start at their default
    (0/null). ``compensation`` seeds new-in-new local slots with constant
    values (the analyzer's provable initializers — "compensation code" in
    the OSR-à-la-carte sense) after the move. The operand stack is carried
    over verbatim and must match the new pc's verified stack shape.
    """

    pc_map: Dict[int, int]
    locals_map: Dict[int, int] = field(default_factory=dict)
    compensation: Dict[int, int] = field(default_factory=dict)


@dataclass
class PreparedUpdate:
    """Everything the engine needs to apply one dynamic update."""

    spec: UpdateSpecification
    #: the complete new program (class name -> class file)
    new_classfiles: Dict[str, ClassFile]
    #: compiled transformer classes (flagged with the access override)
    transformer_classfiles: Dict[str, ClassFile]
    #: the generated (or overridden) transformers source, for inspection
    transformers_source: str
    old_version: str
    new_version: str
    #: optional extended-OSR mappings for *changed* methods the user wants
    #: updated while active, keyed by (class, name, descriptor)
    active_method_mappings: Dict[tuple, ActiveMethodMapping] = field(
        default_factory=dict
    )

    @property
    def prefix(self) -> str:
        return version_prefix(self.old_version)


# ---------------------------------------------------------------------------
# diffing


def flattened_instance_fields(
    classfiles: Dict[str, ClassFile], name: str
) -> List[Tuple[str, str]]:
    """(name, descriptor) pairs in layout order, superclass first."""
    chain: List[str] = []
    current: Optional[str] = name
    while current is not None and current in classfiles:
        chain.append(current)
        current = classfiles[current].superclass
    layout: List[Tuple[str, str]] = []
    for class_name in reversed(chain):
        for field_info in classfiles[class_name].instance_fields():
            layout.append((field_info.name, field_info.descriptor))
    return layout


def diff_programs(
    old_classfiles: Dict[str, ClassFile],
    new_classfiles: Dict[str, ClassFile],
    old_version: str,
    new_version: str,
    blacklist: Iterable[MethodKey] = (),
    minimize: bool = True,
) -> UpdateSpecification:
    """Classify all differences between two program versions.

    With ``minimize=True`` (the default) the semantic-diff engine
    (:mod:`repro.analysis.semdiff`) shrinks the restricted sets: method
    bodies proven behaviorally equivalent are downgraded to *unchanged*,
    and unchanged methods whose baked offsets provably survive the update
    (field-addition-only layouts, stable TIB slots) escape category 2.
    The per-class summaries (Tables 2–4) always report the raw byte-level
    diff either way.
    """
    spec = UpdateSpecification(old_version, new_version)
    spec.minimized = minimize
    spec.blacklist = set(blacklist)
    old_names = set(old_classfiles)
    new_names = set(new_classfiles)
    spec.added_classes = new_names - old_names
    spec.deleted_classes = old_names - new_names

    shared = old_names & new_names
    for name in sorted(shared):
        old_cf = old_classfiles[name]
        new_cf = new_classfiles[name]
        summary = _diff_class(name, old_cf, new_cf, spec)
        spec.summaries[name] = summary
        signature_changed = (
            summary.is_signature_change
            or old_cf.superclass != new_cf.superclass
            or flattened_instance_fields(old_classfiles, name)
            != flattened_instance_fields(new_classfiles, name)
            or _statics_signature(old_cf) != _statics_signature(new_cf)
        )
        if signature_changed:
            spec.class_updates.add(name)

    # Layout changes propagate to subclasses: a class whose flattened layout
    # differs is a class update even if its own declaration is untouched.
    for name in sorted(shared):
        if name in spec.class_updates:
            continue
        if flattened_instance_fields(old_classfiles, name) != flattened_instance_fields(
            new_classfiles, name
        ):
            spec.class_updates.add(name)

    # Partition changed-bytecode methods by whether their class signature
    # changed (affects reporting only; both are category-1 restricted).
    for name in sorted(shared):
        old_cf = old_classfiles[name]
        new_cf = new_classfiles[name]
        old_methods = old_cf.method_signatures()
        new_methods = new_cf.method_signatures()
        for key in old_methods:
            method_key: MethodKey = (name, key[0], key[1])
            if key not in new_methods:
                spec.deleted_methods.add(method_key)
            elif old_methods[key] != new_methods[key]:
                if name in spec.class_updates:
                    spec.changed_methods_in_updated_classes.add(method_key)
                else:
                    spec.method_body_updates.add(method_key)

    for name in spec.deleted_classes:
        for key in old_classfiles[name].methods:
            spec.deleted_methods.add((name, key[0], key[1]))

    # Semantic-diff minimization step 1: prove byte-different bodies
    # behaviorally identical and downgrade them to unchanged. The old
    # (equivalent) code keeps running; no frame restriction is needed.
    # Function-level import: repro.analysis imports this module.
    if minimize:
        from ..analysis.semdiff import methods_equivalent

        for method_key in sorted(
            spec.method_body_updates | spec.changed_methods_in_updated_classes
        ):
            name = method_key[0]
            old_method = old_classfiles[name].get_method(*method_key[1:])
            new_method = new_classfiles[name].get_method(*method_key[1:])
            if old_method is None or new_method is None:
                continue
            verdict = methods_equivalent(old_method, new_method)
            spec.minimization_reasons[method_key] = verdict.reason
            if verdict.equivalent:
                spec.method_body_updates.discard(method_key)
                spec.changed_methods_in_updated_classes.discard(method_key)
                spec.equivalent_methods.add(method_key)

    # Category (2): old methods with unchanged bytecode whose compiled code
    # bakes offsets of a signature-updated class. Downgraded-equivalent
    # methods participate as candidates: their old compiled code stays on
    # stacks, so its baked offsets must survive (or restrict). Shared with
    # dsu-lint's closure so prediction and runtime always agree.
    from ..analysis.semdiff import compute_indirect_methods

    indirect, escaped = compute_indirect_methods(
        old_classfiles, new_classfiles, spec, minimize
    )
    spec.indirect_methods = indirect
    spec.escaped_indirect = set(escaped)
    spec.minimization_reasons.update(escaped)
    return spec


def _statics_signature(classfile: ClassFile):
    """Static fields as an order-insensitive signature. Statics are
    addressed by per-name JTOC slots, so *reordering* static declarations
    moves nothing — only additions, deletions, and retypes change the
    class signature. (Instance layout stays order-sensitive: field offsets
    are baked in declaration order.)"""
    return sorted((f.name, f.descriptor) for f in classfile.static_fields())


def _diff_class(name, old_cf: ClassFile, new_cf: ClassFile, spec) -> ClassChangeSummary:
    summary = ClassChangeSummary(name)
    old_fields = {f.name: f.descriptor for f in old_cf.fields}
    new_fields = {f.name: f.descriptor for f in new_cf.fields}
    for field_name in old_fields:
        if field_name not in new_fields:
            summary.fields_deleted += 1
        elif old_fields[field_name] != new_fields[field_name]:
            summary.fields_type_changed += 1
    summary.fields_added = len([f for f in new_fields if f not in old_fields])

    old_methods = _user_methods(old_cf)
    new_methods = _user_methods(new_cf)
    old_only = set(old_methods) - set(new_methods)
    new_only = set(new_methods) - set(old_methods)
    # Pair same-name keys across versions as signature changes.
    old_by_name: Dict[str, List[Tuple[str, str]]] = {}
    for key in old_only:
        old_by_name.setdefault(key[0], []).append(key)
    for key in sorted(new_only):
        candidates = old_by_name.get(key[0])
        if candidates:
            candidates.pop()
            summary.methods_signature_changed += 1
        else:
            summary.methods_added += 1
    summary.methods_deleted = sum(len(keys) for keys in old_by_name.values())
    for key in set(old_methods) & set(new_methods):
        if old_methods[key] != new_methods[key]:
            summary.methods_body_changed += 1
    return summary


def _user_methods(classfile: ClassFile) -> Dict[Tuple[str, str], str]:
    """Method signatures excluding compiler-synthesized <clinit>."""
    return {
        key: digest
        for key, digest in classfile.method_signatures().items()
        if key[0] != CLINIT_NAME
    }


# ---------------------------------------------------------------------------
# old-class stubs and the default transformers


def old_class_stub(classfile: ClassFile, spec: UpdateSpecification) -> ClassFile:
    """The field-only stub of one replaced or deleted old class, renamed
    ``User`` -> ``v131_User``: the class transformers are compiled, linted
    and run against.

    "The v131_User class contains only field definitions from the original
    class; all methods have been removed" (§2.3). A superclass that is
    itself replaced or deleted is the renamed stub too. Field types
    referring to updated classes keep the *new* names, because by the time
    a transformer dereferences an old object's field the referent has been
    forwarded to its transformed (new-version) copy; a deleted class has
    no new version, so fields of its type are exposed as ``Object``.
    Deleted classes themselves still get stubs so transformers can read
    their final static state (e.g. folding a deleted log class's counters
    into a surviving class).
    """
    prefix = version_prefix(spec.old_version)
    superclass = classfile.superclass
    if superclass is None:
        superclass = "Object"
    elif superclass in spec.class_updates or superclass in spec.deleted_classes:
        superclass = prefix + superclass
    fields = []
    for info in classfile.fields:
        element = info.descriptor.lstrip("[")
        if element[1:-1] in spec.deleted_classes:  # "LGone;" -> "Gone"
            dims = len(info.descriptor) - len(element)
            info = replace(info, descriptor="[" * dims + "LObject;")
        fields.append(info)
    return ClassFile(
        prefix + classfile.name, superclass, fields=fields,
        source_version=classfile.source_version,
    )


def generate_default_transformers(
    old_classfiles: Dict[str, ClassFile],
    new_classfiles: Dict[str, ClassFile],
    spec: UpdateSpecification,
    overrides: Optional[Dict[str, str]] = None,
    helpers: str = "",
) -> str:
    """The default ``JvolveTransformers`` class.

    For each updated class the default object transformer copies every
    field whose name and type are unchanged and leaves new or retyped
    fields at their defaults; the default class transformer does the same
    for statics. ``overrides`` maps a class name to replacement method text
    (both jvolveObject and jvolveClass for that class); ``helpers`` is
    extra member text appended to the class (custom helper methods).
    """
    prefix = version_prefix(spec.old_version)
    overrides = overrides or {}
    lines = [f"class {TRANSFORMERS_CLASS} {{"]
    for name in sorted(spec.class_updates):
        if name in overrides:
            lines.append(overrides[name])
            continue
        old_cf = old_classfiles[name]
        new_cf = new_classfiles[name]
        # class transformer: copy matching statics
        lines.append(f"    static void jvolveClass({name} unused) {{")
        new_statics = {f.name: f.descriptor for f in new_cf.static_fields()}
        for field_info in old_cf.static_fields():
            if new_statics.get(field_info.name) == field_info.descriptor:
                lines.append(
                    f"        {name}.{field_info.name} = "
                    f"{prefix}{name}.{field_info.name};"
                )
        lines.append("    }")
        # object transformer: copy matching instance fields (flattened)
        lines.append(
            f"    static void jvolveObject({name} to, {prefix}{name} from) {{"
        )
        old_layout = dict(flattened_instance_fields(old_classfiles, name))
        for field_name, descriptor in flattened_instance_fields(new_classfiles, name):
            if old_layout.get(field_name) == descriptor:
                lines.append(f"        to.{field_name} = from.{field_name};")
        lines.append("    }")
    if helpers:
        lines.append(helpers)
    lines.append("}")
    return "\n".join(lines)


def derive_identity_mapping(
    old_method: MethodInfo, new_method: MethodInfo
) -> ActiveMethodMapping:
    """Derive an :class:`ActiveMethodMapping` for the common case where the
    new body has the same control shape as the old (e.g. only constants or
    straight-line statements changed).

    Maps every pc in the longest common instruction prefix to itself; if
    both bodies have equal length, maps every pc (the stack-shape check at
    replacement time rejects unsound mappings). Locals map identically over
    the shared slots — slot assignment is deterministic, so unchanged
    variables keep their slots.
    """
    old_instructions = old_method.instructions
    new_instructions = new_method.instructions
    prefix = 0
    for old_instr, new_instr in zip(old_instructions, new_instructions):
        if old_instr != new_instr:
            break
        prefix += 1
    if len(old_instructions) == len(new_instructions):
        pc_map = {i: i for i in range(len(old_instructions))}
    else:
        pc_map = {i: i for i in range(prefix)}
    locals_map = {
        i: i for i in range(min(old_method.max_locals, new_method.max_locals))
    }
    return ActiveMethodMapping(pc_map, locals_map)


# ---------------------------------------------------------------------------
# top-level preparation


def prepare_update(
    old_classfiles: Dict[str, ClassFile],
    new_classfiles: Dict[str, ClassFile],
    old_version: str,
    new_version: str,
    transformer_overrides: Optional[Dict[str, str]] = None,
    transformer_helpers: str = "",
    blacklist: Iterable[MethodKey] = (),
    active_method_mappings: Optional[Dict[tuple, ActiveMethodMapping]] = None,
    minimize: bool = True,
) -> PreparedUpdate:
    """Run the full UPT pipeline and compile the transformers."""
    spec = diff_programs(
        old_classfiles, new_classfiles, old_version, new_version, blacklist,
        minimize=minimize,
    )
    transformers_source = generate_default_transformers(
        old_classfiles, new_classfiles, spec, transformer_overrides, transformer_helpers
    )
    context = dict(new_classfiles)
    for name in sorted(spec.class_updates | spec.deleted_classes):
        stub = old_class_stub(old_classfiles[name], spec)
        context[stub.name] = stub
    compiled = compile_transformers(
        transformers_source, f"<transformers {new_version}>", context
    )
    transformer_classfiles = {
        name: cf for name, cf in compiled.items() if name == TRANSFORMERS_CLASS
    }
    return PreparedUpdate(
        spec,
        dict(new_classfiles),
        transformer_classfiles,
        transformers_source,
        old_version,
        new_version,
        active_method_mappings=dict(active_method_mappings or {}),
    )
