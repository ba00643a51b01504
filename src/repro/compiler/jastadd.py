"""The transformer-class compiler mode.

The paper compiles ``JvolveTransformers`` with a JastAdd extension that
"ignores access modifiers (e.g. private and protected) and allows methods to
assign to final fields" (§2.3), and the VM is modified to accept the
resulting non-verifying bytecode only for the transformer class.

This module is the analogue: it compiles jmini source with access checks
off and final writes allowed, and tags each produced class file so the
verifier (:mod:`repro.bytecode.verifier`) and the classloader know that the
access-override exemption applies.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..bytecode.classfile import ClassFile
from ..lang.parser import parse
from .compile import compile_program

#: Attribute stamped onto transformer class files. The VM refuses to load a
#: class carrying this flag outside a dynamic update (see
#: :meth:`repro.vm.classloader.ClassLoader.load`).
ACCESS_OVERRIDE_FLAG = "jvolve_access_override"


def compile_transformers(
    source: str,
    filename: str = "<transformers>",
    context: Optional[Mapping[str, ClassFile]] = None,
) -> Dict[str, ClassFile]:
    """Compile a transformers source file with the access-override
    extension, against the declarations of the ``context`` class files
    (for an update: the new program plus the old-class stubs)."""
    classfiles = compile_program(
        parse(source, filename),
        version="jvolve-transformers",
        access_checks=False,
        allow_final_writes=True,
        context=context,
    )
    for classfile in classfiles.values():
        setattr(classfile, ACCESS_OVERRIDE_FLAG, True)
    return classfiles


def has_access_override(classfile: ClassFile) -> bool:
    """True if ``classfile`` was produced by :func:`compile_transformers`."""
    return bool(getattr(classfile, ACCESS_OVERRIDE_FLAG, False))
