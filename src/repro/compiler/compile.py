"""Top-level compilation entry points for jmini source."""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..bytecode.classfile import ClassFile
from ..lang import ast_nodes as ast
from ..lang.parser import parse
from ..lang.prelude import parse_prelude
from ..lang.symbols import ProgramSymbols
from ..lang.typechecker import TypeChecker
from .codegen import ClassCodegen

_PRELUDE_CACHE: Optional[Dict[str, ClassFile]] = None


def compile_source(
    source: str,
    filename: str = "<source>",
    version: str = "",
    access_checks: bool = True,
    allow_final_writes: bool = False,
) -> Dict[str, ClassFile]:
    """Compile jmini source text into class files (user classes only).

    ``version`` is stamped into each class file's ``source_version`` so the
    UPT and the VM can report which release a class came from.
    """
    program = parse(source, filename)
    return compile_program(
        program, version=version, access_checks=access_checks,
        allow_final_writes=allow_final_writes,
    )


def compile_program(
    program: ast.Program,
    version: str = "",
    access_checks: bool = True,
    allow_final_writes: bool = False,
    context: Optional[Mapping[str, ClassFile]] = None,
) -> Dict[str, ClassFile]:
    """Compile a parsed program into class files (user classes only).
    ``context`` holds compiled classes the program may refer to; they are
    neither recompiled nor returned."""
    symbols = ProgramSymbols.build(program, classfiles=context)
    checker = TypeChecker(symbols, access_checks, allow_final_writes)
    checker.check_program(program)
    codegen = ClassCodegen(symbols, checker, version)
    return {decl.name: codegen.compile_class(decl) for decl in program.classes}


def compile_prelude() -> Dict[str, ClassFile]:
    """Compile the builtin prelude classes (cached: the prelude never changes)."""
    global _PRELUDE_CACHE
    if _PRELUDE_CACHE is None:
        prelude = parse_prelude()
        symbols = ProgramSymbols.build(ast.Program([]), include_prelude=True)
        checker = TypeChecker(symbols)
        checker.check_program(prelude)
        codegen = ClassCodegen(symbols, checker, version="prelude")
        _PRELUDE_CACHE = {
            decl.name: codegen.compile_class(decl) for decl in prelude.classes
        }
    return dict(_PRELUDE_CACHE)
