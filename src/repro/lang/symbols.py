"""Symbol tables for jmini programs.

Built from a parsed AST (plus the prelude, plus any already-compiled class
files the program is checked against), the symbol table answers the
questions the type checker and code generator ask: field lookup through the
hierarchy, method overload resolution, constructor lookup, assignability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..bytecode.classfile import CLINIT_NAME, CTOR_NAME, ClassFile
from . import ast_nodes as ast
from .errors import TypeError_
from .prelude import parse_prelude
from .types import (
    VOID,
    SubtypeOracle,
    Type,
    method_descriptor,
    parse_descriptor,
    parse_method_descriptor,
)


@dataclass
class FieldSymbol:
    name: str
    declared_type: Type
    is_static: bool
    is_final: bool
    access: str
    owner: str
    initializer: Optional[ast.Expr]


@dataclass
class MethodSymbol:
    name: str
    param_types: List[Type]
    return_type: Type
    is_static: bool
    is_native: bool
    access: str
    owner: str
    decl: Optional[ast.MethodDecl]

    @property
    def descriptor(self) -> str:
        return method_descriptor(self.param_types, self.return_type)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.name, self.descriptor)


@dataclass
class ConstructorSymbol:
    owner: str
    param_types: List[Type]
    access: str
    decl: Optional[ast.ConstructorDecl]

    @property
    def descriptor(self) -> str:
        return method_descriptor(self.param_types, VOID)


@dataclass
class ClassSymbol:
    name: str
    superclass: Optional[str]
    is_prelude: bool = False
    fields: Dict[str, FieldSymbol] = field(default_factory=dict)
    methods: Dict[Tuple[str, str], MethodSymbol] = field(default_factory=dict)
    constructors: List[ConstructorSymbol] = field(default_factory=list)
    decl: Optional[ast.ClassDecl] = None


class ProgramSymbols:
    """Symbol table for one whole program (prelude + user classes)."""

    def __init__(self):
        self.classes: Dict[str, ClassSymbol] = {}
        self.oracle = SubtypeOracle(self._superclass_of)

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(
        cls,
        program: ast.Program,
        include_prelude: bool = True,
        classfiles: Optional[Mapping[str, ClassFile]] = None,
    ) -> "ProgramSymbols":
        """``classfiles`` are compiled classes ``program`` may refer to;
        only their declarations are read."""
        table = cls()
        if include_prelude:
            table._ingest(parse_prelude(), is_prelude=True)
        for classfile in (classfiles or {}).values():
            table._ingest_classfile(classfile)
        table._ingest(program, is_prelude=False)
        table._check_hierarchy()
        return table

    def _ingest_classfile(self, classfile: ClassFile) -> None:
        if classfile.name in self.classes:
            raise TypeError_(f"duplicate class {classfile.name}", _unknown())
        symbol = ClassSymbol(classfile.name, classfile.superclass)
        self.classes[classfile.name] = symbol
        for info in classfile.fields:
            symbol.fields[info.name] = FieldSymbol(
                info.name, parse_descriptor(info.descriptor), info.is_static,
                info.is_final, info.access, classfile.name, None,
            )
        for info in classfile.methods.values():
            params, return_type = parse_method_descriptor(info.descriptor)
            if info.name == CTOR_NAME:
                symbol.constructors.append(
                    ConstructorSymbol(classfile.name, params, info.access, None)
                )
            elif info.name != CLINIT_NAME:
                symbol.methods[info.key] = MethodSymbol(
                    info.name, params, return_type, info.is_static,
                    info.is_native, info.access, classfile.name, None,
                )
        if not symbol.constructors:
            # A field-only stub: the implicit default constructor.
            symbol.constructors.append(ConstructorSymbol(classfile.name, [], "public", None))

    def _ingest(self, program: ast.Program, is_prelude: bool) -> None:
        for decl in program.classes:
            if decl.name in self.classes:
                raise TypeError_(f"duplicate class {decl.name}", decl.location)
            superclass = decl.superclass if decl.name != "Object" else None
            symbol = ClassSymbol(decl.name, superclass, is_prelude=is_prelude, decl=decl)
            self.classes[decl.name] = symbol
            for field_decl in decl.fields:
                if field_decl.name in symbol.fields:
                    raise TypeError_(
                        f"duplicate field {decl.name}.{field_decl.name}", field_decl.location
                    )
                symbol.fields[field_decl.name] = FieldSymbol(
                    field_decl.name,
                    field_decl.declared_type,
                    field_decl.is_static,
                    field_decl.is_final,
                    field_decl.access,
                    decl.name,
                    field_decl.initializer,
                )
            for method_decl in decl.methods:
                method = MethodSymbol(
                    method_decl.name,
                    [p.declared_type for p in method_decl.params],
                    method_decl.return_type,
                    method_decl.is_static,
                    method_decl.is_native,
                    method_decl.access,
                    decl.name,
                    method_decl,
                )
                if method.key in symbol.methods:
                    raise TypeError_(
                        f"duplicate method {decl.name}.{method_decl.name}", method_decl.location
                    )
                symbol.methods[method.key] = method
            for ctor_decl in decl.constructors:
                symbol.constructors.append(
                    ConstructorSymbol(
                        decl.name,
                        [p.declared_type for p in ctor_decl.params],
                        ctor_decl.access,
                        ctor_decl,
                    )
                )
            if not symbol.constructors:
                # Implicit default constructor (Object's is the chain root).
                symbol.constructors.append(ConstructorSymbol(decl.name, [], "public", None))

    def _check_hierarchy(self) -> None:
        for symbol in self.classes.values():
            location = symbol.decl.location if symbol.decl else _unknown()
            seen = {symbol.name}
            current = symbol.superclass
            while current is not None:
                if current not in self.classes:
                    raise TypeError_(
                        f"class {symbol.name} extends unknown class {current}",
                        location,
                    )
                if current in seen:
                    raise TypeError_(
                        f"cyclic inheritance involving {symbol.name}", location
                    )
                seen.add(current)
                current = self.classes[current].superclass

    # ------------------------------------------------------------------
    # queries

    def _superclass_of(self, name: str) -> Optional[str]:
        symbol = self.classes.get(name)
        return symbol.superclass if symbol else None

    def has_class(self, name: str) -> bool:
        return name in self.classes

    def get_class(self, name: str) -> ClassSymbol:
        return self.classes[name]

    def lookup_field(self, class_name: str, field_name: str) -> Optional[FieldSymbol]:
        """Find a field by walking up the hierarchy from ``class_name``."""
        current: Optional[str] = class_name
        while current is not None:
            symbol = self.classes.get(current)
            if symbol is None:
                return None
            found = symbol.fields.get(field_name)
            if found is not None:
                return found
            current = symbol.superclass
        return None

    def methods_named(self, class_name: str, method_name: str) -> List[MethodSymbol]:
        """All methods with ``method_name`` visible from ``class_name``.

        Walks the hierarchy root-last so overriding (same name+descriptor in
        a subclass) shadows the inherited declaration.
        """
        chain: List[str] = []
        current: Optional[str] = class_name
        while current is not None:
            chain.append(current)
            symbol = self.classes.get(current)
            current = symbol.superclass if symbol else None
        collected: Dict[Tuple[str, str], MethodSymbol] = {}
        for name in reversed(chain):
            symbol = self.classes.get(name)
            if symbol is None:
                continue
            for key, method in symbol.methods.items():
                if key[0] == method_name:
                    collected[key] = method
        return list(collected.values())

    def resolve_overload(
        self, class_name: str, method_name: str, arg_types: List[Type]
    ) -> Optional[MethodSymbol]:
        """Overload resolution: exact match first, then unique assignable."""
        candidates = [
            m
            for m in self.methods_named(class_name, method_name)
            if len(m.param_types) == len(arg_types)
        ]
        for method in candidates:
            if all(p is a for p, a in zip(method.param_types, arg_types)):
                return method
        applicable = [
            m
            for m in candidates
            if all(
                self.oracle.is_assignable(a, p) for p, a in zip(m.param_types, arg_types)
            )
        ]
        if len(applicable) == 1:
            return applicable[0]
        return None

    def resolve_constructor(
        self, class_name: str, arg_types: List[Type]
    ) -> Optional[ConstructorSymbol]:
        symbol = self.classes.get(class_name)
        if symbol is None:
            return None
        candidates = [
            c for c in symbol.constructors if len(c.param_types) == len(arg_types)
        ]
        for ctor in candidates:
            if all(p is a for p, a in zip(ctor.param_types, arg_types)):
                return ctor
        applicable = [
            c
            for c in candidates
            if all(
                self.oracle.is_assignable(a, p) for p, a in zip(c.param_types, arg_types)
            )
        ]
        if len(applicable) == 1:
            return applicable[0]
        return None

    def instance_field_layout(self, class_name: str) -> List[FieldSymbol]:
        """Instance fields in layout order: superclass fields first, then own,
        each in declaration order. This is the order the VM assigns slots."""
        chain: List[str] = []
        current: Optional[str] = class_name
        while current is not None:
            chain.append(current)
            current = self._superclass_of(current)
        layout: List[FieldSymbol] = []
        for name in reversed(chain):
            symbol = self.classes[name]
            for field_symbol in symbol.fields.values():
                if not field_symbol.is_static:
                    layout.append(field_symbol)
        return layout


def _unknown():
    from .errors import UNKNOWN_LOCATION

    return UNKNOWN_LOCATION
