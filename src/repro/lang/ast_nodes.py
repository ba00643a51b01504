"""Abstract syntax tree for jmini.

Nodes are plain dataclasses. Expression nodes gain a ``static_type``
attribute during type checking (set by
:class:`repro.lang.typechecker.TypeChecker`), which the code generator
consults; the attribute is ``None`` before checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .errors import SourceLocation
from .types import Type

# ---------------------------------------------------------------------------
# Program structure


@dataclass
class Program:
    """A whole compilation unit: a list of class declarations."""

    classes: List["ClassDecl"]

    def find_class(self, name: str) -> Optional["ClassDecl"]:
        for decl in self.classes:
            if decl.name == name:
                return decl
        return None


@dataclass
class ClassDecl:
    name: str
    superclass: str  # always set; "Object" by default (Object itself: "")
    fields: List["FieldDecl"]
    methods: List["MethodDecl"]
    constructors: List["ConstructorDecl"]
    location: SourceLocation


@dataclass
class FieldDecl:
    name: str
    declared_type: Type
    is_static: bool
    is_final: bool
    access: str  # "public" | "private" | "protected"
    initializer: Optional["Expr"]
    location: SourceLocation


@dataclass
class Param:
    name: str
    declared_type: Type
    location: SourceLocation


@dataclass
class MethodDecl:
    name: str
    params: List[Param]
    return_type: Type
    body: Optional["Block"]  # None for native methods
    is_static: bool
    is_native: bool
    access: str
    location: SourceLocation


@dataclass
class ConstructorDecl:
    class_name: str
    params: List[Param]
    body: "Block"
    access: str
    location: SourceLocation
    #: explicit super(...) arguments, None when the parser found no super call
    super_args: Optional[List["Expr"]] = None


# ---------------------------------------------------------------------------
# Statements


@dataclass
class Stmt:
    location: SourceLocation


@dataclass
class Block(Stmt):
    statements: List[Stmt]


@dataclass
class VarDecl(Stmt):
    name: str
    declared_type: Type
    initializer: Optional["Expr"]


@dataclass
class Assign(Stmt):
    target: "Expr"  # NameRef, FieldAccess, StaticFieldAccess or ArrayIndex
    value: "Expr"


@dataclass
class If(Stmt):
    condition: "Expr"
    then_branch: Stmt
    else_branch: Optional[Stmt]


@dataclass
class While(Stmt):
    condition: "Expr"
    body: Stmt


@dataclass
class For(Stmt):
    init: Optional[Stmt]  # VarDecl or Assign or ExprStmt
    condition: Optional["Expr"]
    update: Optional[Stmt]  # Assign or ExprStmt
    body: Stmt


@dataclass
class Return(Stmt):
    value: Optional["Expr"]


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class ExprStmt(Stmt):
    expr: "Expr"


# ---------------------------------------------------------------------------
# Expressions


@dataclass
class Expr:
    location: SourceLocation
    #: filled in by the type checker
    static_type: Optional[Type] = field(default=None, init=False, repr=False)


@dataclass
class IntLiteral(Expr):
    value: int


@dataclass
class BoolLiteral(Expr):
    value: bool


@dataclass
class StringLiteral(Expr):
    value: str


@dataclass
class NullLiteral(Expr):
    pass


@dataclass
class ThisExpr(Expr):
    pass


@dataclass
class NameRef(Expr):
    """An unqualified name: local variable, implicit-this field, or
    same-class static field. Resolution recorded by the type checker."""

    name: str
    #: one of "local", "field", "static" — set during type checking
    resolution: Optional[str] = field(default=None, init=False)
    #: owning class for field/static resolutions
    owner: Optional[str] = field(default=None, init=False)


@dataclass
class Unary(Expr):
    op: str  # "!" or "-"
    operand: Expr


@dataclass
class Binary(Expr):
    op: str  # + - * / % == != < <= > >= && ||
    left: Expr
    right: Expr


@dataclass
class FieldAccess(Expr):
    receiver: Expr
    name: str
    #: owning class resolved during type checking
    owner: Optional[str] = field(default=None, init=False)
    #: True when this is the builtin array ``length`` pseudo-field
    is_array_length: bool = field(default=False, init=False)
    #: True when the receiver turned out to be a class name (static access);
    #: the receiver expression must then be ignored by the code generator
    is_static_access: bool = field(default=False, init=False)


@dataclass
class StaticFieldAccess(Expr):
    class_name: str
    name: str
    #: owning class after walking up the hierarchy
    owner: Optional[str] = field(default=None, init=False)


@dataclass
class ArrayIndex(Expr):
    array: Expr
    index: Expr


@dataclass
class MethodCall(Expr):
    """``receiver.name(args)``; receiver may be ``None`` for unqualified
    calls, which resolve to same-class statics or implicit-this methods."""

    receiver: Optional[Expr]
    name: str
    args: List[Expr]
    #: resolution info set by the type checker
    kind: Optional[str] = field(default=None, init=False)  # "virtual"|"static"|"string"|"super"
    owner: Optional[str] = field(default=None, init=False)
    descriptor: Optional[str] = field(default=None, init=False)


@dataclass
class StaticCall(Expr):
    class_name: str
    name: str
    args: List[Expr]
    owner: Optional[str] = field(default=None, init=False)
    descriptor: Optional[str] = field(default=None, init=False)


@dataclass
class SuperCall(Expr):
    """``super.name(args)`` — non-virtual call to the superclass method."""

    name: str
    args: List[Expr]
    owner: Optional[str] = field(default=None, init=False)
    descriptor: Optional[str] = field(default=None, init=False)


@dataclass
class NewObject(Expr):
    class_name: str
    args: List[Expr]
    descriptor: Optional[str] = field(default=None, init=False)


@dataclass
class NewArray(Expr):
    element_type: Type
    length: Expr


@dataclass
class Cast(Expr):
    target_type: Type
    operand: Expr


@dataclass
class InstanceOf(Expr):
    operand: Expr
    tested_type: Type
