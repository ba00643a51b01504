"""The jmini type checker.

Responsibilities:

* resolve every name (local / implicit-this field / static field / class)
  and record the resolution on the AST node for the code generator;
* compute and record ``static_type`` on every expression;
* enforce the type rules, access modifiers, final-assignment rules and
  definite-return analysis;
* rewrite ``FieldAccess``/``MethodCall`` nodes whose receiver turned out to
  be a class name into ``StaticFieldAccess``/``StaticCall``.

The checker supports a *transformer mode* (``access_checks=False,
allow_final_writes=True``) used to compile ``JvolveTransformers`` classes —
the analogue of the paper's JastAdd compiler extension that ignores access
modifiers and permits writes to final fields (§2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from . import ast_nodes as ast
from .errors import SourceLocation, TypeError_
from .stringops import lookup_string_method
from .symbols import ClassSymbol, FieldSymbol, MethodSymbol, ProgramSymbols
from .types import (
    BOOL,
    INT,
    NULL,
    STRING,
    VOID,
    ArrayType,
    ClassType,
    NullType,
    StringType,
    Type,
    class_type,
    method_descriptor,
)


@dataclass
class _Local:
    name: str
    declared_type: Type
    slot: int


class _Scope:
    """Method-wide variable scope.

    jmini forbids two locals with the same name anywhere in one method body,
    which guarantees each local slot has a single static type — the property
    the GC stack maps rely on (DESIGN.md §5).
    """

    def __init__(self):
        self._locals: Dict[str, _Local] = {}
        self._next_slot = 0

    def declare(self, name: str, declared_type: Type, location: SourceLocation) -> _Local:
        existing = self._locals.get(name)
        if existing is not None:
            # Re-declaration (e.g. two `for (int i ...)` loops) is allowed
            # only at the identical type, so the slot keeps a single static
            # type for the GC stack maps.
            if existing.declared_type is not declared_type:
                raise TypeError_(
                    f"duplicate local variable {name!r} with a different type",
                    location,
                )
            return existing
        local = _Local(name, declared_type, self._next_slot)
        self._next_slot += 1
        self._locals[name] = local
        return local

    def lookup(self, name: str) -> Optional[_Local]:
        return self._locals.get(name)

    @property
    def slot_count(self) -> int:
        return self._next_slot


class TypeChecker:
    """Checks a whole program against its symbol table."""

    def __init__(
        self,
        symbols: ProgramSymbols,
        access_checks: bool = True,
        allow_final_writes: bool = False,
    ):
        self.symbols = symbols
        self.access_checks = access_checks
        self.allow_final_writes = allow_final_writes
        # per-method state
        self._current_class: Optional[ClassSymbol] = None
        self._scope: Optional[_Scope] = None
        self._in_static = False
        self._in_constructor = False
        self._return_type: Type = VOID
        #: local slot tables recorded for the code generator,
        #: keyed by id() of the method/constructor declaration node
        self.local_tables: Dict[int, Dict[str, _Local]] = {}
        self.slot_counts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # program / class / member checking

    def check_program(self, program: ast.Program) -> None:
        for decl in program.classes:
            self._check_class(decl)

    def _check_class(self, decl: ast.ClassDecl) -> None:
        self._current_class = self.symbols.get_class(decl.name)
        for field_decl in decl.fields:
            self._check_field_types(decl, field_decl)
        for method_decl in decl.methods:
            if method_decl.body is not None:
                self._check_method(decl, method_decl)
        for ctor_decl in decl.constructors:
            self._check_constructor(decl, ctor_decl)
        self._check_overrides(decl)
        self._current_class = None

    def _check_field_types(self, class_decl: ast.ClassDecl, field_decl: ast.FieldDecl) -> None:
        self._require_known_type(field_decl.declared_type, field_decl.location)
        if field_decl.initializer is not None:
            # Field initializers are checked in a synthetic context: static
            # fields in a static context, instance fields as if inside a
            # constructor.
            self._scope = _Scope()
            self._in_static = field_decl.is_static
            self._in_constructor = not field_decl.is_static
            value_type = self._check_expr(field_decl.initializer)
            self._require_assignable(
                value_type, field_decl.declared_type, field_decl.location,
                f"initializer of field {class_decl.name}.{field_decl.name}",
            )
            self._scope = None

    def _check_method(self, class_decl: ast.ClassDecl, method_decl: ast.MethodDecl) -> None:
        self._scope = _Scope()
        self._in_static = method_decl.is_static
        self._in_constructor = False
        self._return_type = method_decl.return_type
        self._require_known_type(method_decl.return_type, method_decl.location)
        for param in method_decl.params:
            self._require_known_type(param.declared_type, param.location)
            self._scope.declare(param.name, param.declared_type, param.location)
        assert method_decl.body is not None
        always_returns = self._check_block(method_decl.body)
        if method_decl.return_type is not VOID and not always_returns:
            raise TypeError_(
                f"method {class_decl.name}.{method_decl.name} may complete "
                "without returning a value",
                method_decl.location,
            )
        self.local_tables[id(method_decl)] = dict(self._scope._locals)
        self.slot_counts[id(method_decl)] = self._scope.slot_count
        self._scope = None

    def _check_constructor(self, class_decl: ast.ClassDecl, ctor_decl: ast.ConstructorDecl) -> None:
        self._scope = _Scope()
        self._in_static = False
        self._in_constructor = True
        self._return_type = VOID
        for param in ctor_decl.params:
            self._require_known_type(param.declared_type, param.location)
            self._scope.declare(param.name, param.declared_type, param.location)
        superclass = self.symbols.get_class(class_decl.name).superclass
        if ctor_decl.super_args is not None:
            if superclass is None:
                raise TypeError_("Object has no superclass constructor", ctor_decl.location)
            arg_types = [self._check_expr(a) for a in ctor_decl.super_args]
            if self.symbols.resolve_constructor(superclass, arg_types) is None:
                raise TypeError_(
                    f"no matching constructor {superclass}({', '.join(map(str, arg_types))})",
                    ctor_decl.location,
                )
        elif superclass is not None:
            if self.symbols.resolve_constructor(superclass, []) is None:
                raise TypeError_(
                    f"superclass {superclass} has no zero-argument constructor; "
                    "add an explicit super(...) call",
                    ctor_decl.location,
                )
        self._check_block(ctor_decl.body)
        self.local_tables[id(ctor_decl)] = dict(self._scope._locals)
        self.slot_counts[id(ctor_decl)] = self._scope.slot_count
        self._scope = None
        self._in_constructor = False

    def _check_overrides(self, decl: ast.ClassDecl) -> None:
        symbol = self.symbols.get_class(decl.name)
        if symbol.superclass is None:
            return
        for key, method in symbol.methods.items():
            # Overriding is keyed by name + parameter types (Java's rule);
            # the return type must then match exactly.
            inherited = [
                m
                for m in self.symbols.methods_named(symbol.superclass, key[0])
                if m.param_types == method.param_types and m.owner != symbol.name
            ]
            for parent in inherited:
                if parent.is_static != method.is_static:
                    raise TypeError_(
                        f"method {decl.name}.{key[0]} changes staticness of "
                        f"inherited {parent.owner}.{key[0]}",
                        method.decl.location if method.decl else decl.location,
                    )
                if parent.return_type is not method.return_type:
                    raise TypeError_(
                        f"method {decl.name}.{key[0]} changes return type of "
                        f"inherited {parent.owner}.{key[0]}",
                        method.decl.location if method.decl else decl.location,
                    )

    # ------------------------------------------------------------------
    # statements; each returns True when the statement always returns

    def _check_block(self, block: ast.Block) -> bool:
        always_returns = False
        for statement in block.statements:
            always_returns = self._check_stmt(statement) or always_returns
        return always_returns

    def _check_stmt(self, statement: ast.Stmt) -> bool:
        if isinstance(statement, ast.Block):
            return self._check_block(statement)
        if isinstance(statement, ast.VarDecl):
            self._require_known_type(statement.declared_type, statement.location)
            if statement.declared_type is VOID:
                raise TypeError_("variables may not have type void", statement.location)
            if statement.initializer is not None:
                value_type = self._check_expr(statement.initializer)
                self._require_assignable(
                    value_type, statement.declared_type, statement.location,
                    f"initializer of {statement.name}",
                )
            assert self._scope is not None
            self._scope.declare(statement.name, statement.declared_type, statement.location)
            return False
        if isinstance(statement, ast.Assign):
            self._check_assign(statement)
            return False
        if isinstance(statement, ast.If):
            condition_type = self._check_expr(statement.condition)
            self._require_type(condition_type, BOOL, statement.location, "if condition")
            then_returns = self._check_stmt(statement.then_branch)
            else_returns = (
                self._check_stmt(statement.else_branch)
                if statement.else_branch is not None
                else False
            )
            return then_returns and else_returns
        if isinstance(statement, ast.While):
            condition_type = self._check_expr(statement.condition)
            self._require_type(condition_type, BOOL, statement.location, "while condition")
            self._check_stmt(statement.body)
            # Java's rule: `while (true)` without a break never completes
            # normally, so it satisfies definite return.
            if isinstance(statement.condition, ast.BoolLiteral) and statement.condition.value:
                return not _contains_break(statement.body)
            return False
        if isinstance(statement, ast.For):
            if statement.init is not None:
                self._check_stmt(statement.init)
            if statement.condition is not None:
                condition_type = self._check_expr(statement.condition)
                self._require_type(condition_type, BOOL, statement.location, "for condition")
            if statement.update is not None:
                self._check_stmt(statement.update)
            self._check_stmt(statement.body)
            return False
        if isinstance(statement, ast.Return):
            if statement.value is None:
                if self._return_type is not VOID:
                    raise TypeError_("missing return value", statement.location)
            else:
                if self._return_type is VOID:
                    raise TypeError_("void method returns a value", statement.location)
                value_type = self._check_expr(statement.value)
                self._require_assignable(
                    value_type, self._return_type, statement.location, "return value"
                )
            return True
        if isinstance(statement, (ast.Break, ast.Continue)):
            return False
        if isinstance(statement, ast.ExprStmt):
            self._check_expr(statement.expr)
            return False
        raise TypeError_(f"unhandled statement {type(statement).__name__}", statement.location)

    def _check_assign(self, statement: ast.Assign) -> None:
        target = statement.target
        # Resolve the target first so class-name receivers get rewritten.
        target = self._resolve_lvalue(target)
        statement.target = target
        target_type = self._check_expr(target)
        value_type = self._check_expr(statement.value)
        self._require_assignable(value_type, target_type, statement.location, "assignment")
        self._check_final_write(target, statement.location)

    def _resolve_lvalue(self, target: ast.Expr) -> ast.Expr:
        if isinstance(target, ast.FieldAccess) and isinstance(target.receiver, ast.NameRef):
            name = target.receiver.name
            if self._scope and self._scope.lookup(name):
                return target
            if self._find_member_field(name) is not None:
                return target
            if self.symbols.has_class(name):
                rewritten = ast.StaticFieldAccess(target.location, name, target.name)
                return rewritten
        return target

    def _check_final_write(self, target: ast.Expr, location: SourceLocation) -> None:
        if self.allow_final_writes:
            return
        field_symbol: Optional[FieldSymbol] = None
        via_this = False
        if isinstance(target, ast.NameRef) and target.resolution in ("field", "static"):
            assert target.owner is not None
            field_symbol = self.symbols.lookup_field(target.owner, target.name)
            via_this = True
        elif isinstance(target, ast.FieldAccess) and not target.is_array_length:
            assert target.owner is not None
            field_symbol = self.symbols.lookup_field(target.owner, target.name)
            via_this = isinstance(target.receiver, ast.ThisExpr)
        elif isinstance(target, ast.StaticFieldAccess):
            assert target.owner is not None
            field_symbol = self.symbols.lookup_field(target.owner, target.name)
        if field_symbol is None or not field_symbol.is_final:
            return
        if (
            not field_symbol.is_static
            and self._in_constructor
            and via_this
            and self._current_class is not None
            and field_symbol.owner == self._current_class.name
        ):
            return
        raise TypeError_(f"cannot assign to final field {field_symbol.name}", location)

    # ------------------------------------------------------------------
    # expressions

    def _check_expr(self, expr: ast.Expr) -> Type:
        result = self._check_expr_inner(expr)
        expr.static_type = result
        return result

    def _check_expr_inner(self, expr: ast.Expr) -> Type:
        if isinstance(expr, ast.IntLiteral):
            return INT
        if isinstance(expr, ast.BoolLiteral):
            return BOOL
        if isinstance(expr, ast.StringLiteral):
            return STRING
        if isinstance(expr, ast.NullLiteral):
            return NULL
        if isinstance(expr, ast.ThisExpr):
            if self._in_static:
                raise TypeError_("'this' used in a static context", expr.location)
            assert self._current_class is not None
            return class_type(self._current_class.name)
        if isinstance(expr, ast.NameRef):
            return self._check_name_ref(expr)
        if isinstance(expr, ast.Unary):
            return self._check_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._check_binary(expr)
        if isinstance(expr, ast.FieldAccess):
            return self._check_field_access(expr)
        if isinstance(expr, ast.StaticFieldAccess):
            return self._check_static_field_access(expr)
        if isinstance(expr, ast.ArrayIndex):
            return self._check_array_index(expr)
        if isinstance(expr, ast.MethodCall):
            return self._check_method_call(expr)
        if isinstance(expr, ast.StaticCall):
            return self._check_static_call(expr)
        if isinstance(expr, ast.SuperCall):
            return self._check_super_call(expr)
        if isinstance(expr, ast.NewObject):
            return self._check_new_object(expr)
        if isinstance(expr, ast.NewArray):
            return self._check_new_array(expr)
        if isinstance(expr, ast.Cast):
            return self._check_cast(expr)
        if isinstance(expr, ast.InstanceOf):
            return self._check_instanceof(expr)
        raise TypeError_(f"unhandled expression {type(expr).__name__}", expr.location)

    def _check_name_ref(self, expr: ast.NameRef) -> Type:
        if self._scope is not None:
            local = self._scope.lookup(expr.name)
            if local is not None:
                expr.resolution = "local"
                return local.declared_type
        field_symbol = self._find_member_field(expr.name)
        if field_symbol is not None:
            if not field_symbol.is_static and self._in_static:
                raise TypeError_(
                    f"instance field {expr.name} referenced from static context",
                    expr.location,
                )
            self._check_field_access_allowed(field_symbol, expr.location)
            expr.resolution = "static" if field_symbol.is_static else "field"
            expr.owner = field_symbol.owner
            return field_symbol.declared_type
        raise TypeError_(f"unknown name {expr.name!r}", expr.location)

    def _find_member_field(self, name: str) -> Optional[FieldSymbol]:
        if self._current_class is None:
            return None
        return self.symbols.lookup_field(self._current_class.name, name)

    def _check_unary(self, expr: ast.Unary) -> Type:
        operand_type = self._check_expr(expr.operand)
        if expr.op == "!":
            self._require_type(operand_type, BOOL, expr.location, "operand of '!'")
            return BOOL
        if expr.op == "-":
            self._require_type(operand_type, INT, expr.location, "operand of unary '-'")
            return INT
        raise TypeError_(f"unknown unary operator {expr.op}", expr.location)

    def _check_binary(self, expr: ast.Binary) -> Type:
        left = self._check_expr(expr.left)
        right = self._check_expr(expr.right)
        op = expr.op
        if op in ("&&", "||"):
            self._require_type(left, BOOL, expr.location, f"left operand of {op}")
            self._require_type(right, BOOL, expr.location, f"right operand of {op}")
            return BOOL
        if op == "+":
            if isinstance(left, StringType) or isinstance(right, StringType):
                for side, side_type in (("left", left), ("right", right)):
                    if side_type not in (INT, BOOL, STRING) and not isinstance(
                        side_type, StringType
                    ):
                        raise TypeError_(
                            f"cannot concatenate {side_type} ({side} operand of '+')",
                            expr.location,
                        )
                return STRING
            self._require_type(left, INT, expr.location, "left operand of '+'")
            self._require_type(right, INT, expr.location, "right operand of '+'")
            return INT
        if op in ("-", "*", "/", "%"):
            self._require_type(left, INT, expr.location, f"left operand of {op!r}")
            self._require_type(right, INT, expr.location, f"right operand of {op!r}")
            return INT
        if op in ("<", "<=", ">", ">="):
            self._require_type(left, INT, expr.location, f"left operand of {op!r}")
            self._require_type(right, INT, expr.location, f"right operand of {op!r}")
            return BOOL
        if op in ("==", "!="):
            if left is INT and right is INT:
                return BOOL
            if left is BOOL and right is BOOL:
                return BOOL
            if left.is_reference() and right.is_reference():
                oracle = self.symbols.oracle
                if (
                    oracle.is_assignable(left, right)
                    or oracle.is_assignable(right, left)
                    or isinstance(left, NullType)
                    or isinstance(right, NullType)
                ):
                    return BOOL
            raise TypeError_(f"cannot compare {left} with {right}", expr.location)
        raise TypeError_(f"unknown binary operator {op}", expr.location)

    def _check_field_access(self, expr: ast.FieldAccess) -> Type:
        # A NameRef receiver that is really a class name denotes a static
        # access. The parser cannot tell names apart, so resolve here and
        # mark the node; the code generator then ignores the receiver.
        if isinstance(expr.receiver, ast.NameRef):
            name = expr.receiver.name
            is_value = (self._scope and self._scope.lookup(name)) or self._find_member_field(name)
            if not is_value and self.symbols.has_class(name):
                field_symbol = self.symbols.lookup_field(name, expr.name)
                if field_symbol is None or not field_symbol.is_static:
                    raise TypeError_(
                        f"class {name} has no static field {expr.name}", expr.location
                    )
                self._check_field_access_allowed(field_symbol, expr.location)
                expr.owner = field_symbol.owner
                expr.is_static_access = True
                return field_symbol.declared_type
        receiver_type = self._check_expr(expr.receiver)
        if isinstance(receiver_type, ArrayType) and expr.name == "length":
            expr.is_array_length = True
            return INT
        if not isinstance(receiver_type, ClassType):
            raise TypeError_(
                f"cannot access field {expr.name} on value of type {receiver_type}",
                expr.location,
            )
        field_symbol = self.symbols.lookup_field(receiver_type.name, expr.name)
        if field_symbol is None or field_symbol.is_static:
            raise TypeError_(
                f"class {receiver_type.name} has no instance field {expr.name}",
                expr.location,
            )
        self._check_field_access_allowed(field_symbol, expr.location)
        expr.owner = field_symbol.owner
        return field_symbol.declared_type

    def _check_static_field_access(self, expr: ast.StaticFieldAccess) -> Type:
        field_symbol = self.symbols.lookup_field(expr.class_name, expr.name)
        if field_symbol is None or not field_symbol.is_static:
            raise TypeError_(
                f"class {expr.class_name} has no static field {expr.name}", expr.location
            )
        self._check_field_access_allowed(field_symbol, expr.location)
        expr.owner = field_symbol.owner
        return field_symbol.declared_type

    def _check_array_index(self, expr: ast.ArrayIndex) -> Type:
        array_type_ = self._check_expr(expr.array)
        if not isinstance(array_type_, ArrayType):
            raise TypeError_(f"cannot index value of type {array_type_}", expr.location)
        index_type = self._check_expr(expr.index)
        self._require_type(index_type, INT, expr.location, "array index")
        return array_type_.element

    def _check_method_call(self, expr: ast.MethodCall) -> Type:
        if expr.receiver is None:
            return self._check_unqualified_call(expr)
        if isinstance(expr.receiver, ast.NameRef):
            name = expr.receiver.name
            is_value = (self._scope and self._scope.lookup(name)) or self._find_member_field(name)
            if not is_value and self.symbols.has_class(name):
                expr.kind = "static"
                expr.owner = name
                return self._finish_static_call(expr, name)
        receiver_type = self._check_expr(expr.receiver)
        arg_types = [self._check_expr(a) for a in expr.args]
        if isinstance(receiver_type, StringType):
            resolved = lookup_string_method(expr.name, arg_types)
            if resolved is None:
                raise TypeError_(
                    f"string has no method {expr.name}({', '.join(map(str, arg_types))})",
                    expr.location,
                )
            native_name, return_type, _params = resolved
            expr.kind = "string"
            expr.owner = native_name
            return return_type
        if not isinstance(receiver_type, ClassType):
            raise TypeError_(
                f"cannot call method {expr.name} on value of type {receiver_type}",
                expr.location,
            )
        method = self.symbols.resolve_overload(receiver_type.name, expr.name, arg_types)
        if method is None or method.is_static:
            raise TypeError_(
                f"class {receiver_type.name} has no instance method "
                f"{expr.name}({', '.join(map(str, arg_types))})",
                expr.location,
            )
        self._check_method_access_allowed(method, expr.location)
        expr.kind = "virtual"
        expr.owner = method.owner
        expr.descriptor = method.descriptor
        return method.return_type

    def _check_unqualified_call(self, expr: ast.MethodCall) -> Type:
        if self._current_class is None:
            raise TypeError_("call outside of class context", expr.location)
        arg_types = [self._check_expr(a) for a in expr.args]
        method = self.symbols.resolve_overload(self._current_class.name, expr.name, arg_types)
        if method is None:
            raise TypeError_(
                f"no method {expr.name}({', '.join(map(str, arg_types))}) in "
                f"class {self._current_class.name}",
                expr.location,
            )
        if method.is_static:
            expr.kind = "static"
        else:
            if self._in_static:
                raise TypeError_(
                    f"instance method {expr.name} called from static context",
                    expr.location,
                )
            expr.kind = "virtual"
        expr.owner = method.owner
        expr.descriptor = method.descriptor
        return method.return_type

    def _finish_static_call(self, expr: ast.MethodCall, class_name: str) -> Type:
        arg_types = [self._check_expr(a) for a in expr.args]
        method = self.symbols.resolve_overload(class_name, expr.name, arg_types)
        if method is None or not method.is_static:
            raise TypeError_(
                f"class {class_name} has no static method "
                f"{expr.name}({', '.join(map(str, arg_types))})",
                expr.location,
            )
        self._check_method_access_allowed(method, expr.location)
        expr.owner = method.owner
        expr.descriptor = method.descriptor
        return method.return_type

    def _check_static_call(self, expr: ast.StaticCall) -> Type:
        arg_types = [self._check_expr(a) for a in expr.args]
        method = self.symbols.resolve_overload(expr.class_name, expr.name, arg_types)
        if method is None or not method.is_static:
            raise TypeError_(
                f"class {expr.class_name} has no static method {expr.name}", expr.location
            )
        self._check_method_access_allowed(method, expr.location)
        expr.owner = method.owner
        expr.descriptor = method.descriptor
        return method.return_type

    def _check_super_call(self, expr: ast.SuperCall) -> Type:
        if self._current_class is None or self._in_static:
            raise TypeError_("'super' used outside an instance context", expr.location)
        superclass = self._current_class.superclass
        if superclass is None:
            raise TypeError_("Object has no superclass", expr.location)
        arg_types = [self._check_expr(a) for a in expr.args]
        method = self.symbols.resolve_overload(superclass, expr.name, arg_types)
        if method is None or method.is_static:
            raise TypeError_(
                f"superclass {superclass} has no instance method {expr.name}", expr.location
            )
        self._check_method_access_allowed(method, expr.location)
        expr.owner = method.owner
        expr.descriptor = method.descriptor
        return method.return_type

    def _check_new_object(self, expr: ast.NewObject) -> Type:
        if not self.symbols.has_class(expr.class_name):
            raise TypeError_(f"unknown class {expr.class_name}", expr.location)
        arg_types = [self._check_expr(a) for a in expr.args]
        ctor = self.symbols.resolve_constructor(expr.class_name, arg_types)
        if ctor is None:
            raise TypeError_(
                f"no matching constructor "
                f"{expr.class_name}({', '.join(map(str, arg_types))})",
                expr.location,
            )
        if self.access_checks and ctor.access == "private":
            if self._current_class is None or self._current_class.name != expr.class_name:
                raise TypeError_(
                    f"constructor of {expr.class_name} is private", expr.location
                )
        expr.descriptor = ctor.descriptor
        return class_type(expr.class_name)

    def _check_new_array(self, expr: ast.NewArray) -> Type:
        self._require_known_type(expr.element_type, expr.location)
        length_type = self._check_expr(expr.length)
        self._require_type(length_type, INT, expr.location, "array length")
        from .types import array_type as make_array

        return make_array(expr.element_type)

    def _check_cast(self, expr: ast.Cast) -> Type:
        self._require_known_type(expr.target_type, expr.location)
        operand_type = self._check_expr(expr.operand)
        if not operand_type.is_reference() or not expr.target_type.is_reference():
            raise TypeError_("casts apply only to reference types", expr.location)
        oracle = self.symbols.oracle
        if not (
            oracle.is_assignable(operand_type, expr.target_type)
            or oracle.is_assignable(expr.target_type, operand_type)
        ):
            raise TypeError_(
                f"impossible cast from {operand_type} to {expr.target_type}", expr.location
            )
        return expr.target_type

    def _check_instanceof(self, expr: ast.InstanceOf) -> Type:
        self._require_known_type(expr.tested_type, expr.location)
        operand_type = self._check_expr(expr.operand)
        if not operand_type.is_reference():
            raise TypeError_("instanceof applies only to reference types", expr.location)
        return BOOL

    # ------------------------------------------------------------------
    # helpers

    def _require_known_type(self, declared: Type, location: SourceLocation) -> None:
        base = declared
        while isinstance(base, ArrayType):
            base = base.element
        if isinstance(base, ClassType) and not self.symbols.has_class(base.name):
            raise TypeError_(f"unknown type {base.name}", location)

    def _require_type(self, actual: Type, expected: Type, location, what: str) -> None:
        if actual is not expected:
            raise TypeError_(f"{what} must be {expected}, found {actual}", location)

    def _require_assignable(self, source: Type, target: Type, location, what: str) -> None:
        if not self.symbols.oracle.is_assignable(source, target):
            raise TypeError_(f"{what}: cannot assign {source} to {target}", location)

    def _check_field_access_allowed(self, field_symbol: FieldSymbol, location) -> None:
        if not self.access_checks:
            return
        self._check_access(field_symbol.access, field_symbol.owner, field_symbol.name, location)

    def _check_method_access_allowed(self, method: MethodSymbol, location) -> None:
        if not self.access_checks:
            return
        self._check_access(method.access, method.owner, method.name, location)

    def _check_access(self, access: str, owner: str, member: str, location) -> None:
        if access == "public":
            return
        current = self._current_class.name if self._current_class else None
        if access == "private":
            if current != owner:
                raise TypeError_(f"{owner}.{member} is private", location)
            return
        if access == "protected":
            if current is None or not self.symbols.oracle.is_subclass(current, owner):
                raise TypeError_(f"{owner}.{member} is protected", location)
            return


def _contains_break(statement: ast.Stmt) -> bool:
    """True if ``statement`` contains a break binding to the enclosing loop
    (breaks inside nested loops bind to those loops instead)."""
    if isinstance(statement, ast.Break):
        return True
    if isinstance(statement, ast.Block):
        return any(_contains_break(s) for s in statement.statements)
    if isinstance(statement, ast.If):
        if _contains_break(statement.then_branch):
            return True
        return statement.else_branch is not None and _contains_break(
            statement.else_branch
        )
    # While/For open a new loop scope: their breaks do not escape.
    return False


def typecheck(
    program: ast.Program,
    access_checks: bool = True,
    allow_final_writes: bool = False,
) -> "tuple[ProgramSymbols, TypeChecker]":
    """Build symbols for ``program`` and type-check it.

    Returns the symbol table and the checker (which carries the per-method
    local-slot tables the code generator needs).
    """
    symbols = ProgramSymbols.build(program)
    checker = TypeChecker(symbols, access_checks, allow_final_writes)
    checker.check_program(program)
    return symbols, checker
