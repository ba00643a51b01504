"""Recursive-descent parser for jmini, with precedence climbing for binary
operators.

Class-name-vs-variable ambiguity (``Foo.bar`` as a static access versus
``foo.bar`` as a field access) is *not* resolved here; the parser produces
generic :class:`~repro.lang.ast_nodes.FieldAccess` / ``MethodCall`` nodes
with a :class:`NameRef` receiver, and the type checker rewrites them once
it knows which names denote classes.
"""

from __future__ import annotations

from typing import List, Optional

from . import ast_nodes as ast
from .errors import ParseError, SourceLocation
from .lexer import tokenize
from .tokens import Token, TokenKind
from .types import (
    BOOL,
    INT,
    STRING,
    VOID,
    Type,
    array_type,
    class_type,
)

_ACCESS_MODIFIERS = ("public", "private", "protected")
_PRIMITIVE_TYPES = {"int": INT, "bool": BOOL, "string": STRING, "void": VOID}
# Binary operators, loosest first; ``instanceof`` sits with the relational
# operators.
_BINARY_PRECEDENCE = {
    "||": 1, "&&": 2, "==": 3, "!=": 3,
    "<=": 4, ">=": 4, "<": 4, ">": 4, "+": 5, "-": 5, "*": 6, "/": 6, "%": 6,
}
_INSTANCEOF_PRECEDENCE = 4
_EXPR_START_AFTER_CAST = {
    TokenKind.IDENT,
    TokenKind.INT_LITERAL,
    TokenKind.STRING_LITERAL,
}


class Parser:
    """Parses a token stream into a :class:`~repro.lang.ast_nodes.Program`."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------------
    # token utilities
    #
    # The EOF token is last and _advance never moves past it, so the current
    # token is always self._tokens[self._pos], and a token that matched a
    # punctuation, keyword or identifier is advanced over with _pos += 1.

    def _peek(self, offset: int = 0) -> Token:
        if not offset:
            return self._tokens[self._pos]
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _check_punct(self, punct: str) -> bool:
        token = self._tokens[self._pos]
        return token.value == punct and token.kind is TokenKind.PUNCT

    def _check_keyword(self, word: str) -> bool:
        token = self._tokens[self._pos]
        return token.value == word and token.kind is TokenKind.KEYWORD

    def _match_punct(self, punct: str) -> bool:
        token = self._tokens[self._pos]
        if token.value == punct and token.kind is TokenKind.PUNCT:
            self._pos += 1
            return True
        return False

    def _match_keyword(self, word: str) -> bool:
        token = self._tokens[self._pos]
        if token.value == word and token.kind is TokenKind.KEYWORD:
            self._pos += 1
            return True
        return False

    def _expect_punct(self, punct: str) -> Token:
        token = self._tokens[self._pos]
        if token.value != punct or token.kind is not TokenKind.PUNCT:
            raise ParseError(f"expected {punct!r} but found '{token}'", token.location)
        self._pos += 1
        return token

    def _expect_keyword(self, word: str) -> Token:
        token = self._tokens[self._pos]
        if token.value != word or token.kind is not TokenKind.KEYWORD:
            raise ParseError(
                f"expected keyword {word!r} but found '{token}'", token.location
            )
        self._pos += 1
        return token

    def _expect_ident(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.IDENT:
            raise ParseError(f"expected identifier but found '{token}'", token.location)
        self._pos += 1
        return token

    def _location(self) -> SourceLocation:
        return self._peek().location

    # ------------------------------------------------------------------
    # program structure

    def parse_program(self) -> ast.Program:
        classes = []
        while not self._peek().kind is TokenKind.EOF:
            classes.append(self._parse_class())
        return ast.Program(classes)

    def _parse_class(self) -> ast.ClassDecl:
        location = self._location()
        self._expect_keyword("class")
        name = self._expect_ident().value
        superclass = "Object"
        if self._match_keyword("extends"):
            superclass = self._expect_ident().value
        self._expect_punct("{")
        fields: List[ast.FieldDecl] = []
        methods: List[ast.MethodDecl] = []
        constructors: List[ast.ConstructorDecl] = []
        while not self._match_punct("}"):
            self._parse_member(name, fields, methods, constructors)
        return ast.ClassDecl(name, superclass, fields, methods, constructors, location)

    def _parse_member(self, class_name, fields, methods, constructors) -> None:
        location = self._location()
        access = "public"
        is_static = False
        is_final = False
        is_native = False
        while True:
            token = self._tokens[self._pos]
            if token.kind is not TokenKind.KEYWORD:
                break
            if token.value in _ACCESS_MODIFIERS:
                access = token.value
            elif token.value == "static":
                is_static = True
            elif token.value == "final":
                is_final = True
            elif token.value == "native":
                is_native = True
            else:
                break
            self._pos += 1
        # Constructor: ClassName '('
        if (
            self._peek().kind is TokenKind.IDENT
            and self._peek().value == class_name
            and self._peek(1).is_punct("(")
        ):
            constructors.append(self._parse_constructor(class_name, access, location))
            return
        declared_type = self._parse_type()
        name = self._expect_ident().value
        if self._check_punct("("):
            methods.append(
                self._parse_method(name, declared_type, is_static, is_native, access, location)
            )
            return
        # Field declaration (possibly multiple declarators).
        while True:
            initializer = None
            if self._match_punct("="):
                initializer = self._parse_expression()
            fields.append(
                ast.FieldDecl(name, declared_type, is_static, is_final, access, initializer, location)
            )
            if self._match_punct(","):
                name = self._expect_ident().value
                continue
            self._expect_punct(";")
            return

    def _parse_constructor(self, class_name, access, location) -> ast.ConstructorDecl:
        self._expect_ident()  # class name
        params = self._parse_params()
        block_location = self._location()
        self._expect_punct("{")
        super_args = None
        if self._check_keyword("super") and self._peek(1).is_punct("("):
            self._advance()
            super_args = self._parse_args()
            self._expect_punct(";")
        statements = []
        while not self._match_punct("}"):
            statements.append(self._parse_statement())
        body = ast.Block(block_location, statements)
        return ast.ConstructorDecl(class_name, params, body, access, location, super_args)

    def _parse_method(self, name, return_type, is_static, is_native, access, location):
        params = self._parse_params()
        body: Optional[ast.Block] = None
        if is_native:
            self._expect_punct(";")
        else:
            body = self._parse_block()
        return ast.MethodDecl(name, params, return_type, body, is_static, is_native, access, location)

    def _parse_params(self) -> List[ast.Param]:
        self._expect_punct("(")
        params: List[ast.Param] = []
        if not self._check_punct(")"):
            while True:
                location = self._location()
                declared_type = self._parse_type()
                name = self._expect_ident().value
                params.append(ast.Param(name, declared_type, location))
                if not self._match_punct(","):
                    break
        self._expect_punct(")")
        return params

    # ------------------------------------------------------------------
    # types

    def _parse_type(self) -> Type:
        token = self._tokens[self._pos]
        if token.kind is TokenKind.IDENT:
            base = class_type(token.value)
        elif token.kind is TokenKind.KEYWORD and token.value in _PRIMITIVE_TYPES:
            base = _PRIMITIVE_TYPES[token.value]
        else:
            raise ParseError(f"expected a type but found '{token}'", token.location)
        self._pos += 1
        while self._check_punct("[") and self._peek(1).is_punct("]"):
            self._advance()
            self._advance()
            base = array_type(base)
        return base

    def _looks_like_type_then_name(self) -> bool:
        """Lookahead: does the input start a local variable declaration?"""
        token = self._peek()
        if token.kind is TokenKind.KEYWORD and token.value in ("int", "bool", "string"):
            return True
        if token.kind is not TokenKind.IDENT:
            return False
        offset = 1
        while self._peek(offset).is_punct("[") and self._peek(offset + 1).is_punct("]"):
            offset += 2
        return self._peek(offset).kind is TokenKind.IDENT

    # ------------------------------------------------------------------
    # statements

    def _parse_block(self) -> ast.Block:
        location = self._location()
        self._expect_punct("{")
        statements = []
        while not self._match_punct("}"):
            statements.append(self._parse_statement())
        return ast.Block(location, statements)

    def _parse_statement(self) -> ast.Stmt:
        token = self._tokens[self._pos]
        location = token.location
        if self._check_punct("{"):
            return self._parse_block()
        if token.kind is TokenKind.KEYWORD:
            if self._match_keyword("if"):
                self._expect_punct("(")
                condition = self._parse_expression()
                self._expect_punct(")")
                then_branch = self._parse_statement()
                else_branch = None
                if self._match_keyword("else"):
                    else_branch = self._parse_statement()
                return ast.If(location, condition, then_branch, else_branch)
            if self._match_keyword("while"):
                self._expect_punct("(")
                condition = self._parse_expression()
                self._expect_punct(")")
                body = self._parse_statement()
                return ast.While(location, condition, body)
            if self._match_keyword("for"):
                return self._parse_for(location)
            if self._match_keyword("return"):
                value = None
                if not self._check_punct(";"):
                    value = self._parse_expression()
                self._expect_punct(";")
                return ast.Return(location, value)
            if self._match_keyword("break"):
                self._expect_punct(";")
                return ast.Break(location)
            if self._match_keyword("continue"):
                self._expect_punct(";")
                return ast.Continue(location)
        if self._looks_like_type_then_name():
            return self._parse_var_decl(location)
        statement = self._parse_simple_statement(location)
        self._expect_punct(";")
        return statement

    def _parse_var_decl(self, location) -> ast.Stmt:
        declared_type = self._parse_type()
        name = self._expect_ident().value
        initializer = None
        if self._match_punct("="):
            initializer = self._parse_expression()
        self._expect_punct(";")
        return ast.VarDecl(location, name, declared_type, initializer)

    def _parse_simple_statement(self, location) -> ast.Stmt:
        """An assignment or a bare expression, without the trailing ';'."""
        expr = self._parse_expression()
        if self._match_punct("="):
            if not isinstance(
                expr, (ast.NameRef, ast.FieldAccess, ast.StaticFieldAccess, ast.ArrayIndex)
            ):
                raise ParseError("invalid assignment target", location)
            value = self._parse_expression()
            return ast.Assign(location, expr, value)
        return ast.ExprStmt(location, expr)

    def _parse_for(self, location) -> ast.Stmt:
        self._expect_punct("(")
        init: Optional[ast.Stmt] = None
        if not self._check_punct(";"):
            if self._looks_like_type_then_name():
                declared_type = self._parse_type()
                name = self._expect_ident().value
                initializer = None
                if self._match_punct("="):
                    initializer = self._parse_expression()
                init = ast.VarDecl(location, name, declared_type, initializer)
            else:
                init = self._parse_simple_statement(location)
        self._expect_punct(";")
        condition = None
        if not self._check_punct(";"):
            condition = self._parse_expression()
        self._expect_punct(";")
        update: Optional[ast.Stmt] = None
        if not self._check_punct(")"):
            update = self._parse_simple_statement(self._location())
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.For(location, init, condition, update, body)

    # ------------------------------------------------------------------
    # expressions

    def _parse_expression(self, min_precedence: int = 1) -> ast.Expr:
        """Precedence climbing over :data:`_BINARY_PRECEDENCE`: every binary
        operator, and ``instanceof`` (whose right operand is a type), is
        left-associative."""
        left = self._parse_unary()
        while True:
            token = self._tokens[self._pos]
            kind = token.kind
            if kind is TokenKind.PUNCT:
                precedence = _BINARY_PRECEDENCE.get(token.value, 0)
            elif kind is TokenKind.KEYWORD and token.value == "instanceof":
                precedence = _INSTANCEOF_PRECEDENCE
            else:
                return left
            if precedence < min_precedence:
                return left
            self._pos += 1
            if kind is TokenKind.KEYWORD:
                left = ast.InstanceOf(token.location, left, self._parse_type())
            else:
                right = self._parse_expression(precedence + 1)
                left = ast.Binary(token.location, token.value, left, right)

    def _parse_unary(self) -> ast.Expr:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.PUNCT:
            return self._parse_postfix()
        if token.value == "!" or token.value == "-":
            self._pos += 1
            return ast.Unary(token.location, token.value, self._parse_unary())
        if self._looks_like_cast():
            self._pos += 1  # '('
            target = self._parse_type()
            self._expect_punct(")")
            operand = self._parse_unary()
            return ast.Cast(token.location, target, operand)
        return self._parse_postfix()

    def _looks_like_cast(self) -> bool:
        """``(T) expr`` where T is a class, string or array type. A
        primitive element type (``(int[])x``) requires at least one ``[]``."""
        if not self._check_punct("("):
            return False
        offset = 1
        token = self._peek(offset)
        needs_brackets = False
        if token.kind is TokenKind.IDENT or token.is_keyword("string"):
            offset += 1
        elif token.is_keyword("int") or token.is_keyword("bool"):
            offset += 1
            needs_brackets = True
        else:
            return False
        brackets = 0
        while self._peek(offset).is_punct("[") and self._peek(offset + 1).is_punct("]"):
            offset += 2
            brackets += 1
        if needs_brackets and brackets == 0:
            return False
        if not self._peek(offset).is_punct(")"):
            return False
        after = self._peek(offset + 1)
        if after.kind in _EXPR_START_AFTER_CAST:
            return True
        return (
            after.is_keyword("this")
            or after.is_keyword("new")
            or after.is_keyword("null")
            or after.is_keyword("true")
            or after.is_keyword("false")
            or after.is_punct("(")
        )

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self._tokens[self._pos]
            if token.kind is not TokenKind.PUNCT:
                return expr
            if token.value == ".":
                self._pos += 1
                name = self._expect_ident().value
                if self._check_punct("("):
                    expr = ast.MethodCall(token.location, expr, name, self._parse_args())
                else:
                    expr = ast.FieldAccess(token.location, expr, name)
            elif token.value == "[":
                self._pos += 1
                index = self._parse_expression()
                self._expect_punct("]")
                expr = ast.ArrayIndex(token.location, expr, index)
            else:
                return expr

    def _parse_args(self) -> List[ast.Expr]:
        self._expect_punct("(")
        args: List[ast.Expr] = []
        if not self._check_punct(")"):
            while True:
                args.append(self._parse_expression())
                if not self._match_punct(","):
                    break
        self._expect_punct(")")
        return args

    def _parse_primary(self) -> ast.Expr:
        token = self._tokens[self._pos]
        location = token.location
        kind = token.kind
        if kind is TokenKind.IDENT:
            self._pos += 1
            if self._check_punct("("):
                args = self._parse_args()
                return ast.MethodCall(location, None, token.value, args)
            return ast.NameRef(location, token.value)
        if kind is TokenKind.INT_LITERAL:
            self._pos += 1
            return ast.IntLiteral(location, int(token.value))
        if kind is TokenKind.STRING_LITERAL:
            self._pos += 1
            return ast.StringLiteral(location, token.value)
        if kind is TokenKind.KEYWORD:
            if self._match_keyword("true"):
                return ast.BoolLiteral(location, True)
            if self._match_keyword("false"):
                return ast.BoolLiteral(location, False)
            if self._match_keyword("null"):
                return ast.NullLiteral(location)
            if self._match_keyword("this"):
                return ast.ThisExpr(location)
            if self._match_keyword("super"):
                self._expect_punct(".")
                name = self._expect_ident().value
                args = self._parse_args()
                return ast.SuperCall(location, name, args)
            if self._match_keyword("new"):
                return self._parse_new(location)
        if self._match_punct("("):
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        raise ParseError(f"unexpected token '{token}' in expression", location)

    def _parse_new(self, location) -> ast.Expr:
        element: Type
        token = self._peek()
        if self._match_keyword("int"):
            element = INT
        elif self._match_keyword("bool"):
            element = BOOL
        elif self._match_keyword("string"):
            element = STRING
        elif token.kind is TokenKind.IDENT:
            self._advance()
            if self._check_punct("("):
                args = self._parse_args()
                return ast.NewObject(location, token.value, args)
            element = class_type(token.value)
        else:
            raise ParseError(f"expected type after 'new' but found '{token}'", location)
        # Array creation: new T[len] with optional extra [] dims on element.
        self._expect_punct("[")
        length = self._parse_expression()
        self._expect_punct("]")
        while self._check_punct("[") and self._peek(1).is_punct("]"):
            self._advance()
            self._advance()
            element = array_type(element)
        return ast.NewArray(location, element, length)


def parse(source: str, filename: str = "<source>") -> ast.Program:
    """Parse jmini source text into an AST."""
    return Parser(tokenize(source, filename)).parse_program()
