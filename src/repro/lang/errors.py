"""Diagnostics shared by every stage of the jmini front end.

Every compile-time failure in the pipeline (lexing, parsing, type checking,
code generation, bytecode verification) is reported as a subclass of
:class:`CompileError` carrying a :class:`SourceLocation`, so callers can
render uniform ``file:line:col`` diagnostics.
"""

from __future__ import annotations

from typing import NamedTuple


class SourceLocation(NamedTuple):
    """A position in a jmini source file (1-based line and column)."""

    filename: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


UNKNOWN_LOCATION = SourceLocation("<unknown>", 0, 0)


class CompileError(Exception):
    """Base class for all jmini compile-time errors."""

    def __init__(self, message: str, location: SourceLocation = UNKNOWN_LOCATION):
        super().__init__(f"{location}: {message}")
        self.message = message
        self.location = location


class LexError(CompileError):
    """Raised when the lexer encounters malformed input."""


class ParseError(CompileError):
    """Raised when the parser encounters a syntax error."""


class TypeError_(CompileError):
    """Raised when the type checker rejects a program.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`TypeError`.
    """


class CodegenError(CompileError):
    """Raised when bytecode generation hits an unsupported construct."""
