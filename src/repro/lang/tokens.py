"""Token definitions for the jmini language."""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple

from .errors import SourceLocation


class TokenKind(Enum):
    """Kinds of lexical tokens produced by :class:`repro.lang.lexer.Lexer`."""

    IDENT = auto()
    INT_LITERAL = auto()
    STRING_LITERAL = auto()
    KEYWORD = auto()
    PUNCT = auto()
    EOF = auto()


KEYWORDS = frozenset(
    {
        "class",
        "extends",
        "static",
        "final",
        "native",
        "private",
        "public",
        "protected",
        "if",
        "else",
        "while",
        "for",
        "return",
        "break",
        "continue",
        "new",
        "this",
        "super",
        "null",
        "true",
        "false",
        "instanceof",
        "int",
        "bool",
        "string",
        "void",
    }
)

# Multi-character punctuation must be listed longest-first so the lexer can
# use greedy matching.
PUNCTUATION = (
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ";",
    ",",
    ".",
    "+",
    "-",
    "*",
    "/",
    "%",
    "!",
    "=",
    "<",
    ">",
)


class Token(NamedTuple):
    """A single lexical token.

    ``value`` holds the identifier text, keyword text, punctuation text, the
    decoded string literal, or the decimal text of an integer literal.
    """

    kind: TokenKind
    value: str
    location: SourceLocation

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.value == word

    def is_punct(self, punct: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.value == punct

    def __str__(self) -> str:
        if self.kind is TokenKind.EOF:
            return "<eof>"
        return self.value
