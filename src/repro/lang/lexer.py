"""Lexer for the jmini language.

jmini is the small Java-like language used by this reproduction: the
benchmark applications (our stand-ins for Jetty, JavaEmailServer and
CrossFTP) and the Jvolve transformer classes are all written in it.

The lexer supports ``//`` line comments, ``/* ... */`` block comments,
ASCII decimal integer literals, double-quoted string literals with the
escape sequences ``\\n \\t \\r \\\\ \\" \\0``, identifiers (Unicode letters
allowed), keywords and punctuation. See docs/LANGUAGE.md, "Lexical
structure".

One compiled pattern skips whitespace and comments and matches the next
token. Whatever it cannot match (a string with escapes, an identifier
that starts with a non-ASCII letter, or an error) goes to a small helper.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .errors import LexError, SourceLocation
from .tokens import KEYWORDS, PUNCTUATION, Token, TokenKind

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", '"': '"', "0": "\0"}

# Group 1: a word starting with an ASCII letter or '_' (``\w`` is exactly
# ``str.isalnum()`` or '_'); 2: an integer literal not followed by a word
# character; 3: punctuation, longest first, where '/' is not the start of
# an unterminated block comment; 4: a string literal without escapes,
# quotes included. The empty last alternative keeps the skip maximal, so
# the helper always sees the exact character that stopped the scan.
_SCAN = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*(?s:.*?)\*/)*"
    r"(?:([A-Za-z_]\w*)|([0-9]+)(?!\w)|("
    + "|".join("/(?!\\*)" if p == "/" else re.escape(p) for p in PUNCTUATION)
    + r')|("[^"\\\n]*")|)'
)
_WORD = re.compile(r"\w+")
_STRING_CHUNK = re.compile(r'[^"\\\n]*')

# Builds a Token or SourceLocation directly, skipping the NamedTuple's
# Python-level __new__ (most of the per-token cost otherwise).
_new = tuple.__new__
_IDENT, _KEYWORD, _INT, _STRING, _PUNCT, _EOF = (
    TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.INT_LITERAL,
    TokenKind.STRING_LITERAL, TokenKind.PUNCT, TokenKind.EOF,
)
_GROUP_KINDS = (None, _IDENT, _INT, _PUNCT, _STRING)


class Lexer:
    """Converts jmini source text into a list of :class:`Token`."""

    def __init__(self, source: str, filename: str = "<source>"):
        self._source = source
        self._filename = filename

    def tokenize(self) -> List[Token]:
        """Lex the entire input, returning tokens terminated by one EOF token."""
        source = self._source
        filename = self._filename
        end = len(source)
        scan = _SCAN.match
        tokens: List[Token] = []
        append = tokens.append
        pos = 0
        line = 1
        line_start = 0
        next_newline = source.find("\n")
        if next_newline < 0:
            next_newline = end
        while True:
            match = scan(source, pos)
            group = match.lastindex
            if group is None:
                start = pos = match.end()
            else:
                start, pos = match.span(group)
            while start > next_newline:  # count the newlines skipped before the token
                line += 1
                line_start = next_newline + 1
                next_newline = source.find("\n", line_start)
                if next_newline < 0:
                    next_newline = end
            location = _new(SourceLocation, (filename, line, start - line_start + 1))
            if group is not None:
                kind = _GROUP_KINDS[group]
                value = match[group]
                if kind is _IDENT:
                    if value in KEYWORDS:
                        kind = _KEYWORD
                elif kind is _STRING:
                    value = value[1:-1]
                append(_new(Token, (kind, value, location)))
            elif pos == end:
                append(_new(Token, (_EOF, "", location)))
                return tokens
            else:
                kind, value, pos = self._lex_slow(start, location)
                append(_new(Token, (kind, value, location)))

    def _lex_slow(self, start: int, location: SourceLocation) -> Tuple[TokenKind, str, int]:
        """The token at ``start`` that the scan pattern does not match:
        returns its kind, value and end, or raises :class:`LexError`."""
        source = self._source
        char = source[start]
        if char == '"':
            return _STRING, *_lex_string(source, start, location)
        if char in "0123456789":
            raise LexError("identifier may not start with a digit", location)
        if char.isalpha():
            end = _WORD.match(source, start).end()
            return _IDENT, source[start:end], end
        if source.startswith("/*", start):
            raise LexError("unterminated block comment", location)
        raise LexError(f"unexpected character {char!r}", location)


def _lex_string(source: str, start: int, location: SourceLocation) -> Tuple[str, int]:
    """Decode the string literal whose opening quote is at ``start``;
    returns its value and the index just past the closing quote."""
    chars = []
    pos = start + 1
    while True:
        chunk_end = _STRING_CHUNK.match(source, pos).end()
        chars.append(source[pos:chunk_end])
        pos = chunk_end
        if pos == len(source):
            raise LexError("unterminated string literal", location)
        char = source[pos]
        if char == '"':
            return "".join(chars), pos + 1
        if char == "\n":
            raise LexError("newline in string literal", location)
        if pos + 1 == len(source):
            raise LexError("unterminated escape sequence", location)
        escape = source[pos + 1]
        if escape not in _ESCAPES:
            raise LexError(f"unknown escape sequence \\{escape}", location)
        chars.append(_ESCAPES[escape])
        pos += 2


def tokenize(source: str, filename: str = "<source>") -> List[Token]:
    """Convenience wrapper: lex ``source`` into a token list."""
    return Lexer(source, filename).tokenize()
