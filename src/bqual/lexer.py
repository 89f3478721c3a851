"""Tokenizer for the bounded machine language.

Comments come in two forms, ``(* ... *)`` and ``// ...`` to end of line.
``strip_comments`` blanks them with one regex (spaces, newlines kept), so
positions in the stripped text are positions in the source; the word count
is taken over that text.  ``tokenize`` then reads it with one named-group
regex (space, int, word, symbol, illegal), tracking the line as it goes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

KEYWORDS = frozenset(
    {
        "MACHINE",
        "SETS",
        "VARIABLES",
        "INVARIANT",
        "INITIALISATION",
        "OPERATIONS",
        "PRE",
        "SELECT",
        "WHEN",
        "ANY",
        "WHERE",
        "THEN",
        "END",
        "skip",
        "not",
        "or",
    }
)

# Longest first so ':=' wins over ':' and '<=' over '<'.
_SYMBOLS = (
    ":=",
    "..",
    "||",
    "/=",
    "<=",
    ">=",
    "<",
    ">",
    "=",
    "&",
    ":",
    ";",
    ",",
    "+",
    "-",
    "*",
    "(",
    ")",
    "{",
    "}",
)

# A block comment ends at its first "*)".  One that never ends matches the
# empty ``unterminated`` group at its "(*", so the scan stays linear; the
# leftmost of "(*" and "//" wins.
_COMMENT = re.compile(r"\(\*(?:.*?\*\)|(?P<unterminated>))|//[^\n]*", re.DOTALL)
# ``\d`` is ``str.isdecimal``, the digits ``int()`` reads; only ``\n`` breaks
# a line, so "\r", "\f" and "\u2028" are one column each.
_TOKEN = re.compile(
    r"(?P<space>\s+)|(?P<int>\d+)|(?P<word>[^\W\d]\w*)|(?P<symbol>%s)|(?P<illegal>.)"
    % "|".join(map(re.escape, _SYMBOLS))
)


class LexError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Token:
    kind: str  # "keyword" | "ident" | "int" | one of _SYMBOLS | "eof"
    text: str
    line: int
    column: int

    def __repr__(self):
        return f"{self.kind}({self.text})@{self.line}:{self.column}"


def strip_comments(source: str) -> str:
    """Blank out every comment (spaces, newlines kept) so token positions
    in the result match positions in the original source."""

    def blank(match: re.Match) -> str:
        if match.group("unterminated") is not None:
            start = match.start()
            line = source.count("\n", 0, start) + 1
            column = start - source.rfind("\n", 0, start)
            raise LexError("unterminated comment", line, column)
        return re.sub(r"[^\n]", " ", match.group())

    return _COMMENT.sub(blank, source)


def word_count(source: str) -> int:
    """Number of whitespace-delimited chunks after comment removal."""
    return len(strip_comments(source).split())


def tokenize(source: str) -> list[Token]:
    """Produce the token list for ``source``; raises LexError on any
    character outside the language."""
    text = strip_comments(source)
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind, word, start = match.lastgroup, match.group(), match.start()
        if kind == "space":
            breaks = word.count("\n")
            if breaks:
                line += breaks
                line_start = start + word.rindex("\n") + 1
            continue
        column = start - line_start + 1
        if kind == "word" and (word[0].isalpha() or word[0] == "_"):
            kind = "keyword" if word in KEYWORDS else "ident"
        elif kind in ("word", "illegal"):
            # ``[^\W\d]`` also admits numeric characters such as '²' and '½'.
            raise LexError(f"illegal character {word[0]!r}", line, column)
        elif kind == "symbol":
            kind = word
        tokens.append(Token(kind, word, line, column))
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens
