from __future__ import annotations

import time

import pytest
from hypothesis import example, given, settings, strategies as st

from bqual.lexer import _SYMBOLS, KEYWORDS, LexError, strip_comments, tokenize, word_count

from conftest import corpus_source, independent_strip_comments, independent_tokenize


class TestTokenize:
    def test_assignment_tokens(self):
        kinds = [(t.kind, t.text) for t in tokenize("minute := minute + 1")]
        assert kinds == [
            ("ident", "minute"),
            (":=", ":="),
            ("ident", "minute"),
            ("+", "+"),
            ("int", "1"),
            ("eof", ""),
        ]

    def test_invariant_tokens(self):
        tokens = tokenize("hour : 0..23 & minute : 0..59")[:-1]
        assert len(tokens) == 11
        assert tokens[-1].kind == "int" and tokens[-1].text == "59"

    def test_block_comment_stripped(self):
        tokens = tokenize("(* comment *) PRE")[:-1]
        assert [(t.kind, t.text) for t in tokens] == [("keyword", "PRE")]

    def test_line_comment_stripped(self):
        tokens = tokenize("END // trailing note\n")[:-1]
        assert [t.text for t in tokens] == ["END"]

    def test_longest_symbol_wins(self):
        kinds = [t.kind for t in tokenize("x := 1 .. 2 <= /=")[:-1]]
        assert kinds == ["ident", ":=", "int", "..", "int", "<=", "/="]

    def test_illegal_character_position(self):
        with pytest.raises(LexError) as err:
            tokenize("hour :\n  0 ? 23")
        assert err.value.line == 2
        assert err.value.column == 5

    def test_unterminated_comment(self):
        with pytest.raises(LexError, match="unterminated"):
            tokenize("(* never closed")

    def test_positions_survive_comments(self):
        tokens = tokenize("(* pad *) x")[:-1]
        assert tokens[0].column == 11


class TestWordCount:
    def test_assignment(self):
        assert word_count("minute := minute + 1") == 5

    def test_comment_removed(self):
        assert word_count("(* note *) PRE minute < 59") == 4

    # Frozen from an independent comment-strip + whitespace-split script
    # (re.sub of both comment forms, then str.split).
    CORPUS_WORDS = {
        "CM1.mch": 73,
        "CM2.mch": 73,
        "CM3.mch": 84,
        "CM4.mch": 73,
        "CM5.mch": 96,
        "CM6.mch": 94,
    }

    @pytest.mark.parametrize("name,expected", sorted(CORPUS_WORDS.items()))
    def test_corpus_golden_counts(self, name, expected):
        assert word_count(corpus_source(name)) == expected

    def test_comment_does_not_glue_words(self):
        assert word_count("a(* x *)b") == 2

    def test_empty(self):
        assert word_count("") == 0


def test_strip_comments_preserves_layout():
    source = "x (* one\ntwo *) y // z\nw"
    stripped = strip_comments(source)
    assert stripped.count("\n") == source.count("\n")
    assert stripped.split() == ["x", "y", "w"]


def test_unterminated_comment_scan_is_linear():
    # Each "(*" after the first is unterminated too; a scan that retried
    # from every one of them would take minutes here.
    start = time.perf_counter()
    with pytest.raises(LexError, match=r"^1:1: unterminated comment$"):
        tokenize("(* " * 200_000)
    assert time.perf_counter() - start < 5


FRAGMENTS = (
    *sorted(KEYWORDS),
    *_SYMBOLS,
    *("(*", "*)", "(*)", "//", "x", "_y1", "42", "?"),
    *(" ", "\t", "\n", "\r", "\f", "\u2028"),
    *("é", "٣", "²", "½", "Ⅻ"),
)


def _outcome(fn, text):
    try:
        return fn(text)
    except LexError as err:
        return (str(err), err.line, err.column)


def _tuples(tokens):
    return [(t.kind, t.text, t.line, t.column) for t in tokens]


def _expected_scan(text):
    """The character loops' tokens, except that the scan rejects the first
    digit that ``int()`` cannot read, such as '²', which the loops put into
    an ``int`` token: their one known difference."""
    tokens = []
    for tok in independent_tokenize(text):
        if tok.kind == "int" and not tok.text.isdecimal():
            at = next(i for i, ch in enumerate(tok.text) if not ch.isdecimal())
            raise LexError(f"illegal character {tok.text[at]!r}", tok.line, tok.column + at)
        tokens.append(tok)
    return _tuples(tokens)


@given(st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join))
@example("(*)")
@example("a(*x*)b // c\n(* d")
@example("(* // *) x // (* \n y")
@example("x\r\n\f\u2028 y\n\n  z")
@example("x 3² x²")
@example("²½")
@settings(max_examples=500)
def test_scan_matches_character_loops(text):
    assert _outcome(lambda t: _tuples(tokenize(t)), text) == _outcome(_expected_scan, text)
    assert _outcome(strip_comments, text) == _outcome(independent_strip_comments, text)
    words = _outcome(lambda t: len(independent_strip_comments(t).split()), text)
    assert _outcome(word_count, text) == words
