"""Tokenizer for the CQL-like surface syntax."""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional, Union


class LexError(Exception):
    """Raised when the input contains a character no token matches."""


#: Token kinds produced by the lexer.
KEYWORDS = {
    "select",
    "from",
    "where",
    "group",
    "by",
    "as",
    "and",
    "range",
    "now",
    "unbounded",
    "between",
}

PUNCT = {",", "(", ")", "[", "]", ".", "*", "-", "+"}

OPERATORS = {"<", "<=", ">", ">=", "=", "!=", "<>"}


class Token(NamedTuple):
    """One lexical token: ``kind`` is ``ident``/``keyword``/``number``/
    ``string``/``op``/``punct``/``eof``.  A tuple, not a dataclass: a
    query text makes a few dozen of them per parse."""

    kind: str
    text: str
    value: Union[int, float, str, None] = None
    pos: int = 0

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})"


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text``, appending a trailing ``eof`` token."""
    tokens: List[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "'" or ch == '"':
            end = text.find(ch, i + 1)
            if end < 0:
                raise LexError(f"unterminated string literal at position {i}")
            literal = text[i + 1 : end]
            tokens.append(Token("string", text[i : end + 1], literal, i))
            i = end + 1
            continue
        # isdecimal, not isdigit: "²" or "①" is a digit but no int() literal.
        if ch.isdecimal() or (
            ch == "." and i + 1 < n and text[i + 1].isdecimal()
        ):
            j = i
            seen_dot = False
            while j < n and (text[j].isdecimal() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    # A dot followed by a non-digit is punctuation, not a
                    # decimal point (e.g. "3.Hour" never occurs, but "R.A"
                    # style never reaches here because idents match first).
                    if j + 1 >= n or not text[j + 1].isdecimal():
                        break
                    seen_dot = True
                j += 1
            raw = text[i:j]
            value: Union[int, float] = float(raw) if "." in raw else int(raw)
            tokens.append(Token("number", raw, value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "keyword" if word.lower() in KEYWORDS else "ident"
            tokens.append(Token(kind, word, word, i))
            i = j
            continue
        two = text[i : i + 2]
        if two in OPERATORS:
            canonical = "!=" if two == "<>" else two
            tokens.append(Token("op", canonical, canonical, i))
            i += 2
            continue
        if ch in OPERATORS:
            tokens.append(Token("op", ch, ch, i))
            i += 1
            continue
        if ch in PUNCT:
            tokens.append(Token("punct", ch, ch, i))
            i += 1
            continue
        raise LexError(f"unexpected character {ch!r} at position {i}")
    tokens.append(Token("eof", "", None, n))
    return tokens
