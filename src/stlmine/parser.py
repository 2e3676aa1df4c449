"""Text syntax for STL / parametric STL formulas.

Grammar sketch (keywords are reserved, so signals cannot be named ``F``,
``true``, ...)::

    formula  := "true" | atom | "not" formula
              | formula ("and" | "or" | "implies") formula
              | ("F" | "G") interval "(" formula ")"
              | "(" formula ")" "U" interval "(" formula ")"
              | "(" formula ")"
    interval := ("[" | "(") bound "," bound ("]" | ")")
    atom     := ident ("<" | ">" | "<=" | ">=") (number | "$" ident)
    bound    := number | "$" ident

``not`` binds tighter than ``and``, which binds tighter than ``or``, which
binds tighter than ``implies``; binary operators associate to the left.  The
keywords of F, G and the binary connectives, and the binding order of the
latter, come from the ``TEMPORAL`` and ``BINARY`` tables in ``formula.py``.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import FormulaSyntaxError
from .formula import (
    BINARY,
    TEMPORAL,
    Atom,
    Bound,
    Const,
    Formula,
    Interval,
    Not,
    Param,
    TrueF,
    Until,
    validate_formula,
)

KEYWORDS = {"true", "not", "U", *TEMPORAL, *BINARY}
_BINARY_LEVELS = tuple(BINARY.items())

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<number>-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
    | (?P<param>\$[A-Za-z_][A-Za-z_0-9]*)
    | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<cmp><=|>=|<|>)
    | (?P<punct>[\[\](),])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # number | param | ident | keyword | cmp | punct | eof
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        tok_text = m.group()
        if kind != "ws":
            if kind == "ident" and tok_text in KEYWORDS:
                kind = "keyword"
            tokens.append(_Token(kind, tok_text, line, pos - line_start + 1))
        newlines = tok_text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + tok_text.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def _fail(self, message: str):
        tok = self.cur
        shown = tok.text or "end of input"
        raise FormulaSyntaxError(f"{message}, got {shown!r}", tok.line, tok.column)

    def advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def accept(self, kind: str, text: str | None = None) -> _Token | None:
        tok = self.cur
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.accept(kind, text)
        if tok is None:
            self._fail(f"expected {text or kind}")
        return tok

    # precedence-climbing entry points --------------------------------------

    def formula(self, level: int = 0) -> Formula:
        """Binary connectives from ``_BINARY_LEVELS[level]`` on, tightest last."""
        if level == len(_BINARY_LEVELS):
            return self.unary()
        keyword, node_type = _BINARY_LEVELS[level]
        node = self.formula(level + 1)
        while self.accept("keyword", keyword):
            node = node_type(node, self.formula(level + 1))
        return node

    def unary(self) -> Formula:
        if self.accept("keyword", "not"):
            return Not(self.unary())
        return self.primary()

    def primary(self) -> Formula:
        if self.accept("keyword", "true"):
            return TrueF()
        if self.cur.kind == "keyword" and self.cur.text in TEMPORAL:
            node_type = TEMPORAL[self.advance().text]
            return node_type(self.interval(), self.parenthesized())
        if self.accept("punct", "("):
            node = self.formula()
            self.expect("punct", ")")
            if self.accept("keyword", "U"):
                iv = self.interval()
                return Until(iv, node, self.parenthesized())
            return node
        if self.cur.kind == "ident":
            return self.atom()
        self._fail("expected a formula")

    def parenthesized(self) -> Formula:
        self.expect("punct", "(")
        node = self.formula()
        self.expect("punct", ")")
        return node

    def atom(self) -> Formula:
        sig = self.expect("ident").text
        cmp_tok = self.cur
        if cmp_tok.kind != "cmp":
            self._fail("expected a comparator (<, >, <=, >=)")
        self.advance()
        return Atom(sig, cmp_tok.text, self.bound())

    def interval(self) -> Interval:
        if self.accept("punct", "["):
            lo_closed = True
        elif self.accept("punct", "("):
            lo_closed = False
        else:
            self._fail("expected an interval")
        lo = self.bound()
        self.expect("punct", ",")
        hi = self.bound()
        if self.accept("punct", "]"):
            hi_closed = True
        elif self.accept("punct", ")"):
            hi_closed = False
        else:
            self._fail("expected ] or ) to close the interval")
        return Interval(lo, hi, lo_closed, hi_closed)

    def bound(self) -> Bound:
        tok = self.cur
        if tok.kind == "number":
            value = float(tok.text)
            if not math.isfinite(value):
                self._fail("number out of the range of a float")
            self.advance()
            return Const(value)
        if tok.kind == "param":
            self.advance()
            return Param(tok.text[1:])
        self._fail("expected a number or $parameter")


def parse_formula(text: str) -> Formula:
    """Parse formula text; raises FormulaSyntaxError with line:column on failure."""
    parser = _Parser(_tokenize(text))
    node = parser.formula()
    if parser.cur.kind != "eof":
        parser._fail("trailing input after formula")
    validate_formula(node)
    return node
