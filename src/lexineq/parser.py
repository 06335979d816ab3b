"""Recursive-descent parser for inequality expressions.

Grammar::

    inequality := expr ('>=' | '<=') expr
    expr       := term (('+' | '-') term)*
    term       := factor (('*' | '/') factor)*
    factor     := primary ('^' INT)?
    primary    := NUMBER | NUMBER 'i' | 'i' | 'Z' | '(' expr ')' | '-' primary

The single free variable is Z (case-insensitive); ``i`` is the
imaginary unit.  Complex literals may be written ``a``, ``bi`` or
``(a+bi)``; the parenthesized form (optionally with a leading minus on
either part) is folded into a single literal node, so printing a parsed
tree and re-parsing it reproduces the tree exactly.  A ``<=`` input is
normalized to ``>=`` by swapping the sides.  Two inequalities joined by
``&&`` form a system; :func:`parse_input` accepts both shapes.
Parentheses and unary minus nest at most ``_Parser.MAX_DEPTH`` levels
deep (a parenthesized literal's sign is no level), the expression tree
of each side is at most ``_Parser.MAX_HEIGHT`` nodes from root to leaf
(a chain ``Z+Z+...+Z`` of n terms is n nodes deep), and exponent
literals are at most ``MAX_EXPONENT``; input past any of these limits is
a :class:`ParseError` at the offending byte.
"""

from __future__ import annotations

import math
import re as _re

from ._record import record
from .errors import MultipleVariablesError, NonIntegerExponentError, ParseError
from .lexorder import complex_div

__all__ = [
    "Lit", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Expr", "SourceExpr",
    "parse", "parse_input", "parse_complex", "to_text", "source_to_text", "eval_expr",
    "has_var", "MAX_EXPONENT",
]

# Largest exponent literal.  No polynomial the normalizer accepts has a
# degree above 64, so only a constant base can use a larger exponent, and
# raising a constant to 1024 already overflows unless its modulus is
# below 2.  The cap bounds the multiply loops in normalization and
# evaluation, which run ``exponent - 1`` times.
MAX_EXPONENT = 1024


@record
class Lit:
    value: complex

    def __post_init__(self):
        # normalize -0.0 so printed literals re-parse to the same node
        v = complex(self.value.real + 0.0, self.value.imag + 0.0)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError(f"literal must be finite, got {v!r}")
        object.__setattr__(self, "value", v)


@record
class Var:
    pass


@record
class Neg:
    operand: "Expr"


@record
class Add:
    lhs: "Expr"
    rhs: "Expr"


@record
class Sub:
    lhs: "Expr"
    rhs: "Expr"


@record
class Mul:
    lhs: "Expr"
    rhs: "Expr"


@record
class Div:
    lhs: "Expr"
    rhs: "Expr"


@record
class Pow:
    base: "Expr"
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 1:
            raise ValueError("exponent must be a positive integer")


Expr = Lit | Var | Neg | Add | Sub | Mul | Div | Pow


@record
class SourceExpr:
    """A parsed inequality; ``relation`` is always '>=' after
    normalization (a '<=' input swaps the sides)."""

    text: str
    lhs: Expr
    rhs: Expr
    relation: str


# A token is (kind, text, pos): kind is a group name of _TOKEN_RE or "end",
# pos a character index.  No other kind of token has an operator's text, so
# operators are tested by text alone.  The alternatives begin with disjoint
# characters, so their order (most frequent first, ``bad`` last) changes no
# token.
_Token = tuple[str, str, int]
_TOKEN_RE = _re.compile(
    r"(?P<op>[-+*/^()])"
    r"|(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<rel>>=|<=)"
    r"|(?P<and>&&)"
    r"|(?P<bad>\S)"
)

_IMAGINARY_UNIT = ("i", "I")


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str) -> list[_Token]:
    tokens = [(m.lastgroup, m[0], m.start()) for m in _TOKEN_RE.finditer(text)]
    for kind, tok_text, pos in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {tok_text!r}", _byte_offset(text, pos))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    # Nesting limit: each '(' and each unary '-' counts one level, but for the
    # sign of a parenthesized literal (``_paren_literal``).  A '('
    # costs four parser frames and up to four frames in each later
    # recursive walk of the tree (normalize, eval_expr, to_text), so 100
    # levels stay well inside Python's default recursion limit of 1000.
    MAX_DEPTH = 100
    # Tree height limit: the walks of the tree (normalize, eval_expr,
    # to_text) recurse once per node on a root-to-leaf path.  A chain of
    # binary operators builds a left-deep tree without any nesting, so
    # height is limited on its own: 400 levels take about 400 frames in
    # each walk, under half the default recursion limit.
    MAX_HEIGHT = 400

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def _error(self, message: str, tok: _Token | None = None, cls=ParseError):
        pos = (tok or self.tokens[self.i])[2]
        raise cls(message, _byte_offset(self.text, pos))

    def _expect_end(self, message: str | None = None):
        kind, tail, _ = self.tokens[self.i]
        if kind != "end":
            self._error(message or f"unexpected trailing input {tail!r}")

    def _expect_op(self, op: str):
        tok = self.tokens[self.i]
        self.i += 1
        if tok[1] != op:
            self._error(f"expected {op!r}, found {tok[1] or 'end of input'!r}", tok)

    def parse_inequality(self) -> SourceExpr:
        lhs, _ = self.parse_expr()
        tok = self.tokens[self.i]
        self.i += 1
        if tok[0] != "rel":
            self._error(f"expected '>=' or '<=', found {tok[1] or 'end of input'!r}", tok)
        rhs, _ = self.parse_expr()
        if tok[1] == "<=":
            lhs, rhs = rhs, lhs
        return SourceExpr(text=self.text, lhs=lhs, rhs=rhs, relation=">=")

    # The parse_* methods return (node, height): the number of nodes on the
    # longest root-to-leaf path of the subtree.

    def parse_expr(self) -> tuple[Expr, int]:
        acc, height = self.parse_term()
        while True:
            tok = self.tokens[self.i]
            op = tok[1]
            if op != "+" and op != "-":
                return acc, height
            self.i += 1
            term, term_height = self.parse_term()
            fused = _fuse_literal(acc, op, term)
            if fused is not None:
                acc, height = fused, 1
                continue
            height = self._grow(tok, max(height, term_height))
            acc = Add(acc, term) if op == "+" else Sub(acc, term)

    def parse_term(self) -> tuple[Expr, int]:
        acc, height = self.parse_factor()
        while True:
            tok = self.tokens[self.i]
            op = tok[1]
            if op != "*" and op != "/":
                return acc, height
            self.i += 1
            rhs, rhs_height = self.parse_factor()
            height = self._grow(tok, max(height, rhs_height))
            acc = Mul(acc, rhs) if op == "*" else Div(acc, rhs)

    def parse_factor(self) -> tuple[Expr, int]:
        base, height = self.parse_primary()
        tok = self.tokens[self.i]
        if tok[1] != "^":
            return base, height
        exp = self.tokens[self.i + 1]
        self.i += 2
        kind, text, _ = exp
        digits = text.lstrip("0")
        if kind != "num" or not text.isdigit() or not digits:
            self._error("exponent must be a positive integer literal", exp,
                        cls=NonIntegerExponentError)
        # compare lengths first: int() refuses strings of over 4300 digits
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            self._error(f"exponent exceeds the limit of {MAX_EXPONENT}", exp)
        return Pow(base, int(digits)), self._grow(tok, height)

    def parse_primary(self) -> tuple[Expr, int]:
        tok = self.tokens[self.i]
        self.i += 1
        kind, text, _ = tok
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                self._error("numeric literal overflows to infinity", tok)
            if self.tokens[self.i][1] in _IMAGINARY_UNIT:
                self.i += 1
                return Lit(complex(0.0, value)), 1
            return Lit(complex(value, 0.0)), 1
        if kind == "ident":
            if text in _IMAGINARY_UNIT:
                return Lit(1j), 1
            if text.lower() == "z":
                return Var(), 1
            self._error(f"unsupported variable {text!r}; the only variable is Z", tok,
                        cls=MultipleVariablesError)
        if text == "(":
            self._descend(tok)
            literal = self._paren_literal()
            if literal is not None:
                self.depth -= 1
                return literal, 1
            inner, height = self.parse_expr()
            self._expect_op(")")
            self.depth -= 1
            # parenthesized sign-adjusted literal, e.g. "(-3)" or "(-2i)"
            if isinstance(inner, Neg) and isinstance(inner.operand, Lit):
                return Lit(-inner.operand.value), 1
            return inner, height
        if text == "-":
            self._descend(tok)
            operand, height = self.parse_primary()
            self.depth -= 1
            return Neg(operand), self._grow(tok, height)
        self._error(f"expected a value, found {tok[1] or 'end of input'!r}", tok)

    def _paren_literal(self) -> Lit | None:
        """Fold a parenthesized literal after a '(' in one step, through the ')'.

        Takes only ``- NUMBER [i] )`` and ``[-] NUMBER (+|-) NUMBER i )``
        (finite, with a nonzero imaginary part), as :func:`to_text` prints
        them, and returns the literal the general path would; else consumes
        nothing, returns None.  The minus is a sign, not a level of nesting.
        """
        tokens, i = self.tokens, self.i
        negate = tokens[i][1] == "-"
        i += negate
        kind, real_text, _ = tokens[i]
        if kind != "num":
            return None
        sign = tokens[i + 1][1]
        if negate and (sign == ")" or sign in _IMAGINARY_UNIT and tokens[i + 2][1] == ")"):
            value = float(real_text)
            if not math.isfinite(value):
                self._error("numeric literal overflows to infinity", tokens[i])
            self.i = i + 2 + (sign != ")")
            return Lit(-complex(value, 0.0) if sign == ")" else -complex(0.0, value))
        if sign != "+" and sign != "-":
            return None
        kind, imag_text, _ = tokens[i + 2]
        if kind != "num" or tokens[i + 3][1] not in _IMAGINARY_UNIT or tokens[i + 4][1] != ")":
            return None
        real, imag = float(real_text), float(imag_text)
        if not (math.isfinite(real) and math.isfinite(imag)) or imag == 0.0:
            return None
        self.i = i + 5
        return Lit(complex(-real if negate else real, imag if sign == "+" else -imag))

    def _descend(self, tok: _Token):
        self.depth += 1
        if self.depth > self.MAX_DEPTH:
            self._error(f"expression nests deeper than {self.MAX_DEPTH} levels "
                        "of parentheses and unary minus", tok)

    def _grow(self, tok: _Token, child_height: int) -> int:
        """Height of a new node over children at most ``child_height`` high."""
        if child_height >= self.MAX_HEIGHT:
            self._error(f"expression tree is deeper than {self.MAX_HEIGHT} levels "
                        "of operators", tok)
        return child_height + 1


def _fuse_literal(acc: Expr, op: str, term: Expr) -> Lit | None:
    """Fold the complex-literal syntax ``a + bi`` / ``a - bi``.

    Applies only when the accumulated left side is a real literal
    (possibly negated) and the incoming term is a purely imaginary
    literal, mirroring the ``(a+bi)`` literal grammar.  Real + real is
    left alone: that is arithmetic, not literal syntax.
    """
    if not (isinstance(term, Lit) and term.value.real == 0.0 and term.value.imag != 0.0):
        return None
    if isinstance(acc, Lit) and acc.value.imag == 0.0:
        real = acc.value.real
    elif isinstance(acc, Neg) and isinstance(acc.operand, Lit) and acc.operand.value.imag == 0.0:
        real = -acc.operand.value.real
    else:
        return None
    imag = term.value.imag if op == "+" else -term.value.imag
    return Lit(complex(real, imag))


def parse(text: str) -> SourceExpr:
    """Parse a single inequality."""
    parser = _Parser(text)
    result = parser.parse_inequality()
    if parser.tokens[parser.i][0] == "and":
        parser._error("'&&' joins two inequalities; use parse_input for systems")
    parser._expect_end()
    return result


def parse_input(text: str) -> tuple[SourceExpr, ...]:
    """Parse one inequality, or two joined by '&&'."""
    parser = _Parser(text)
    first = parser.parse_inequality()
    if parser.tokens[parser.i][0] != "and":
        parser._expect_end()
        return (first,)
    parser.i += 1
    second = parser.parse_inequality()
    parser._expect_end("at most two inequalities may be joined by '&&'")
    return (first, second)


def parse_complex(text: str) -> complex:
    """Parse a constant expression such as ``1+2i`` or ``-0.5i``."""
    parser = _Parser(text)
    node, _ = parser.parse_expr()
    parser._expect_end()
    if has_var(node):
        raise ParseError("expected a constant, found the variable Z", _byte_offset(text, 0))
    return eval_expr(node, 0j)


def has_var(node: Expr) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, (Lit,)):
        return False
    if isinstance(node, Neg):
        return has_var(node.operand)
    if isinstance(node, Pow):
        return has_var(node.base)
    return has_var(node.lhs) or has_var(node.rhs)


def eval_expr(node: Expr, z: complex) -> complex:
    """Evaluate an expression tree at a point.

    Division by an exact zero raises ZeroDivisionError (a pole of the
    expression).
    """
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Var):
        return z
    if isinstance(node, Neg):
        return -eval_expr(node.operand, z)
    if isinstance(node, Add):
        return eval_expr(node.lhs, z) + eval_expr(node.rhs, z)
    if isinstance(node, Sub):
        return eval_expr(node.lhs, z) - eval_expr(node.rhs, z)
    if isinstance(node, Mul):
        return eval_expr(node.lhs, z) * eval_expr(node.rhs, z)
    if isinstance(node, Div):
        return complex_div(eval_expr(node.lhs, z), eval_expr(node.rhs, z))
    if isinstance(node, Pow):
        base = eval_expr(node.base, z)
        acc = base
        for _ in range(node.exponent - 1):
            acc = acc * base
        return acc
    raise TypeError(f"not an expression node: {node!r}")


def _lit_text(v: complex) -> str:
    re_, im = v.real, v.imag
    if im == 0.0:
        return repr(re_) if re_ >= 0.0 else f"({re_!r})"
    if re_ == 0.0:
        return f"{im!r}i" if im > 0.0 else f"({im!r}i)"
    sign = "+" if im > 0.0 else "-"
    return f"({re_!r}{sign}{abs(im)!r}i)"


def to_text(node: Expr) -> str:
    """Print an expression so that re-parsing reproduces the tree."""
    return _text(node, 0)


# each binary operator's text and how tightly it binds; a power binds at 3,
# and Z, a literal and a negation at 4
_BINARY = {Add: (" + ", 1), Sub: (" - ", 1), Mul: (" * ", 2), Div: (" / ", 2)}


def _text(node: Expr, level: int) -> str:
    """``node`` printed bare if it binds at ``level`` or tighter, else in parentheses.

    Only the parentheses the grammar needs are printed: an operand on
    the left of its operator may bind as loosely as the operator, one on
    the right must bind more tightly, and the operand of a power or a
    negation must be Z, a literal or a negation (``-Z^2`` is ``(-Z)^2``).
    """
    if isinstance(node, Lit):
        return _lit_text(node.value)
    if isinstance(node, Var):
        return "Z"
    if isinstance(node, Neg):
        return "-" + _text(node.operand, 4)
    if isinstance(node, Pow):
        text, own = f"{_text(node.base, 4)}^{node.exponent}", 3
    elif type(node) in _BINARY:
        op, own = _BINARY[type(node)]
        text = _text(node.lhs, own) + op + _text(node.rhs, own + 1)
    else:
        raise TypeError(f"not an expression node: {node!r}")
    return text if own >= level else f"({text})"


def source_to_text(src: SourceExpr) -> str:
    return f"{to_text(src.lhs)} {src.relation} {to_text(src.rhs)}"
