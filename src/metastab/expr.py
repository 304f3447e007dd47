"""Closed-form expression trees with second-order forward differentiation.

The grammar covers `+ - * / ^`, unary minus, parentheses, decimal literals,
function calls (exp, log, sin, cos, sqrt) and the variables ``x1..xd`` or the
radial symbol ``r``.  Each node has one array method, `evaluate(cols, order)`:
it walks the tree once over arrays of samples and returns the value, the
gradient (order >= 1) and the Hessian (order 2), each node applying the
chain rule to its children's results.  The derivatives are exact to rounding
without any symbolic simplification.  Outside a function's domain, or at a
zero divisor, evaluation raises `DomainError` at every order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np


class ExprSyntaxError(ValueError):
    """Raised on malformed input; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ValueError):
    def __init__(self, name, position):
        super().__init__(f"unknown identifier {name!r} (at position {position})")
        self.name = name
        self.position = position


class DomainError(ArithmeticError):
    """Elementary function evaluated outside its domain (log/sqrt/pow)."""


def _zero_derivatives(cols, order):
    """Zero gradient (d, ...) and Hessian (d, d, ...), None past `order`."""
    d, shape = len(cols), np.shape(cols[0])
    return (np.zeros((d,) + shape) if order >= 1 else None,
            np.zeros((d, d) + shape) if order == 2 else None)


def _product_hessian(a, ga, Ha, b, gb, Hb):
    """Hessian of a * b."""
    o = ga[:, None] * gb[None]
    return a * Hb + b * Ha + o + o.swapaxes(0, 1)


def _compose(order, a, ga, Ha, f0, f1, f2):
    """Chain rule for F(a), with F = f0(a), F' = f1(a, F), F'' = f2(a, F)."""
    v = f0(a)
    if order == 0:
        return v, None, None
    d1 = f1(a, v)
    if order == 1:
        return v, d1 * ga, None
    return v, d1 * ga, d1 * Ha + f2(a, v) * (ga[:, None] * ga[None])


# name -> (F, F', F''); the derivatives take (a, F(a))
_CALLS = {
    "exp": (np.exp, lambda a, v: v, lambda a, v: v),
    "sin": (np.sin, lambda a, v: np.cos(a), lambda a, v: -v),
    "cos": (np.cos, lambda a, v: -np.sin(a), lambda a, v: -v),
    "log": (np.log, lambda a, v: 1.0 / a, lambda a, v: -1.0 / a**2),
    "sqrt": (np.sqrt, lambda a, v: 0.5 / v, lambda a, v: -0.25 / (v * a)),
}


# ---------------------------------------------------------------------------
# Expression nodes


@dataclass(frozen=True)
class Node:
    def evaluate(self, cols, order=0):
        """(value, gradient, Hessian) at samples; cols[i] holds x_{i+1}.

        The gradient has shape (d, ...) and the Hessian (d, d, ...), where
        ... is the samples' shape; both are None past `order` (0, 1 or 2).
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Node):
    value: float

    def evaluate(self, cols, order=0):
        return (np.full_like(cols[0], self.value),
                *_zero_derivatives(cols, order))


@dataclass(frozen=True)
class Var(Node):
    index: int  # 0-based; the radial symbol is stored as index -1

    def evaluate(self, cols, order=0):
        g, H = _zero_derivatives(cols, order)
        if g is not None:
            g[self.index % len(cols)] = 1.0
        return cols[self.index], g, H


@dataclass(frozen=True)
class Neg(Node):
    arg: Node

    def evaluate(self, cols, order=0):
        return tuple(None if t is None else -t
                     for t in self.arg.evaluate(cols, order))


@dataclass(frozen=True)
class BinOp(Node):
    op: str
    lhs: Node
    rhs: Node

    def evaluate(self, cols, order=0):
        a, ga, Ha = self.lhs.evaluate(cols, order)
        b, gb, Hb = self.rhs.evaluate(cols, order)
        if self.op == "+":
            return (a + b, None if order == 0 else ga + gb,
                    None if order < 2 else Ha + Hb)
        if self.op == "-":
            return (a - b, None if order == 0 else ga - gb,
                    None if order < 2 else Ha - Hb)
        if self.op == "*":
            H = _product_hessian(a, ga, Ha, b, gb, Hb) if order == 2 else None
            return a * b, None if order == 0 else ga * b + a * gb, H
        if not b.all():
            raise DomainError("division by zero")
        if order == 0:
            return a / b, None, None
        inv = 1.0 / b
        v = a * inv
        g = (ga - v * gb) * inv
        if order == 1:
            return v, g, None
        # a * (1/b) by the product rule, with the Hessian of 1/b
        rh = 2.0 * inv**3 * (gb[:, None] * gb[None]) - inv * inv * Hb
        return v, g, _product_hessian(a, ga, Ha, inv, -gb * inv * inv, rh)


def _power(a, n):
    """a**n for an integer n by square-and-multiply, with a reciprocal for
    n < 0: numpy's `**` calls `pow` per element, about 50 times slower
    than a*a*a on float64.  a**2 is the one product a*a, as in numpy."""
    if n < 0:
        return 1.0 / _power(a, -n)
    if n == 0:
        return np.ones_like(a)
    result = None
    while True:
        if n & 1:
            result = a if result is None else result * a
        n >>= 1
        if not n:
            return result
        a = a * a


@dataclass(frozen=True)
class PowInt(Node):
    base: Node
    exponent: int

    def evaluate(self, cols, order=0):
        a, ga, Ha = self.base.evaluate(cols, order)
        n = self.exponent
        if n < 0 and not a.all():
            raise DomainError("zero raised to a negative power")
        if n == 0:
            return (np.ones_like(a), *_zero_derivatives(cols, order))
        return _compose(
            order, a, ga, Ha, lambda a: _power(a, n),
            lambda a, v: n * _power(a, n - 1),
            lambda a, v: n * (n - 1) * _power(a, n - 2) if n != 1 else 0.0)


@dataclass(frozen=True)
class Call(Node):
    name: str
    arg: Node

    def evaluate(self, cols, order=0):
        a, ga, Ha = self.arg.evaluate(cols, order)
        if self.name == "log" and np.any(a <= 0.0):
            raise DomainError("log of non-positive value")
        if self.name == "sqrt":
            if np.any(a < 0.0):
                raise DomainError("sqrt of negative value")
            if order >= 1 and not a.all():
                raise DomainError("sqrt differentiated at zero")
        return _compose(order, a, ga, Ha, *_CALLS[self.name])


# ---------------------------------------------------------------------------
# Tokenizer / recursive-descent parser


# numbers hold at most one dot; an exponent needs a digit after e[+-]
_TOKEN = re.compile(r"(?P<num>(?:\d+\.?\d*|\.\d*)(?:[eE][+-]?\d+)?)"
                    r"|(?P<name>[^\W\d]\w*)|(?P<op>[-+*/^()])|(?P<bad>\S)")


def _tokenize(text):
    """(kind, value, position) tokens; operators are their own kind."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, word, i = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {word!r}", i)
        if kind == "num":
            try:
                tokens.append(("num", float(word), i))
            except ValueError:
                raise ExprSyntaxError(f"bad numeric literal {word!r}", i)
        else:
            tokens.append((word if kind == "op" else kind, word, i))
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text, dim):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.dim = dim
        self.uses_r = False
        self.uses_x = False

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, got {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        node = self.parse_sum()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"unexpected token {tok[1]!r}", tok[2])
        return node

    def parse_sum(self):
        return self._left_assoc(("+", "-"), self.parse_product)

    def parse_product(self):
        return self._left_assoc(("*", "/"), self.parse_unary)

    def _left_assoc(self, ops, operand):
        node = operand()
        while self.peek()[0] in ops:
            node = BinOp(self.next()[0], node, operand())
        return node

    def parse_unary(self):
        if self.peek()[0] == "-":
            self.next()
            return Neg(self.parse_unary())
        if self.peek()[0] == "+":
            self.next()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[0] != "^":
            return base
        self.next()
        # right-associative; unary minus binds looser than ^ on the exponent
        negate = False
        while self.peek()[0] in ("-", "+"):
            if self.next()[0] == "-":
                negate = not negate
        exponent = self.parse_power()
        if negate:
            exponent = Neg(exponent)
        return _make_pow(base, exponent)

    def parse_atom(self):
        tok = self.next()
        kind, value, pos = tok
        if kind == "num":
            return Const(value)
        if kind == "(":
            node = self.parse_sum()
            self.expect(")")
            return node
        if kind == "name":
            if self.peek()[0] == "(":
                if value not in _CALLS:
                    raise UnknownIdentifierError(value, pos)
                self.next()
                arg = self.parse_sum()
                self.expect(")")
                return Call(value, arg)
            return self._variable(value, pos)
        raise ExprSyntaxError(f"unexpected token {value!r}", pos)

    def _variable(self, name, pos):
        if name == "r":
            self.uses_r = True
            return Var(-1)
        idx = int(name[1:]) if name[0] == "x" and name[1:].isdecimal() else 0
        if 1 <= idx <= self.dim:
            self.uses_x = True
            return Var(idx - 1)
        raise UnknownIdentifierError(name, pos)


def _const_value(node):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Neg):
        inner = _const_value(node.arg)
        return None if inner is None else -inner
    return None


def _make_pow(base, exponent):
    c = _const_value(exponent)
    if c is not None and float(c).is_integer() and abs(c) < 1e9:
        return PowInt(base, int(c))
    # non-integer exponent: rewrite as exp(exponent * log(base));
    # positivity of the base is then checked at evaluation time
    return Call("exp", BinOp("*", exponent, Call("log", base)))


def parse_expression(text, dim):
    """Parse ``text`` over variables x1..x{dim} (or r).

    Returns (root node, uses_r flag).  Mixing ``r`` with explicit ``x_i`` is
    rejected.
    """
    parser = _Parser(text, dim)
    root = parser.parse()
    if parser.uses_r and parser.uses_x:
        raise ExprSyntaxError("cannot mix r with explicit coordinates", 0)
    return root, parser.uses_r
