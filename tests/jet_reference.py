"""Scalar second-order Taylor jets: an independent reference for the
array evaluator in `metastab.expr`.

`jet_at(node, x)` walks an expression tree at one point with Python
floats and `math` functions, so it shares no arithmetic code with
`Node.evaluate`.  `reference_eval2(p, x)` is the same for a `Potential`,
radial ones included.
"""

import math

import numpy as np

from metastab.expr import BinOp, Call, Const, DomainError, Neg, PowInt, Var


class Jet:
    """Value, gradient and Hessian at a point; arithmetic applies the chain
    rule through second order."""

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h):
        self.v = float(v)
        self.g = np.asarray(g, dtype=float)
        self.h = np.asarray(h, dtype=float)

    @staticmethod
    def constant(value, d):
        return Jet(value, np.zeros(d), np.zeros((d, d)))

    @staticmethod
    def variable(value, index, d):
        g = np.zeros(d)
        g[index] = 1.0
        return Jet(value, g, np.zeros((d, d)))

    def __add__(self, o):
        return Jet(self.v + o.v, self.g + o.g, self.h + o.h)

    def __sub__(self, o):
        return Jet(self.v - o.v, self.g - o.g, self.h - o.h)

    def __neg__(self):
        return Jet(-self.v, -self.g, -self.h)

    def __mul__(self, o):
        outer = np.outer(self.g, o.g)
        return Jet(self.v * o.v, self.v * o.g + o.v * self.g,
                   self.v * o.h + o.v * self.h + outer + outer.T)

    def __truediv__(self, o):
        if o.v == 0.0:
            raise DomainError("division by zero")
        iv = 1.0 / o.v
        outer = np.outer(o.g, o.g)
        recip = Jet(iv, -o.g * iv * iv, (2.0 * iv**3) * outer - iv * iv * o.h)
        return self * recip

    def compose(self, f0, f1, f2):
        """Chain rule for a scalar function with derivatives f1, f2 at v."""
        return Jet(f0, f1 * self.g,
                   f1 * self.h + f2 * np.outer(self.g, self.g))


def _pow_int(x, n):
    if n == 0:
        return Jet.constant(1.0, x.g.shape[0])
    if n < 0:
        if x.v == 0.0:
            raise DomainError("zero raised to a negative power")
        return Jet.constant(1.0, x.g.shape[0]) / _pow_int(x, -n)
    f2 = n * (n - 1) * x.v ** (n - 2) if n >= 2 else 0.0
    return x.compose(x.v**n, n * x.v ** (n - 1), f2)


def _call(name, x):
    v = x.v
    if name == "exp":
        return x.compose(math.exp(v), math.exp(v), math.exp(v))
    if name == "sin":
        return x.compose(math.sin(v), math.cos(v), -math.sin(v))
    if name == "cos":
        return x.compose(math.cos(v), -math.sin(v), -math.cos(v))
    if name == "log":
        if v <= 0.0:
            raise DomainError("log of non-positive value")
        return x.compose(math.log(v), 1.0 / v, -1.0 / v**2)
    if v <= 0.0:
        raise DomainError("sqrt of non-positive value")
    s = math.sqrt(v)
    return x.compose(s, 0.5 / s, -0.25 / (s * v))


def jet_eval(node, seeds):
    """Jet of the expression tree `node`, with x_{i+1} given by seeds[i]."""
    d = seeds[0].g.shape[0]

    def walk(n):
        if isinstance(n, Const):
            return Jet.constant(n.value, d)
        if isinstance(n, Var):
            return seeds[n.index]
        if isinstance(n, Neg):
            return -walk(n.arg)
        if isinstance(n, BinOp):
            a, b = walk(n.lhs), walk(n.rhs)
            return {"+": a.__add__, "-": a.__sub__, "*": a.__mul__,
                    "/": a.__truediv__}[n.op](b)
        if isinstance(n, PowInt):
            return _pow_int(walk(n.base), n.exponent)
        if isinstance(n, Call):
            return _call(n.name, walk(n.arg))
        raise TypeError(n)

    return walk(node)


def jet_at(node, x):
    """Jet of `node` at the point x."""
    d = len(x)
    return jet_eval(node, [Jet.variable(float(t), i, d)
                           for i, t in enumerate(x)])


def reference_eval2(p, x):
    """(value, gradient, Hessian) of the Potential p at the point x.

    A radial potential is walked with r seeded as the jet of |x|, so its
    chain rule is the jets', not `Potential`'s; at the origin, where |x|
    has no derivative, the Hessian is F''(0) I."""
    d = len(x)
    if not p.radial:
        jet = jet_at(p._root, x)
    elif np.any(x):
        seeds = [Jet.variable(float(t), i, d) for i, t in enumerate(x)]
        r2 = seeds[0] * seeds[0]
        for s in seeds[1:]:
            r2 = r2 + s * s
        jet = jet_eval(p._root, [_call("sqrt", r2)])
    else:
        prof = jet_at(p._root, [0.0])
        return prof.v, np.zeros(d), prof.h[0, 0] * np.eye(d)
    return jet.v, jet.g, 0.5 * (jet.h + jet.h.T)
