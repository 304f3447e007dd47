"""Parser and forward-mode differentiation tests.

The scalar reference jets of `jet_reference` are checked against central
finite differences and hand-written derivatives; the array evaluator
`Node.evaluate` and `Potential.hessians` must agree with them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metastab.expr import (DomainError, ExprSyntaxError,
                           UnknownIdentifierError, parse_expression)
from metastab.potential import parse_potential

import jet_reference
from conftest import TWISTED
from jet_reference import Jet, jet_eval, reference_eval2


def parse(text, d):
    root, _uses_r = parse_expression(text, d)
    return root


def jet_at(text, d, x):
    return jet_reference.jet_at(parse(text, d), x)


def value(node, xs):
    """Order-0 evaluation at one point."""
    return node.evaluate([np.array([v]) for v in xs])[0][0]


def fd_gradient(node, x, eps=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (value(node, x + e) - value(node, x - e)) / (2 * eps)
    return g


def fd_hessian(node, x, eps=1e-4):
    x = np.asarray(x, dtype=float)
    d = x.size
    H = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            ei = np.zeros(d); ei[i] = eps
            ej = np.zeros(d); ej[j] = eps
            H[i, j] = (value(node, x + ei + ej) - value(node, x + ei - ej)
                       - value(node, x - ei + ej)
                       + value(node, x - ei - ej)) / (4 * eps**2)
    return H


CASES = [
    ("x1^4/4 - x1^2/2 + x1/10", 1, [0.7]),
    ("x1^2*x2 + sin(x1*x2) - exp(-x2^2)", 2, [0.4, -1.1]),
    ("sqrt(x1^2 + x2^2 + 1) * cos(x3)", 3, [0.3, -0.2, 1.7]),
    ("log(1 + x1^2) + x1*x2^3", 2, [1.2, 0.5]),
    ("(x1 - x2)^2 / (1 + x1^2)", 2, [-0.8, 0.6]),
]


@pytest.mark.parametrize("text,d,x", CASES)
def test_jet_matches_finite_differences(text, d, x):
    node = parse(text, d)
    jet = jet_at(text, d, x)
    assert np.allclose(jet.g, fd_gradient(node, x), rtol=1e-6, atol=1e-8)
    assert np.allclose(jet.h, fd_hessian(node, x), rtol=1e-4, atol=1e-6)
    assert np.allclose(jet.h, jet.h.T)


@pytest.mark.parametrize("text,d,x", CASES)
def test_eval_vg_matches_jet(text, d, x):
    node = parse(text, d)
    jet = jet_at(text, d, x)
    cols = [np.array([xi]) for xi in x]
    v, grads, _ = node.evaluate(cols, 1)
    assert v[0] == pytest.approx(jet.v, rel=1e-15)
    for i in range(d):
        assert grads[i][0] == pytest.approx(jet.g[i], rel=1e-12, abs=1e-15)


def test_quartic_derivatives_exact():
    # hand oracle: f = x^4/4 - x^2/2 + x/10 at x = 0.7
    jet = jet_at("x1^4/4 - x1^2/2 + x1/10", 1, [0.7])
    assert jet.v == pytest.approx(0.7**4 / 4 - 0.49 / 2 + 0.07, rel=1e-15)
    assert jet.g[0] == pytest.approx(0.7**3 - 0.7 + 0.1, rel=1e-14)
    assert jet.h[0, 0] == pytest.approx(3 * 0.49 - 1.0, rel=1e-14)


def test_eval_array_broadcasts():
    node = parse("x1^2 + 2*x2", 2)
    x1 = np.linspace(-1, 1, 11)
    x2 = np.full(11, 0.5)
    out, _, _ = node.evaluate([x1, x2])
    assert np.allclose(out, x1**2 + 1.0)


def test_negative_integer_power_is_rejected_at_zero():
    # a zero divisor is a DomainError at every order
    for text in ("1/x1", "x1^-2"):
        with pytest.raises(DomainError):
            jet_eval(parse(text, 1), [Jet.variable(0.0, 0, 1)])
        p = parse_potential(text, 1)
        zero = np.array([[0.5], [0.0]])
        for evaluate in (p.values, p.gradients, p.hessians,
                         lambda pts: p.eval2(pts[1])):
            with pytest.raises(DomainError):
                evaluate(zero)


def test_sqrt_domain_error():
    node = parse("sqrt(x1)", 1)
    with pytest.raises(DomainError):
        jet_eval(node, [Jet.variable(-1.0, 0, 1)])
    with pytest.raises(DomainError):
        node.evaluate([np.array([-1.0])], 1)


def test_sqrt_at_zero_has_a_value_but_no_derivative():
    node = parse("sqrt(x1)", 1)
    zero = [np.array([0.0, 4.0])]
    assert np.array_equal(node.evaluate(zero)[0], [0.0, 2.0])
    for order in (1, 2):
        with pytest.raises(DomainError):
            node.evaluate(zero, order)


def test_syntax_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x1 + * 2", 1)
    assert exc.value.position is not None
    with pytest.raises(UnknownIdentifierError):
        parse("x1 + y", 1)
    with pytest.raises(UnknownIdentifierError):
        parse("x3", 2)  # out of range for d = 2


@pytest.mark.parametrize("text,expected", [
    ("2", 2.0), ("2.", 2.0), (".5", 0.5), ("1.5e-3", 1.5e-3), ("1E+2", 100.0),
    ("x1^2e1", 2.0**20), ("2e*x1", None), ("1.2.3", None), (".", None),
    ("x1 $ 2", None), ("x3", None), ("x1²", None),
])
def test_numeric_literals_and_tokens(text, expected):
    # an exponent needs a digit after e[+-]; a literal holds one dot
    if expected is None:
        with pytest.raises(ValueError) as exc:
            parse(text, 2)
        assert isinstance(exc.value, (ExprSyntaxError, UnknownIdentifierError))
    else:
        assert value(parse(text, 2), [2.0, 0.0]) == expected


def test_non_integer_power_rewrites_via_exp_log():
    node = parse("x1^x1", 1)
    assert value(node, [2.0]) == pytest.approx(4.0)
    with pytest.raises(DomainError):
        value(node, [-1.0])


def test_power_right_associative_and_unary_minus():
    assert value(parse("-x1^2", 1), [3.0]) == -9.0
    assert value(parse("2*x1^3^1", 1), [2.0]) == pytest.approx(16.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3),
       st.integers(min_value=0, max_value=5))
def test_polynomial_jets_are_exact(a, b, n):
    # integer powers use repeated squaring; compare against numpy polyval
    text = f"({a!r} + {b!r}*x1)^{n}"
    jet = jet_at(text, 1, [0.9])
    base = a + b * 0.9
    assert jet.v == pytest.approx(base**n, rel=1e-12, abs=1e-12)
    if n >= 1:
        assert jet.g[0] == pytest.approx(n * b * base**(n - 1),
                                         rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("n", [-3, -1, 0, 1, 2, 3, 4, 7])
def test_integer_power_matches_pow(n):
    # the value and both derivatives are products, not pow calls; they
    # agree with numpy's float power to a few ulps
    x = np.geomspace(0.1, 3.0, 20)
    x = np.concatenate([-x, x])
    v, g, H = parse(f"x1^{n}", 1).evaluate([x], 2)
    assert v == pytest.approx(x ** float(n), rel=1e-14)
    assert g[0] == pytest.approx(n * x ** float(n - 1), rel=1e-14)
    assert H[0, 0] == pytest.approx(n * (n - 1) * x ** float(n - 2),
                                    rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2, 2, allow_nan=False), min_size=2, max_size=2))
def test_vectorized_matches_scalar_everywhere(xs):
    node = parse("exp(-x1^2 - x2^2) + x1*x2", 2)
    cols = [np.array([xs[0]]), np.array([xs[1]])]
    v, grads, _ = node.evaluate(cols, 1)
    jet = jet_eval(node, [Jet.variable(xs[0], 0, 2),
                          Jet.variable(xs[1], 1, 2)])
    assert v[0] == pytest.approx(jet.v, rel=1e-14, abs=1e-14)
    assert grads[0][0] == pytest.approx(jet.g[0], rel=1e-12, abs=1e-13)
    assert grads[1][0] == pytest.approx(jet.g[1], rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("text,d", [(text, d) for text, d, _ in CASES] + [
    (TWISTED, 3),
    ("r^6/6 - r^4/2 + 0.35*r^2", 2),
    ("r^4/4 - r^2/2", 3),
])
def test_hessians_match_reference_jet(text, d):
    # 2^16 + 3 points span two evaluation blocks; the origin sits in both
    p = parse_potential(text, d)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1.5, 1.5, size=((1 << 16) + 3, d))
    if p.radial:
        pts[[0, -1]] = 0.0
    v, g, H = p.hessians(pts)
    w, grads = p.gradients(pts)
    assert np.array_equal(v, w)
    assert np.array_equal(g, grads)
    # the scalar jets are slow: every 61st point, and each of the last block
    for i in np.r_[0:pts.shape[0]:61, pts.shape[0] - 3:pts.shape[0]]:
        ref_v, ref_g, ref_H = reference_eval2(p, pts[i])
        assert np.allclose(v[i], ref_v, rtol=1e-12)
        assert np.allclose(g[i], ref_g, rtol=1e-12)
        assert np.allclose(H[i], ref_H, rtol=1e-12)
