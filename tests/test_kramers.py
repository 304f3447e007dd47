"""Eyring-Kramers prediction tests.

Three independent code paths must agree: the general manifold-quadrature
prefactor, the hand-written Morse point formula, and the closed radial
forms.  The blow-up pair (point minimum vs small circle, same barrier)
checks the dimension-dependent exponent shift at formula level.
"""

import math

import pytest

from conftest import make_record
from metastab.kramers import (KramersPrediction, evaluate, predict_all,
                              prefactor, radial_predict, saddle_flux_integral,
                              sphere_area, weight_integral)
from metastab.labeling import LabelingResult, MinimumLabel, run_labeling
from metastab.manifolds import (manifold_parametrized, manifold_point,
                                verify_critical)
from metastab.potential import parse_potential
from metastab.sublevel import sample_grid


def test_morse_point_specialization(tilted):
    pred = prefactor(tilted.p, tilted.m_right, tilted.labeling,
                     {"saddle": tilted.saddle})
    assert pred.exponent == 1.0
    assert pred.constant == pytest.approx(tilted.D_right, rel=1e-12)
    assert pred.barrier == pytest.approx(tilted.S_right, rel=1e-14)
    assert not pred.half_integer_expansion


def test_predict_all_orders_by_depth(three_minima):
    saddles = {r.name: r.manifold for r in three_minima.records}
    preds = predict_all(three_minima.p, three_minima.labeling,
                        three_minima.minima, saddles)
    assert [p.minimum for p in preds] == ["outer_left", "outer_right"]
    for pred in preds:
        assert pred.constant == pytest.approx(three_minima.D_outer, rel=1e-12)
        assert pred.barrier == pytest.approx(three_minima.S_outer, rel=1e-13)


def test_global_minimum_has_no_prediction(tilted):
    with pytest.raises(ValueError):
        prefactor(tilted.p, tilted.m_left, tilted.labeling,
                  {"saddle": tilted.saddle})


def test_radial_closed_form_matches_quadrature(mexican_labeled):
    m = mexican_labeled
    pred = prefactor(m.p, m.m_center, m.labeling,
                     {"saddle_ring": m.saddle})
    rad = radial_predict(m.p, 2, 0.0, m.s_saddle, m.S_center)
    assert pred.exponent == rad.exponent == 0.5
    assert pred.constant == pytest.approx(rad.constant, rel=1e-10)
    # the headline constant: (2 s2 / sqrt(pi)) F''(0) sqrt|F''(s2)|
    direct = (2.0 * m.s_saddle / math.sqrt(math.pi) * m.profile_dd(0.0)
              * math.sqrt(abs(m.profile_dd(m.s_saddle))))
    assert rad.constant == pytest.approx(direct, rel=1e-12)


def test_radial_ring_exponent_is_one(mexican):
    # a minimal sphere paired with a saddle sphere keeps the Morse exponent
    rad = radial_predict(mexican.p, 2, mexican.r_ring, mexican.s_saddle, 0.1)
    assert rad.exponent == 1.0


def test_profile_comparison_center(mexican_labeled):
    m = mexican_labeled
    p1 = m.p.profile()
    g1 = sample_grid(p1, [[0.0, 2.2]], shape=(4096,))
    m0 = manifold_point([0.0], name="center")
    m1 = manifold_point([m.r_ring], name="ring")
    s = manifold_point([m.s_saddle], name="saddle_ring")
    for M in (m0, m1, s):
        assert verify_critical(p1, M).ok
    rec = make_record(p1, s, radius=0.45, g=g1)
    lab1 = run_labeling(g1, [m0, m1], [rec])
    # same barriers and matching saddle sets as the 2D labeling
    assert lab1.global_min == "ring"
    assert lab1.minima["center"].depth == pytest.approx(
        m.labeling.minima["center"].depth, rel=1e-12)
    assert lab1.minima["center"].saddles == ("saddle_ring",)
    pr_profile = prefactor(p1, m0, lab1, {"saddle_ring": s})
    pr_radial = radial_predict(m.p, 2, 0.0, m.s_saddle, m.S_center)
    assert pr_profile.exponent - pr_radial.exponent == pytest.approx(0.5)
    # D_profile / D_radial = sqrt(pi) / (|S^1| s2 F''(0)^{1/2} / pi ... )
    expect = (math.sqrt(m.profile_dd(0.0)) / math.pi) / (
        sphere_area(2) * m.s_saddle * math.pi ** -1.5 * m.profile_dd(0.0))
    assert pr_profile.constant / pr_radial.constant == pytest.approx(
        expect, rel=1e-12)


def test_evaluate_clamps_and_validates():
    pred = KramersPrediction(minimum="m", barrier=400.0, exponent=1.0,
                             constant=2.0)
    assert evaluate(pred, 1.0) == 0.0          # 2S/h = 800 > clamp
    deep = KramersPrediction(minimum="m", barrier=math.inf, exponent=1.0,
                             constant=2.0)
    assert evaluate(deep, 0.1) == 0.0
    ok = KramersPrediction(minimum="m", barrier=0.5, exponent=1.5,
                           constant=3.0)
    assert evaluate(ok, 0.2) == pytest.approx(
        3.0 * 0.2**1.5 * math.exp(-5.0), rel=1e-14)
    with pytest.raises(ValueError):
        evaluate(ok, 0.0)


def test_flux_integral_requires_negative_direction(mexican):
    with pytest.raises(ValueError):
        saddle_flux_integral(mexican.p, mexican.m_ring)


def test_weight_integral_matches_closed_form(mexican):
    # int_ring |det Hess_perp|^{-1/2} = 2 pi r1 / sqrt(F''(r1))
    got = weight_integral(mexican.p, mexican.m_ring)
    expect = 2 * math.pi * mexican.r_ring / math.sqrt(
        mexican.profile_dd(mexican.r_ring))
    assert got == pytest.approx(expect, rel=1e-10)


def test_sphere_area_small_dims():
    assert sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
    assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)


# ---------------------------------------------------------------------------
# Blow-up pair: 2D double well vs the same well with the right minimum
# inflated to the closed curve {(x^2-1)^2 + y^2 = 0.01}


POINT_EXPR = "(x1^2 - 1)^2 + x2^2"
BLOWN_EXPR = "((x1^2 - 1)^2 + x2^2 - 1/100)^2 / (9801/10000)"


def hand_labeling(name, value, sigma, saddles):
    lab = MinimumLabel(name=name, value=value, sigma=sigma,
                       depth=sigma - value, saddles=saddles, level=1,
                       component=0)
    return LabelingResult(minima={name: lab}, global_min="elsewhere",
                          level_maps=[], sides={})


def blow_up_pair():
    p_point = parse_potential(POINT_EXPR, 2)
    p_blown = parse_potential(BLOWN_EXPR, 2)
    m_point = manifold_point([1.0, 0.0], name="m")
    s_point = manifold_point([0.0, 0.0], name="s")
    # exact parametrization of the level curve (x^2-1)^2 + y^2 = 0.01
    m_blown = manifold_parametrized(
        maps=["sqrt(1 + 0.1*cos(x1))", "0.1*sin(x1)"],
        param_box=[[0.0, 2.0 * math.pi]], periodic=[True], n_nodes=[512],
        ambient_dim=2, name="m")
    s_blown = manifold_point([0.0, 0.0], name="s")
    for p, M in ((p_point, m_point), (p_point, s_point),
                 (p_blown, m_blown), (p_blown, s_blown)):
        res = verify_critical(p, M)
        assert res.ok, (M.name, res)
    pr_point = prefactor(
        p_point, m_point,
        hand_labeling("m", m_point.value, s_point.value, ("s",)),
        {"s": s_point})
    pr_blown = prefactor(
        p_blown, m_blown,
        hand_labeling("m", 0.0, s_blown.value, ("s",)),
        {"s": s_blown})
    return pr_point, pr_blown


def test_blow_up_exponent_shift():
    pr_point, pr_blown = blow_up_pair()
    assert pr_point.exponent == 1.0
    assert pr_blown.exponent == 1.5
    assert pr_blown.exponent - pr_point.exponent == 0.5   # (d-1)/2
    assert pr_blown.dim_top == pr_point.dim_top == 0


def test_blow_up_ratio_scales_as_sqrt_h():
    pr_point, pr_blown = blow_up_pair()
    assert pr_blown.barrier == pytest.approx(pr_point.barrier, abs=1e-13)
    r1 = evaluate(pr_blown, 0.1) / evaluate(pr_point, 0.1)
    r2 = evaluate(pr_blown, 0.05) / evaluate(pr_point, 0.05)
    assert r1 / r2 == pytest.approx(math.sqrt(0.1 / 0.05), rel=1e-12)
