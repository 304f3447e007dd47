"""Labeling hierarchy tests.

The independent oracle is the classic 1D persistence sweep: process
critical points by increasing value with a union-find over intervals;
a saddle merges its two neighbor components and pairs with the younger
one's deepest minimum (elder rule).  run_labeling works top-down on grid
components instead, so agreement is a real cross-check.
"""

import math

import numpy as np
import pytest

from conftest import make_record
from metastab.labeling import (FICTIVE_SADDLE, LabelingError, SaddleRecord,
                               check_generic, run_labeling)
from metastab.manifolds import (manifold_point, negative_direction_field,
                                verify_critical)
from metastab.potential import parse_potential
from metastab.sublevel import sample_grid

# ---------------------------------------------------------------------------
# Random 1D Morse polynomials and the union-find oracle


def poly_to_expression(coeffs):
    """Expression text for sum_k coeffs[k] x^k (exact reprs)."""
    terms = []
    for k, c in enumerate(coeffs):
        c = float(c)
        if c == 0.0:
            continue
        if k == 0:
            terms.append(f"({c!r})")
        elif k == 1:
            terms.append(f"({c!r})*x1")
        else:
            terms.append(f"({c!r})*x1^{k}")
    return " + ".join(terms) if terms else "0"


def random_morse_poly(rng):
    """Polynomial with alternating minima/maxima, distinct critical values.

    Returns (coeffs, minima positions, saddle positions, box).
    """
    while True:
        n_min = rng.integers(2, 5)
        n_crit = 2 * n_min - 1
        roots = np.sort(rng.uniform(-2.2, 2.2, size=n_crit))
        if np.min(np.diff(roots)) < 0.35:
            continue
        scale = rng.uniform(0.5, 2.0)
        dpoly = scale * np.polynomial.Polynomial.fromroots(roots)
        poly = dpoly.integ()
        values = poly(roots)
        gaps = np.abs(values[:, None] - values[None, :])
        if np.min(gaps[np.triu_indices(n_crit, 1)]) < 1e-2:
            continue
        minima = roots[::2]      # leading coefficient > 0: ends are minima
        saddles = roots[1::2]
        # box edges must rise above every saddle value
        top = np.max(values)
        lo, hi = roots[0] - 0.3, roots[-1] + 0.3
        while poly(lo) <= top + 0.5:
            lo -= 0.2
        while poly(hi) <= top + 0.5:
            hi += 0.2
        return poly.coef, minima, saddles, [lo, hi]


def oracle_labeling(poly_coef, minima, saddles):
    """Elder-rule persistence pairing on the line.

    Returns {minimum index: (sigma, saddle index)} with the global minimum
    mapped to (inf, None).
    """
    poly = np.polynomial.Polynomial(poly_coef)
    f_min = poly(minima)
    f_sad = poly(saddles)
    parent = list(range(len(minima)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # deepest minimum of each component, updated on merge
    deepest = list(range(len(minima)))
    out = {}
    for j in np.argsort(f_sad):
        left, right = find(j), find(j + 1)   # saddle j sits between them
        dl, dr = deepest[left], deepest[right]
        younger, older = (dl, dr) if f_min[dl] > f_min[dr] else (dr, dl)
        out[younger] = (float(f_sad[j]), int(j))
        parent[left] = right
        deepest[find(right)] = older
    out[deepest[find(0)]] = (math.inf, None)
    return out


def labeling_matches_oracle(coef, minima, saddles, box):
    """Run the full pipeline on one polynomial and compare with the
    union-find oracle; returns a list of mismatch descriptions."""
    p = parse_potential(poly_to_expression(coef), 1)
    g = sample_grid(p, [box], shape=(8192,))
    min_manifolds = [manifold_point([x], name=f"m{i}")
                     for i, x in enumerate(minima)]
    crit = np.sort(np.concatenate([minima, saddles]))
    records = []
    for j, x in enumerate(saddles):
        M = manifold_point([x], name=f"s{j}")
        res = verify_critical(p, M)
        assert res.ok, res
        k = np.searchsorted(crit, x)
        gap = min(x - crit[k - 1], crit[k + 1] - x)
        records.append(make_record(p, M, radius=0.8 * gap, g=g))
    for M in min_manifolds:
        assert verify_critical(p, M).ok
    result = run_labeling(g, min_manifolds, records)
    expected = oracle_labeling(coef, minima, saddles)
    bad = []
    if len(result.minima) != len(expected):
        bad.append("minimum counts differ")
    for i, (sigma, j) in expected.items():
        lab = result.minima[f"m{i}"]
        if j is None:
            if lab.saddles != (FICTIVE_SADDLE,) or not math.isinf(lab.depth):
                bad.append(f"m{i} not recognized as global")
        else:
            if lab.saddles != (f"s{j}",):
                bad.append(f"m{i} paired with {lab.saddles}, want s{j}")
            elif not (abs(lab.sigma - sigma) <= 1e-12 * abs(sigma)
                      and abs(lab.depth - (sigma - lab.value))
                      <= 1e-12 * abs(lab.depth)):
                bad.append(f"m{i} barrier values off")
    return bad


@pytest.mark.parametrize("seed", range(20))
def test_labeling_matches_union_find_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    coef, minima, saddles, box = random_morse_poly(rng)
    assert labeling_matches_oracle(coef, minima, saddles, box) == []


# ---------------------------------------------------------------------------
# Fixture-level checks


def test_tilted_well_labels(tilted):
    lab = tilted.labeling
    assert lab.global_min == "left"
    right = lab.minima["right"]
    assert right.saddles == ("saddle",)
    assert right.sigma == pytest.approx(tilted.saddle.value, rel=1e-14)
    assert right.depth == pytest.approx(tilted.S_right, rel=1e-14)


def test_three_minima_equal_saddles_cluster(three_minima):
    lab = three_minima.labeling
    assert lab.global_min == "center"
    # both saddles share one level; each outer minimum pairs with its own
    assert len(lab.level_maps) == 2
    assert lab.minima["outer_left"].saddles == ("saddle_left",)
    assert lab.minima["outer_right"].saddles == ("saddle_right",)
    assert lab.minima["outer_left"].level == lab.minima["outer_right"].level


def test_genericity_holds_on_fixtures(tilted, three_minima):
    rep = check_generic(tilted.labeling)
    assert rep.ok, rep.summary()
    rep = check_generic(three_minima.labeling)
    assert rep.ok, rep.summary()


def test_report_mentions_every_minimum(three_minima):
    text = three_minima.labeling.report()
    for name in ("center", "outer_left", "outer_right"):
        assert name in text


def test_missing_saddle_raises(tilted):
    with pytest.raises(LabelingError):
        run_labeling(tilted.g, tilted.minima, [])


def test_nonseparating_record_rejected():
    # symmetric double well along x1 but the "saddle" here is a local max
    p = parse_potential("x1^4/4 - x1^2/2", 1)
    g = sample_grid(p, [[-2.0, 2.0]])
    mins = [manifold_point([-1.0], name="a"), manifold_point([1.0], name="b")]
    top = manifold_point([0.0], name="top")
    for M in mins + [top]:
        verify_critical(p, M)
    rec = make_record(p, top, radius=0.5, g=g)
    assert rec.classification.separating
    # force a bogus non-separating classification to exercise the filter
    rec.classification.status = "locally_separating_not_separating"
    with pytest.raises(LabelingError, match="never labeled"):
        # skipped with a warning, so one minimum ends up unlabeled
        run_labeling(g, mins, [rec])


def test_side_offset_outside_sublevel_rejected(tilted):
    # radius 2.5 puts one side's offset at x = 1.35, where f = 0.054 lies
    # above the saddle's level 0.005
    frame = negative_direction_field(tilted.p, tilted.saddle)
    rec = SaddleRecord(manifold=tilted.saddle, frame=frame, radius=2.5)
    with pytest.raises(ValueError, match="saddle saddle: .* tube radius"):
        run_labeling(tilted.g, tilted.minima, [rec])


def test_equal_depth_minima_flagged():
    p = parse_potential("x1^4/4 - x1^2/2", 1)
    g = sample_grid(p, [[-2.0, 2.0]])
    mins = [manifold_point([-1.0], name="a"), manifold_point([1.0], name="b")]
    top = manifold_point([0.0], name="top")
    for M in mins + [top]:
        verify_critical(p, M)
    rec = make_record(p, top, radius=0.5, g=g)
    result = run_labeling(g, mins, [rec])
    assert result.warnings    # global-minimum tie broken by declaration order
    rep = check_generic(result)
    assert not rep.ok
    assert rep.messages == [
        "component E(a) contains minima at the same value: b"]


def test_shared_saddle_flagged():
    # minima at -2, 0 and 2, the outer two at one value, and saddles at +-1
    # at one level: the center's j(m) holds both saddles, the right's one
    p = parse_potential("x1^6/6 - 5*x1^4/4 + 2*x1^2", 1)
    g = sample_grid(p, [[-3.0, 3.0]])
    mins = [manifold_point([x], name=name)
            for x, name in ((-2.0, "left"), (0.0, "center"), (2.0, "right"))]
    saddles = [manifold_point([x], name=name)
               for x, name in ((-1.0, "s_left"), (1.0, "s_right"))]
    for M in mins + saddles:
        verify_critical(p, M)
    records = [make_record(p, M, radius=0.5, g=g) for M in saddles]
    result = run_labeling(g, mins, records)
    rep = check_generic(result)
    assert rep.messages == [
        "component E(left) contains minima at the same value: right",
        "saddle s_right appears in both j(center) and j(right)"]
