"""Shared fixtures: the standard 1D/2D potentials with their verified
critical manifolds and labelings, built once per session."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from metastab.labeling import SaddleRecord, run_labeling
from metastab.manifolds import (manifold_parametrized, manifold_point,
                                manifold_sphere, negative_direction_field,
                                verify_critical)
from metastab.potential import parse_potential
from metastab.sublevel import classify_separating, sample_grid


def make_record(p, M, radius, g, tau=None):
    """SaddleRecord with classification and direction field filled in."""
    frame = negative_direction_field(p, M)
    cls = classify_separating(p, M, frame, g, radius)
    return SaddleRecord(manifold=M, frame=frame, radius=radius, tau=tau,
                        classification=cls)


# ---------------------------------------------------------------------------
# Tilted double well: f = x^4/4 - x^2/2 + x/10


TILT_ROOTS = np.sort(np.roots([1.0, 0.0, -1.0, 0.1]).real)  # f' = x^3 - x + .1


class TiltedWell:
    expression = "x1^4/4 - x1^2/2 + x1/10"
    box = [[-2.4, 2.4]]

    def __init__(self):
        self.p = parse_potential(self.expression, 1)
        xl, xs, xr = TILT_ROOTS
        self.x_left, self.x_saddle, self.x_right = xl, xs, xr
        self.m_left = manifold_point([xl], name="left")
        self.m_right = manifold_point([xr], name="right")
        self.saddle = manifold_point([xs], name="saddle")
        for M in (self.m_left, self.m_right, self.saddle):
            res = verify_critical(self.p, M)
            assert res.ok, res
        self.g = sample_grid(self.p, self.box)
        # radius and tau as in the shipped spec
        self.record = make_record(self.p, self.saddle, radius=0.7, g=self.g,
                                  tau=0.45)
        self.records = [self.record]
        self.minima = [self.m_left, self.m_right]
        self.labeling = run_labeling(self.g, self.minima, self.records)
        self.S_right = self.saddle.value - self.m_right.value
        f2 = lambda x: 3.0 * x * x - 1.0
        self.D_right = math.sqrt(f2(xr) * abs(f2(xs))) / math.pi

    def prediction(self, h):
        return self.D_right * h * math.exp(-2.0 * self.S_right / h)


@pytest.fixture(scope="session")
def tilted():
    return TiltedWell()


# ---------------------------------------------------------------------------
# Symmetric 3-minima well: f = x^6/6 - 25 x^4/16 + 9 x^2/2
# critical points 0, +-1.5 (saddles), +-2 (outer minima)


class ThreeMinima:
    expression = "x1^6/6 - 25*x1^4/16 + 9*x1^2/2"
    box = [[-3.1, 3.1]]

    def __init__(self):
        self.p = parse_potential(self.expression, 1)
        self.m_center = manifold_point([0.0], name="center")
        self.m_left = manifold_point([-2.0], name="outer_left")
        self.m_right = manifold_point([2.0], name="outer_right")
        self.s_left = manifold_point([-1.5], name="saddle_left")
        self.s_right = manifold_point([1.5], name="saddle_right")
        self.minima = [self.m_center, self.m_left, self.m_right]
        for M in self.minima + [self.s_left, self.s_right]:
            res = verify_critical(self.p, M)
            assert res.ok, res
        self.g = sample_grid(self.p, self.box)
        self.records = [make_record(self.p, M, radius=0.45, g=self.g,
                                    tau=0.45)
                        for M in (self.s_left, self.s_right)]
        self.labeling = run_labeling(self.g, self.minima, self.records)
        self.S_outer = self.s_right.value - self.m_right.value
        f2 = lambda x: 5 * x**4 - 75 * x * x / 4.0 + 9.0
        self.D_outer = math.sqrt(f2(2.0) * abs(f2(1.5))) / math.pi

    def prediction(self, h):
        return self.D_outer * h * math.exp(-2.0 * self.S_outer / h)


@pytest.fixture(scope="session")
def three_minima():
    return ThreeMinima()


# ---------------------------------------------------------------------------
# Mexican hat (rotation invariant): F = r^6/6 - r^4/2 + 0.35 r^2


class MexicanHat:
    expression = "r^6/6 - r^4/2 + 0.35*r^2"
    dim = 2
    box = [[-2.2, 2.2], [-2.2, 2.2]]
    r_ring = math.sqrt(1.0 + math.sqrt(0.3))     # minimal sphere
    s_saddle = math.sqrt(1.0 - math.sqrt(0.3))   # separating sphere

    def __init__(self):
        self.p = parse_potential(self.expression, 2)
        self.m_center = manifold_point([0.0, 0.0], name="center")
        self.m_ring = manifold_sphere([0.0, 0.0], self.r_ring, name="ring")
        self.saddle = manifold_sphere([0.0, 0.0], self.s_saddle,
                                      name="saddle_ring")
        for M in (self.m_center, self.m_ring, self.saddle):
            res = verify_critical(self.p, M)
            assert res.ok, res
        self.minima = [self.m_center, self.m_ring]
        self.S_center = self.saddle.value - self.m_center.value

    def profile(self, r):
        return r**6 / 6.0 - r**4 / 2.0 + 0.35 * r * r

    def profile_dd(self, r):
        return 5.0 * r**4 - 6.0 * r * r + 0.7


@pytest.fixture(scope="session")
def mexican():
    return MexicanHat()


@pytest.fixture(scope="session")
def mexican_labeled(mexican):
    """Mexican hat with a 2D grid, classification and labeling attached."""
    m = mexican
    m.g = sample_grid(m.p, m.box, shape=(768, 768))
    m.record = make_record(m.p, m.saddle, radius=0.45, g=m.g)
    m.labeling = run_labeling(m.g, m.minima, [m.record])
    return m


# ---------------------------------------------------------------------------
# Twisted / untwisted circle saddles in R^3

# f = a^2 - b^2 applied to (r - 1, z) rotated by theta/2: after one turn the
# negative direction comes back flipped, so the normal eigenvector line is
# globally non-orientable along the circle.
TWISTED = ("((sqrt(x1^2 + x2^2) - 1)^2 - x3^2) * x1 / sqrt(x1^2 + x2^2)"
           " + 2*(sqrt(x1^2 + x2^2) - 1) * x3 * x2 / sqrt(x1^2 + x2^2)")
UNTWISTED = "(sqrt(x1^2 + x2^2) - 1)^2 - x3^2"


def unit_circle(n=256):
    return manifold_parametrized(
        maps=["cos(x1)", "sin(x1)", "0"],
        param_box=[[0.0, 2.0 * math.pi]],
        periodic=[True], n_nodes=[n], ambient_dim=3, name="circle")




# ---------------------------------------------------------------------------
# Acceptance reporting: one pass/fail line per criterion in the terminal
# summary, regardless of capture settings, and the same records in
# acceptance.json at the rootdir so they can be compared across runs.

CRITERIA = {}


def record_criterion(num, ok, detail):
    CRITERIA[num] = (bool(ok), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    records = []
    for num in sorted(CRITERIA):
        ok, detail = CRITERIA[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d}: {verdict}  {detail}")
        records.append({"criterion": num, "passed": ok, "detail": detail})
    (config.rootpath / "acceptance.json").write_text(
        json.dumps(records, indent=2) + "\n")
