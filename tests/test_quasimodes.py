"""Glued quasimode and interaction-matrix tests.

The 1D tilted double well gives everything in closed form: the Agmon
distance is the arclength integral of |f'|, the quasimode norm is the
Laplace integral 4 sqrt(pi h / f''(m)), and the Rayleigh quotient must
track the Eyring-Kramers value within its O(sqrt h) corrections.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.spatial import cKDTree

from metastab.quasimodes import (_signed_quadratic_ell0, agmon_distance,
                                 build_gluing, build_psi, interaction_matrix,
                                 plateau_feasible_tau, rayleigh, smoothstep,
                                 zeta)
from metastab.spectral import assemble_witten, smallest_eigs
from metastab.sublevel import sample_grid


def test_smoothstep_profile():
    t = np.linspace(-1.0, 2.0, 301)
    s = smoothstep(t)
    assert np.all(s[t <= 0.0] == 0.0)
    assert np.all(s[t >= 1.0] == 1.0)
    assert np.all(np.diff(s) >= 0.0)
    assert smoothstep(0.5) == pytest.approx(0.5)    # odd symmetry about 1/2
    assert smoothstep(0.3) + smoothstep(0.7) == pytest.approx(1.0)


def test_zeta_bump():
    t = np.linspace(-3.0, 3.0, 601)
    z = zeta(t)
    assert np.all(z[np.abs(t) <= 1.0] == 1.0)
    assert np.all(z[np.abs(t) >= 2.0] == 0.0)
    assert np.allclose(z, zeta(-t))
    assert np.all((z >= 0.0) & (z <= 1.0))


def test_plateau_feasible_tau(tilted):
    mu = float(tilted.record.frame.mu[0])
    expect = 0.5 * math.sqrt(2.0 * abs(mu)) * tilted.record.radius
    assert plateau_feasible_tau(tilted.record) == pytest.approx(expect,
                                                                rel=1e-14)


def test_gluing_normalization_and_profile(tilted):
    lab = tilted.labeling.minima["right"]
    h = 0.01
    glu = build_gluing(tilted.record, tilted.labeling.sides["saddle"],
                       lab.component, tilted.g, h)
    # tau >> sqrt(h): the cutoff costs only e^{-tau^2/2h}
    assert glu.C == pytest.approx(math.sqrt(math.pi * h / 2.0), rel=1e-3)
    v = glu.v()
    ell = glu.ell0
    assert np.all(v[ell >= 2.0 * glu.tau] == 1.0)
    assert np.all(v[ell <= -2.0 * glu.tau] == -1.0)
    assert np.all(np.abs(v) <= 1.0)
    assert np.all(np.sign(v[ell != 0.0]) == np.sign(ell[ell != 0.0]))
    # positive toward the declared minimum (the right well)
    x = tilted.g.axes[0]
    assert v[np.argmin(np.abs(x - tilted.x_right))] == 1.0
    assert v[np.argmin(np.abs(x - tilted.x_left))] == -1.0


def test_gluing_validation(tilted):
    lab = tilted.labeling.minima["right"]
    tau_max = plateau_feasible_tau(tilted.record)
    wide = dataclasses.replace(tilted.record, tau=1.01 * tau_max)
    with pytest.raises(ValueError, match="plateau"):
        build_gluing(wide, tilted.labeling.sides["saddle"], lab.component,
                     tilted.g, 0.1)
    with pytest.raises(ValueError, match="border"):
        build_gluing(tilted.record, tilted.labeling.sides["saddle"], 999,
                     tilted.g, 0.1)


def test_outer_gluings_point_to_their_minimum(three_minima):
    # two saddles at one level: each outer minimum's gluing is +1 at that
    # minimum and -1 at the center
    t = three_minima
    x = t.g.axes[0]
    for rec, m in zip(t.records, (t.m_left, t.m_right)):
        lab = t.labeling.minima[m.name]
        v = build_gluing(rec, t.labeling.sides[rec.name], lab.component,
                         t.g, 0.1).v()
        assert v[np.argmin(np.abs(x - m.nodes[0, 0]))] == 1.0
        assert v[np.argmin(np.abs(x))] == -1.0


def nearest_node_ell0(rec, pts):
    """ell0 with every cell's nearest saddle node found by a k-d tree."""
    M, fr = rec.manifold, rec.frame
    _, near = cKDTree(M.nodes).query(pts)
    diff = pts - M.nodes[near]
    return np.sqrt(2.0 * np.abs(fr.mu[near])) * np.sum(diff * fr.nu[near],
                                                       axis=1)


def test_ell0_one_node_saddle_skips_tree(tilted):
    # a point saddle takes node 0 for every cell, with no tree search
    assert len(tilted.record.manifold.nodes) == 1
    pts = tilted.g.points()
    assert np.array_equal(_signed_quadratic_ell0(tilted.record, pts),
                          nearest_node_ell0(tilted.record, pts))


def test_ell0_ring_saddle_uses_nearest_node(mexican_labeled):
    rec = mexican_labeled.record
    assert len(rec.manifold.nodes) > 1
    pts = mexican_labeled.g.points()
    assert np.array_equal(_signed_quadratic_ell0(rec, pts),
                          nearest_node_ell0(rec, pts))


def test_agmon_distance_1d_oracle(tilted):
    errs = []
    for n in (4096, 8192):
        g = sample_grid(tilted.p, tilted.box, shape=(n,))
        phi = agmon_distance(tilted.p, tilted.m_right, g)
        x = g.axes[0]
        speed = np.abs(tilted.p.gradients(x.reshape(-1, 1))[1][:, 0])
        F = cumulative_trapezoid(speed, x, initial=0.0)
        oracle = np.abs(F - F[np.argmin(np.abs(x - tilted.x_right))])
        errs.append(float(np.max(np.abs(phi - oracle))))
    assert errs[1] < 5e-3
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.3)  # first order


def test_agmon_equals_f_near_minimum(tilted):
    g = sample_grid(tilted.p, tilted.box, shape=(8192,))
    phi = agmon_distance(tilted.p, tilted.m_right, g)
    x = g.axes[0]
    sel = (x > tilted.x_saddle + 0.05) & (x < tilted.x_right + 0.3)
    f = tilted.p.values(x.reshape(-1, 1))
    f_m = tilted.m_right.value
    assert np.max(np.abs(phi[sel] - (f[sel] - f_m))) < 1e-3


def test_global_minimum_is_pure_gibbs(tilted):
    h = 0.1
    psi = build_psi(tilted.m_left, tilted.labeling, {}, tilted.g, h,
                    tilted.minima)
    f = tilted.g.values
    expect = np.exp(-(f - tilted.m_left.value) / h)
    assert np.allclose(psi.values, expect, rtol=1e-14)
    assert psi.delta is None


def test_misoriented_gluing_leaks(tilted):
    lab = tilted.labeling.minima["right"]
    glu = build_gluing(tilted.record, tilted.labeling.sides["saddle"],
                       lab.component, tilted.g, 0.1)
    glu = dataclasses.replace(glu, ell0=-glu.ell0)
    with pytest.raises(ValueError, match="leak"):
        build_psi(tilted.m_right, tilted.labeling,
                  {"saddle": glu}, tilted.g, 0.1, other_minima=tilted.minima)


def test_missing_gluing_rejected(tilted):
    with pytest.raises(ValueError, match="saddle"):
        build_psi(tilted.m_right, tilted.labeling, {}, tilted.g,
                  0.1, tilted.minima)


def quasimode(t, h):
    lab = t.labeling.minima["right"]
    glu = build_gluing(t.record, t.labeling.sides["saddle"], lab.component,
                       t.g, h)
    return build_psi(t.m_right, t.labeling, {"saddle": glu}, t.g, h,
                     other_minima=t.minima)


def test_norm_matches_laplace_integral(tilted):
    h = 0.05
    psi = quasimode(tilted, h)
    f2 = 3.0 * tilted.x_right**2 - 1.0
    expect = 4.0 * math.sqrt(math.pi * h) / math.sqrt(f2)
    assert psi.norm_sq() == pytest.approx(expect, rel=0.1)


@pytest.mark.parametrize("h,lo,hi", [(0.2, 0.9, 1.2), (0.1, 0.85, 1.1),
                                     (0.05, 0.9, 1.05)])
def test_rayleigh_tracks_prediction(tilted, h, lo, hi):
    psi = quasimode(tilted, h)
    W = assemble_witten(tilted.p, tilted.box, tilted.g.shape, h)
    ratio = rayleigh(W, psi) / tilted.prediction(h)
    assert lo < ratio < hi


def test_rayleigh_grid_mismatch(tilted):
    psi = quasimode(tilted, 0.1)
    W = assemble_witten(tilted.p, tilted.box, (512,), 0.1)
    with pytest.raises(ValueError):
        rayleigh(W, psi)


def interaction_setup(t, h=0.1, k=2):
    lab = t.labeling.minima["right"]
    glu = build_gluing(t.record, t.labeling.sides["saddle"], lab.component,
                       t.g, h)
    psis = [build_psi(m, t.labeling, {"saddle": glu}, t.g, h,
                      other_minima=t.minima) for m in t.minima]
    W = assemble_witten(t.p, t.box, t.g.shape, h)
    return W, psis, smallest_eigs(W, k)


def test_interaction_matrix_recovers_spectrum(tilted):
    W, psis, eig = interaction_setup(tilted)
    im = interaction_matrix(W, psis, eig, tilted.labeling)
    assert im.names == ["left", "right"]        # decreasing barrier depth
    got = im.values
    assert got[1] == pytest.approx(eig.values[1], rel=1e-8)
    assert abs(got[0]) <= max(eig.values[0], eig.floor)
    assert np.all(im.norm_loss < 1e-3)
    assert np.allclose(im.gram, im.gram.T)
    assert im.gram[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_interaction_matrix_loss_guard(tilted):
    W, psis, _ = interaction_setup(tilted)
    eig1 = smallest_eigs(W, 1)
    with pytest.raises(ValueError, match="loses"):
        interaction_matrix(W, psis, eig1, tilted.labeling)
