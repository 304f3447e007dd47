"""Hierarchy of minima: assign to each minimal manifold its connected
component E(m), separating-saddle set j(m), separating value sigma(m) and
depth S(m) = sigma(m) - f(m).

Levels are processed in decreasing order of separating value, starting from
a fictive level at +infinity whose single component (the whole space) labels
the global minimum.  Separating values equal up to a relative tolerance are
merged into one level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .manifolds import CriticalManifold, SaddleFrame
from .sublevel import (GridSampling, SeparatingClassification, components,
                       probe_level)

__all__ = [
    "SaddleRecord",
    "MinimumLabel",
    "LabelingResult",
    "LabelingError",
    "run_labeling",
    "check_generic",
    "GenericityReport",
    "SIGMA_CLUSTER_RTOL",
    "FICTIVE_SADDLE",
]

SIGMA_CLUSTER_RTOL = 1e-9
FICTIVE_SADDLE = "__top__"


class LabelingError(RuntimeError):
    pass


@dataclass
class SaddleRecord:
    """A separating index-1 manifold with its side-matching data."""

    manifold: CriticalManifold
    frame: SaddleFrame
    radius: float                 # classification tube
    tau: float | None = None      # gluing width; None: build_gluing's default
    classification: SeparatingClassification | None = None

    @property
    def name(self):
        return self.manifold.name

    @property
    def value(self):
        return self.manifold.value


@dataclass
class MinimumLabel:
    name: str
    value: float
    sigma: float                  # separating value, inf for the global min
    depth: float                  # S(m) = sigma - f(m)
    saddles: tuple                # names in j(m); (FICTIVE_SADDLE,) at top
    level: int                    # 0 = fictive top level
    component: int                # component label within the level map
    tied: tuple = ()              # other minima of E(m) at f(m) (`_tied`)


@dataclass
class LabelingResult:
    minima: dict                  # name -> MinimumLabel
    global_min: str
    level_maps: list              # ComponentMap per level (None for level 0)
    sides: dict                   # saddle name -> (plus, minus) component ids
                                  # in its level's map
    warnings: list = field(default_factory=list)

    def ordered_by_depth(self):
        """Minima sorted by decreasing depth, global minimum first."""
        return sorted(self.minima.values(),
                      key=lambda L: (-L.depth, L.value, L.name))

    def report(self):
        lines = ["minimum        f(m)          sigma(m)      S(m)          j(m)"]
        for L in self.ordered_by_depth():
            sig = "inf" if np.isinf(L.sigma) else f"{L.sigma:.9g}"
            dep = "inf" if np.isinf(L.depth) else f"{L.depth:.9g}"
            lines.append(f"{L.name:<14} {L.value:<13.9g} {sig:<13} "
                         f"{dep:<13} {','.join(L.saddles)}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines)


def _tied(low, high):
    """Whether the value `high` >= `low` equals `low` up to
    SIGMA_CLUSTER_RTOL, relative to |low| or 1, whichever is larger."""
    return high - low <= SIGMA_CLUSTER_RTOL * max(1.0, abs(low))


def _cluster_levels(saddles):
    """Group separating values tied with the cluster's first, descending."""
    order = sorted(range(len(saddles)), key=lambda i: -saddles[i].value)
    levels = []
    for i in order:
        v = saddles[i].value
        if levels and _tied(v, levels[-1][0]):
            levels[-1][1].append(i)
        else:
            levels.append((v, [i]))
    return [(np.mean([saddles[i].value for i in idx]), idx)
            for v, idx in levels]


def run_labeling(g: GridSampling, minima, saddles) -> LabelingResult:
    """Label every minimal manifold with (E, j, sigma, S).

    `minima` are verified index-0 manifolds; `saddles` are SaddleRecord
    entries.  Records classified non-separating are skipped with a
    warning; every minimum must be reached by some level, and each saddle's
    two sides (`ComponentMap.sides`) must be distinct components at its
    level.  The result keeps those sides and, per minimum, the minima of
    its component tied with it.
    """
    minima = list(minima)
    for m in minima:
        if m.value is None:
            raise ValueError(f"minimum {m.name} has no verified value")
    active = []
    warnings = []
    for rec in saddles:
        if rec.classification is not None and not rec.classification.separating:
            warnings.append(f"saddle {rec.name} is "
                            f"{rec.classification.status}; excluded from "
                            "the hierarchy")
            continue
        active.append(rec)

    reps = np.array([m.nodes[0] for m in minima])
    fvals = np.array([m.value for m in minima])

    # fictive top level: the whole space labels the global minimum
    order = np.lexsort((np.arange(len(minima)), fvals))
    g0 = int(order[0])
    tied = tuple(m.name for k, m in enumerate(minima)
                 if k != g0 and _tied(fvals[g0], fvals[k]))
    if tied:
        warnings.append(
            "global minimum value tied between "
            f"{minima[g0].name} and {minima[int(order[1])].name}; "
            "declaration order used")
    labels = {minima[g0].name: MinimumLabel(
        name=minima[g0].name, value=float(fvals[g0]), sigma=np.inf,
        depth=np.inf, saddles=(FICTIVE_SADDLE,), level=0, component=0,
        tied=tied)}

    level_maps = [None]
    sides = {}
    for li, (sigma, idx) in enumerate(_cluster_levels(active), start=1):
        cmap = components(g, probe_level(g, sigma))
        level_maps.append(cmap)
        min_lab = cmap.label_at(g, reps)
        occupied = {int(v) for v in min_lab if v >= 0}
        labeled_components = {int(min_lab[k]) for k, m in enumerate(minima)
                              if m.name in labels and min_lab[k] >= 0}
        names = [active[i].name for i in idx]
        for i in idx:
            rec = active[i]
            a, b = sides[rec.name] = cmap.sides(g, rec.manifold, rec.frame,
                                                rec.radius)
            if a == b:
                raise LabelingError(
                    f"saddle {rec.name}: both sides in one component at its "
                    "own level; it does not separate here")
        # a component that holds no labeled minimum holds unlabeled ones only
        new_components = sorted(occupied - labeled_components)
        if not new_components:
            raise LabelingError(
                f"separating value {sigma:.9g} produced no new component "
                "containing an unlabeled minimum; classification inconsistent")
        for comp in new_components:
            inside = [k for k in range(len(minima)) if int(min_lab[k]) == comp]
            best = inside[int(np.lexsort((inside, fvals[inside]))[0])]
            tied = tuple(minima[k].name for k in inside
                         if k != best and _tied(fvals[best], fvals[k]))
            if tied:
                warnings.append(
                    f"tied minimum values inside component {comp} at "
                    f"level {sigma:.9g}; declaration order used")
            j = tuple(name for name in names if comp in sides[name])
            if not j:
                raise LabelingError(
                    f"minimum {minima[best].name} becomes its own component "
                    f"at level {sigma:.9g} but no declared saddle at this "
                    "level borders it")
            labels[minima[best].name] = MinimumLabel(
                name=minima[best].name, value=float(fvals[best]),
                sigma=float(sigma), depth=float(sigma - fvals[best]),
                saddles=j, level=li, component=comp, tied=tied)
        # every saddle side must border a component that holds some minimum
        for name in names:
            for side in sides[name]:
                if side not in occupied:
                    raise LabelingError(
                        f"saddle {name} borders a component at level "
                        f"{sigma:.9g} containing no declared minimum; "
                        "a minimal manifold declaration is likely missing")

    missing = [m.name for m in minima if m.name not in labels]
    if missing:
        raise LabelingError(
            "minima never labeled: " + ", ".join(missing) +
            " (a separating saddle declaration is likely missing)")
    return LabelingResult(minima=labels, global_min=minima[g0].name,
                          level_maps=level_maps, sides=sides,
                          warnings=warnings)


@dataclass
class GenericityReport:
    ok: bool
    messages: list

    def summary(self):
        status = "generic" if self.ok else "NOT generic"
        return "\n".join([status] + [f"  - {m}" for m in self.messages])


def check_generic(result: LabelingResult) -> GenericityReport:
    """Uniqueness of the deepest minimum per component (the labeling's
    `tied` minima) and disjointness of the saddle sets j(m)."""
    messages = [f"component E({L.name}) contains minima at the same value: "
                + ", ".join(L.tied) for L in result.minima.values() if L.tied]

    seen = {}
    for L in result.minima.values():
        for s in L.saddles:
            if s == FICTIVE_SADDLE:
                continue
            if s in seen:
                messages.append(
                    f"saddle {s} appears in both j({seen[s]}) and j({L.name})")
            seen[s] = L.name
    return GenericityReport(ok=not messages, messages=messages)
