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
from .potential import Potential
from .sublevel import (ComponentMap, GridSampling, SeparatingClassification,
                       components, probe_level)

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
    radius: float
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


@dataclass
class LabelingResult:
    minima: dict                  # name -> MinimumLabel
    global_min: str
    levels: list                  # (sigma, [saddle names]) in processing order
    level_maps: list              # ComponentMap per level (None for level 0)
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


def _cluster_levels(saddles):
    """Group separating values equal up to SIGMA_CLUSTER_RTOL, descending."""
    order = sorted(range(len(saddles)), key=lambda i: -saddles[i].value)
    levels = []
    for i in order:
        v = saddles[i].value
        if levels and levels[-1][0] - v <= SIGMA_CLUSTER_RTOL * max(1.0, abs(v)):
            levels[-1][1].append(i)
        else:
            levels.append((v, [i]))
    return [(np.mean([saddles[i].value for i in idx]), idx)
            for v, idx in levels]


def _side_labels(g: GridSampling, cmap: ComponentMap, rec: SaddleRecord):
    """Global component ids of the two sides of a saddle, at a given level."""
    out = []
    for lab in cmap.side_labels(g, rec.manifold.nodes,
                                0.5 * rec.radius * rec.frame.nu):
        if lab.size != 1:
            raise LabelingError(
                f"saddle {rec.name}: side offsets map to {lab.size} "
                f"components at level {cmap.sigma:.9g}")
        out.append(int(lab[0]))
    if out[0] == out[1]:
        raise LabelingError(
            f"saddle {rec.name}: both sides in one component at its own "
            "level; it does not separate here")
    return tuple(out)


def run_labeling(p: Potential, g: GridSampling, minima, saddles,
                 require_separating=True) -> LabelingResult:
    """Label every minimal manifold with (E, j, sigma, S).

    `minima` are verified index-0 manifolds; `saddles` are SaddleRecord
    entries.  Records classified non-separating are skipped (or rejected if
    `require_separating`); every minimum must be reached by some level.
    """
    minima = list(minima)
    for m in minima:
        if m.value is None:
            raise ValueError(f"minimum {m.name} has no verified value")
    active = []
    warnings = []
    for rec in saddles:
        if rec.classification is not None and not rec.classification.separating:
            msg = (f"saddle {rec.name} is {rec.classification.status}; "
                   "excluded from the hierarchy")
            if require_separating:
                raise LabelingError(msg)
            warnings.append(msg)
            continue
        active.append(rec)

    reps = np.array([m.nodes[0] for m in minima])
    fvals = np.array([m.value for m in minima])

    # fictive top level: the whole space labels the global minimum
    order = np.lexsort((np.arange(len(minima)), fvals))
    g0 = int(order[0])
    if len(minima) > 1:
        f1 = fvals[order[1]]
        if abs(f1 - fvals[g0]) <= SIGMA_CLUSTER_RTOL * max(1.0, abs(f1)):
            warnings.append(
                "global minimum value tied between "
                f"{minima[g0].name} and {minima[int(order[1])].name}; "
                "declaration order used")
    labels = {minima[g0].name: MinimumLabel(
        name=minima[g0].name, value=float(fvals[g0]), sigma=np.inf,
        depth=np.inf, saddles=(FICTIVE_SADDLE,), level=0, component=0)}

    levels = _cluster_levels(active)
    level_names = [(np.inf, [FICTIVE_SADDLE])]
    level_maps = [None]
    for li, (sigma, idx) in enumerate(levels, start=1):
        cmap = components(g, probe_level(g, sigma))
        level_maps.append(cmap)
        level_names.append((float(sigma), [active[i].name for i in idx]))
        min_lab = cmap.label_at(g, reps)
        labeled_components = {int(min_lab[k]) for k, m in enumerate(minima)
                              if m.name in labels and min_lab[k] >= 0}
        sides = {}
        for i in idx:
            sides[active[i].name] = _side_labels(g, cmap, active[i])
        new_found = False
        seen_new = set()
        for comp in sorted({int(v) for v in min_lab if v >= 0}):
            if comp in labeled_components or comp in seen_new:
                continue
            seen_new.add(comp)
            inside = [k for k in range(len(minima))
                      if int(min_lab[k]) == comp and minima[k].name not in labels]
            if not inside:
                continue
            new_found = True
            vals = fvals[inside]
            best = inside[int(np.lexsort((inside, vals))[0])]
            if len(inside) > 1:
                v2 = np.sort(vals)
                if abs(v2[1] - v2[0]) <= SIGMA_CLUSTER_RTOL * max(1.0, abs(v2[0])):
                    warnings.append(
                        f"tied minimum values inside component {comp} at "
                        f"level {sigma:.9g}; declaration order used")
            j = tuple(name for name, (a, b) in sides.items()
                      if comp in (a, b))
            if not j:
                raise LabelingError(
                    f"minimum {minima[best].name} becomes its own component "
                    f"at level {sigma:.9g} but no declared saddle at this "
                    "level borders it")
            labels[minima[best].name] = MinimumLabel(
                name=minima[best].name, value=float(fvals[best]),
                sigma=float(sigma), depth=float(sigma - fvals[best]),
                saddles=j, level=li, component=comp)
        if not new_found:
            raise LabelingError(
                f"separating value {sigma:.9g} produced no new component "
                "containing an unlabeled minimum; classification inconsistent")
        # every saddle side must border a component that holds some minimum
        for name, (a, b) in sides.items():
            for side in (a, b):
                if side not in {int(v) for v in min_lab if v >= 0}:
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
                          levels=level_names, level_maps=level_maps,
                          warnings=warnings)


@dataclass
class GenericityReport:
    ok: bool
    messages: list

    def summary(self):
        status = "generic" if self.ok else "NOT generic"
        return "\n".join([status] + [f"  - {m}" for m in self.messages])


def check_generic(g: GridSampling, result: LabelingResult, minima,
                  margin_rtol=1e-9) -> GenericityReport:
    """Uniqueness of the deepest minimum per component and disjointness of
    the saddle sets j(m)."""
    messages = []
    reps = np.array([m.nodes[0] for m in minima])
    names = [m.name for m in minima]
    fvals = np.array([m.value for m in minima])

    for L in result.minima.values():
        if L.level == 0:
            others = [k for k in range(len(minima)) if names[k] != L.name]
        else:
            cmap = result.level_maps[L.level]
            lab = cmap.label_at(g, reps)
            others = [k for k in range(len(minima))
                      if names[k] != L.name and int(lab[k]) == L.component]
        offenders = [names[k] for k in others
                     if fvals[k] - L.value <= margin_rtol * max(1.0, abs(L.value))]
        if offenders:
            messages.append(
                f"component E({L.name}) contains minima at the same value: "
                + ", ".join(offenders))

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
