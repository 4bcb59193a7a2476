"""Non-translation-invariant fields built from a pair of infinite paths.

A parameter t in [0, (k+1)/k] encodes an infinite path from the origin by a
digit expansion; two such paths (sorted, t <= s) split the tree into a left,
a middle and a right component.  A field is built on a finite ball by
prescribing the three extreme constant laws on the outermost sphere according
to the component of each sphere vertex, then recursing inward, so the
consistency equation holds exactly at every interior vertex and the root law
stabilises as the depth grows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import ti
from .boundary import BoundaryLawField, successor_law_sums
from .model import ModelParams
from .tree import BallGeometry, ball_geometry


def path_from_parameter(t: float, k: int, depth: int) -> tuple[int, ...]:
    """Deterministic digit expansion of t in [0, (k+1)/k], the path's digits.

    The unit-interval image u = t*k/(k+1) fixes the first digit among the
    origin's k+1 successors; the remainder expands base k.  The expansion is
    monotone (lexicographically) in t and hits both endpoint paths exactly.
    """
    hi = (k + 1) / k
    if not 0.0 <= t <= hi:
        raise ValueError(f"path parameter {t} outside [0, {hi}]")
    u = t * k / (k + 1)
    first = min(int(math.floor(u * (k + 1))), k)
    r = u * (k + 1) - first
    digits = [first]
    for _ in range(depth - 1):
        d = min(int(math.floor(r * k)), k - 1)
        digits.append(d)
        r = r * k - d
    return tuple(digits[:depth])


def _path_comparison(path: tuple[int, ...], geo: BallGeometry) -> np.ndarray:
    """-1 / 0 / +1 per ball vertex: left of / on / right of the path.

    A child compares like its parent unless the parent lies on the path;
    then the child's sibling digit against the path digit decides.
    """
    cmp = np.zeros(geo.n_vertices, dtype=np.int64)
    for d in range(1, geo.depth + 1):
        rows = geo.level(d)
        inherited = cmp[geo.parent_index[rows]]
        cmp[rows] = np.where(inherited != 0, inherited, np.sign(geo.digits[rows] - path[d - 1]))
    return cmp


def split_components(path1: tuple[int, ...], path2: tuple[int, ...], k: int,
                     depth: int) -> np.ndarray:
    """Component label (1, 2 or 3) for every ball vertex, in breadth-first order.

    Vertices strictly left of the lower path get 1, strictly right of the
    upper path get 3, strictly between get 2.  Vertices on one path only join
    its outer component (1 for the lower, 3 for the upper).  Vertices on both
    paths follow the right side, unless nothing in the ball lies strictly
    right of the upper path (then the left side); this keeps the two extreme
    parameter choices exactly constant.
    """
    if path1[:depth] > path2[:depth]:
        raise ValueError("paths must be ordered: lower path first")
    geo = ball_geometry(k, depth)
    c1 = _path_comparison(path1, geo)
    c2 = _path_comparison(path2, geo)
    on_both = 3 if np.any(c2 > 0) else 1
    return np.select([c2 > 0, c1 < 0, (c1 == 0) & (c2 == 0), c2 == 0, c1 == 0],
                     [3, 1, on_both, 3, 1], default=2)


@dataclass
class NonTiField:
    """Path-pair field on a ball, with the component of every vertex."""

    t: float
    s: float
    field: BoundaryLawField
    components: np.ndarray        # component label per vertex, breadth-first

    def to_json_dict(self) -> dict:
        data = self.field.to_json_dict()
        data["t"] = self.t
        data["s"] = self.s
        labels = ball_geometry(self.field.k, self.field.depth).labels
        data["component_map"] = dict(zip(labels, self.components.tolist()))
        return data

    def to_json_text(self) -> str:
        """`json.dumps(self.to_json_dict(), indent=2) + "\n"`, written block by block.

        Each entry and component line comes from one format string; floats
        are formatted a column at a time, as json does it (see _json_floats).
        """
        fld = self.field
        entry = ('    {\n      "vertex": "%s",\n      "h": [\n        '
                 + ",\n        ".join(["%s"] * fld.laws.shape[1]) + "\n      ]\n    }")
        labels = ball_geometry(fld.k, fld.depth).labels
        columns = map(_json_floats, fld.laws.T.tolist())
        entries = [entry % row for row in zip(labels, *columns)]
        components = ['    "%s": %s' % pair for pair in zip(labels, self.components.tolist())]
        return "".join([
            '{\n  "depth": %s,\n  "entries": [\n' % json.dumps(fld.depth),
            ",\n".join(entries),
            '\n  ],\n  "t": %s,\n  "s": %s,\n  "component_map": {\n'
            % (json.dumps(self.t), json.dumps(self.s)),
            ",\n".join(components),
            "\n  }\n}\n"])


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values: list[float]) -> list[str]:
    """json's text for each float: float.__repr__, with NaN / Infinity / -Infinity."""
    text = list(map(float.__repr__, values))
    return list(map(_NON_FINITE.get, text, text))


def extreme_laws(params: ModelParams, symmetric_roots: list[float]) -> np.ndarray:
    """The constant law of each component, shape (3, 2): rows 0, 1, 2 hold
    components 1, 2, 3, from the low, middle and high symmetric roots
    (`symmetric_roots`, solve_symmetric_roots of params).
    """
    if len(symmetric_roots) != 3:
        raise ValueError(
            "path-pair fields need three symmetric solutions "
            "(negative coupling above the threshold)")
    return np.array([[0.0, math.log(z)] for z in symmetric_roots])


def build_field(t: float, s: float, params: ModelParams, depth: int,
                symmetric_roots: list[float] | None = None) -> NonTiField:
    """Field with sphere laws prescribed by the path-pair split, recursed inward.

    The consistency equation holds exactly (to the last bit) at interior
    vertices because they are filled from their successors; the prescription
    itself is only attained in the deep-ball limit, which root_convergence
    quantifies.  The extreme laws come from `symmetric_roots`, which are
    solve_symmetric_roots of params, scanned here when None.
    """
    if t > s:
        raise ValueError("need t <= s")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    k = params.k
    p1 = path_from_parameter(t, k, depth)
    p2 = path_from_parameter(s, k, depth)
    comp = split_components(p1, p2, k, depth)
    if symmetric_roots is None:
        symmetric_roots = ti.solve_symmetric_roots(params)
    table = extreme_laws(params, symmetric_roots)

    geo = ball_geometry(k, depth)
    laws = np.empty((geo.n_vertices, table.shape[1]))
    outer = geo.level(depth)
    laws[outer] = table[comp[outer] - 1]
    for d in range(depth - 1, -1, -1):
        laws[geo.level(d)] = successor_law_sums(laws, geo, d, params)
    fld = BoundaryLawField(k=k, depth=depth, laws=laws)
    return NonTiField(t=t, s=s, field=fld, components=comp)


@dataclass
class ConvergenceReport:
    """Root-law stabilisation across depths, shallowest first."""

    root_laws: list[np.ndarray]
    differences: list[float]      # max-norm gaps between consecutive root laws
    rates: list[float]            # ratios of consecutive differences
    cauchy: bool                  # differences monotonically nonincreasing


def root_convergence(t: float, s: float, params: ModelParams,
                     depths: list[int]) -> ConvergenceReport:
    """Build the field at each depth, from one scan of the roots, and track the root law."""
    depths = sorted(depths)
    roots = ti.solve_symmetric_roots(params)
    root_laws = [build_field(t, s, params, d, roots).field.root for d in depths]
    diffs = [float(np.max(np.abs(b - a))) for a, b in zip(root_laws, root_laws[1:])]
    rates = [b / a for a, b in zip(diffs, diffs[1:]) if a > 0]
    cauchy = all(b <= a for a, b in zip(diffs, diffs[1:]))
    return ConvergenceReport(root_laws=root_laws, differences=diffs, rates=rates,
                             cauchy=cauchy)
