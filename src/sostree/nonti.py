"""Non-translation-invariant fields built from a pair of infinite paths.

A parameter t in [0, (k+1)/k] encodes an infinite path from the origin by a
digit expansion; two such paths (sorted, t <= s) split the tree into a left,
a middle and a right component, three runs of rows on each level of a ball.
A field is built on a finite ball by prescribing the three extreme constant
laws on the outermost sphere, each vertex its component's, then recursing
inward, so the consistency equation holds exactly at every interior vertex
and the root law stabilises as the depth grows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import ti
from .boundary import BoundaryLawField, successor_law_sums
from .model import ModelParams, UsageError
from .tree import ball_geometry


def path_from_parameter(t: float, k: int, depth: int) -> tuple[int, ...]:
    """Deterministic digit expansion of t in [0, (k+1)/k], the path's digits.

    The unit-interval image u = t*k/(k+1) fixes the first digit among the
    origin's k+1 successors; the remainder expands base k.  The expansion is
    monotone (lexicographically) in t and hits both endpoint paths exactly.
    """
    hi = (k + 1) / k
    if not 0.0 <= t <= hi:
        raise UsageError(f"path parameter {t} outside [0, {hi}]")
    u = t * k / (k + 1)
    first = min(int(math.floor(u * (k + 1))), k)
    r = u * (k + 1) - first
    digits = [first]
    for _ in range(depth - 1):
        d = min(int(math.floor(r * k)), k - 1)
        digits.append(d)
        r = r * k - d
    return tuple(digits[:depth])


def split_components(path1: tuple[int, ...], path2: tuple[int, ...], k: int,
                     depth: int) -> np.ndarray:
    """Component label (1, 2 or 3) for every ball vertex, in breadth-first order.

    Vertices strictly left of the lower path get 1, strictly right of the
    upper path get 3, strictly between get 2.  Vertices on one path only join
    its outer component (1 for the lower, 3 for the upper).  Vertices on both
    paths follow the right side, unless nothing in the ball lies strictly
    right of the upper path (then the left side); this keeps the two extreme
    parameter choices exactly constant.

    A level's rows run in the lexicographic order of the vertices' paths, so
    each level is three runs, cut at the rows of the two paths: the row of a
    path on level d is offsets[d] + i_d, with i_0 = 0 and i_d = i_(d-1) k + path[d-1].
    """
    if path1[:depth] > path2[:depth]:
        raise ValueError("paths must be ordered: lower path first")
    offsets = ball_geometry(k, depth).offsets
    comp = np.empty(offsets[-1], dtype=np.int64)
    i1 = i2 = 0
    both = []       # rows on both paths
    for start, end, a, b in zip(offsets, offsets[1:], (0, *path1[:depth]), (0, *path2[:depth])):
        i1, i2 = i1 * k + a, i2 * k + b
        r1, r2 = start + i1, start + i2
        comp[start:r1 + 1] = 1
        comp[r1 + 1:r2] = 2
        comp[r2:end] = 3
        if r1 == r2:
            both.append(r1)
    # a row lies right of the upper path iff one does on the outer level
    comp[both] = 3 if r2 + 1 < end else 1
    return comp


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

        A path-pair field holds a few distinct laws and components, so each
        distinct law row and component value is formatted once, floats as
        json does it (see _json_floats), into the tail of its lines; every
        line is a label prefix, the label and the tail of its vertex's row.
        """
        fld = self.field
        labels = ball_geometry(fld.k, fld.depth).labels
        firsts, law_of = _distinct_rows(fld.laws.view(np.int64))
        tail = ('",\n      "h": [\n        ' + ",\n        ".join(["%s"] * fld.laws.shape[1])
                + "\n      ]\n    }")
        tails = [tail % row for row in zip(*map(_json_floats, fld.laws[firsts].T.tolist()))]
        values, value_of = np.unique(self.components, return_inverse=True)
        value_tails = ['": %s' % value for value in values.tolist()]
        return "".join([
            '{\n  "depth": %s,\n  "entries": [\n' % json.dumps(fld.depth),
            *_lines('    {\n      "vertex": "', labels, tails, law_of),
            '\n  ],\n  "t": %s,\n  "s": %s,\n  "component_map": {\n'
            % (json.dumps(self.t), json.dumps(self.s)),
            *_lines('    "', labels, value_tails, value_of),
            "\n  }\n}\n"])


def _distinct_rows(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct row of an integer table, and each row's
    distinct-row number.

    Column by column, a row's number so far gains the column's distinct-value
    number as its next digit and is renumbered, so it stays below n_rows^2.
    Viewed as int64, float rows compare by bit pattern: -0.0 and 0.0 differ.
    """
    firsts, code = None, np.zeros(len(bits), dtype=np.int64)
    for column in bits.T:
        values, digit = np.unique(column, return_inverse=True)
        _, firsts, code = np.unique(code * len(values) + digit,
                                    return_index=True, return_inverse=True)
    return firsts, code


def _lines(prefix: str, labels: tuple[str, ...], tails: list[str],
           tail_of: np.ndarray) -> list[str]:
    """The pieces of `",\n".join(prefix + label + tails[i])` over the labels
    and their tail numbers, so that one join makes the text and no line is
    made as a string of its own."""
    parts = [",\n" + prefix] * (3 * len(labels))
    parts[0] = prefix
    parts[1::3] = labels
    parts[2::3] = np.array(tails, dtype=object)[tail_of].tolist()
    return parts


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values: list[float]) -> list[str]:
    """json's text for each float: float.__repr__, with NaN / Infinity / -Infinity."""
    text = list(map(float.__repr__, values))
    return list(map(_NON_FINITE.get, text, text))


def extreme_laws(symmetric_roots: list[float]) -> np.ndarray:
    """The constant law of each component, shape (3, 2): rows 0, 1, 2 hold
    components 1, 2, 3, from the low, middle and high symmetric roots.
    """
    if len(symmetric_roots) != 3:
        raise UsageError("path-pair fields need three symmetric solutions "
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
        raise UsageError("need t <= s")
    if depth < 1:
        raise UsageError("depth must be >= 1")
    k = params.k
    p1 = path_from_parameter(t, k, depth)
    p2 = path_from_parameter(s, k, depth)
    comp = split_components(p1, p2, k, depth)
    if symmetric_roots is None:
        symmetric_roots = ti.solve_symmetric_roots(params)
    table = extreme_laws(symmetric_roots)

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
    root_laws = [build_field(t, s, params, d, roots).field.laws[0] for d in depths]
    diffs = [float(np.max(np.abs(b - a))) for a, b in zip(root_laws, root_laws[1:])]
    rates = [b / a for a, b in zip(diffs, diffs[1:]) if a > 0]
    cauchy = all(b <= a for a, b in zip(diffs, diffs[1:]))
    return ConvergenceReport(root_laws=root_laws, differences=diffs, rates=rates,
                             cauchy=cauchy)
