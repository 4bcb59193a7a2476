"""Cayley tree of order k as reduced words over k+1 involutive generators.

Vertices of the order-k Cayley tree are identified with the elements of the
free product of k+1 copies of Z/2: reduced words over the generator alphabet
{1, ..., k+1} in which no two adjacent letters are equal.  The empty word is
the tree origin.  Two vertices are neighbours exactly when they differ by one
generator on the right, so sphere / ball / successor enumeration is pure word
combinatorics.

This module also owns the breadth-first layout of a ball (`ball_geometry`):
every field, kernel and spin configuration on a ball elsewhere in the package
is an array whose rows follow it, and vertices are named by row.  The layout
is index arithmetic and its vertex labels are built as strings level by
level.  Of the word walk, `direct_successors`, `cached_ball` and
`vertex_addresses` stay here, with what they are built on (`Word`, `IDENTITY`,
`ball`), because the benchmark's span tracer (`bench/spans.py`) looks them up
by name.  The rest of the walk (reduction, parents, spheres), which the tests
check the layout and the coset counts against, is in `tests/reference.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .model import UsageError


@dataclass(frozen=True)
class Word:
    """A reduced word; doubles as a tree vertex."""

    letters: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return ".".join(str(a) for a in self.letters)


IDENTITY = Word()


def direct_successors(w: Word, k: int) -> list[Word]:
    """One-letter extensions that do not cancel, in generator order.

    The origin has k+1 direct successors, every other vertex has k.
    """
    last = w.letters[-1] if w.letters else None
    return [Word(w.letters + (a,)) for a in range(1, k + 2) if a != last]


def ball(k: int, n: int) -> list[Word]:
    """All reduced words of length <= n, breadth-first."""
    out = [IDENTITY]
    level = [IDENTITY]
    for _ in range(n):
        level = [s for w in level for s in direct_successors(w, k)]
        out.extend(level)
    return out


def sphere_size(k: int, n: int) -> int:
    if n == 0:
        return 1
    return (k + 1) * k ** (n - 1)


def ball_size(k: int, n: int) -> int:
    return sum(sphere_size(k, d) for d in range(n + 1))


def vertex_addresses(k: int, n: int) -> list[tuple[Word, tuple[int, ...]]]:
    """Ball vertices with their successor-choice addresses from the origin.

    The address of a vertex records, level by level, the index of the chosen
    element of direct_successors (generator order), i.e. the digit sequence of
    the unique path from the origin.
    """
    out: list[tuple[Word, tuple[int, ...]]] = [(IDENTITY, ())]
    level: list[tuple[Word, tuple[int, ...]]] = [(IDENTITY, ())]
    for _ in range(n):
        nxt = []
        for w, addr in level:
            for i, s in enumerate(direct_successors(w, k)):
                nxt.append((s, addr + (i,)))
        out.extend(nxt)
        level = nxt
    return out


@dataclass(frozen=True)
class SubgroupSpec:
    """Index-2 parity subgroup: words with an even count of letters from A.

    A = {1..k+1} gives the subgroup of even-length words; a proper A meets
    the generator set in its complement, so the subgroup contains generators
    exactly when A is proper.
    """

    k: int
    parity_set: frozenset[int]

    def __post_init__(self):
        full = set(range(1, self.k + 2))
        if not self.parity_set:
            raise UsageError("parity set must be nonempty")
        if not set(self.parity_set) <= full:
            raise UsageError("parity set must be a subset of the generators")

    @property
    def is_full(self) -> bool:
        """Whether A is every generator, so the subgroup contains none (I(K) empty)."""
        return len(self.parity_set) == self.k + 1


@lru_cache(maxsize=None)
def cached_ball(k: int, n: int) -> tuple[Word, ...]:
    """Memoised ball enumeration, the word-walk reference for BallGeometry's rows."""
    return tuple(ball(k, n))


@dataclass(frozen=True)
class BallGeometry:
    """Breadth-first layout of the depth-n ball of the order-k tree.

    Row 0 is the origin and level d fills rows offsets[d]:offsets[d+1] in
    generator order, which is also the (length, letters) order of the words.
    The direct successors of each level-d vertex are one contiguous block of
    level d+1: k+1 rows beneath the origin, k rows beneath any other vertex.
    The layout is built without words: a vertex is its row.
    """

    k: int
    depth: int
    offsets: tuple[int, ...]          # first row of each level, then the row count
    parent_index: np.ndarray          # parent row per vertex (-1 for the origin)

    @property
    def n_vertices(self) -> int:
        return self.offsets[-1]

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """str(word) per row, for JSON and CSV.

        Built level by level: a vertex's successors append, in order, each
        generator other than its own last letter to its label.
        """
        # last letter 0 is the origin, whose label "e" is no prefix
        successors = [[(("." if last else "") + str(a), a)
                       for a in range(1, self.k + 2) if a != last]
                      for last in range(self.k + 2)]
        level = [("", 0)]
        labels = ["e"]
        for _ in range(self.depth):
            level = [(label + step, a) for label, last in level for step, a in successors[last]]
            labels.extend(label for label, _ in level)
        return tuple(labels)

    @property
    def level_sizes(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.offsets, self.offsets[1:]))

    def level(self, d: int) -> slice:
        """Rows of the sphere of radius d."""
        return slice(self.offsets[d], self.offsets[d + 1])

    def successor_blocks(self, level_rows: np.ndarray, d: int) -> np.ndarray:
        """The rows of level d+1 grouped by parent: shape (|level d|, branching, ...)."""
        return level_rows.reshape((self.level_sizes[d], -1) + level_rows.shape[1:])


@lru_cache(maxsize=None)
def ball_geometry(k: int, depth: int) -> BallGeometry:
    if depth < 0:
        raise ValueError("depth must be >= 0")
    sizes = [sphere_size(k, d) for d in range(depth + 1)]
    offsets = tuple(int(x) for x in np.cumsum([0] + sizes))
    parent_index = [np.array([-1])]
    for d in range(depth):
        branching = k + 1 if d == 0 else k
        parent_index.append(offsets[d] + np.arange(sizes[d + 1]) // branching)
    return BallGeometry(k=k, depth=depth, offsets=offsets,
                        parent_index=np.concatenate(parent_index).astype(np.int64))
