"""Maximum-alignment similarity between two transition (or pair) sets.

Elements are scored by positional agreement of their flattened token lists
(``lts.flatten``, ``agreement``).  Identical elements are always part of
some maximum matching, since a full-score pair can never be beaten by
splitting it, so each counts its full width and is not scored; the
remainders go through an exact rectangular assignment solve, of which only
the total is kept.

Both sides come on one integer coding (``lts.Coded``): ``evaluate`` codes
two relations with ``lts.code_relations`` and the set-form entry point
codes its sets with ``lts.element_keys``, so the two sides share value
codes and identical elements are found as equal keys.  Each remainder
element becomes a row of codes in flattened order (the value codes of its
states around its label's code).  A weight is the number of equal codes in
two rows.  With n rows on the smaller side, only each row's n best columns
need to be kept: if an optimal matching gives a row a dropped column, at
most n - 1 of that row's n kept columns are taken by other rows, so it can
move to a free one without losing weight.  This holds however ties are
broken, so the rows may come in any order.  The columns are scored in
blocks of max(n, ``CHUNK_CELLS`` / n) columns; each block is appended to
the kept columns, which are then pruned to the union of each row's n best
(at most min(m, n*n) of the m columns).  Working memory is thus about n x
(max(n, CHUNK_CELLS / n) + min(m, n*n)) cells (``CHUNK_CELLS`` plus the
kept columns while n <= 1024), and a lopsided pair costs vector work
linear in its n x m cells and a solve of at most n x n*n cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable

import numpy as np
from scipy.optimize import linear_sum_assignment

from .lts import (
    Coded,
    Element,
    FlatList,
    StatePair,
    Transition,
    edge_keys,
    element_keys,
)

DEFAULT_SIZE_GUARD = 5_000
CHUNK_CELLS = 1 << 20


class AlignmentError(ValueError):
    pass


class AlignmentSizeError(AlignmentError):
    """Both remainder sides exceed the exact-assignment size guard."""


@dataclass(frozen=True)
class AlignmentOutcome:
    total_agreement: int


def agreement(a: FlatList, b: FlatList) -> int:
    """Number of positions where the two flattened lists agree."""
    if len(a) != len(b):
        raise AlignmentError(f"flattened lengths differ: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x == y)


def _check_uniform(elements: Iterable[Element], side: str) -> type | None:
    kinds = set(map(type, elements))
    for kind in sorted(kinds, key=attrgetter("__name__")):
        if not issubclass(kind, (Transition, StatePair)):
            raise AlignmentError(
                f"{side} contains a {kind.__name__}, "
                "expected transitions or state pairs"
            )
    if len(kinds) > 1:
        raise AlignmentError(f"{side} mixes transitions and state pairs")
    return next(iter(kinds), None)


def code_elements(
    left: Iterable[Element],
    right: Iterable[Element],
    variable_order: Iterable[str] | None = None,
) -> tuple[Coded, Coded]:
    """Two collections of transitions, or of state pairs, on one coding.

    Without ``variable_order`` the first element's variables are used.
    Raises AlignmentError when a side holds anything else or the sides mix
    kinds, and StructureError when an element does not bind exactly the
    variables, in order."""
    left, right = frozenset(left), frozenset(right)
    left_kind = _check_uniform(left, "left set")
    right_kind = _check_uniform(right, "right set")
    if left_kind and right_kind and left_kind is not right_kind:
        raise AlignmentError("cannot align transitions with state pairs")
    elements = [*left, *right]
    if variable_order is None:
        variable_order = elements[0].pre.variables if elements else ()
    columns, states = element_keys(elements, tuple(variable_order))
    pre, post = columns[:, 0], columns[:, -1]
    kind = left_kind or right_kind
    if kind is not None and issubclass(kind, Transition):
        n_labels = int(columns[:, 1].max()) + 1
        keys = edge_keys(pre, columns[:, 1], post, len(states), n_labels)
    else:
        n_labels = None
        keys = edge_keys(pre, 0, post, len(states), 1)
    split = len(left)
    return (
        Coded(np.sort(keys[:split]), states, n_labels),
        Coded(np.sort(keys[split:]), states, n_labels),
    )


def _weights(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Agreement of every left row with every right row."""
    out = np.zeros((len(left), len(right)), dtype=np.int32)
    for c in range(left.shape[1]):
        out += left[:, c, None] == right[None, :, c]
    return out


def _max_matching(left: np.ndarray, right: np.ndarray) -> int:
    """The total weight of a maximum-weight matching."""
    if len(left) > len(right):
        return _max_matching(right, left)
    n = len(left)
    chunk = max(n, CHUNK_CELLS // n)
    weights = np.empty((n, 0), dtype=np.int32)
    for start in range(0, len(right), chunk):
        weights = np.hstack((weights, _weights(left, right[start : start + chunk])))
        if weights.shape[1] > n:
            # The union of each row's n best columns (see the module docstring).
            best = np.unique(np.argpartition(weights, -n, axis=1)[:, -n:])
            weights = weights[:, best]
    rows, picked = linear_sum_assignment(weights, maximize=True)
    return int(weights[rows, picked].sum())


def similarity(
    left: Coded | Iterable[Element],
    right: Coded | Iterable[Element],
    variable_order: Iterable[str] | None = None,
    *,
    size_guard: int = DEFAULT_SIZE_GUARD,
) -> AlignmentOutcome:
    """Maximum total agreement over all one-to-one partial matchings.

    ``left`` and ``right`` are two sides of ``Coded`` elements on one
    coding, or collections of transitions or of state pairs, which are
    coded first (``code_elements``, which raises on a mixed or malformed
    side).  Raises AlignmentSizeError when both remainder sides are larger
    than ``size_guard`` (the exact solve would be quadratic).
    """
    if not isinstance(left, Coded):
        left, right = code_elements(left, right, variable_order)
    identical = left.common(right)
    total = left.width * identical
    n_left, n_right = len(left) - identical, len(right) - identical
    if n_left and n_right:
        if n_left > size_guard and n_right > size_guard:
            raise AlignmentSizeError(
                f"both remainders exceed the size guard "
                f"({n_left} x {n_right} > {size_guard} each); "
                "raise --similarity-threshold to force an exact solve"
            )
        rest_left, rest_right = left.remainder(right), right.remainder(left)
        total += _max_matching(left.rows(rest_left), right.rows(rest_right))
    return AlignmentOutcome(total_agreement=total)
