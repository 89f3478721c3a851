"""Maximum-alignment similarity between two transition (or pair) sets.

Elements are flattened to token lists and scored by positional agreement.
Identical elements are matched first (always part of some maximum
matching, since a full-score pair can never be beaten by splitting it);
the remainders go through an exact rectangular assignment solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.optimize import linear_sum_assignment

from .lts import Element, FlatList, StatePair, Transition, flatten

DEFAULT_SIZE_GUARD = 5_000


class AlignmentError(ValueError):
    pass


class AlignmentSizeError(AlignmentError):
    """Both remainder sides exceed the exact-assignment size guard."""


@dataclass(frozen=True)
class AlignmentOutcome:
    total_agreement: int
    matching: tuple[tuple[Element, Element, int], ...]


def agreement(a: FlatList, b: FlatList) -> int:
    """Number of positions where the two flattened lists agree."""
    if len(a) != len(b):
        raise AlignmentError(f"flattened lengths differ: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x == y)


def _check_uniform(elements: Iterable[Element], side: str) -> type | None:
    kind: type | None = None
    for element in elements:
        if not isinstance(element, (Transition, StatePair)):
            raise AlignmentError(
                f"{side} contains a {type(element).__name__}, "
                "expected transitions or state pairs"
            )
        if kind is None:
            kind = type(element)
        elif type(element) is not kind:
            raise AlignmentError(f"{side} mixes transitions and state pairs")
    return kind


def similarity(
    left: Iterable[Element],
    right: Iterable[Element],
    variable_order: Iterable[str],
    *,
    size_guard: int = DEFAULT_SIZE_GUARD,
) -> AlignmentOutcome:
    """Maximum total agreement over all one-to-one partial matchings.

    Zero-score matches add nothing and are left out of the reported
    matching.  Raises AlignmentSizeError when both remainder sides are
    larger than ``size_guard`` (the exact solve would be quadratic).
    """
    order = tuple(variable_order)
    left_set = frozenset(left)
    right_set = frozenset(right)
    left_kind = _check_uniform(left_set, "left set")
    right_kind = _check_uniform(right_set, "right set")
    if left_kind and right_kind and left_kind is not right_kind:
        raise AlignmentError("cannot align transitions with state pairs")

    identical = left_set & right_set
    rest_left = left_set - identical
    rest_right = right_set - identical

    matching: list[tuple[Element, Element, int]] = []
    total = 0
    for element in sorted(identical, key=lambda e: e.sort_key()):
        flat = flatten(element, order)
        matching.append((element, element, len(flat)))
        total += len(flat)

    if rest_left and rest_right:
        if len(rest_left) > size_guard and len(rest_right) > size_guard:
            raise AlignmentSizeError(
                f"both remainders exceed the size guard "
                f"({len(rest_left)} x {len(rest_right)} > {size_guard} each); "
                "raise the guard to force an exact solve"
            )
        lefts = sorted(rest_left, key=lambda e: e.sort_key())
        rights = sorted(rest_right, key=lambda e: e.sort_key())
        left_flat = [flatten(e, order) for e in lefts]
        right_flat = [flatten(e, order) for e in rights]

        weights = np.zeros((len(lefts), len(rights)), dtype=np.int64)
        for i, fl in enumerate(left_flat):
            for j, fr in enumerate(right_flat):
                weights[i, j] = agreement(fl, fr)
        rows, cols = linear_sum_assignment(weights, maximize=True)
        for i, j in zip(rows, cols):
            w = int(weights[i, j])
            if w > 0:
                matching.append((lefts[i], rights[j], w))
                total += w

    return AlignmentOutcome(total_agreement=total, matching=tuple(matching))
