"""Object forms that only the tests read.

bqual codes transition sets as integer arrays (``lts.code_relations``).
The brute-force alignment oracle and the set formulas of the tests work on
the objects instead: label-erased state pairs, flattened token lists, their
total size and the positional agreement of two of them, plus small readers
of explored objects.  They share only the value types and ``state_values``
with bqual.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Union

from bqual.alignment import AlignmentError
from bqual.lts import State, Transition, Value, state_values

FlatList = tuple


class StatePair(NamedTuple):
    """A transition with its operation label erased."""

    pre: State
    post: State


Element = Union[Transition, StatePair]


def pair_of(t: Transition) -> StatePair:
    return StatePair(t.pre, t.post)


def pairs_of(transitions: Iterable[Transition]) -> frozenset:
    """Label-erasing projection; duplicates collapse."""
    return frozenset(map(pair_of, transitions))


def labels_of(transitions: Iterable[Transition]) -> frozenset:
    """The distinct operation labels appearing in a transition set."""
    return frozenset(t.label for t in transitions)


def flatten_transition(t: Transition, variable_order: Iterable[str]) -> FlatList:
    """Flatten to ``(pre values..., label, post values...)`` -- 2N+1 tokens
    for N variables, values in declaration order."""
    order = tuple(variable_order)
    return state_values(t.pre, order) + (t.label,) + state_values(t.post, order)


def flatten_pair(p: StatePair, variable_order: Iterable[str]) -> FlatList:
    """Flatten to ``(pre values..., post values...)`` -- 2N tokens."""
    order = tuple(variable_order)
    return state_values(p.pre, order) + state_values(p.post, order)


def flatten(element: Element, variable_order: Iterable[str]) -> FlatList:
    if isinstance(element, Transition):
        return flatten_transition(element, variable_order)
    return flatten_pair(element, variable_order)


def set_size(elements: Iterable[Element], variable_order: Iterable[str]) -> int:
    """Total number of tokens over all flattened elements: 2N+1 per
    transition and 2N per state pair, for N variables."""
    return sum(len(flatten(e, variable_order)) for e in elements)


def agreement(a: FlatList, b: FlatList) -> int:
    """Number of positions where the two flattened lists agree."""
    if len(a) != len(b):
        raise AlignmentError(f"flattened lengths differ: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x == y)


def value_of(state: State, name: str) -> Value:
    """The value ``state`` binds to variable ``name``."""
    return state.values[state.variables.index(name)]


def initial_states(result) -> frozenset:
    """The initial states of an exploration."""
    return frozenset(result.state_objects[: result.n_initial])


def operation_names(machine) -> tuple[str, ...]:
    """A machine's operation names, in declaration order."""
    return tuple(name for name, _ in machine.operations)
