"""Core value types for labelled transition systems.

States, transitions and state pairs are immutable, hashable and safe to
share between workers.  Machines can reach millions of transitions, so the
types cache their hashes and intern common values; an exploration builds
them only when they are read.  The canonical order of states, and with it
of transitions and pairs, is computed in one place, ``row_ranks``, from
integer value codes: of an exploration's value rows directly, or of the
states of transitions and pairs through ``element_keys``.
"""

from __future__ import annotations

import itertools
import json
from operator import attrgetter
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

KIND_BOOL = "bool"
KIND_ENUM = "enum"
KIND_INT = "int"


class StructureError(ValueError):
    """A state or transition does not bind the expected variable set."""


class Value:
    """A machine-domain value: an integer, a boolean, or an element of an
    enumerated set.

    Equality is exact: two values are equal only when they have the same
    kind and the same payload, so an integer never equals a boolean or an
    enumerated element.  ``sort_key`` gives the canonical total order
    (kind first, then payload; spelled out in docs/formats.md).
    """

    __slots__ = ("kind", "payload", "_hash")

    def __init__(self, kind: str, payload):
        self.kind = kind
        self.payload = payload
        self._hash = hash((kind, payload))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Value):
            return NotImplemented
        return self.kind == other.kind and self.payload == other.payload

    def __hash__(self):
        return self._hash

    def sort_key(self):
        if self.kind == KIND_BOOL:
            return (self.kind, (int(self.payload),))
        if self.kind == KIND_INT:
            return (self.kind, (self.payload,))
        return (self.kind, self.payload)

    def to_json(self):
        """JSON form: integers and booleans as themselves, enumerated
        elements as their element-name string."""
        if self.kind == KIND_ENUM:
            return self.payload[1]
        return self.payload

    def __repr__(self):
        if self.kind == KIND_ENUM:
            return self.payload[1]
        if self.kind == KIND_BOOL:
            return "TRUE" if self.payload else "FALSE"
        return str(self.payload)


_INT_CACHE: dict[int, Value] = {}
_ENUM_CACHE: dict[tuple[str, str], Value] = {}
TRUE = Value(KIND_BOOL, True)
FALSE = Value(KIND_BOOL, False)


def intval(n: int) -> Value:
    v = _INT_CACHE.get(n)
    if v is None:
        v = _INT_CACHE[n] = Value(KIND_INT, n)
    return v


def boolval(flag: bool) -> Value:
    return TRUE if flag else FALSE


def enumval(set_name: str, element: str) -> Value:
    key = (set_name, element)
    v = _ENUM_CACHE.get(key)
    if v is None:
        v = _ENUM_CACHE[key] = Value(KIND_ENUM, key)
    return v


def value_from_json(item, element_sets: Mapping[str, str] | None = None) -> Value:
    """Decode a JSON scalar into a Value.

    ``element_sets`` maps enumerated element names to their set names; it is
    required to decode strings.  Booleans are checked before integers
    because bool is an int subclass.
    """
    if isinstance(item, bool):
        return boolval(item)
    if isinstance(item, int):
        return intval(item)
    if isinstance(item, str):
        if not element_sets or item not in element_sets:
            raise StructureError(f"unknown enumerated element {item!r}")
        return enumval(element_sets[item], item)
    raise StructureError(f"cannot decode value of type {type(item).__name__}")


class State:
    """A total assignment of the machine's variables, ordered by the
    declaration order of the variables."""

    __slots__ = ("variables", "values", "_hash")

    def __init__(self, variables: tuple[str, ...], values: tuple[Value, ...]):
        if len(variables) != len(values):
            raise StructureError(
                f"{len(variables)} variables but {len(values)} values"
            )
        self.variables = variables
        self.values = values
        self._hash = hash((variables, values))

    @classmethod
    def from_mapping(
        cls, assignment: Mapping[str, Value], variable_order: Iterable[str]
    ) -> "State":
        order = tuple(variable_order)
        extra = [v for v in assignment if v not in order]
        if extra:
            raise StructureError(f"state binds undeclared variable {extra[0]!r}")
        missing = [v for v in order if v not in assignment]
        if missing:
            raise StructureError(f"state is missing variable {missing[0]!r}")
        return cls(order, tuple(assignment[v] for v in order))

    def get(self, name: str) -> Value:
        try:
            return self.values[self.variables.index(name)]
        except ValueError:
            raise StructureError(f"state does not bind variable {name!r}") from None

    @property
    def bindings(self) -> tuple[tuple[str, Value], ...]:
        return tuple(zip(self.variables, self.values))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, State):
            return NotImplemented
        return self.variables == other.variables and self.values == other.values

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = ",".join(repr(v) for v in self.values)
        return f"({inner})"


def _require_same_variables(pre: State, post: State, what: str) -> None:
    if pre.variables is post.variables or pre.variables == post.variables:
        return
    missing = set(pre.variables) - set(post.variables)
    extra = set(post.variables) - set(pre.variables)
    detail = []
    if missing:
        detail.append(f"post-state is missing {sorted(missing)}")
    if extra:
        detail.append(f"post-state adds {sorted(extra)}")
    raise StructureError(f"{what} binds mismatched variables: " + "; ".join(detail))


class Transition:
    """A labelled step ``[pre, operation, post]``; both states bind the
    identical variable set."""

    __slots__ = ("pre", "label", "post", "_hash")

    def __init__(self, pre: State, label: str, post: State):
        _require_same_variables(pre, post, "transition")
        self.pre = pre
        self.label = label
        self.post = post
        self._hash = hash((pre, label, post))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Transition):
            return NotImplemented
        return (
            self.label == other.label
            and self.pre == other.pre
            and self.post == other.post
        )

    def __hash__(self):
        return self._hash

    def pair(self) -> "StatePair":
        return StatePair(self.pre, self.post)

    def __repr__(self):
        return f"[{self.pre!r},{self.label},{self.post!r}]"


class StatePair:
    """A transition with its operation label erased."""

    __slots__ = ("pre", "post", "_hash")

    def __init__(self, pre: State, post: State):
        _require_same_variables(pre, post, "state pair")
        self.pre = pre
        self.post = post
        self._hash = hash((pre, post))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, StatePair):
            return NotImplemented
        return self.pre == other.pre and self.post == other.post

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"[{self.pre!r},{self.post!r}]"


FlatList = tuple
Element = Union[Transition, StatePair]


def check_variables(variables: tuple[str, ...], variable_order: tuple[str, ...]) -> None:
    """Raise StructureError unless a state binding ``variables`` binds
    exactly ``variable_order``, in that order."""
    if variables is variable_order or variables == variable_order:
        return
    declared = set(variable_order)
    bound = set(variables)
    for name in variable_order:
        if name not in bound:
            raise StructureError(f"state is missing variable {name!r}")
    for name in variables:
        if name not in declared:
            raise StructureError(f"state binds undeclared variable {name!r}")
    raise StructureError(
        f"state binds {list(variables)}, not in the order {list(variable_order)}"
    )


def state_values(state: State, variable_order: tuple[str, ...]) -> tuple[Value, ...]:
    """The state's values; raises StructureError unless the state binds
    exactly ``variable_order``, in that order."""
    check_variables(state.variables, variable_order)
    return state.values


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
    if isinstance(element, StatePair):
        return flatten_pair(element, variable_order)
    raise TypeError(f"cannot flatten {type(element).__name__}")


def check_element_variables(
    elements: Iterable[Element], variable_order: tuple[str, ...]
) -> None:
    """Raise StructureError unless every element's states bind exactly
    ``variable_order``.  A post-state binds the variables of its pre-state
    (checked on construction), so each distinct ``pre.variables`` tuple is
    checked once."""
    for variables in set(map(attrgetter("pre.variables"), elements)):
        check_variables(variables, variable_order)


def set_size(elements: Iterable[Element], variable_order: Iterable[str]) -> int:
    """Total number of tokens over all flattened elements: 2N+1 per
    transition and 2N per state pair, for N variables."""
    order = tuple(variable_order)
    elements = list(elements)
    check_element_variables(elements, order)
    transitions = sum(isinstance(e, Transition) for e in elements)
    return 2 * len(order) * len(elements) + transitions


def pairs_of(transitions: Iterable[Transition]) -> frozenset:
    """Label-erasing projection; duplicates collapse."""
    return frozenset(t.pair() for t in transitions)


def labels_of(transitions: Iterable[Transition]) -> frozenset:
    """The distinct operation labels appearing in a transition set."""
    return frozenset(t.label for t in transitions)


def transition_to_json(t: Transition) -> dict:
    """Canonical JSON object: {"pre": {...}, "op": name, "post": {...}}."""
    return {
        "pre": {name: value.to_json() for name, value in t.pre.bindings},
        "op": t.label,
        "post": {name: value.to_json() for name, value in t.post.bindings},
    }


def transition_from_json(
    obj: Mapping,
    variable_order: Iterable[str],
    element_sets: Mapping[str, str] | None = None,
) -> Transition:
    """Decode the canonical JSON object against a known variable order."""
    order = tuple(variable_order)
    for key in ("pre", "op", "post"):
        if key not in obj:
            raise StructureError(f"transition object is missing {key!r}")
    if not isinstance(obj["op"], str):
        raise StructureError("transition 'op' must be a string")

    def decode_state(mapping: Mapping) -> State:
        decoded = {
            name: value_from_json(item, element_sets) for name, item in mapping.items()
        }
        return State.from_mapping(decoded, order)

    return Transition(decode_state(obj["pre"]), obj["op"], decode_state(obj["post"]))


def row_ranks(
    table: Sequence[tuple[Value, ...]], width: int
) -> tuple[np.ndarray, np.ndarray]:
    """The canonical integer coding of value rows: ``(rank, rows)``.

    Each distinct value is coded by its rank in the canonical value order
    (``Value.sort_key``) and each row of ``width`` values becomes one row of
    codes, so the lexicographic order of the rows is the canonical state
    order.  ``rows`` holds the distinct rows in that order and ``rank[i]``
    is the index of ``table[i]``'s row: equal rows share a rank.
    """
    values = sorted(set(itertools.chain.from_iterable(table)), key=Value.sort_key)
    code = {v: i for i, v in enumerate(values)}
    shape = (len(table), width)
    coded = np.fromiter(
        map(code.__getitem__, itertools.chain.from_iterable(table)),
        np.int32,
        shape[0] * shape[1],
    ).reshape(shape)
    order = np.lexsort(coded.T[::-1]) if width else np.arange(shape[0])
    coded = coded[order]
    # A row starts a new rank where it differs from the row before it.
    starts = np.ones(len(coded), dtype=bool)
    starts[1:] = (coded[1:] != coded[:-1]).any(axis=1)
    rank = np.empty_like(order)
    rank[order] = np.cumsum(starts) - 1
    return rank, coded[starts]


def element_keys(
    elements: Sequence[Element], variable_order: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical sort keys of transitions or of state pairs: ``(keys, rows)``.

    ``keys`` has one row per element: the rank of its pre-state, the code
    of its label (transitions only; labels in code-point order) and the
    rank of its post-state, so the lexicographic order of the keys is the
    canonical element order.  ``rows`` are the state rows of ``row_ranks``,
    indexed by rank.  Each state object is coded once, told apart from the
    others by ``id``, never by ``State.__eq__``.
    """
    size = len(elements)
    states = [e.pre for e in elements] + [e.post for e in elements]
    objects = dict(zip(map(id, states), states))
    slot = {key: i for i, key in enumerate(objects)}
    table = [state_values(s, variable_order) for s in objects.values()]
    rank, rows = row_ranks(table, len(variable_order))
    rank = rank[np.fromiter(map(slot.__getitem__, map(id, states)), np.intp, 2 * size)]
    columns = [rank[:size], rank[size:]]
    if size and isinstance(elements[0], Transition):
        names = [t.label for t in elements]
        code = {name: i for i, name in enumerate(sorted(set(names)))}
        columns.insert(1, np.fromiter(map(code.__getitem__, names), np.intp, size))
    return np.column_stack(columns).astype(np.int32), rows


def sorted_transitions(transitions: Iterable[Transition]) -> list[Transition]:
    """The transitions in canonical order."""
    transitions = list(transitions)
    order = transitions[0].pre.variables if transitions else ()
    keys, _ = element_keys(transitions, order)
    return [transitions[i] for i in np.lexsort(keys.T[::-1])]


def sorted_labels(labels: Iterable[str]) -> list[str]:
    """The distinct operation labels in canonical (code-point) order."""
    return sorted(set(labels))


def write_transitions_jsonl(transitions: Iterable[Transition], stream) -> int:
    """Write one canonical JSON object per line, in the order given.
    Returns the number of lines written."""
    count = 0
    for t in transitions:
        stream.write(json.dumps(transition_to_json(t), separators=(", ", ": ")))
        stream.write("\n")
        count += 1
    return count


def read_transitions_jsonl(
    stream,
    variable_order: Iterable[str],
    element_sets: Mapping[str, str] | None = None,
) -> frozenset:
    """Read canonical transition JSON lines; blank lines are ignored."""
    order = tuple(variable_order)
    out = set()
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise StructureError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        try:
            out.add(transition_from_json(obj, order, element_sets))
        except StructureError as exc:
            raise StructureError(f"line {lineno}: {exc}") from exc
    return frozenset(out)
