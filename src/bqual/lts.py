"""Core value types for labelled transition systems.

A value is its ``(kind, payload)`` pair, a ``Value``, and sorts as that
pair; common values are interned.  A state is its value row, the tuple of
its values in the declaration order of the variables, and a transition the
triple ``(pre row, operation, post row)`` (``Transition`` names its fields
and prints it).  The canonical order of states, and with it of
transitions, is computed in one place, ``row_ranks``, from the integer
codes of value rows (``value_codes``, which fault injection reads too).

A set of transitions travels as a ``Relation`` of integer arrays, the one
transition-set type: an exploration is one (``ExplorationResult`` extends
it), ``read_transitions_jsonl`` reads a file into one,
``write_transitions_jsonl`` writes one, rendering each state's JSON text
once, and ``relation_of`` builds one from a set of triples.  The
functional metrics compare two relations as ``Coded`` sorted int64 keys on
one shared coding (``code_relations``), never as triples.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

KIND_BOOL = "bool"
KIND_ENUM = "enum"
KIND_INT = "int"


class StructureError(ValueError):
    """A state or transition does not fit the expected variables."""


class Value(NamedTuple):
    """A machine-domain value: an integer, a boolean, or an element of an
    enumerated set, as its ``(kind, payload)`` pair.

    It equals, hashes and sorts as that pair, so equality is exact (an
    integer never equals a boolean or an enumerated element) and the
    canonical value order is the pair's: kind first (``bool < enum <
    int``), then payload (``False < True``, integers by value, an
    enumerated element by ``(set name, element)``; docs/formats.md).  It
    is written through ``to_json``, never as the pair.
    """

    kind: str
    payload: object

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


def state_text(values: Iterable[Value]) -> str:
    """A state's values as they print: ``(v1,v2,...)``."""
    return f"({','.join(map(repr, values))})"


class Transition(NamedTuple):
    """A labelled step: the pre-state's values, the operation name and the
    post-state's values, each state a value row in declaration order.  It
    equals, and hashes as, the plain triple."""

    pre: tuple[Value, ...]
    label: str
    post: tuple[Value, ...]

    def __repr__(self):
        return f"[{state_text(self.pre)},{self.label},{state_text(self.post)}]"


def transition_parts(obj) -> tuple[dict, str, dict]:
    """The pre-state object, operation name and post-state object of a
    decoded transition object; raises StructureError naming what is wrong."""
    if not isinstance(obj, dict):
        raise StructureError(f"transition must be a JSON object, not {type(obj).__name__}")
    for key in ("pre", "op", "post"):
        if key not in obj:
            raise StructureError(f"transition object is missing {key!r}")
    if not isinstance(obj["op"], str):
        raise StructureError("transition 'op' must be a string")
    for key in ("pre", "post"):
        if not isinstance(obj[key], dict):
            kind = type(obj[key]).__name__
            raise StructureError(f"transition {key!r} must be a JSON object, not {kind}")
    return obj["pre"], obj["op"], obj["post"]


def state_row(
    mapping: Mapping, variable_order: tuple[str, ...], element_sets=None
) -> tuple[Value, ...]:
    """Decode a state's JSON object into its values in ``variable_order``;
    raises StructureError for the first value it cannot decode, else for
    an undeclared variable, else for a missing one."""
    decoded = {name: value_from_json(item, element_sets) for name, item in mapping.items()}
    extra = [name for name in decoded if name not in variable_order]
    if extra:
        raise StructureError(f"state binds undeclared variable {extra[0]!r}")
    missing = [name for name in variable_order if name not in decoded]
    if missing:
        raise StructureError(f"state is missing variable {missing[0]!r}")
    return tuple(map(decoded.__getitem__, variable_order))


def transition_values(
    obj, variable_order: tuple[str, ...], element_sets: Mapping[str, str] | None = None
) -> tuple[tuple[Value, ...], str, tuple[Value, ...]]:
    """The pre-state's values, operation name and post-state's values of a
    decoded transition object, against a known variable order; raises
    StructureError naming what is wrong."""
    pre, op, post = transition_parts(obj)
    return state_row(pre, variable_order, element_sets), op, state_row(
        post, variable_order, element_sets
    )


def value_codes(table: Sequence[tuple[Value, ...]], width: int) -> tuple[list, np.ndarray]:
    """``(values, codes)``: the distinct values of the rows of ``table`` in
    canonical order, that of their ``(kind, payload)`` pairs, and each row
    as ``width`` int32 codes, a value's code its position in ``values``."""
    values = sorted(set(itertools.chain.from_iterable(table)))
    code = {v: i for i, v in enumerate(values)}
    cells = map(code.__getitem__, itertools.chain.from_iterable(table))
    codes = np.fromiter(cells, np.int32, len(table) * width)
    return values, codes.reshape(len(table), width)


def row_ranks(table: Sequence[tuple[Value, ...]], width: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical integer coding of value rows: ``(rank, rows)``.

    As each row of ``width`` values becomes its row of ``value_codes``, the
    lexicographic order of the rows is the canonical state order.  ``rows``
    holds the distinct rows in that order and ``rank[i]`` is the index of
    ``table[i]``'s row: equal rows share a rank."""
    _, coded = value_codes(table, width)
    order = np.lexsort(coded.T[::-1]) if width else np.arange(len(table))
    coded = coded[order]
    # A row starts a new rank where it differs from the row before it.
    starts = np.ones(len(coded), dtype=bool)
    starts[1:] = (coded[1:] != coded[:-1]).any(axis=1)
    rank = np.empty_like(order)
    rank[order] = np.cumsum(starts) - 1
    return rank, coded[starts]


def sorted_labels(labels: Iterable[str]) -> list[str]:
    """The distinct operation labels in canonical (code-point) order."""
    return sorted(set(labels))


# --- transitions as integer arrays ------------------------------------------


def edge_keys(pre, label, post, n_states: int, n_labels: int, dtype=np.int64) -> np.ndarray:
    """One key per edge, ``(pre·L + label)·S + post`` for S states and L
    labels, ordered as the (pre, label, post) triples are: int64, or Python
    ints with ``dtype=object`` where S·L passes int64."""
    keys = np.multiply(pre, n_labels, dtype=dtype)
    keys += label
    keys *= n_states
    keys += post
    return keys


def edge_columns(keys: np.ndarray, n_states: int, n_labels: int):
    """The (pre, label, post) columns of ``edge_keys``."""
    rest, post = np.divmod(keys, n_states)
    pre, label = np.divmod(rest, n_labels)
    return pre, label, post


def distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys, sorted: ``keys`` is sorted in place and masked
    where a key equals its neighbour (on millions of keys ``np.unique`` is
    many times slower)."""
    keys.sort()
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys if keep.all() else keys[keep]


def lookup(table: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(hit, at)``: which of ``keys`` the sorted ``table`` holds, and where
    each key sits in it (``table[at[i]] == keys[i]`` where ``hit[i]``)."""
    at = np.searchsorted(table, keys)
    hit = at < len(table)
    hit[hit] = table[at[hit]] == keys[hit]
    return hit, at


def _matches(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the common keys of sorted distinct ``a`` and ``b``,
    in each, found by searching the smaller in the larger, so that the
    working memory is that of the smaller."""
    if len(a) > len(b):
        in_b, in_a = _matches(b, a)
        return in_a, in_b
    hit, at = lookup(b, a)
    return np.flatnonzero(hit), at[hit]


@dataclass(frozen=True, eq=False)
class Relation:
    """A set of transitions as integer arrays.

    Transition ``j`` goes from state ``pre[j]`` to state ``post[j]`` by
    operation ``labels[label[j]]``; ``rows[i]`` holds state ``i``'s values
    in ``variable_order``.  Rows, labels and transitions are each distinct,
    and labels are in code-point order.  An exploration is one
    (``ExplorationResult`` extends it) and a transitions file is read into
    one; the ``Transition`` triples are built only when read.
    """

    variable_order: tuple[str, ...]
    rows: Sequence[tuple[Value, ...]]
    labels: tuple[str, ...]
    pre: np.ndarray
    label: np.ndarray
    post: np.ndarray

    def __len__(self) -> int:
        return len(self.pre)

    @functools.cached_property
    def label_counts(self) -> dict[str, int]:
        """The number of transitions of each operation that has any, by label."""
        counts = np.bincount(self.label, minlength=len(self.labels)).tolist()
        return {name: n for name, n in zip(self.labels, counts) if n}

    @property
    def operations(self) -> frozenset:
        """The labels of the operations with at least one transition."""
        return frozenset(self.label_counts)

    @functools.cached_property
    def canonical(self) -> tuple[list[int], np.ndarray]:
        """``(by_rank, order)``: the state ids in canonical order and the
        transition ids in canonical order, that of their ``edge_keys`` over
        (pre rank, label, post rank)."""
        rank, _ = row_ranks(self.rows, len(self.variable_order))
        keys = edge_keys(
            rank[self.pre], self.label, rank[self.post], len(rank), len(self.labels)
        )
        return np.argsort(rank).tolist(), np.argsort(keys)

    @functools.cached_property
    def edge_objects(self) -> tuple[Transition, ...]:  # by id
        rows, labels = self.rows, self.labels
        # Memoryviews yield the ids one int at a time, with no list of them.
        edges = zip(*map(memoryview, (self.pre, self.label, self.post)))
        return tuple(Transition(rows[p], labels[c], rows[q]) for p, c, q in edges)

    @functools.cached_property
    def transitions(self) -> frozenset:
        return frozenset(self.edge_objects)


def relation_of(transitions: Iterable[tuple], variable_order: Iterable[str]) -> Relation:
    """A collection of ``(pre row, label, post row)`` triples as a Relation;
    raises StructureError unless each row holds one value per variable of
    ``variable_order``."""
    order = tuple(variable_order)
    pres, names, posts = tuple(zip(*transitions)) or ((), (), ())
    ids = dict.fromkeys(pres + posts)
    for i, row in enumerate(ids):
        if len(row) != len(order):
            raise StructureError(
                f"state {state_text(row)} has {len(row)} values for {len(order)} variables"
            )
        ids[row] = i
    labels = sorted_labels(names)
    code = {name: i for i, name in enumerate(labels)}
    pre, label, post = (
        np.fromiter(map(table.__getitem__, column), np.int64, len(column))
        for table, column in ((ids, pres), (code, names), (ids, posts))
    )
    return Relation(order, list(ids), tuple(labels), pre, label, post)


_CHUNK = 1 << 16  # transitions written at a time


def canonical_edges(relation: Relation):
    """The relation's transitions in canonical order, ``_CHUNK`` at a time:
    lists of transition ids, pre-state ids, label codes and post-state ids."""
    order = relation.canonical[1]
    for start in range(0, len(order), _CHUNK):
        ids = order[start : start + _CHUNK]
        columns = (relation.pre, relation.label, relation.post)
        yield ids.tolist(), *(column[ids].tolist() for column in columns)


def state_texts(relation: Relation, **layout) -> list[str]:
    """The JSON text of each state's canonical object, by state id, as
    ``json.dumps`` lays it out with ``layout``: rendered once per state and
    shared by every transition that reads it."""
    order = relation.variable_order
    return [
        json.dumps(dict(zip(order, map(Value.to_json, row))), **layout)
        for row in relation.rows
    ]


_SEPARATORS = (", ", ": ")


def write_transitions_jsonl(relation: Relation, stream) -> int:
    """Write one canonical JSON object per line, in canonical order: the
    ``json.dumps`` text of ``{"pre": {...}, "op": name, "post": {...}}``
    for each transition, each state's values in declaration order.
    Returns the number of lines written."""
    states = state_texts(relation, separators=_SEPARATORS)
    ops = [json.dumps(name) for name in relation.labels]
    for _, pre, label, post in canonical_edges(relation):
        stream.write("".join(
            f'{{"pre": {states[p]}, "op": {ops[c]}, "post": {states[q]}}}\n'
            for p, c, q in zip(pre, label, post)
        ))
    return len(relation)


# A line as ``write_transitions_jsonl`` writes it: the texts of the pre-state
# object, the operation name and the post-state object.
_CANONICAL_LINE = re.compile(
    r'^\{"pre": (\{[^{}\n]*\}), "op": ("[^"\\\n]*"), "post": (\{[^{}\n]*\})\}$',
    re.MULTILINE,
)


_BLOCK = 1 << 16  # lines read and decoded at a time


def read_transitions_jsonl(
    stream,
    variable_order: Iterable[str],
    element_sets: Mapping[str, str] | None = None,
) -> Relation:
    """Read canonical transition JSON lines into a Relation.

    Blank lines are ignored, duplicate transitions collapse and a state's
    keys may come in any order.  The lines are read a block at a time, and
    each is split into the JSON texts of its states and operation, by one
    regular expression when it is laid out as the writer lays it out and
    by ``json.loads`` otherwise.  Each distinct state text is decoded once;
    a text keeps JSON's types apart (``true`` is not ``1``, nor ``1.0``),
    and the decoded values are interned, so two spellings of one state are
    one state.  When anything in a block is wrong, its lines are decoded
    one by one (``transition_values``) and the first fault is raised
    with its line number.
    """
    order = tuple(variable_order)
    known: dict[str, int] = {}  # the id of each state text
    ids: dict[tuple[Value, ...], int] = {}  # the id of each state's values
    ops: dict[str, int] = {}  # the code of each operation text, as first read
    names: dict[str, int] = {}  # the code of each operation name, as first read
    empty = np.empty(0, dtype=np.int64)
    blocks = [(empty, empty, empty)]
    first = 1  # the number of the block's first line
    while block := [line.strip() for line in itertools.islice(stream, _BLOCK)]:
        lines = [line for line in block if line]
        try:
            columns = _read_block(lines, order, element_sets, known, ids, ops, names)
        except ValueError as exc:
            fault = exc
        else:
            blocks.append(columns)
            first += len(block)
            continue
        for lineno, line in enumerate(block, start=first):
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StructureError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            try:
                transition_values(obj, order, element_sets)
            except StructureError as exc:
                raise StructureError(f"line {lineno}: {exc}") from exc
        raise fault

    labels = sorted_labels(names)
    recode = np.array([labels.index(name) for name in names], dtype=np.int64)
    pre, label, post = (np.concatenate(column) for column in zip(*blocks))
    keys = distinct(edge_keys(pre, recode[label], post, len(ids), len(labels)))
    edges = edge_columns(keys, len(ids), len(labels))
    return Relation(order, list(ids), tuple(labels), *edges)


def _line_texts(line: str) -> tuple[str, str, str]:
    pre, op, post = transition_parts(json.loads(line))
    return json.dumps(pre), json.dumps(op), json.dumps(post)


def _read_block(lines, order, element_sets, known, ids, ops, names) -> tuple:
    """The (pre, label, post) id columns of non-blank lines, extending the
    maps ``read_transitions_jsonl`` keeps; raises ValueError on any fault."""
    found = _CANONICAL_LINE.findall("\n".join(lines))
    if len(found) != len(lines):
        found = list(map(_line_texts, lines))
    pres, texts, posts = zip(*found) if found else ((), (), ())
    for text in dict.fromkeys(pres + posts):
        if text not in known:
            values = state_row(json.loads(text), order, element_sets)
            known[text] = ids.setdefault(values, len(ids))
    for text in dict.fromkeys(texts):
        if text not in ops:
            ops[text] = names.setdefault(json.loads(text), len(names))
    return tuple(
        np.fromiter(map(table.__getitem__, column), np.int64, len(found))
        for table, column in ((known, pres), (ops, texts), (known, posts))
    )


@dataclass(frozen=True, eq=False)
class Coded:
    """Distinct transitions or state pairs as sorted int64 keys, on a
    coding that the two sides of a comparison share.

    ``states`` holds the state rows of ``row_ranks`` (value codes), indexed
    by rank.  A transition's key is ``edge_keys`` of (pre rank, label code,
    post rank) with ``n_labels`` labels; a pair's, with ``n_labels`` None,
    is ``pre·S + post``.  Equal keys on the two sides are equal elements.
    """

    keys: np.ndarray
    states: np.ndarray
    n_labels: int | None

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def width(self) -> int:
        """Tokens per flattened element: 2N+1 for a transition and 2N for a
        state pair, for N variables."""
        return 2 * self.states.shape[1] + (self.n_labels is not None)

    @property
    def size(self) -> int:
        """Total number of tokens over all flattened elements."""
        return self.width * len(self.keys)

    def common(self, other: "Coded") -> int:
        """The number of elements on both sides."""
        return len(_matches(self.keys, other.keys)[0])

    def remainder(self, other: "Coded") -> np.ndarray:
        """The keys of the elements that ``other`` does not hold."""
        return np.delete(self.keys, _matches(self.keys, other.keys)[0])

    def pairs(self) -> "Coded":
        """The label-erased pre/post pairs; duplicates collapse."""
        n_states = len(self.states)
        pairs = self.keys // ((self.n_labels or 1) * n_states)
        pairs *= n_states
        pairs += self.keys % n_states
        return Coded(distinct(pairs), self.states, None)

    def rows(self, keys: np.ndarray) -> np.ndarray:
        """One row of codes per key, in flattened order: the pre-state's
        value codes, the label code (transitions only), the post-state's."""
        pre, label, post = edge_columns(keys, len(self.states), self.n_labels or 1)
        parts = [self.states[pre], self.states[post]]
        if self.n_labels is not None:
            parts.insert(1, label[:, None].astype(self.states.dtype))
        return np.hstack(parts)


def code_relations(derived: Relation, required: Relation) -> tuple[Coded, Coded]:
    """Two relations on one coding: a single ``row_ranks`` call over both
    sides' rows, so that equal valuations share a rank, and labels coded in
    code-point order over the union of their names."""
    rank, states = row_ranks([*derived.rows, *required.rows], len(derived.variable_order))
    labels = sorted_labels([*derived.labels, *required.labels])

    def side(relation: Relation, rank: np.ndarray) -> Coded:
        code = np.array([labels.index(name) for name in relation.labels], dtype=np.int32)
        keys = edge_keys(
            rank[relation.pre], code[relation.label], rank[relation.post],
            len(states), len(labels),
        )
        return Coded(distinct(keys), states, len(labels))

    rank = rank.astype(np.int32)
    split = len(derived.rows)
    return side(derived, rank[:split]), side(required, rank[split:])
