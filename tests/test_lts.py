from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import bqual.lts

from bqual.lts import (
    KIND_INT,
    Relation,
    StructureError,
    Transition,
    Value,
    boolval,
    enumval,
    intval,
    read_transitions_jsonl,
    relation_of,
    state_row,
    state_text,
    transition_values,
    write_transitions_jsonl,
)

from conftest import sorted_transitions, transition_to_json
from oracle import (
    StatePair,
    flatten_pair,
    flatten_transition,
    labels_of,
    pair_of,
    pairs_of,
    set_size,
)

ORDER = ("hour", "minute")


def clock_state(hour, minute):
    return (intval(hour), intval(minute))


def clock_transition(pre, label, post):
    return Transition(clock_state(*pre), label, clock_state(*post))


class TestValue:
    def test_kinds_never_equal(self):
        assert intval(1) != boolval(True)
        assert intval(0) != boolval(False)
        assert intval(0) != enumval("S", "a")
        assert boolval(True) != enumval("BOOL", "TRUE")

    def test_structural_equality(self):
        assert intval(5) == intval(5)
        assert enumval("S", "a") == enumval("S", "a")
        assert enumval("S", "a") != enumval("T", "a")

    def test_sort_keys_totally_ordered(self):
        values = [intval(3), intval(-1), boolval(True), boolval(False), enumval("S", "a")]
        ordered = sorted(values)
        assert sorted(ordered) == ordered
        assert sorted(reversed(ordered)) == ordered

    def test_documented_value_order(self):
        # docs/formats.md: bool < enum < int; FALSE < TRUE; integers
        # numerically; elements by (set name, element name).
        expected = [
            boolval(False),
            boolval(True),
            enumval("S", "b"),
            enumval("T", "a"),
            enumval("T", "c"),
            intval(-1),
            intval(3),
        ]
        shuffled = [expected[i] for i in (5, 3, 0, 6, 2, 4, 1)]
        assert sorted(shuffled) == expected

    def test_kinds_stay_apart_in_sets(self):
        # 1 == True in Python; as values, and as rows, they stay two.
        assert len({intval(1), boolval(True)}) == 2
        assert len({(intval(1),), (boolval(True),)}) == 2
        assert len({intval(0), boolval(False)}) == 2

    def test_uninterned_value_equals_interned(self):
        fresh = Value(KIND_INT, 5)
        assert fresh is not intval(5)
        assert fresh == intval(5)
        assert hash(fresh) == hash(intval(5))
        assert {fresh: "x"}[intval(5)] == "x"


class TestFlatten:
    def test_clock_transition_layout(self):
        t = clock_transition((1, 59), "inc_hour", (2, 1))
        assert flatten_transition(t, ORDER) == (
            intval(1),
            intval(59),
            "inc_hour",
            intval(2),
            intval(1),
        )

    def test_self_loop(self):
        t = clock_transition((0, 0), "next_day", (0, 0))
        flat = flatten_transition(t, ORDER)
        assert flat == (intval(0), intval(0), "next_day", intval(0), intval(0))

    def test_single_variable(self):
        t = Transition((intval(5),), "op", (intval(6),))
        assert flatten_transition(t, ("x",)) == (intval(5), "op", intval(6))

    def test_pair_layout(self):
        p = StatePair(clock_state(2, 59), clock_state(3, 1))
        assert flatten_pair(p, ORDER) == (intval(2), intval(59), intval(3), intval(1))

    def test_pair_identity(self):
        p = StatePair(clock_state(0, 0), clock_state(0, 0))
        assert flatten_pair(p, ORDER) == (intval(0),) * 4

    def test_single_variable_pair(self):
        p = StatePair((intval(7),), (intval(8),))
        assert flatten_pair(p, ("x",)) == (intval(7), intval(8))

    def test_variable_mismatch_names_variable(self):
        # A row carries no names: only a variable without a value is found.
        t = clock_transition((0, 0), "op", (0, 1))
        with pytest.raises(StructureError, match="missing variable 'second'"):
            flatten_transition(t, ("hour", "minute", "second"))


class TestSetSize:
    def test_empty(self):
        assert set_size(frozenset(), ORDER) == 0

    def test_uniform_formula(self):
        transitions = {clock_transition((0, m), "inc_minute", (0, m + 1)) for m in range(10)}
        assert set_size(transitions, ORDER) == 5 * 10
        assert set_size(pairs_of(transitions), ORDER) == 4 * 10

    def test_variable_mismatch_raises(self):
        transitions = {clock_transition((0, 0), "inc_minute", (0, 1))}
        with pytest.raises(StructureError, match="second"):
            set_size(transitions, ("hour", "minute", "second"))
        with pytest.raises(StructureError, match="2 values for 1 variables"):
            set_size(pairs_of(transitions), ("hour",))


class TestProjections:
    def test_pairs_collapse_labels(self):
        t1 = clock_transition((0, 0), "inc_minute", (0, 1))
        t2 = clock_transition((0, 0), "set_time", (0, 1))
        assert pairs_of({t1, t2}) == {StatePair(clock_state(0, 0), clock_state(0, 1))}

    def test_pairs_of_empty(self):
        assert pairs_of(frozenset()) == frozenset()

    def test_labels_of_empty(self):
        assert labels_of(frozenset()) == frozenset()

    def test_labels_of(self):
        transitions = {
            clock_transition((0, 0), "inc_minute", (0, 1)),
            clock_transition((0, 59), "inc_hour", (1, 0)),
        }
        assert labels_of(transitions) == {"inc_minute", "inc_hour"}


class TestStateInvariants:
    def test_missing_variable_rejected(self):
        with pytest.raises(StructureError, match="missing variable 'minute'"):
            state_row({"hour": 0}, ORDER)

    def test_mismatched_transition_rejected(self):
        t = Transition((intval(0),), "op", (intval(0), intval(1)))
        with pytest.raises(StructureError, match=r"state \(0,1\) has 2 values for 1 variables"):
            relation_of({t}, ("a",))

    def test_state_equality_is_per_binding(self):
        # Values compare by kind and payload, not by identity.
        assert clock_state(1, 2) == (Value(KIND_INT, 1), Value(KIND_INT, 2))
        assert clock_state(1, 2) != clock_state(2, 1)

    def test_state_and_transition_text(self):
        state = (enumval("COLOR", "red"), boolval(True), intval(-3))
        assert state_text(state) == "(red,TRUE,-3)"
        assert repr(Transition(state, "op", state)) == "[(red,TRUE,-3),op,(red,TRUE,-3)]"

    def test_transition_is_its_triple(self):
        pre, post = clock_state(5, 29), clock_state(5, 30)
        t = Transition(pre, "inc_minute", post)
        assert t == (pre, "inc_minute", post)
        assert hash(t) == hash((pre, "inc_minute", post))
        assert {t} == {(pre, "inc_minute", post)}


class TestJson:
    def test_canonical_object(self):
        rows = [(intval(1), intval(59)), (intval(2), intval(0))]
        relation = Relation(ORDER, rows, ("inc_hour",), *(np.array([i]) for i in (0, 0, 1)))
        buffer = io.StringIO()
        write_transitions_jsonl(relation, buffer)
        assert json.loads(buffer.getvalue()) == {
            "pre": {"hour": 1, "minute": 59},
            "op": "inc_hour",
            "post": {"hour": 2, "minute": 0},
        }

    def test_round_trip_with_enum_and_bool(self):
        order = ("light", "open")
        pre = (enumval("COLOR", "red"), boolval(False))
        post = (enumval("COLOR", "green"), boolval(True))
        t = Transition(pre, "switch", post)
        encoded = transition_to_json(t, order)
        assert encoded["pre"] == {"light": "red", "open": False}
        decoded = transition_values(encoded, order, {"red": "COLOR", "green": "COLOR"})
        assert decoded == (pre, "switch", post)

    def test_unknown_element_rejected(self):
        obj = {"pre": {"x": "blue"}, "op": "op", "post": {"x": "blue"}}
        with pytest.raises(StructureError, match="blue"):
            transition_values(obj, ("x",), {"red": "COLOR"})

    def test_jsonl_round_trip_sorted(self):
        transitions = {
            clock_transition((0, 1), "a", (0, 2)),
            clock_transition((0, 0), "a", (0, 1)),
        }
        # States and transitions out of canonical order: the writer sorts.
        rows = [(intval(0), intval(1)), (intval(0), intval(2)), (intval(0), intval(0))]
        pre, label, post = np.array([0, 2]), np.array([0, 0]), np.array([1, 0])
        relation = Relation(ORDER, rows, ("a",), pre, label, post)
        assert relation.transitions == frozenset(transitions)
        buffer = io.StringIO()
        assert write_transitions_jsonl(relation, buffer) == 2
        lines = buffer.getvalue().splitlines()
        assert json.loads(lines[0])["pre"] == {"hour": 0, "minute": 0}
        assert lines == [
            json.dumps(transition_to_json(t, ORDER), separators=(", ", ": "))
            for t in sorted_transitions(transitions)
        ]
        buffer.seek(0)
        assert read_transitions_jsonl(buffer, ORDER).transitions == frozenset(transitions)

    def test_jsonl_bad_line_reports_position(self):
        with pytest.raises(StructureError, match="line 1"):
            read_transitions_jsonl(io.StringIO("{nope}\n"), ORDER)


GOOD = '{"pre": {"hour": 0, "minute": 0}, "op": "a", "post": {"hour": 0, "minute": 1}}'


def read_lines(*lines):
    return read_transitions_jsonl(io.StringIO("\n".join(lines) + "\n"), ORDER)


class TestReadTransitions:
    @pytest.mark.parametrize("first, second", [("1", "true"), ("true", "1")])
    def test_true_is_not_one(self, first, second):
        line = '{"pre": {"hour": %s, "minute": 0}, "op": "a", "post": {"hour": 1, "minute": 1}}'
        relation = read_lines(line % first, line % second)
        assert len(relation) == 2
        post = clock_state(1, 1)
        assert relation.transitions == {
            ((intval(1), intval(0)), "a", post),
            ((boolval(True), intval(0)), "a", post),
        }

    def test_duplicate_line_collapses(self):
        relation = read_lines(GOOD, GOOD)
        assert len(relation) == 1
        assert len(relation.rows) == 2

    def test_key_order_is_free(self):
        permuted = '{"post": {"minute": 1, "hour": 0}, "op": "a", "pre": {"minute": 0, "hour": 0}}'
        relation = read_lines(GOOD, permuted)
        assert len(relation) == 1
        assert relation.transitions == {clock_transition((0, 0), "a", (0, 1))}

    def test_blank_lines_ignored(self):
        other = GOOD.replace('"a"', '"b"')
        relation = read_lines("", GOOD, "   ", "", other, "\t")
        assert len(relation) == 2
        assert relation.operations == {"a", "b"}

    def test_blocks_share_states_and_number_lines(self, monkeypatch):
        monkeypatch.setattr(bqual.lts, "_BLOCK", 2)
        other = GOOD.replace('"a"', '"b"')
        later = other.replace('"minute": 1', '"minute": 2')
        relation = read_lines(GOOD, other, "", GOOD, later)
        assert (len(relation), len(relation.rows)) == (3, 3)
        assert relation.labels == ("a", "b")
        with pytest.raises(StructureError, match="^line 5: invalid JSON"):
            read_lines(GOOD, other, "", GOOD, "{nope}")

    def test_transitions_are_the_decoded_triples(self):
        # Permuted keys, a duplicate line and a true-versus-1 pair: the
        # relation's transitions are the set of each line's decoded triple.
        lines = [
            GOOD,
            '{"post": {"minute": 1, "hour": 0}, "op": "a", "pre": {"minute": 0, "hour": 0}}',
            GOOD,
            GOOD.replace('"hour": 0, "minute": 1', '"hour": true, "minute": 1'),
            GOOD.replace('"hour": 0, "minute": 1', '"hour": 1, "minute": 1'),
        ]
        relation = read_lines(*lines)
        decoded = {transition_values(json.loads(line), ORDER) for line in lines}
        assert len(decoded) == len(relation) == 3
        assert relation.transitions == decoded

    def test_labels_in_code_point_order(self):
        relation = read_lines(GOOD.replace('"a"', '"b"'), GOOD.replace('"a"', '"B"'), GOOD)
        assert relation.labels == ("B", "a", "b")
        assert sorted(t.label for t in relation.transitions) == ["B", "a", "b"]

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("{nope}", "invalid JSON"),
            ("1", "transition must be a JSON object, not int"),
            ("[]", "transition must be a JSON object, not list"),
            ('{"op": "a", "post": {"hour": 0, "minute": 1}}', "missing 'pre'"),
            (GOOD.replace('"op": "a"', '"op": 3'), "'op' must be a string"),
            (GOOD.replace('"post": {"hour": 0, "minute": 1}', '"post": 5'),
             "transition 'post' must be a JSON object, not int"),
            (GOOD.replace('"pre": {"hour": 0, "minute": 0}', '"pre": [0, 0]'),
             "transition 'pre' must be a JSON object, not list"),
            (GOOD.replace('"minute": 0', '"second": 0'), "undeclared variable 'second'"),
            (GOOD.replace(', "minute": 0', ""), "missing variable 'minute'"),
            # 0.0 == 0, but a decoded state is never reused for another type.
            (GOOD.replace('"hour": 0, "minute": 0', '"hour": 0.0, "minute": 0'),
             "cannot decode value of type float"),
            (GOOD.replace('"hour": 0, "minute": 1', '"hour": "red", "minute": 1'),
             "unknown enumerated element 'red'"),
        ],
    )
    def test_errors_name_the_line(self, bad, message):
        with pytest.raises(StructureError) as info:
            read_lines(GOOD, "", bad, GOOD)
        assert str(info.value).startswith("line 3: ")
        assert message in str(info.value)


values = st.integers(min_value=-3, max_value=3).map(intval)
labels = st.sampled_from(["a", "b", "c"])


@st.composite
def transitions_st(draw, max_size=6):
    out = set()
    for _ in range(draw(st.integers(min_value=0, max_value=max_size))):
        pre = (draw(values), draw(values))
        post = (draw(values), draw(values))
        out.add(Transition(pre, draw(labels), post))
    return frozenset(out)


@given(transitions_st())
def test_flatten_lengths(transitions):
    for t in transitions:
        assert len(flatten_transition(t, ORDER)) == 2 * len(ORDER) + 1
        assert len(flatten_pair(pair_of(t), ORDER)) == 2 * len(ORDER)


@given(transitions_st())
def test_pairs_never_grow(transitions):
    assert len(pairs_of(transitions)) <= len(transitions)


@given(transitions_st(), transitions_st())
def test_labels_of_union_homomorphic(t1, t2):
    assert labels_of(t1 | t2) == labels_of(t1) | labels_of(t2)


@given(transitions_st())
def test_set_size_matches_uniform_formula(transitions):
    assert set_size(transitions, ORDER) == (2 * len(ORDER) + 1) * len(transitions)
