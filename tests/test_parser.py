from __future__ import annotations

import pytest

from bqual.bmachine import (
    And,
    AnyChoice,
    BinaryExpr,
    Comparison,
    IntLit,
    Not,
    Or,
    Precondition,
    RangeMembership,
    Select,
    Sequence,
    Skip,
)
from bqual.lexer import LexError
from bqual.parser import ParseError, parse_machine, parse_predicate

from conftest import CORPUS, corpus_source, machine_to_source
from oracle import operation_names

ALL_MACHINES = ["CM1.mch", "CM2.mch", "CM3.mch", "CM4.mch", "CM5.mch", "CM6.mch"]


@pytest.mark.parametrize("name", ALL_MACHINES)
def test_corpus_parses(name):
    machine = parse_machine(corpus_source(name))
    assert machine.variables == ("hour", "minute")


@pytest.mark.parametrize("name", ALL_MACHINES)
def test_pretty_print_round_trip(name):
    machine = parse_machine(corpus_source(name))
    assert parse_machine(machine_to_source(machine)) == machine


def test_cm1_shape(cm1_machine):
    assert cm1_machine.name == "CM1"
    assert operation_names(cm1_machine) == ("inc_minute", "inc_hour", "next_day")
    invariant = cm1_machine.invariant
    assert isinstance(invariant, And)
    assert isinstance(invariant.left, RangeMembership)
    assert isinstance(invariant.right, RangeMembership)


def test_cm5_select_branches(cm5_machine):
    name, body = cm5_machine.operations[0]
    assert name == "inc_minute"
    assert isinstance(body, Select)
    assert len(body.branches) == 2
    second_guard = body.branches[1][0]
    assert isinstance(second_guard, And)
    assert isinstance(second_guard.right, Not)


def test_cm6_any_operation(cm6_machine):
    name, body = cm6_machine.operations[3]
    assert name == "set_time"
    assert isinstance(body, AnyChoice)
    assert body.identifiers == ("hh", "mm")


def test_missing_initialisation_is_syntax_error():
    source = "MACHINE X VARIABLES x INVARIANT x : 0..1"
    with pytest.raises(ParseError, match="INITIALISATION"):
        parse_machine(source)


@pytest.mark.parametrize("path", sorted((CORPUS / "malformed").glob("*.mch")))
def test_malformed_corpus_yields_located_errors(path):
    with pytest.raises((ParseError, LexError)) as err:
        parse_machine(path.read_text(encoding="utf-8"))
    assert err.value.line >= 1


class TestNameValidation:
    def test_undeclared_variable_in_invariant(self):
        source = "MACHINE M VARIABLES x INVARIANT y : 0..1 INITIALISATION x := 0 OPERATIONS o = skip END"
        with pytest.raises(ParseError, match="undeclared identifier 'y'"):
            parse_machine(source)

    def test_undeclared_assignment_target(self):
        source = "MACHINE M VARIABLES x INVARIANT x : 0..1 INITIALISATION y := 0 OPERATIONS o = skip END"
        with pytest.raises(ParseError, match="undeclared variable 'y'"):
            parse_machine(source)

    def test_duplicate_variable(self):
        source = "MACHINE M VARIABLES x, x INVARIANT x : 0..1 INITIALISATION x := 0 OPERATIONS o = skip END"
        with pytest.raises(ParseError, match="duplicate variable"):
            parse_machine(source)

    def test_duplicate_operation(self):
        source = (
            "MACHINE M VARIABLES x INVARIANT x : 0..1 INITIALISATION x := 0 "
            "OPERATIONS o = skip; o = skip END"
        )
        with pytest.raises(ParseError, match="duplicate operation"):
            parse_machine(source)

    def test_bound_identifier_cannot_shadow(self):
        source = (
            "MACHINE M VARIABLES x INVARIANT x : 0..1 INITIALISATION x := 0 "
            "OPERATIONS o = ANY x WHERE x : 0..1 THEN skip END END"
        )
        with pytest.raises(ParseError, match="shadows"):
            parse_machine(source)

    def test_cannot_assign_bound_identifier(self):
        source = (
            "MACHINE M VARIABLES x INVARIANT x : 0..1 INITIALISATION x := 0 "
            "OPERATIONS o = ANY v WHERE v : 0..1 THEN v := 1 END END"
        )
        with pytest.raises(ParseError, match="bound identifier"):
            parse_machine(source)

    def test_variable_element_collision(self):
        source = (
            "MACHINE M SETS C = {red} VARIABLES red INVARIANT red : 0..1 "
            "INITIALISATION red := 0 OPERATIONS o = skip END"
        )
        with pytest.raises(ParseError, match="collides"):
            parse_machine(source)


class TestSets:
    SOURCE = (
        "MACHINE Gate SETS COLOR = {red, green}; MODE = {manual, auto} "
        "VARIABLES light, open INVARIANT light : COLOR & open : BOOL "
        "INITIALISATION light := red; open := FALSE "
        "OPERATIONS flip = SELECT light = red THEN light := green; open := TRUE END END"
    )

    def test_sets_parsed(self):
        machine = parse_machine(self.SOURCE)
        assert machine.sets == (("COLOR", ("red", "green")), ("MODE", ("manual", "auto")))
        assert machine.element_sets["green"] == "COLOR"

    def test_round_trip(self):
        machine = parse_machine(self.SOURCE)
        assert parse_machine(machine_to_source(machine)) == machine

    def test_duplicate_element_across_sets(self):
        source = self.SOURCE.replace("{manual, auto}", "{red, auto}")
        with pytest.raises(ParseError, match="duplicate enumerated element"):
            parse_machine(source)


class TestPrecedence:
    def test_and_binds_tighter_than_or(self, cm1_machine):
        pred = parse_predicate("hour = 1 & minute = 2 or hour = 3", cm1_machine)
        assert isinstance(pred, Or)
        assert isinstance(pred.left, And)

    def test_multiplication_binds_tighter(self, cm1_machine):
        pred = parse_predicate("hour + 2 * 3 = 7", cm1_machine)
        left = pred.left
        assert isinstance(left, BinaryExpr) and left.op == "+"
        assert isinstance(left.right, BinaryExpr) and left.right.op == "*"

    def test_parenthesized_expression_subject(self, cm1_machine):
        pred = parse_predicate("(hour + minute) * 2 = 4", cm1_machine)
        assert isinstance(pred, Comparison)
        assert isinstance(pred.left, BinaryExpr) and pred.left.op == "*"

    def test_parenthesized_predicate(self, cm1_machine):
        pred = parse_predicate("(hour = 1 or hour = 2) & minute = 0", cm1_machine)
        assert isinstance(pred, And)
        assert isinstance(pred.left, Or)

    def test_negative_literal(self, cm1_machine):
        pred = parse_predicate("hour > -2", cm1_machine)
        assert pred.right == IntLit(-2)


class TestParallel:
    BASE = (
        "MACHINE M VARIABLES x, y INVARIANT x : 0..1 & y : 0..1 "
        "INITIALISATION x := 0; y := 0 OPERATIONS o = {body} END"
    )

    @pytest.mark.parametrize(
        "body",
        ["x := 1 || y := 1", "PRE x = 0 THEN y := 1 END || x := 0"],
        ids=["plain", "pre"],
    )
    def test_disjoint_parallel_accepted(self, body):
        machine = parse_machine(self.BASE.format(body=body))
        body = machine.operations[0][1]
        assert isinstance(body, Sequence)
        assert len(body.steps) == 2

    # The clash hidden under each substitution that nests another.
    @pytest.mark.parametrize(
        "body",
        [
            "x := 1 || x := 0",
            "PRE x = 0 THEN x := 1 END || x := 0",
            "SELECT x = 0 THEN y := 1 WHEN x = 1 THEN x := 1 END || x := 0",
            "ANY v WHERE v : 0..1 THEN x := v END || x := 0",
            "PRE x = 0 THEN y := 1; x := 1 END || x := 0",
        ],
        ids=["plain", "pre", "select", "any", "sequence"],
    )
    def test_overlapping_parallel_rejected(self, body):
        with pytest.raises(ParseError, match="parallel branches both assign 'x'"):
            parse_machine(self.BASE.format(body=body))


def test_substitution_sequence_vs_next_operation():
    source = (
        "MACHINE M VARIABLES x, y INVARIANT x : 0..3 & y : 0..3 "
        "INITIALISATION x := 0; y := 0 "
        "OPERATIONS first = x := 1; y := 2; second = PRE x = 1 THEN x := 2 END END"
    )
    machine = parse_machine(source)
    assert operation_names(machine) == ("first", "second")
    first_body = machine.operations[0][1]
    assert isinstance(first_body, Sequence) and len(first_body.steps) == 2
    assert isinstance(machine.operations[1][1], Precondition)


def test_skip_parses():
    source = (
        "MACHINE M VARIABLES x INVARIANT x : 0..1 INITIALISATION x := 0 "
        "OPERATIONS hold = skip END"
    )
    assert isinstance(parse_machine(source).operations[0][1], Skip)


def test_goal_parser_rejects_trailing_tokens(cm1_machine):
    with pytest.raises(ParseError):
        parse_predicate("hour = 1 extra", cm1_machine)


def test_error_carries_expected_set():
    with pytest.raises(ParseError) as err:
        parse_machine("MACHINE M VARIABLES x INVARIANT x 0..1 INITIALISATION x := 0 OPERATIONS o = skip END")
    assert err.value.expected
