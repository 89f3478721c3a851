from __future__ import annotations

import io
import itertools
import json
from collections import Counter
from operator import attrgetter

import pytest

from bqual import codegen
from bqual.bmachine import BoundRef, Comparison, IntLit, Not, Or, TruePredicate, VarRef
from bqual.explorer import (
    DomainError,
    EvalTypeError,
    InitialisationError,
    IntRangeDomain,
    ListedDomain,
    UnboundVariableError,
    check_goal,
    explore,
    infer_domains,
    write_result,
)
from bqual.lts import Transition, boolval, enumval, intval
from bqual.mutation import MutationError
from bqual.parser import parse_machine, parse_predicate

from conftest import (
    enumerate_substitution,
    explored,
    independent_explore,
    object_plan,
    sorted_transitions,
)
from oracle import compile_predicate, initial_states, value_of


def state_of(machine, **values):
    return tuple(intval(values[v]) for v in machine.variables)


class TestInferDomains:
    def test_clock_domains(self, cm1_machine):
        domains = infer_domains(cm1_machine)
        assert domains == {
            "hour": IntRangeDomain(0, 23),
            "minute": IntRangeDomain(0, 59),
        }

    def test_singleton_domain(self):
        machine = parse_machine(
            "MACHINE M VARIABLES x INVARIANT x : 0..0 INITIALISATION x := 0 "
            "OPERATIONS o = skip END"
        )
        assert infer_domains(machine) == {"x": IntRangeDomain(0, 0)}

    def test_no_membership_conjunct(self):
        machine = parse_machine(
            "MACHINE M VARIABLES x INVARIANT x < 5 INITIALISATION x := 0 "
            "OPERATIONS o = skip END"
        )
        with pytest.raises(DomainError, match="membership"):
            infer_domains(machine)

    def test_enum_and_bool_domains(self):
        machine = parse_machine(
            "MACHINE M SETS C = {red, green} VARIABLES light, open "
            "INVARIANT light : C & open : BOOL "
            "INITIALISATION light := red; open := FALSE OPERATIONS o = skip END"
        )
        assert infer_domains(machine) == {
            "light": ListedDomain((enumval("C", "red"), enumval("C", "green"))),
            "open": ListedDomain((boolval(False), boolval(True))),
        }

    def test_empty_range_rejected(self):
        machine = parse_machine(
            "MACHINE M VARIABLES x INVARIANT x : 5..2 INITIALISATION x := 0 "
            "OPERATIONS o = skip END"
        )
        with pytest.raises(DomainError, match="empty"):
            infer_domains(machine)

    def test_variable_bounds_must_be_literals(self):
        machine = parse_machine(
            "MACHINE M VARIABLES x INVARIANT x : 0..(1 + 1) INITIALISATION x := 0 "
            "OPERATIONS o = skip END"
        )
        with pytest.raises(DomainError, match="bounds for 'x' must be integer literals"):
            infer_domains(machine)

    def test_any_bounds_must_be_literals(self):
        machine = parse_machine(
            "MACHINE M VARIABLES x INVARIANT x : 0..3 INITIALISATION x := 0 "
            "OPERATIONS jump = ANY b WHERE b : 0..(x + 1) THEN x := b END END"
        )
        with pytest.raises(DomainError, match="bounds for 'b' must be integer literals"):
            explore(machine)


class TestEnumerateSubstitution:
    def test_inc_minute_at_origin(self, cm1_machine):
        body = dict(cm1_machine.operations)["inc_minute"]
        posts = enumerate_substitution(
            body, state_of(cm1_machine, hour=0, minute=0), machine=cm1_machine
        )
        assert posts == {state_of(cm1_machine, hour=0, minute=1)}

    def test_unsatisfied_guard_is_empty(self, cm1_machine):
        body = dict(cm1_machine.operations)["inc_hour"]
        posts = enumerate_substitution(
            body, state_of(cm1_machine, hour=0, minute=0), machine=cm1_machine
        )
        assert posts == set()

    def test_any_reaches_full_grid(self, cm6_machine):
        body = dict(cm6_machine.operations)["set_time"]
        posts = enumerate_substitution(
            body, state_of(cm6_machine, hour=7, minute=30), machine=cm6_machine
        )
        assert len(posts) == 24 * 60
        assert state_of(cm6_machine, hour=0, minute=0) in posts
        assert state_of(cm6_machine, hour=23, minute=59) in posts

    def test_select_unions_satisfied_branches(self, cm5_machine):
        body = dict(cm5_machine.operations)["inc_minute"]
        posts = enumerate_substitution(
            body, state_of(cm5_machine, hour=3, minute=0), machine=cm5_machine
        )
        assert posts == {
            state_of(cm5_machine, hour=6, minute=0),
            state_of(cm5_machine, hour=3, minute=1),
        }


class TestExploreClocks:
    def test_cm1_counts(self, cm1_result):
        assert len(cm1_result.states) == 1440
        assert len(cm1_result.transitions) == 1440
        assert cm1_result.violating == frozenset()
        assert cm1_result.deadlock_states == frozenset()
        assert not cm1_result.truncated

    def test_cm2_counts(self, cm2_result):
        assert len(cm2_result.transitions) == 1417

    def test_cm3_counts(self, cm3_result):
        assert len(cm3_result.transitions) == 1440

    def test_cm4_counts(self, cm4_result, cm4_machine):
        assert len(cm4_result.transitions) == 1465
        assert len(cm4_result.violating) == 25
        overflowing_minutes = {
            t for t in cm4_result.violating if value_of(cm4_result, t.post, "minute") == intval(60)
        }
        overflowing_hours = {
            t for t in cm4_result.violating if value_of(cm4_result, t.post, "hour") == intval(24)
        }
        assert len(overflowing_minutes) == 24
        assert len(overflowing_hours) == 1

    def test_cm5_counts(self, cm5_result):
        assert len(cm5_result.transitions) == 1410
        assert len(cm5_result.violating) == 1

    def test_cm6_counts(self, cm6_result):
        assert len(cm6_result.states) == 1440
        assert len(cm6_result.transitions) == 1440 + 1440 * 1440
        assert cm6_result.violating == frozenset()

    @pytest.mark.parametrize("name", ["cm1", "cm2", "cm3", "cm4", "cm5", "cm6"])
    def test_all_clocks_complete_within_default_limits(self, request, name):
        assert not request.getfixturevalue(f"{name}_result").truncated

    def test_initial_states_included(self, cm1_result):
        assert initial_states(cm1_result) <= cm1_result.states
        for t in itertools.islice(cm1_result.transitions, 50):
            assert t.pre in cm1_result.states
            assert t.post in cm1_result.states


class TestEdges:
    """A plan file's transitions map to the exploration's edge ids
    (``plan_from_json``); the first that is not derived is named."""

    def test_derived_transitions_map_to_their_ids(self, cm1_result):
        ids = [0, 7, 1439]
        wanted = [cm1_result.edge_objects[i] for i in ids]
        plan = object_plan(cm1_result, missing=wanted)
        assert sorted(plan.missing.tolist()) == ids
        assert [cm1_result.edge_objects[i] for i in plan.missing] == sorted_transitions(wanted)

    def test_a_transition_between_derived_states_is_not_derived(self, cm1_result):
        s, labels = cm1_result.rows, cm1_result.labels
        stray = Transition(s[0], labels[0], s[5])
        assert stray not in cm1_result.transitions
        message = r"^missing transition \[\(0,0\),inc_hour,\(0,5\)\] is not derived$"
        with pytest.raises(MutationError, match=message):
            object_plan(cm1_result, missing=[cm1_result.edge_objects[3], stray])

    def test_a_transition_past_the_last_key_is_not_derived(self, cm1_result):
        last = (intval(23), intval(59))
        message = r"\[\(23,59\),next_day,\(23,59\)\] is not derived"
        with pytest.raises(MutationError, match=message):
            object_plan(cm1_result, missing=[Transition(last, "next_day", last)])

    def test_unreached_states_and_undeclared_operations_are_not_derived(self, cm4_result):
        def clock(h, m):
            return (intval(h), intval(m))

        unreached = Transition(clock(0, 60), "inc_minute", clock(0, 61))
        with pytest.raises(MutationError, match="is not derived"):
            object_plan(cm4_result, missing=[unreached])
        # An undeclared operation is named before any edge is looked up.
        undeclared = Transition(clock(0, 0), "tick", clock(0, 1))
        with pytest.raises(MutationError, match="names an undeclared operation 'tick'"):
            object_plan(cm4_result, missing=[undeclared])


class TestSmallDomainAny:
    """Closed-form transition count for a shrunken grid with a jump-anywhere
    operation: base chain plus states-squared."""

    SOURCE = (
        "MACHINE Mini VARIABLES h, m INVARIANT h : 0..1 & m : 0..2 "
        "INITIALISATION h := 0; m := 0 OPERATIONS "
        "tick = PRE m < 2 THEN m := m + 1 END; "
        "carry = PRE m = 2 & h < 1 THEN m := 0; h := h + 1 END; "
        "wrap = PRE m = 2 & h = 1 THEN m := 0; h := 0 END; "
        "jump = ANY a, b WHERE a : 0..1 & b : 0..2 THEN h := a; m := b END END"
    )

    def test_counts_match_closed_form(self):
        result = explore(parse_machine(self.SOURCE), meter_memory=False)
        n = 2 * 3
        assert len(result.states) == n
        assert len(result.transitions) == n + n * n

    def test_brute_force_completeness(self):
        machine = parse_machine(self.SOURCE)
        result = explore(machine, meter_memory=False)
        invariant = compile_predicate(parse_predicate("h : 0..1 & m : 0..2", machine))
        grid = [(intval(h), intval(m)) for h in range(2) for m in range(3)]
        assert result.states == frozenset(grid)
        for state in grid:
            assert result.holds(state) == invariant(dict(zip(("h", "m"), state)))
            for name, body in machine.operations:
                for post in enumerate_substitution(body, state, machine=machine):
                    assert Transition(state, name, post) in result.transitions

    def test_soundness_by_re_enumeration(self):
        machine = parse_machine(self.SOURCE)
        result = explore(machine, meter_memory=False)
        bodies = dict(machine.operations)
        for t in result.transitions:
            posts = enumerate_substitution(bodies[t.label], t.pre, machine=machine)
            assert t.post in posts


class TestEnumBoolMachine:
    SOURCE = (
        "MACHINE Gate SETS COLOR = {red, green} VARIABLES light, open "
        "INVARIANT light : COLOR & open : BOOL "
        "INITIALISATION light := red; open := FALSE OPERATIONS "
        "turn_green = SELECT light = red THEN light := green; open := TRUE END; "
        "reset = light := red; open := FALSE END"
    )

    def test_counts(self):
        result = explore(parse_machine(self.SOURCE), meter_memory=False)
        assert len(result.states) == 2
        assert len(result.transitions) == 3
        assert result.violating == frozenset()

    def test_states_carry_enum_and_bool_values(self):
        result = explore(parse_machine(self.SOURCE), meter_memory=False)
        expected = (enumval("COLOR", "green"), boolval(True))
        assert expected in result.states


class TestCompiledPathEquivalence:
    """Each step of an assignment sequence reads the writes before it,
    whatever else the sequence holds, and an ANY whose WHERE reads only its
    bound identifiers yields what one whose WHERE also reads the state
    does."""

    def test_fused_sequence_matches_skip_interleaved(self, cm1_machine):
        import random

        from bqual.bmachine import Assign, BinaryExpr, IntLit, Sequence, Skip, VarRef

        rng = random.Random(3)
        for _ in range(50):
            # hour := minute + k; minute := hour * j  (second read sees the
            # first write under sequence semantics)
            first = Assign(
                "hour", BinaryExpr("+", VarRef("minute"), IntLit(rng.randint(0, 5)))
            )
            second = Assign(
                "minute", BinaryExpr("*", VarRef("hour"), IntLit(rng.randint(0, 3)))
            )
            fused = Sequence((first, second))
            generic = Sequence((first, Skip(), second))
            state = (intval(rng.randint(0, 9)), intval(rng.randint(0, 9)))
            assert enumerate_substitution(
                fused, state, machine=cm1_machine
            ) == enumerate_substitution(generic, state, machine=cm1_machine)

    def test_any_prefilter_matches_general_path(self, cm6_machine):
        prefiltered_body = dict(cm6_machine.operations)["set_time"]
        general = parse_machine(
            "MACHINE CM6b VARIABLES hour, minute "
            "INVARIANT hour : 0..23 & minute : 0..59 "
            "INITIALISATION hour := 0; minute := 0 OPERATIONS "
            "set_time = ANY hh, mm WHERE hh : 0..23 & mm : 0..59 & hour >= 0 "
            "THEN hour := hh; minute := mm END END"
        )
        general_body = dict(general.operations)["set_time"]
        state = (intval(4), intval(11))
        assert enumerate_substitution(
            prefiltered_body, state, machine=cm6_machine
        ) == enumerate_substitution(general_body, state, machine=general)


class TestLazyWhere:
    """An ANY's WHERE is evaluated when a reached state runs the operation,
    like every guard and body, so a WHERE that cannot be evaluated raises
    only if some reached state runs it."""

    SOURCE = (
        "MACHINE M VARIABLES x INVARIANT x : 0..1 INITIALISATION x := 0 "
        "OPERATIONS o = PRE x = {} THEN ANY a WHERE a : 0..1 & a + TRUE = 1 "
        "THEN x := a END END END"
    )

    def test_where_no_reached_state_runs_is_never_evaluated(self):
        result = explore(parse_machine(self.SOURCE.format(1)), meter_memory=False)
        summary = result.summary
        assert (summary["states"], summary["transitions"]) == (1, 0)
        assert summary["deadlock_states"] == 1

    def test_where_a_reached_state_runs_raises(self):
        with pytest.raises(EvalTypeError, match="needs integers"):
            explore(parse_machine(self.SOURCE.format(0)), meter_memory=False)


def assert_explores_as_oracle(machine):
    """``explore`` and the reference interpreter's walk agree; returns what
    they give."""
    got, _ = explored(lambda: explore(machine, meter_memory=False), initial_states)
    want, _ = explored(lambda: independent_explore(machine), attrgetter("initial_states"))
    assert got == want
    return got


class TestErrorsMatchOracle:
    """An ill-typed machine raises the reference interpreter's error, class
    and message, at the same first reached state."""

    HEAD = "MACHINE M SETS C = {red} VARIABLES x, c INVARIANT x : 0..3 & c : C "
    INIT = "INITIALISATION x := 0; c := red "
    CASES = {
        "arithmetic on a boolean": (
            INIT + "OPERATIONS up = PRE x < 3 THEN x := x + 1 END; "
            "bad = PRE x = 2 THEN x := x * TRUE END END",
            EvalTypeError, "arithmetic '*' needs integers, got int and bool",
        ),
        "= between kinds": (
            INIT + "OPERATIONS up = PRE x < 3 THEN x := x + 1 END; "
            "bad = PRE x = 1 & c = 1 THEN skip END END",
            EvalTypeError, "cannot compare enum with int",
        ),
        "< between kinds": (
            INIT + "OPERATIONS up = PRE x < 3 THEN x := x + 1 END; "
            "bad = PRE x > 1 & TRUE < x THEN skip END END",
            EvalTypeError, "ordering '<' needs integers, got bool and int",
        ),
        "a range bound that is not an integer": (
            INIT + "OPERATIONS up = PRE x < 3 THEN x := x + 1 END; "
            "bad = PRE x : 2..red THEN skip END END",
            EvalTypeError, "range membership needs integers",
        ),
        "a bad WHERE that is reached": (
            INIT + "OPERATIONS up = PRE x < 3 THEN x := x + 1 END; "
            "bad = ANY a WHERE a : 0..1 & (x = 0 or a + c = 1) THEN x := a END END",
            EvalTypeError, "arithmetic '+' needs integers, got int and enum",
        ),
        "a step on every result before the next step on any": (
            INIT + "OPERATIONS bad = SELECT x = 0 THEN x := 1 WHEN x = 0 THEN x := TRUE END; "
            "x := x + 1; c := x * red END",
            EvalTypeError, "arithmetic '+' needs integers, got bool and int",
        ),
        "a read before assignment in INITIALISATION": (
            "INITIALISATION x := 0; SELECT x = 0 THEN c := red WHEN c = red THEN skip END "
            "OPERATIONS o = skip END",
            UnboundVariableError, "variable 'c' read before assignment",
        ),
        "a missing assignment in INITIALISATION": (
            "INITIALISATION ANY v WHERE v : 0..1 THEN SELECT v = 0 THEN x := v; c := red "
            "WHEN v = 1 THEN skip END END OPERATIONS o = skip END",
            InitialisationError, "initialisation does not assign 'x'",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_same_class_and_message(self, case):
        rest, error, message = self.CASES[case]
        machine = parse_machine(self.HEAD + rest)
        assert assert_explores_as_oracle(machine) == (error, message)


class TestOddMachines:
    """Machines at the edges of the generated code explore as the reference
    interpreter does."""

    HEAD = "MACHINE M VARIABLES x INVARIANT x : 0..3 INITIALISATION x := 0 OPERATIONS "

    def test_900_way_or_guard(self):
        guard = " or ".join(f"x = {k}" for k in range(900))
        machine = parse_machine(self.HEAD + f"up = PRE {guard} THEN x := x + 1 END END")
        sets = assert_explores_as_oracle(machine)
        assert (len(sets[1]), len(sets[2])) == (5, 4)

    def test_250_deep_arithmetic_assignment(self):
        value = "x"
        for _ in range(250):
            value = f"(1 + {value})"
        machine = parse_machine(
            self.HEAD + f"up = PRE x < 3 THEN x := {value} - 249 END END"
        )
        sets = assert_explores_as_oracle(machine)
        assert (len(sets[1]), len(sets[2])) == (4, 3)

    def test_nesting_past_what_one_python_function_takes(self):
        # Python refuses 20 nested loops, 100 indentation levels and 200
        # parentheses in one function: the guard nests 221 parentheses and
        # the body 60 substitutions, 20 of them loops.
        guard = "x = 1"
        for _ in range(110):
            guard = f"(x = 3 or ({guard} & x >= 0))"
        body = "x := x + 1"
        for k in range(60):
            body = [
                f"PRE x < 3 THEN skip; {body} END",
                f"SELECT x = 9 THEN skip WHEN x >= 0 THEN {body} END",
                f"ANY a{k} WHERE a{k} : 0..0 THEN x := x + a{k}; {body} END",
            ][k % 3]
        machine = parse_machine(
            self.HEAD + f"deep = {body}; test = PRE {guard} THEN x := 0 END END"
        )
        sets = assert_explores_as_oracle(machine)
        assert (len(sets[1]), len(sets[2])) == (4, 5)

    def test_names_python_would_fold_stay_two_variables(self):
        # NFKC folds the ligature U+FB01 into "fi"; the B variables differ.
        machine = parse_machine(
            "MACHINE N VARIABLES \ufb01, fi INVARIANT \ufb01 : 0..1 & fi : 0..1 "
            "INITIALISATION \ufb01 := 0; fi := 1 "
            "OPERATIONS o = PRE \ufb01 = 0 THEN \ufb01 := 1 END END"
        )
        assert machine.variables == ("\ufb01", "fi")
        sets = assert_explores_as_oracle(machine)
        assert (len(sets[1]), len(sets[2])) == (2, 1)


class TestInitialisation:
    def test_unsatisfiable(self):
        source = (
            "MACHINE M VARIABLES x INVARIANT x : 0..1 "
            "INITIALISATION PRE 0 = 1 THEN x := 0 END OPERATIONS o = skip END"
        )
        with pytest.raises(InitialisationError, match="unsatisfiable"):
            explore(parse_machine(source), meter_memory=False)

    def test_partial_assignment(self):
        source = (
            "MACHINE M VARIABLES x, y INVARIANT x : 0..1 & y : 0..1 "
            "INITIALISATION x := 0 OPERATIONS o = skip END"
        )
        with pytest.raises(InitialisationError, match="'y'"):
            explore(parse_machine(source), meter_memory=False)

    def test_multiple_initial_states_via_any(self):
        source = (
            "MACHINE M VARIABLES x INVARIANT x : 0..3 "
            "INITIALISATION ANY v WHERE v : 0..3 THEN x := v END "
            "OPERATIONS o = skip END"
        )
        result = explore(parse_machine(source), meter_memory=False)
        assert len(initial_states(result)) == 4


class TestDeadlockClassification:
    SOURCE = (
        "MACHINE M VARIABLES x INVARIANT x : 0..5 INITIALISATION x := 0 "
        "OPERATIONS step = PRE x < 2 THEN x := x + 1 END END"
    )

    def test_transition_into_deadlock_is_violating(self):
        result = explore(parse_machine(self.SOURCE), meter_memory=False)
        assert len(result.transitions) == 2
        (dead,) = result.deadlock_states
        assert value_of(result, dead, "x") == intval(2)
        assert {t.post for t in result.violating} == {dead}
        assert len(result.violating) == 1


class TestTruncation:
    def test_max_states(self, cm1_machine):
        result = explore(cm1_machine, max_states=10, meter_memory=False)
        assert result.truncated
        assert len(result.states) == 10

    def test_max_transitions(self, cm1_machine):
        result = explore(cm1_machine, max_transitions=5, meter_memory=False)
        assert result.truncated
        assert len(result.transitions) == 5

    def test_cut_states_are_not_deadlocks(self, cm1_machine):
        result = explore(cm1_machine, max_states=100, meter_memory=False)
        assert result.truncated
        assert result.deadlock_states == frozenset()
        assert result.violating == frozenset()

    def test_cut_keeps_real_deadlocks(self):
        # x = 2 has no successor; the limit drops the step from x = 4 to 6.
        machine = parse_machine(
            "MACHINE M VARIABLES x INVARIANT x : 0..9 INITIALISATION x := 0 "
            "OPERATIONS step = PRE x < 2 THEN x := x + 1 END; "
            "jump = PRE x = 0 THEN x := 4 END; "
            "more = PRE x = 4 THEN x := 6 END END"
        )
        result = explore(machine, max_states=4, meter_memory=False)
        assert result.truncated
        assert {value_of(result, s, "x") for s in result.deadlock_states} == {intval(2)}
        assert {value_of(result, t.post, "x") for t in result.violating} == {intval(2)}

    # Summaries of cut-off runs, frozen from the breadth-first walk: which
    # states and transitions a limit keeps depends on the walk's order.
    # Columns: states, transitions, ok, violating, deadlock states.  A state
    # whose successors the limit dropped is no deadlock, so CM1 (a cycle)
    # has none; CM4's remaining ones break the invariant.
    FROZEN = [
        ("CM1", {"max_states": 1}, (1, 0, 0, 0, 0)),
        ("CM1", {"max_states": 10}, (10, 9, 9, 0, 0)),
        ("CM1", {"max_states": 100}, (100, 99, 99, 0, 0)),
        ("CM1", {"max_states": 1000}, (1000, 999, 999, 0, 0)),
        ("CM1", {"max_transitions": 1}, (2, 1, 1, 0, 0)),
        ("CM1", {"max_transitions": 5}, (6, 5, 5, 0, 0)),
        ("CM1", {"max_transitions": 500}, (501, 500, 500, 0, 0)),
        ("CM1", {"max_states": 100, "max_transitions": 500}, (100, 99, 99, 0, 0)),
        ("CM1", {"max_states": 1000, "max_transitions": 50}, (51, 50, 50, 0, 0)),
        ("CM4", {"max_states": 1}, (1, 0, 0, 0, 0)),
        ("CM4", {"max_states": 10}, (10, 9, 9, 0, 0)),
        ("CM4", {"max_states": 100}, (100, 99, 98, 1, 1)),
        ("CM4", {"max_states": 1000}, (1000, 999, 983, 16, 16)),
        ("CM4", {"max_transitions": 1}, (2, 1, 1, 0, 0)),
        ("CM4", {"max_transitions": 5}, (6, 5, 5, 0, 0)),
        ("CM4", {"max_transitions": 500}, (501, 500, 492, 8, 8)),
        ("CM4", {"max_states": 100, "max_transitions": 500}, (100, 99, 98, 1, 1)),
        ("CM4", {"max_states": 1000, "max_transitions": 50}, (51, 50, 50, 0, 0)),
    ]

    @pytest.mark.parametrize("name, limits, counts", FROZEN)
    def test_truncated_summary(self, request, name, limits, counts):
        machine = request.getfixturevalue(f"{name.lower()}_machine")
        result = explore(machine, meter_memory=False, **limits)
        states, transitions, ok, violating, deadlock = counts
        assert result.summary == {
            "initial_states": 1,
            "states": states,
            "transitions": transitions,
            "ok_transitions": ok,
            "violating_transitions": violating,
            "deadlock_states": deadlock,
            "truncated": True,
        }


class TestOperationReuse:
    """An operation runs once per distinct value of what it reads and may
    leave as it is; an operation whose successors depend on the whole state
    runs once per state."""

    @staticmethod
    def calls(monkeypatch, machine) -> Counter:
        bodies = {id(body): name for name, body in machine.operations}
        counts: Counter = Counter()
        compile_operation = codegen.compile_operation

        def counting(sub, machine, **options):
            run = compile_operation(sub, machine, **options)
            name = bodies.get(id(sub))
            if name is None:
                return run

            def counted(row):
                counts[name] += 1
                return run(row)

            return counted

        monkeypatch.setattr(codegen, "compile_operation", counting)
        explore(machine, meter_memory=False)
        return counts

    def test_cm6_set_time_runs_once(self, monkeypatch, cm6_machine):
        assert self.calls(monkeypatch, cm6_machine) == {
            "set_time": 1, "inc_minute": 1440, "inc_hour": 1440, "next_day": 1440,
        }

    def test_cm1_runs_every_operation_per_state(self, monkeypatch, cm1_machine):
        assert self.calls(monkeypatch, cm1_machine) == {
            "inc_minute": 1440, "inc_hour": 1440, "next_day": 1440,
        }


class TestDeterminism:
    def test_same_machine_same_result(self, cm4_machine):
        a = explore(cm4_machine, meter_memory=False)
        b = explore(cm4_machine, meter_memory=False)
        assert a.states == b.states
        assert a.transitions == b.transitions
        assert a.violating == b.violating
        assert initial_states(a) == initial_states(b)


class TestCheckGoal:
    def test_achievable(self, cm1_result, cm1_machine):
        goal = parse_predicate("hour + minute < 10", cm1_machine)
        assert check_goal(cm1_result, goal) is True

    def test_unachievable(self, cm1_result, cm1_machine):
        goal = parse_predicate("hour > 26 & minute < 10", cm1_machine)
        assert check_goal(cm1_result, goal) is False

    def test_literal_true(self, cm1_result, cm1_machine):
        goal = parse_predicate("1 = 1", cm1_machine)
        assert check_goal(cm1_result, goal) is True
        assert check_goal(cm1_result, TruePredicate()) is True

    def test_ill_typed_goal(self, cm1_result, cm1_machine):
        machine = parse_machine(
            "MACHINE G SETS C = {red} VARIABLES hour, minute "
            "INVARIANT hour : 0..23 & minute : 0..59 "
            "INITIALISATION hour := 0; minute := 0 OPERATIONS o = skip END"
        )
        goal = parse_predicate("hour = red", machine)
        with pytest.raises(EvalTypeError):
            check_goal(cm1_result, goal)

    @pytest.mark.parametrize(
        "source",
        [
            "not(second = 1) or hour = 0",
            "hour : 0..second",
            "hour = 0 & (minute = 1 or not(second = 2))",
        ],
    )
    def test_undeclared_variable_in_goal(self, cm1_result, source):
        machine = parse_machine(
            "MACHINE G VARIABLES hour, minute, second "
            "INVARIANT hour : 0..23 & minute : 0..59 & second : 0..59 "
            "INITIALISATION hour := 0; minute := 0; second := 0 "
            "OPERATIONS o = skip END"
        )
        goal = parse_predicate(source, machine)
        with pytest.raises(EvalTypeError, match="undeclared variable 'second'"):
            check_goal(cm1_result, goal)

    def test_bound_identifier_in_goal(self, cm1_result):
        bound = Not(Comparison("=", BoundRef("v"), IntLit(1)))
        goal = Or(Comparison("=", VarRef("hour"), IntLit(0)), bound)
        with pytest.raises(EvalTypeError, match="cannot use bound identifiers"):
            check_goal(cm1_result, goal)


class TestMetering:
    def test_metering_populated(self, cm1_machine):
        result = explore(cm1_machine)
        assert result.cpu_seconds >= 0
        assert result.peak_memory_bytes > 0
        assert set(result.metering) == {"cpu_seconds", "peak_memory_bytes"}


def test_serialize_result_summary(cm4_result):
    text = io.StringIO()
    write_result(cm4_result, text)
    blob = json.loads(text.getvalue())
    assert blob["summary"]["transitions"] == 1465
    assert blob["summary"]["violating_transitions"] == 25
    assert len(blob["transitions"]) == 1465
    flagged = [t for t in blob["transitions"] if t["violates"]]
    assert len(flagged) == 25
