from __future__ import annotations

from fractions import Fraction

import pytest

from bqual.explorer import explore
from bqual.lts import Transition, intval
from bqual.metrics import (
    NotComputable,
    accountability,
    availability,
    capacity,
    fault_analysability,
    fault_tolerance,
    functional_analysability,
    goal_appropriateness,
    invariant_satisfiability,
    learnability,
    modularity_of,
    pfappr,
    pfcomp,
    pfcorr,
    recoverability,
    reusability,
    tfappr,
    tfcomp,
    tfcorr,
    weighted_modularity,
)
from bqual.parser import parse_machine, parse_predicate

from conftest import brute_force_similarity, erased_sizes, jaccard_sizes, label_counts
from oracle import labels_of

ORDER = ("hour", "minute")

DIAMOND_SOURCE = (
    "MACHINE Diamond VARIABLES x, y INVARIANT x : 0..1 & y : 0..1 "
    "INITIALISATION x := 0; y := 0 OPERATIONS "
    "inc_x = PRE x < 1 THEN x := x + 1 END; "
    "inc_y = PRE y < 1 THEN y := y + 1 END END"
)


@pytest.fixture(scope="module")
def diamond_result():
    return explore(parse_machine(DIAMOND_SOURCE), meter_memory=False)


def toy(pre, label, post):
    return Transition((intval(pre[0]), intval(pre[1])), label, (intval(post[0]), intval(post[1])))


class TestFunctionalSuitability:
    def test_cm2_tfcomp(self, cm2_result, cm1_result):
        assert tfcomp(cm2_result.transitions, cm1_result.transitions) == Fraction(
            1394, 1440
        )

    def test_cm1_tfcomp_is_one(self, cm1_result):
        assert tfcomp(cm1_result.transitions, cm1_result.transitions) == 1

    def test_tfcomp_empty_derived(self, cm1_result):
        assert tfcomp(frozenset(), cm1_result.transitions) == 0

    def test_tfcomp_empty_required_errors(self, cm1_result):
        with pytest.raises(NotComputable):
            tfcomp(cm1_result.transitions, frozenset())

    def test_cm2_pfcomp(self, cm2_result, cm1_result):
        assert pfcomp(
            cm2_result.transitions, cm1_result.transitions, ORDER
        ) == Fraction(7062, 7200)

    def test_pfcomp_identity(self, cm1_result):
        assert pfcomp(cm1_result.transitions, cm1_result.transitions, ORDER) == 1

    def test_pfcomp_toy_matches_brute_force(self):
        t_d = frozenset({toy((0, 0), "a", (0, 1)), toy((1, 1), "b", (1, 0))})
        t_r = frozenset(
            {toy((0, 0), "a", (0, 2)), toy((1, 1), "c", (1, 0)), toy((2, 2), "a", (2, 2))}
        )
        expected = Fraction(
            brute_force_similarity(t_d, t_r, ORDER), 5 * len(t_r)
        )
        assert pfcomp(t_d, t_r, ORDER) == expected

    def test_cm2_tfcorr_pfcorr(self, cm2_result, cm1_result):
        assert tfcorr(cm2_result.transitions, cm1_result.transitions) == Fraction(
            1394, 1417
        )
        assert pfcorr(
            cm2_result.transitions, cm1_result.transitions, ORDER
        ) == Fraction(7062, 7085)

    def test_cm1_corr_is_one(self, cm1_result):
        assert tfcorr(cm1_result.transitions, cm1_result.transitions) == 1
        assert pfcorr(cm1_result.transitions, cm1_result.transitions, ORDER) == 1

    def test_incomplete_but_consistent(self, cm1_result):
        subset = frozenset(list(cm1_result.transitions)[:100])
        assert tfcorr(subset, cm1_result.transitions) == 1

    def test_tfcorr_empty_derived_errors(self, cm1_result):
        with pytest.raises(NotComputable):
            tfcorr(frozenset(), cm1_result.transitions)

    def test_cm3_appropriateness(self, cm3_result, cm1_result):
        assert tfappr(cm3_result.transitions, cm1_result.transitions) == 1
        assert tfcomp(cm3_result.transitions, cm1_result.transitions) < 1

    def test_cm2_appropriateness(self, cm2_result, cm1_result):
        assert tfappr(cm2_result.transitions, cm1_result.transitions) == Fraction(
            1394, 1440
        )
        assert pfappr(
            cm2_result.transitions, cm1_result.transitions, ORDER
        ) == Fraction(5645, 5760)

    def test_identical_sets_give_all_ones(self, cm4_result):
        t = cm4_result.transitions
        assert tfcomp(t, t) == tfcorr(t, t) == tfappr(t, t) == 1
        assert pfcomp(t, t, ORDER) == pfcorr(t, t, ORDER) == pfappr(t, t, ORDER) == 1


class TestInvariantSatisfiability:
    def test_cm4(self, cm4_result):
        assert invariant_satisfiability(cm4_result) == Fraction(1440, 1465)

    def test_cm1(self, cm1_result):
        assert invariant_satisfiability(cm1_result) == 1

    def test_every_transition_violating(self):
        machine = parse_machine(
            "MACHINE Bad VARIABLES x INVARIANT x : 0..1 INITIALISATION x := 0 "
            "OPERATIONS leap = PRE x = 0 THEN x := x + 2 END END"
        )
        result = explore(machine, meter_memory=False)
        assert invariant_satisfiability(result) == 0


class TestAvailability:
    def test_cm4_one_of_three(self, cm4_result, cm1_result):
        required = labels_of(cm1_result.transitions)
        assert availability(cm4_result, required) == Fraction(1, 3)

    def test_cm1_full(self, cm1_result):
        assert availability(cm1_result, labels_of(cm1_result.transitions)) == 1

    def test_required_op_never_derived(self, cm1_result):
        assert availability(cm1_result, frozenset({"inc_minute", "ghost"})) == Fraction(
            1, 2
        )

    def test_empty_required_errors(self, cm1_result):
        with pytest.raises(NotComputable):
            availability(cm1_result, frozenset())


class TestAccountability:
    def test_diamond(self, diamond_result):
        assert len(diamond_result.transitions) == 4
        assert accountability(diamond_result) == Fraction(3, 4)

    def test_cm1(self, cm1_result):
        assert accountability(cm1_result) == 1

    def test_states_without_transitions(self):
        machine = parse_machine(
            "MACHINE Still VARIABLES x INVARIANT x : 0..1 INITIALISATION x := 0 "
            "OPERATIONS move = PRE 0 = 1 THEN x := 1 END END"
        )
        result = explore(machine, meter_memory=False)
        assert len(result.transitions) == 0
        assert accountability(result) == 1


class TestFaultMetrics:
    def test_fault_tolerance_no_violations(self):
        u = frozenset({toy((0, 0), "a", (0, 1))})
        assert fault_tolerance(len(u), 0) == 1

    def test_fault_tolerance_all_violating(self):
        u = frozenset({toy((0, 0), "a", (0, 1))})
        assert fault_tolerance(len(u), len(u)) == 0

    def test_fault_tolerance_empty_errors(self):
        with pytest.raises(NotComputable):
            fault_tolerance(0, 0)

    def test_recoverability_bounds(self, cm1_result):
        derived = cm1_result.transitions
        ok = derived - cm1_result.violating
        assert recoverability(len(ok & derived), len(derived)) == 1
        assert recoverability(0, len(derived)) == 0

    def test_functional_analysability_identical(self, cm1_result):
        derived = cm1_result.transitions
        assert functional_analysability(*jaccard_sizes(derived, derived)) == 0

    def test_functional_analysability_disjoint(self):
        a = frozenset({toy((0, 0), "a", (0, 1))})
        b = frozenset({toy((1, 1), "b", (1, 0))})
        assert functional_analysability(*jaccard_sizes(a, b)) == 1

    def test_functional_analysability_both_empty_errors(self):
        with pytest.raises(NotComputable):
            functional_analysability(0, 0)

    def test_fault_analysability_cases(self):
        x = frozenset({toy((0, 0), "a", (0, 1))})
        assert fault_analysability(*jaccard_sizes(x, x)) == 0
        assert fault_analysability(*jaccard_sizes(frozenset(), x)) == 1
        assert fault_analysability(0, 0) == 0


class TestModularity:
    def test_cm5_as_changed_model(self, cm1_result, cm5_result):
        derived, changed = cm1_result.transitions, cm5_result.transitions
        sizes = erased_sizes("inc_minute", derived, changed)
        value = modularity_of("inc_minute", *sizes)
        assert value == Fraction(23, 24)

    def test_unchanged_model(self, cm1_result):
        derived = cm1_result.transitions
        sizes = erased_sizes("inc_minute", derived, derived)
        assert modularity_of("inc_minute", *sizes) == 1

    def test_two_op_toy_severed_region(self):
        # mutating a cut the region where b's second transition fired:
        # hand-enumerated projections are {b1, b2} vs {b1}
        derived = frozenset(
            {
                toy((0, 0), "b", (1, 0)),
                toy((1, 0), "a", (1, 1)),
                toy((1, 1), "b", (0, 1)),
            }
        )
        delta = frozenset({toy((0, 0), "b", (1, 0)), toy((1, 0), "a", (1, 1))})
        # not-a projections: derived {b:2}, delta {b:1}; Jaccard 1/2
        assert modularity_of("a", *erased_sizes("a", derived, delta)) == Fraction(1, 2)

    def test_both_projections_empty_errors(self):
        only_a = frozenset({toy((0, 0), "a", (0, 1))})
        with pytest.raises(NotComputable):
            modularity_of("a", *erased_sizes("a", only_a, only_a))

    def test_weighted_single_op(self):
        t = frozenset({toy((0, 0), "a", (0, 1)), toy((0, 1), "a", (0, 0))})
        value = weighted_modularity({"a": Fraction(3, 4)}, label_counts(t))
        assert value == Fraction(3, 4)

    def test_weighted_all_ones(self, cm1_result):
        per_op = {op: Fraction(1) for op in labels_of(cm1_result.transitions)}
        assert weighted_modularity(per_op, label_counts(cm1_result.transitions)) == 1

    def test_weighted_mixed_values(self, cm1_result):
        per_op = {
            "inc_minute": Fraction(23, 24),
            "inc_hour": Fraction(1),
            "next_day": Fraction(1),
        }
        expected = (
            Fraction(1416, 1440) * Fraction(23, 24)
            + Fraction(23, 1440)
            + Fraction(1, 1440)
        )
        counts = label_counts(cm1_result.transitions)
        assert weighted_modularity(per_op, counts) == expected

    def test_missing_label_errors(self, cm1_result):
        with pytest.raises(NotComputable, match="next_day"):
            weighted_modularity(
                {"inc_minute": Fraction(1), "inc_hour": Fraction(1)},
                label_counts(cm1_result.transitions),
            )


class TestReusability:
    def test_cm1(self, cm1_result):
        assert reusability(cm1_result) == 1 - Fraction(3, 1440)

    def test_single_transition(self):
        assert reusability(frozenset({toy((0, 0), "a", (0, 1))})) == 0

    def test_cm4(self, cm4_result):
        assert reusability(cm4_result) == 1 - Fraction(3, 1465)


class TestCapacityAndGoals:
    def test_cm1_capacity(self, cm1_result):
        assert capacity(cm1_result) == 2880

    def test_cm4_capacity(self, cm4_result):
        assert capacity(cm4_result) == 1465 + 1465

    def test_goal_appropriateness_half(self, cm1_result, cm1_machine):
        goals = (
            ("G1", parse_predicate("hour + minute < 10", cm1_machine)),
            ("G2", parse_predicate("hour > 26 & minute < 10", cm1_machine)),
        )
        assert goal_appropriateness(cm1_result, goals) == Fraction(1, 2)

    def test_all_goals_hold(self, cm1_result, cm1_machine):
        goals = (("G", parse_predicate("1 = 1", cm1_machine)),)
        assert goal_appropriateness(cm1_result, goals) == 1

    def test_no_goal_holds(self, cm1_result, cm1_machine):
        goals = (("G", parse_predicate("hour > 99", cm1_machine)),)
        assert goal_appropriateness(cm1_result, goals) == 0

    def test_empty_goals_error(self, cm1_result):
        with pytest.raises(NotComputable):
            goal_appropriateness(cm1_result, ())


class TestLearnability:
    def test_half(self):
        assert learnability(500, 1000) == Fraction(1, 2)

    def test_clamped(self):
        assert learnability(2000, 1000) == 0

    def test_empty_source(self):
        assert learnability(0, 1000) == 1

    def test_bad_limit(self):
        with pytest.raises(NotComputable):
            learnability(10, 0)
