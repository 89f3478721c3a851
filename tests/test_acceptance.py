"""Acceptance suite: every criterion checks its stated values exactly
(rational arithmetic) and prints one pass line when it holds."""

from __future__ import annotations

import random
from fractions import Fraction

from bqual.alignment import similarity
from bqual.evaluation import load_required
from bqual.explorer import explore
from bqual.lts import code_relations
from bqual.metrics import (
    accountability,
    availability,
    capacity,
    fault_analysability,
    fault_tolerance,
    functional,
    functional_analysability,
    goal_appropriateness,
    invariant_satisfiability,
    modularity_of,
    pfappr,
    pfcomp,
    pfcorr,
    recoverability,
    reusability,
    tfappr,
    tfcomp,
    tfcorr,
)
from bqual.mutation import apply_plan, generate_plan, load_plan, run_trials
from bqual.parser import parse_machine
from bqual.evaluation import parse_goals

from conftest import (
    PROPERTY_ORDER,
    brute_force_similarity,
    changed_sets,
    coded,
    corpus_path,
    corpus_source,
    erased_sizes,
    jaccard_sizes,
    plan_fields,
    random_transition_set,
)
from oracle import set_size

ORDER = ("hour", "minute")


def ok(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} PASS: {message}")


def test_criterion_01_cm1_self_evaluation(cm1_result):
    t = cm1_result.transitions
    assert tfcomp(t, t) == 1
    assert tfcorr(t, t) == 1
    assert tfappr(t, t) == 1
    assert pfcomp(t, t, ORDER) == 1
    assert pfcorr(t, t, ORDER) == 1
    assert pfappr(t, t, ORDER) == 1
    assert invariant_satisfiability(cm1_result) == 1
    assert accountability(cm1_result) == 1
    assert reusability(t) == 1 - Fraction(3, 1440)
    assert capacity(cm1_result) == 2880
    ok(1, "CM1 self-evaluation: all-ones row, reusability 1-3/1440, capacity 2880")


def test_criterion_02_cm2_against_reference(cm2_result, cm1_result):
    t_d = cm2_result.transitions
    t_r = cm1_result.transitions
    assert tfcomp(t_d, t_r) == Fraction(1394, 1440)
    assert pfcomp(t_d, t_r, ORDER) == Fraction(7062, 7200)
    assert tfcorr(t_d, t_r) == Fraction(1394, 1417)
    assert pfcorr(t_d, t_r, ORDER) == Fraction(7062, 7085)
    assert tfappr(t_d, t_r) == Fraction(1394, 1440)
    assert pfappr(t_d, t_r, ORDER) == Fraction(5645, 5760)
    ok(2, "CM2 vs CM1 reference: all six functional ratios exact")


def test_criterion_03_cm3_appropriateness(cm3_result, cm1_result):
    assert tfappr(cm3_result.transitions, cm1_result.transitions) == 1
    assert tfcomp(cm3_result.transitions, cm1_result.transitions) < 1
    ok(3, "CM3: total functional appropriateness 1 while completeness < 1")


def test_criterion_04_cm4_violations(cm4_result, cm2_machine):
    assert len(cm4_result.transitions) == 1465
    assert len(cm4_result.violating) == 25
    assert invariant_satisfiability(cm4_result) == Fraction(1440, 1465)
    required = load_required(cm2_machine, reference_path=str(corpus_path("CM1.mch")))
    assert availability(cm4_result, required.operations) == Fraction(1, 3)
    ok(4, "CM4: 1465 transitions, 25 violating, inv. sat. 1440/1465, availability 1/3")


def test_criterion_05_cm1_with_explicit_plan(cm1_result, cm1_machine, cm5_result):
    plan = load_plan(
        corpus_path("cm5-plan.json"), cm1_result, cm1_machine.element_sets
    )
    changed = apply_plan(cm1_result, plan)
    assert len(changed_sets(cm1_result, changed).u_changed) == 1050
    values, _, _ = run_trials(cm1_result, [changed])
    assert values["fault_tolerance"] == 1 - Fraction(1, 1050)
    assert values["recoverability"] == Fraction(1049, 1440)
    assert values["functional_analysability"] == 1 - Fraction(1050, 1440)
    assert values["fault_analysability"] == 1
    # The jump-to-6:00 clock is the worked changed-model for modularity; its
    # derived transitions keep every label-foreign transition except the
    # inc_hour step at 5:59.
    value = modularity_of(
        "inc_minute",
        *erased_sizes("inc_minute", cm1_result.transitions, cm5_result.transitions),
    )
    assert value == Fraction(23, 24)
    ok(5, "CM1 + explicit plan: |U|=1050, all four fault metrics and 23/24 modularity exact")


def test_criterion_06_cm6_recoverability(cm6_result, cm6_machine):
    plan = load_plan(
        corpus_path("cm5-plan.json"), cm6_result, cm6_machine.element_sets
    )
    changed = changed_sets(cm6_result, apply_plan(cm6_result, plan))
    derived = cm6_result.transitions
    assert recoverability(len(changed.u_ok & derived), len(derived)) == 1
    ok(6, "CM6 + same plan: recoverability 1")


def test_criterion_07_goal_suite(cm1_result, cm1_machine):
    goals = parse_goals(corpus_source("goals-cm1.txt"), cm1_machine)
    assert goal_appropriateness(cm1_result, goals) == Fraction(1, 2)
    ok(7, "CM1 goal suite: goal appropriateness exactly 0.5")


def test_criterion_08_accountability_diamond():
    machine = parse_machine(
        "MACHINE Diamond VARIABLES x, y INVARIANT x : 0..1 & y : 0..1 "
        "INITIALISATION x := 0; y := 0 OPERATIONS "
        "inc_x = PRE x < 1 THEN x := x + 1 END; "
        "inc_y = PRE y < 1 THEN y := y + 1 END END"
    )
    result = explore(machine, meter_memory=False)
    assert len(result.transitions) == 4
    assert accountability(result) == Fraction(3, 4)
    ok(8, "four-transition diamond: accountability exactly 3/4")


def test_criterion_09_similarity_oracle():
    rng = random.Random(0xB0A1)
    for _ in range(500):
        t1 = random_transition_set(rng)
        t2 = random_transition_set(rng)
        exact = similarity(*coded(t1, t2)).total_agreement
        brute = brute_force_similarity(t1, t2, PROPERTY_ORDER)
        assert exact == brute
    ok(9, "similarity equals the brute-force matching maximum on 500 instances")


def test_criterion_10_property_suite(cm1_result):
    rng = random.Random(0x25010)
    full_length = 2 * len(PROPERTY_ORDER) + 1
    cases = 10_000
    for case in range(cases):
        t_d = random_transition_set(rng)
        t_r = random_transition_set(rng)
        # One coding per case, as evaluate codes its two relations.
        derived, required = coded(t_d, t_r)
        values = functional(derived, required)
        s12 = similarity(derived, required).total_agreement
        s21 = similarity(required, derived).total_agreement
        assert s12 == s21
        assert s12 <= min(
            set_size(t_d, PROPERTY_ORDER), set_size(t_r, PROPERTY_ORDER)
        )
        if t_r:
            tf = values["tfcomp"]()
            pf = Fraction(s12, set_size(t_r, PROPERTY_ORDER))
            assert 0 <= tf <= pf <= 1
            assert values["pfcomp"]() == pf
            assert 0 <= values["tfappr"]() <= 1
            assert 0 <= values["pfappr"]() <= 1
        if t_d:
            tc = values["tfcorr"]()
            pc = values["pfcorr"]()
            assert 0 <= tc <= pc <= 1
            assert 0 <= reusability(t_d) <= 1
        if t_d or t_r:
            assert 0 <= functional_analysability(*jaccard_sizes(t_d, t_r)) <= 1
            assert 0 <= fault_tolerance(len(t_d | t_r), len(t_d & t_r)) <= 1
        assert 0 <= fault_analysability(*jaccard_sizes(t_d, t_r)) <= 1
        if case % 500 == 0:
            seed = rng.randrange(2**32)
            first = generate_plan(cm1_result, 3, 3, seed)
            second = generate_plan(cm1_result, 3, 3, seed)
            assert plan_fields(first) == plan_fields(second)
    ok(10, f"{cases} random cases: ranges, partial>=total, symmetry, bound, determinism")


def test_criterion_11_mutated_variant_diverges(request, cm1_result, cm6_result):
    t_r = cm1_result.transitions
    for name in ("cm1", "cm2", "cm3", "cm4", "cm5"):
        t_self = request.getfixturevalue(f"{name}_result").transitions
        assert tfcomp(t_self, t_self) == 1
        assert tfcorr(t_self, t_self) == 1
        assert tfappr(t_self, t_self) == 1
    # CM6's 2,075,040 transitions take evaluate's path: its relation, coded once.
    cm6_self = functional(*code_relations(cm6_result, cm6_result))
    assert cm6_self["tfcomp"]() == 1
    assert cm6_self["tfcorr"]() == 1
    assert cm6_self["tfappr"]() == 1

    five_percent = max(1, -(-len(t_r) * 5 // 100))
    plan = generate_plan(cm1_result, five_percent, five_percent, seed=0)
    variant = changed_sets(cm1_result, apply_plan(cm1_result, plan)).t_changed
    assert tfcomp(variant, t_r) < 1
    assert tfcorr(variant, t_r) < 1
    ok(11, "self-evaluation all-ones; 5% seeded mutant strictly lowers tfcomp and tfcorr")
