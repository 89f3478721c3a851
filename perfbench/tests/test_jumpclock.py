"""The jump clock's closed forms against bqual on small members."""

from fractions import Fraction
from pathlib import Path

import pytest

import jumpclock
from bqual.explorer import explore
from bqual.metrics import (
    accountability,
    invariant_satisfiability,
    pfappr,
    pfcomp,
    pfcorr,
    reusability,
    tfappr,
    tfcomp,
    tfcorr,
)
from bqual.parser import parse_machine

CORPUS = Path(__file__).resolve().parents[2] / "tests" / "corpus"
ORDER = ("hour", "minute")


def corpus_result(name):
    return explore(parse_machine((CORPUS / f"{name}.mch").read_text()), meter_memory=False)


@pytest.fixture(scope="module")
def cm1():
    return corpus_result("CM1")


@pytest.fixture(scope="module")
def cm2():
    return corpus_result("CM2")


@pytest.mark.parametrize("hours,minutes", [((5,), 2), ((0, 23), 1), ((1,), 3)])
def test_closed_forms_match_bqual(hours, minutes, cm1, cm2):
    result = explore(parse_machine(jumpclock.machine_text(hours, minutes)), meter_memory=False)
    summary = jumpclock.expected_summary(hours, minutes)
    assert len(result.states) == summary["states"]
    assert len(result.transitions) == summary["transitions"]
    assert len(result.violating) == summary["violating_transitions"] == 0
    assert len(result.deadlock_states) == summary["deadlock_states"] == 0

    exact = jumpclock.expected_exact(hours, minutes)
    assert invariant_satisfiability(result) == exact["invariant_satisfiability"]
    assert accountability(result) == exact["accountability"]
    assert reusability(result.transitions) == exact["reusability"]

    t, r = result.transitions, cm1.transitions
    against = jumpclock.expected_against_cm1(hours, minutes)
    assert tfcomp(t, r) == against["tfcomp"]
    assert pfcomp(t, r, ORDER) == against["pfcomp"]
    assert tfcorr(t, r) == against["tfcorr"]
    assert pfcorr(t, r, ORDER) == against["pfcorr"]
    assert tfappr(t, r) == against["tfappr"]
    assert pfappr(t, r, ORDER) == against["pfappr"]

    cm2_expected = jumpclock.expected_cm2_against(hours, minutes)
    assert len(cm2.states) == jumpclock.CM2_STATES
    assert len(cm2.transitions) == jumpclock.CM2_TRANSITIONS
    assert tfcorr(cm2.transitions, t) == cm2_expected["tfcorr"]
    assert pfcorr(cm2.transitions, t, ORDER) == cm2_expected["pfcorr"]
    assert tfcomp(cm2.transitions, t) == cm2_expected["tfcomp"]
    assert pfcomp(cm2.transitions, t, ORDER) == cm2_expected["pfcomp"]


def test_closed_forms_for_whole_hours():
    hours = (3, 7)
    assert jumpclock.transitions(hours) == 1440 * (1 + 60 * 2)
    assert jumpclock.expected_exact(hours)["accountability"] == 1 - Fraction(2, 24)
    assert jumpclock.expected_against_cm1(hours)["tfcorr"] == Fraction(1, 1 + 120)


def test_all_hours_member_is_cm6_sized():
    assert jumpclock.transitions(tuple(range(24))) == 2_075_040


def test_hours_follow_the_seed():
    assert jumpclock.draw_hours(7, 4) == jumpclock.draw_hours(7, 4)
    assert len(set(jumpclock.draw_hours(7, 4))) == 4
    assert any(jumpclock.draw_hours(s, 4) != jumpclock.draw_hours(7, 4) for s in range(8))


@pytest.mark.parametrize("hours,minutes", [((), 60), ((24,), 60), ((1, 1), 60), ((1,), 0)])
def test_rejects_bad_members(hours, minutes):
    with pytest.raises(ValueError):
        jumpclock.machine_text(hours, minutes)
