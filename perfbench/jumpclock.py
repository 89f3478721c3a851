"""Seeded "jump clock" machines and their closed-form expectations.

A jump clock is the corpus clock CM1 plus one operation, ``set_time``,
whose ``ANY`` jumps from every state to each time ``hh:mm`` with ``hh`` in
a seeded hour subset H and ``mm`` in ``0..K-1``.  With K = 60 and all 24
hours it is CM6.

Every expectation below is derived by hand from the machine text, never
from bqual's output:

* CM1 is a single cycle through all 1,440 times, so every state is
  reachable, has exactly one CM1 successor and exactly one CM1
  predecessor, and never violates the invariant or deadlocks.
* ``set_time`` adds, from each of the 1,440 states, one transition per
  target, T = |H|·K of them, all labelled ``set_time`` and so distinct
  from the CM1 transitions: 1440·(1+T) transitions in total.
* A target state gains 1,440 ingoing transitions (one from every state,
  itself included); every other state keeps its single CM1 predecessor,
  so accountability is 1 − T/1440.  Four operations over 1440·(1+T)
  transitions give reusability 1 − 4/(1440·(1+T)).
* Against reference CM1 the derived set contains all of CM1, so the
  completeness ratios are 1 and the correctness ratios are 1/(1+T).
* CM2 derives 1,417 transitions: the 1,393 ``inc_minute`` steps and
  ``next_day`` are CM1 transitions (1,394 shared), and its 23 ``inc_hour``
  steps land on minute 1 instead of 0.  Each of those aligns with CM1's
  ``inc_hour`` step on 4 of its 5 tokens, and no transition of the jump
  clock agrees with one on all 5, so against a jump clock R the agreement
  is 5·1394 + 4·23 = 7062.
"""

from __future__ import annotations

import random
from fractions import Fraction

CLOCK_STATES = 24 * 60
CM2_STATES = 1417  # hour 0 from minute 0, hours 1..23 from minute 1
CM2_TRANSITIONS = 1417
CM2_SHARED = 1394
CM2_AGREEMENT = 7062
TOKENS_PER_TRANSITION = 5  # hour, minute, label, hour', minute'


def draw_hours(seed: int, size: int) -> tuple[int, ...]:
    """The seeded hour subset H: ``size`` distinct hours, sorted."""
    if not 1 <= size <= 24:
        raise ValueError(f"hour subset size must be in 1..24, got {size}")
    return tuple(sorted(random.Random(seed).sample(range(24), size)))


def machine_text(hours: tuple[int, ...], minutes: int = 60) -> str:
    """Source of CM1 plus ``set_time`` onto ``hours`` × ``0..minutes-1``."""
    if not hours or len(set(hours)) != len(hours) or not all(0 <= h < 24 for h in hours):
        raise ValueError(f"hours must be distinct values in 0..23, got {hours}")
    if not 1 <= minutes <= 60:
        raise ValueError(f"minutes must be in 1..60, got {minutes}")
    hour_choice = " or ".join(f"hh = {h}" for h in hours)
    return (
        f"MACHINE JumpClock // CM1 plus set_time onto hours {list(hours)}, "
        f"minutes 0..{minutes - 1}\n"
        "VARIABLES hour, minute\n"
        "INVARIANT hour : 0..23 & minute : 0..59\n"
        "INITIALISATION hour := 0; minute := 0\n"
        "OPERATIONS\n"
        "  inc_minute =\n"
        "    PRE minute < 59\n"
        "    THEN minute := minute + 1 END;\n"
        "  inc_hour =\n"
        "    PRE minute = 59 & hour < 23\n"
        "    THEN minute := 0; hour := hour + 1 END;\n"
        "  next_day =\n"
        "    PRE minute = 59 & hour = 23\n"
        "    THEN minute := 0; hour := 0 END;\n"
        "  set_time =\n"
        "    ANY hh, mm\n"
        f"    WHERE hh : 0..23 & mm : 0..{minutes - 1} & ({hour_choice})\n"
        "    THEN hour := hh; minute := mm END\n"
        "END\n"
    )


def targets(hours: tuple[int, ...], minutes: int = 60) -> int:
    """T: the number of ``set_time`` targets."""
    return len(hours) * minutes


def transitions(hours: tuple[int, ...], minutes: int = 60) -> int:
    return CLOCK_STATES * (1 + targets(hours, minutes))


def expected_summary(hours: tuple[int, ...], minutes: int = 60) -> dict:
    """The report's summary block for the jump clock."""
    n = transitions(hours, minutes)
    return {
        "initial_states": 1,
        "states": CLOCK_STATES,
        "transitions": n,
        "ok_transitions": n,
        "violating_transitions": 0,
        "deadlock_states": 0,
        "truncated": False,
    }


def expected_exact(hours: tuple[int, ...], minutes: int = 60) -> dict:
    """Exact metrics of the jump clock that need no requirements."""
    n = transitions(hours, minutes)
    return {
        "invariant_satisfiability": Fraction(1),
        "accountability": 1 - Fraction(targets(hours, minutes), CLOCK_STATES),
        "reusability": 1 - Fraction(4, n),
    }


def expected_against_cm1(hours: tuple[int, ...], minutes: int = 60) -> dict:
    """Exact functional metrics of the jump clock against reference CM1.

    pairs(CM1) is a subset of the jump clock's pairs, so the appropriateness
    ratios are 1 as well; CM1 never violates, so availability is 1.
    """
    t = targets(hours, minutes)
    return {
        "tfcomp": Fraction(1),
        "pfcomp": Fraction(1),
        "tfappr": Fraction(1),
        "pfappr": Fraction(1),
        "availability": Fraction(1),
        "tfcorr": Fraction(1, 1 + t),
        "pfcorr": Fraction(1, 1 + t),
    }


def expected_cm2_against(hours: tuple[int, ...], minutes: int = 60) -> dict:
    """Exact functional metrics of CM2 against the jump clock's transitions."""
    r = transitions(hours, minutes)
    return {
        "tfcorr": Fraction(CM2_SHARED, CM2_TRANSITIONS),
        "pfcorr": Fraction(CM2_AGREEMENT, TOKENS_PER_TRANSITION * CM2_TRANSITIONS),
        "tfcomp": Fraction(CM2_SHARED, r),
        "pfcomp": Fraction(CM2_AGREEMENT, TOKENS_PER_TRANSITION * r),
    }
