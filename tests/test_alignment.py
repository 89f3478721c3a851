from __future__ import annotations

import random

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import bqual.alignment
from bqual.alignment import AlignmentError, AlignmentSizeError, similarity
from bqual.lts import StructureError, Transition, intval

from conftest import (
    PROPERTY_LABELS,
    PROPERTY_ORDER,
    brute_force_similarity,
    coded,
    random_transition_set,
    sorted_transitions,
)
from oracle import agreement, pair_of, pairs_of, set_size

ORDER = ("hour", "minute")


def clock_transition(pre, label, post):
    return Transition((intval(pre[0]), intval(pre[1])), label, (intval(post[0]), intval(post[1])))


def flat(*tokens):
    return tuple(intval(t) if isinstance(t, int) else t for t in tokens)


class TestAgreement:
    def test_one_position_differs(self):
        a = flat(1, 59, "inc_hour", 2, 1)
        b = flat(1, 59, "inc_hour", 2, 0)
        assert agreement(a, b) == 4

    def test_identical(self):
        a = flat(1, 59, "inc_hour", 2, 1)
        assert agreement(a, a) == 5

    def test_fully_disjoint(self):
        assert agreement(flat(0, 0, "a", 0, 0), flat(1, 1, "b", 1, 1)) == 0

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError, match="lengths differ"):
            agreement(flat(1, 2), flat(1, 2, 3))

    def test_value_never_equals_label(self):
        assert agreement(flat(1, "1"), flat("1", 1)) == 0


class TestSimilarity:
    def test_identity_is_set_size(self):
        transitions = frozenset(
            clock_transition((0, m), "inc_minute", (0, m + 1)) for m in range(6)
        )
        total = similarity(*coded(transitions, transitions, ORDER))
        assert total == set_size(transitions, ORDER)

    def test_cm2_worked_value(self, cm2_result, cm1_result):
        total = similarity(*coded(cm2_result.transitions, cm1_result.transitions, ORDER))
        assert total == 7062

    def test_cm2_pair_worked_value(self, cm2_result, cm1_result):
        total = similarity(
            *coded(cm2_result.transitions, cm1_result.transitions, ORDER, pairs=True)
        )
        assert total == 5645

    def test_two_against_one_matches_brute_force(self):
        t1 = frozenset(
            {
                clock_transition((0, 0), "a", (0, 1)),
                clock_transition((0, 0), "b", (1, 0)),
            }
        )
        t2 = frozenset({clock_transition((0, 0), "a", (1, 0))})
        total = similarity(*coded(t1, t2, ORDER))
        assert total == brute_force_similarity(t1, t2, ORDER)
        assert total == 4  # pre agrees, label or post differs

    def test_size_guard_trips_when_both_sides_large(self):
        t1 = frozenset(
            clock_transition((0, m), "a", (0, m + 1)) for m in range(0, 8, 2)
        )
        t2 = frozenset(
            clock_transition((1, m), "b", (1, m + 1)) for m in range(1, 9, 2)
        )
        with pytest.raises(AlignmentSizeError):
            similarity(*coded(t1, t2, ORDER), size_guard=3)
        # one small side is fine
        similarity(*coded(t1, frozenset(list(t2)[:2]), ORDER), size_guard=3)

    def test_size_guard_bounds_the_kept_block(self):
        # Each of 5 rows keeps up to 25 of 1,000 columns: 125 cells > 10 * 10,
        # although only one side passes the guard.
        small = frozenset(clock_transition((0, m), "a", (0, m)) for m in range(5))
        large = frozenset(
            clock_transition((h, m), "b", (h, m + 1)) for h in range(20) for m in range(50)
        )
        for left, right in ((small, large), (large, small)):
            with pytest.raises(
                AlignmentSizeError, match=r"keep 125 cells.*--similarity-threshold"
            ):
                similarity(*coded(left, right, ORDER), size_guard=10)
        # 4 rows keep at most 4 * 16 = 64 cells.
        four = frozenset(sorted_transitions(small)[:4])
        sides = coded(four, large, ORDER)
        assert similarity(*sides, size_guard=10) == similarity(*sides)

    def test_fully_disjoint_sets_score_zero(self):
        t1 = frozenset({clock_transition((0, 0), "a", (0, 0))})
        t2 = frozenset({clock_transition((1, 1), "b", (1, 1))})
        assert similarity(*coded(t1, t2, ORDER)) == 0

    @pytest.mark.parametrize("pairs", [False, True], ids=["transitions", "pairs"])
    def test_width_mismatch_raises(self, cm1_result, pairs):
        # Every element is identical; coding them still checks each row's
        # width (a row carries no names, so only the count can differ).
        elements = cm1_result.transitions
        with pytest.raises(StructureError, match="has 2 values for 3 variables"):
            coded(elements, elements, ("hour", "minute", "second"), pairs=pairs)

    def test_empty_sides(self):
        t = frozenset({clock_transition((0, 0), "a", (0, 1))})
        assert similarity(*coded(frozenset(), t, ORDER)) == 0
        assert similarity(*coded(t, frozenset(), ORDER)) == 0
        assert similarity(*coded(frozenset(), frozenset(), ORDER)) == 0


class TestOracleEquivalence:
    def test_random_instances(self):
        rng = random.Random(20250811)
        for _ in range(200):
            t1 = random_transition_set(rng)
            t2 = random_transition_set(rng)
            got = similarity(*coded(t1, t2))
            want = brute_force_similarity(t1, t2, PROPERTY_ORDER)
            assert got == want, (sorted_transitions(t1), sorted_transitions(t2))


def random_elements(rng, size, pairs, avoid=frozenset()):
    """``size`` transitions outside ``avoid``; with ``pairs``, their
    label-erased pairs are distinct and outside those of ``avoid``."""
    taken = pairs_of(avoid) if pairs else avoid
    out = {}
    while len(out) < size:
        pre, post = ((intval(rng.randint(0, 2)), intval(rng.randint(0, 2))) for _ in range(2))
        t = Transition(pre, rng.choice(PROPERTY_LABELS), post)
        element = pair_of(t) if pairs else t
        if element not in taken:
            out.setdefault(element, t)
    return frozenset(out.values())


class TestPrunedSolve:
    """Remainders of n and m > n*n elements, so that keeping each row's n
    best columns drops some; with a tiny chunk the pruning runs between
    chunks as well."""

    @pytest.mark.parametrize("chunk_cells", [bqual.alignment.CHUNK_CELLS, 4])
    @pytest.mark.parametrize("pairs", [False, True], ids=["transitions", "pairs"])
    def test_lopsided_matches_brute_force(self, monkeypatch, chunk_cells, pairs):
        monkeypatch.setattr(bqual.alignment, "CHUNK_CELLS", chunk_cells)
        rng = random.Random(2026)
        for _ in range(60):
            n = rng.randint(1, 3)
            small = random_elements(rng, n, pairs)
            large = random_elements(rng, rng.randint(n * n + 1, 14), pairs, small)
            left, right = (small, large) if rng.random() < 0.5 else (large, small)
            total = similarity(*coded(left, right, pairs=pairs))
            if pairs:
                left, right = pairs_of(left), pairs_of(right)
            assert total == brute_force_similarity(
                left, right, PROPERTY_ORDER
            )


class TestBestColumns:
    """The counting selection on blocks of small weights, where ties at a
    row's threshold are the rule."""

    def test_ties_keep_n_columns_and_the_total(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            width = int(rng.integers(0, 4))
            n = int(rng.integers(1, 7))
            columns = int(rng.integers(n + 1, 40))
            weights = rng.integers(0, width + 1, size=(n, columns), dtype=np.int32)
            kept = bqual.alignment._best_columns(weights, n, width)
            assert np.array_equal(kept, np.unique(kept))
            for row in weights:
                nth = np.sort(row)[-n]
                assert np.count_nonzero(row[kept] >= nth) >= n
                assert set(np.flatnonzero(row > nth)) <= set(kept.tolist())
            rows, picked = linear_sum_assignment(weights, maximize=True)
            sub_rows, sub_picked = linear_sum_assignment(weights[:, kept], maximize=True)
            assert weights[:, kept][sub_rows, sub_picked].sum() == weights[rows, picked].sum()


class TestProperties:
    def test_symmetry_and_bound(self):
        rng = random.Random(99)
        for _ in range(200):
            t1 = random_transition_set(rng)
            t2 = random_transition_set(rng)
            s12 = similarity(*coded(t1, t2))
            s21 = similarity(*coded(t2, t1))
            assert s12 == s21
            assert s12 <= min(
                set_size(t1, PROPERTY_ORDER), set_size(t2, PROPERTY_ORDER)
            )
            full = 2 * len(PROPERTY_ORDER) + 1
            assert s12 >= full * len(t1 & t2)

    def test_monotone_in_right_side(self):
        rng = random.Random(123)
        for _ in range(100):
            t1 = random_transition_set(rng)
            t2 = random_transition_set(rng, max_elements=5)
            extra = random_transition_set(rng, max_elements=2)
            base = similarity(*coded(t1, t2))
            grown = similarity(*coded(t1, t2 | extra))
            assert grown >= base
