"""The quality equations, computed in exact rational arithmetic.

Every ratio metric raises NotComputable instead of dividing by zero; the
report layer turns that into a "not-computed" field with the reason.  The
equations take counts.  The six functional ones are written once, in
``functional``, on the sizes of the two sides on one integer coding
(``lts.Coded``) and what they share: their common elements, or for PFComp
and PFCorr the total agreement that ``alignment.similarity`` returns.
There is one coding path, ``lts.code_relations``: ``evaluate`` codes the
derived and required relations with it, and the set-form ``tfcomp``,
``pfcomp``, ``tfcorr``, ``pfcorr``, ``tfappr`` and ``pfappr`` turn their
sets of ``(pre row, operation, post row)`` triples into relations
(``lts.relation_of``) and code those.

The inputs are plain values, with no wrapper around them: the
exploration, the required relation's operation names (``availability``),
the goals as ``(name, predicate)`` pairs (``goal_appropriateness``) and
counts.  ``QualityReport.metrics`` holds every value of the vector, the
capacity and the two metering values included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .alignment import DEFAULT_SIZE_GUARD, similarity
from .bmachine import Predicate
from .explorer import ExplorationResult, check_goal
from .lts import Coded, Relation, code_relations, relation_of


class NotComputable(ValueError):
    """A metric's denominator is empty for these inputs."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# --- functional suitability ---------------------------------------------------


def completeness(common: int, required: int) -> Fraction:
    """The share of the required side that the derived side matches:
    TFComp and TFAppr from the number of shared transitions (or pairs) and
    of required ones, PFComp and PFAppr from the total agreement that
    ``similarity`` returns and the required side's token count."""
    if not required:
        raise NotComputable("no required transitions")
    return Fraction(common, required)


def correctness(common: int, derived: int) -> Fraction:
    """The share of the derived side that the required side matches:
    TFCorr and PFCorr, from counts as in ``completeness``."""
    if not derived:
        raise NotComputable("no derived transitions")
    return Fraction(common, derived)


def functional(
    t_derived: Coded, t_required: Coded, *, size_guard: int = DEFAULT_SIZE_GUARD
) -> dict[str, Callable[[], Fraction]]:
    """The six functional metrics of the derived and required transitions,
    on one coding, as callables by name.  TFAppr and PFAppr are TFComp and
    PFComp of the label-erased pairs.  What they share is computed on first
    use and kept: the alignment's total, read by pfcomp and pfcorr, and
    the metrics of the pairs, read by tfappr and pfappr."""
    t_d, t_r = t_derived, t_required
    aligned = cache(lambda: similarity(t_d, t_r, size_guard=size_guard))
    erased = cache(lambda: functional(t_d.pairs(), t_r.pairs(), size_guard=size_guard))
    return {
        "tfcomp": lambda: completeness(t_d.common(t_r), len(t_r)),
        "pfcomp": lambda: completeness(aligned(), t_r.size),
        "tfcorr": lambda: correctness(t_d.common(t_r), len(t_d)),
        "pfcorr": lambda: correctness(aligned(), t_d.size),
        "tfappr": lambda: erased()["tfcomp"](),
        "pfappr": lambda: erased()["pfcomp"](),
    }


def _set_form(name: str, t_derived, t_required, variable_order=None) -> Fraction:
    """Metric ``name`` of two sets of transition triples, coded as
    ``evaluate`` codes its relations.  Without ``variable_order`` each row
    must be as wide as the first transition's pre row, and the variables
    are left unnamed: the coding reads only their number, and neither the
    metric nor an error shows a name."""
    if variable_order is None:
        first = next(iter(t_derived or t_required), None)
        variable_order = ("",) * (len(first[0]) if first else 0)
    sides = (relation_of(t, variable_order) for t in (t_derived, t_required))
    return functional(*code_relations(*sides))[name]()


def tfcomp(t_derived: frozenset, t_required: frozenset) -> Fraction:
    """Share of the required transitions that were derived."""
    return _set_form("tfcomp", t_derived, t_required)


def pfcomp(
    t_derived: frozenset, t_required: frozenset, variable_order: Iterable[str]
) -> Fraction:
    """Alignment score against the required set, relative to its size."""
    return _set_form("pfcomp", t_derived, t_required, variable_order)


def tfcorr(t_derived: frozenset, t_required: frozenset) -> Fraction:
    """Share of the derived transitions that were required."""
    return _set_form("tfcorr", t_derived, t_required)


def pfcorr(
    t_derived: frozenset, t_required: frozenset, variable_order: Iterable[str]
) -> Fraction:
    """Alignment score against the derived set, relative to its size."""
    return _set_form("pfcorr", t_derived, t_required, variable_order)


def tfappr(t_derived: frozenset, t_required: frozenset) -> Fraction:
    """``tfcomp`` over the label-erased pre/post pairs."""
    return _set_form("tfappr", t_derived, t_required)


def pfappr(
    t_derived: frozenset, t_required: frozenset, variable_order: Iterable[str]
) -> Fraction:
    """``pfcomp`` over the label-erased pre/post pairs."""
    return _set_form("pfappr", t_derived, t_required, variable_order)


# --- security and reliability --------------------------------------------------


def invariant_satisfiability(result: ExplorationResult) -> Fraction:
    """Share of derived transitions that trigger no violation."""
    summary = result.summary
    if not summary["transitions"]:
        raise NotComputable("no derived transitions")
    return Fraction(summary["ok_transitions"], summary["transitions"])


def availability(result: ExplorationResult, f_required: frozenset) -> Fraction:
    """Share of required operations that never trigger a violation."""
    if not f_required:
        raise NotComputable("no required operations")
    clean = np.setdiff1d(result.label, result.label[result.violates]).tolist()
    names = {result.labels[code] for code in clean}
    return Fraction(len(names & f_required), len(f_required))


def accountability(result: ExplorationResult) -> Fraction:
    """Share of derived states with at most one ingoing transition."""
    count = len(result.rows)
    if not count:
        raise NotComputable("no derived states")
    ingoing = np.bincount(result.post, minlength=count)
    return Fraction(int(np.count_nonzero(ingoing <= 1)), count)


def fault_tolerance(changed: int, violating: int) -> Fraction:
    """One minus the violating share of the masked changed set, from the
    sizes of the set and of its violating part."""
    if not changed:
        raise NotComputable("masked changed set is empty")
    return 1 - Fraction(violating, changed)


def recoverability(kept: int, derived: int) -> Fraction:
    """Share of the intended transitions that the changed system keeps
    deriving without violations: ``kept`` is the size of the masked
    changed set's non-violating part within the ``derived`` transitions."""
    if not derived:
        raise NotComputable("no derived transitions")
    return Fraction(kept, derived)


# --- maintainability ------------------------------------------------------------


def functional_analysability(common: int, union: int) -> Fraction:
    """One minus the Jaccard similarity of derived and masked-changed sets,
    from the sizes of their intersection and union."""
    if not union:
        raise NotComputable("both transition sets are empty")
    return 1 - Fraction(common, union)


def fault_analysability(common: int, union: int) -> Fraction:
    """One minus the Jaccard similarity of the violating subsets, from the
    sizes of their intersection and union; when neither side violates
    anything the change exposed no difference, which counts as zero
    analysability."""
    if not union:
        return Fraction(0)
    return 1 - Fraction(common, union)


def modularity_of(op: str, common: int, union: int) -> Fraction:
    """Jaccard similarity of the derived and changed sets with ``op``'s
    transitions removed, from the sizes of their intersection and union."""
    if not union:
        raise NotComputable(f"no transitions outside operation {op!r}")
    return Fraction(common, union)


def weighted_modularity(
    per_op: Mapping[str, Fraction], label_counts: Mapping[str, int]
) -> Fraction:
    """Per-operation modularity weighted by each operation's share of the
    derived transitions, given as the number of transitions per label."""
    total = sum(label_counts.values())
    if not total:
        raise NotComputable("no derived transitions")
    missing = [label for label in label_counts if label not in per_op]
    if missing:
        raise NotComputable(f"no modularity value for operation {sorted(missing)[0]!r}")
    return sum(
        (Fraction(n, total) * per_op[label] for label, n in label_counts.items()),
        Fraction(0),
    )


def reusability(derived: Relation | frozenset) -> Fraction:
    """One minus operations per derived transition (of a relation or a set)."""
    ops = derived.operations if isinstance(derived, Relation) else {t[1] for t in derived}
    if not len(derived):
        raise NotComputable("no derived transitions")
    return 1 - Fraction(len(ops), len(derived))


# --- performance efficiency and usability ----------------------------------------


def capacity(result: ExplorationResult) -> int:
    return len(result.rows) + len(result.pre)


def goal_appropriateness(
    result: ExplorationResult, goals: Sequence[tuple[str, Predicate]]
) -> Fraction:
    """Share of the ``(name, predicate)`` goals satisfied by some derived state."""
    if not goals:
        raise NotComputable("no goal predicates")
    achieved = sum(1 for _, pred in goals if check_goal(result, pred))
    return Fraction(achieved, len(goals))


def learnability(n_words: int, n_limit: int) -> Fraction:
    """One minus the capped word count relative to the word limit."""
    if n_limit <= 0:
        raise NotComputable("word limit must be positive")
    return 1 - Fraction(min(n_words, n_limit), n_limit)


# --- the report value object -----------------------------------------------------

#: Characteristics the source equations cover only indirectly; each maps to
#: the computed metrics that measure it.
DERIVED_CHARACTERISTICS = {
    "maturity": ["tfcomp", "tfcorr", "invariant_satisfiability"],
    "confidentiality": ["invariant_satisfiability"],
    "integrity": ["invariant_satisfiability"],
    "authenticity": ["invariant_satisfiability"],
    "non_repudiation": ["availability"],
    "user_error_protection": ["invariant_satisfiability", "availability"],
    "appropriateness_recognisability": ["tfappr", "pfappr", "goal_appropriateness"],
    "modifiability": [
        "functional_analysability",
        "fault_analysability",
        "recoverability",
        "modularity",
        "learnability",
    ],
    "testability": ["cpu_seconds"],
    "time_behaviour": ["cpu_seconds"],
    "resource_utilisation": ["peak_memory_bytes"],
}

@dataclass
class QualityReport:
    """The full metric vector plus provenance.

    ``metrics`` maps each name to its value: an exact Fraction for a
    computed ratio, None for one not computed (``reasons`` says why), and
    a plain number for ``capacity``, ``cpu_seconds`` and
    ``peak_memory_bytes``.
    """

    machine_name: str
    metrics: dict = field(default_factory=dict)
    reasons: dict = field(default_factory=dict)
    per_operation_modularity: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    trial_exclusions: dict = field(default_factory=dict)

    def mark_not_computed(self, name: str, reason: str) -> None:
        self.metrics[name] = None
        self.reasons[name] = reason

    def value(self, name: str):
        return self.metrics.get(name)
