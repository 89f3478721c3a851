from __future__ import annotations

import dataclasses
import io
import json
from fractions import Fraction
from operator import attrgetter

import pytest
# The solver's first import (about 0.35 s) happens here, not in a timed example.
import scipy.optimize  # noqa: F401
from hypothesis import example, given, settings, strategies as st

from bqual.alignment import similarity
from bqual.explorer import explore
from bqual.lts import (
    Transition,
    boolval,
    code_relations,
    enumval,
    intval,
    read_transitions_jsonl,
    relation_of,
    write_transitions_jsonl,
)
from bqual.metrics import (
    NotComputable,
    fault_analysability,
    fault_tolerance,
    functional,
    functional_analysability,
    pfappr,
    pfcomp,
    pfcorr,
    reusability,
    tfappr,
    tfcomp,
    tfcorr,
)
from bqual.mutation import apply_plan, modularity_sweep, run_trials
from bqual.parser import parse_machine

from conftest import (
    PROPERTY_ORDER,
    brute_force_similarity,
    changed_sets,
    coded,
    erased_sizes,
    explored,
    flat_sort_key,
    independent_apply,
    independent_explore,
    jaccard_sizes,
    label_counts,
    machine_to_source,
    object_plan,
    pred_to_source,
    sorted_transitions,
    transition_to_json,
)
from oracle import flatten, initial_states, pairs_of, set_size

values = st.integers(min_value=0, max_value=2).map(intval)
labels = st.sampled_from(["a", "b", "c"])


@st.composite
def transition_sets(draw, max_size=7):
    out = set()
    for _ in range(draw(st.integers(min_value=0, max_value=max_size))):
        pre = (draw(values), draw(values))
        post = (draw(values), draw(values))
        out.add(Transition(pre, draw(labels), post))
    return frozenset(out)


nonempty_sets = transition_sets().filter(lambda s: len(s) > 0)


@given(nonempty_sets, nonempty_sets)
@settings(max_examples=200)
def test_ratio_metrics_stay_in_unit_interval(t_d, t_r):
    checks = [
        tfcomp(t_d, t_r),
        tfcorr(t_d, t_r),
        tfappr(t_d, t_r),
        pfcomp(t_d, t_r, PROPERTY_ORDER),
        pfcorr(t_d, t_r, PROPERTY_ORDER),
        pfappr(t_d, t_r, PROPERTY_ORDER),
        reusability(t_d),
        functional_analysability(*jaccard_sizes(t_d, t_r)),
        fault_analysability(*jaccard_sizes(t_d, t_r)),
        fault_tolerance(len(t_d), len(t_d & t_r)),
    ]
    for value in checks:
        assert 0 <= value <= 1


def _read_relation(transitions, sort_keys: bool):
    # Sorted keys ("op", "post", "pre") take the reader's json.loads path.
    lines = (
        json.dumps(transition_to_json(t, PROPERTY_ORDER), sort_keys=sort_keys)
        for t in transitions
    )
    return read_transitions_jsonl(io.StringIO("\n".join(lines)), PROPERTY_ORDER)


@given(transition_sets(), transition_sets(), st.booleans())
@settings(max_examples=200)
def test_coded_counts_match_set_formulas(t_d, t_r, sort_keys):
    # evaluate's path: two relations read as arrays, on one coding.
    derived, required = code_relations(
        _read_relation(t_d, sort_keys), _read_relation(t_r, sort_keys)
    )
    p_d, p_r = pairs_of(t_d), pairs_of(t_r)
    assert (len(derived), len(required)) == (len(t_d), len(t_r))
    assert derived.common(required) == len(t_d & t_r)
    assert (len(derived.pairs()), len(required.pairs())) == (len(p_d), len(p_r))
    assert derived.pairs().common(required.pairs()) == len(p_d & p_r)
    assert (derived.size, required.size) == (
        set_size(t_d, PROPERTY_ORDER), set_size(t_r, PROPERTY_ORDER)
    )
    assert similarity(derived, required).total_agreement == similarity(
        *coded(t_d, t_r)
    ).total_agreement
    # The set-form entry points against the set formulas.
    if t_r:
        assert tfcomp(t_d, t_r) == Fraction(len(t_d & t_r), len(t_r))
        assert tfappr(t_d, t_r) == Fraction(len(p_d & p_r), len(p_r))
    if t_d:
        assert tfcorr(t_d, t_r) == Fraction(len(t_d & t_r), len(t_d))
    # The one copy of the equations against the set formulas, with the
    # exhaustive matching as the alignment's oracle.
    matched = brute_force_similarity(t_d, t_r, PROPERTY_ORDER)
    matched_pairs = brute_force_similarity(p_d, p_r, PROPERTY_ORDER)
    expected = {
        "tfcomp": (len(t_d & t_r), len(t_r)),
        "pfcomp": (matched, set_size(t_r, PROPERTY_ORDER)),
        "tfcorr": (len(t_d & t_r), len(t_d)),
        "pfcorr": (matched, set_size(t_d, PROPERTY_ORDER)),
        "tfappr": (len(p_d & p_r), len(p_r)),
        "pfappr": (matched_pairs, set_size(p_r, PROPERTY_ORDER)),
    }
    values = functional(derived, required)
    assert values.keys() == expected.keys()
    for name, (common, size) in expected.items():
        if size:
            assert values[name]() == Fraction(common, size)
        else:
            with pytest.raises(NotComputable):
                values[name]()


@given(nonempty_sets, nonempty_sets)
@settings(max_examples=200)
def test_partial_dominates_total(t_d, t_r):
    assert pfcomp(t_d, t_r, PROPERTY_ORDER) >= tfcomp(t_d, t_r)
    assert pfcorr(t_d, t_r, PROPERTY_ORDER) >= tfcorr(t_d, t_r)


@given(transition_sets(), transition_sets())
@settings(max_examples=200)
def test_similarity_symmetry_and_bounds(t1, t2):
    s12 = similarity(*coded(t1, t2)).total_agreement
    s21 = similarity(*coded(t2, t1)).total_agreement
    assert s12 == s21
    assert s12 <= min(set_size(t1, PROPERTY_ORDER), set_size(t2, PROPERTY_ORDER))
    assert s12 >= (2 * len(PROPERTY_ORDER) + 1) * len(t1 & t2)


@given(transition_sets(max_size=5), transition_sets(max_size=5))
@settings(max_examples=150)
def test_similarity_matches_exhaustive_oracle(t1, t2):
    assert (
        similarity(*coded(t1, t2)).total_agreement
        == brute_force_similarity(t1, t2, PROPERTY_ORDER)
    )


# Integers, booleans and elements of two enumerated sets, so that one
# position can hold values of different kinds.
mixed_values = st.one_of(
    st.integers(min_value=-2, max_value=2).map(intval),
    st.booleans().map(boolval),
    st.tuples(
        st.sampled_from(["COLOUR", "MODE"]), st.sampled_from(["blue", "off", "red"])
    ).map(lambda key: enumval(*key)),
)


def shared_states(draw):
    # A few shared valuations, so that elements often tie on a pre-state and
    # the later components decide the order.  Every use builds a new row,
    # so equal states are held as distinct tuples.
    valuations = draw(
        st.lists(st.tuples(mixed_values, mixed_values), min_size=1, max_size=4)
    )
    return st.sampled_from(valuations).map(lambda vals: (*vals,))


@st.composite
def mixed_transition_sets(draw, max_size=10):
    state = shared_states(draw)
    transitions = st.builds(Transition, state, labels, state)
    return frozenset(draw(st.lists(transitions, max_size=max_size)))


def flat_token_order(elements):
    """The oracle: flattened elements sorted token by token."""
    flats = [flatten(e, PROPERTY_ORDER) for e in elements]
    return sorted(flats, key=flat_sort_key)


@given(mixed_transition_sets(max_size=8), st.booleans())
@settings(max_examples=300)
def test_canonical_keys_order_like_flat_tokens(transitions, pairs):
    relation = relation_of(transitions, PROPERTY_ORDER)
    if not pairs:
        ordered = [relation.edge_objects[i] for i in relation.canonical[1].tolist()]
        got = [flatten(t, PROPERTY_ORDER) for t in ordered]
        assert got == flat_token_order(transitions)
        return
    # The sorted pair keys, read back: value codes index the values in their
    # canonical order.
    erased = code_relations(relation, relation)[0].pairs()
    values = sorted({v for row in relation.rows for v in row})
    got = [tuple(map(values.__getitem__, row)) for row in erased.rows(erased.keys).tolist()]
    assert got == flat_token_order(pairs_of(transitions))


@given(mixed_transition_sets())
@settings(max_examples=300)
def test_sorted_transitions_order_like_flat_tokens(transitions):
    ordered = sorted_transitions(transitions)
    assert [flatten(t, PROPERTY_ORDER) for t in ordered] == flat_token_order(transitions)
    # The writer's lines come in the same order.
    stream = io.StringIO()
    write_transitions_jsonl(relation_of(transitions, PROPERTY_ORDER), stream)
    lines = [json.dumps(transition_to_json(t, PROPERTY_ORDER)) for t in ordered]
    assert stream.getvalue().splitlines() == lines


@given(nonempty_sets)
@settings(max_examples=100)
def test_identity_requirements_are_perfect(t):
    assert tfcomp(t, t) == tfcorr(t, t) == tfappr(t, t) == 1
    assert pfcomp(t, t, PROPERTY_ORDER) == 1
    assert pfcorr(t, t, PROPERTY_ORDER) == 1
    assert pfappr(t, t, PROPERTY_ORDER) == 1
    assert functional_analysability(*jaccard_sizes(t, t)) == 0


@given(nonempty_sets)
@settings(max_examples=100)
def test_appropriateness_of_superset_pairs(t):
    # once the derived pairs cover every required pair, tfappr is exact 1
    bigger = t | frozenset(
        {Transition(next(iter(t)).pre, "z", next(iter(t)).post)}
    )
    assert pairs_of(bigger) >= pairs_of(t)
    assert tfappr(bigger, t) == 1


# --- exploration against the set walk --------------------------------------------
# Small machines over x : 0..top and y : 0..1 whose operations produce the
# cases the walk must get right: an ANY whose body ignores a bound
# identifier and overlapping SELECT branches (duplicate successors), posts
# that leave the domain or hit a banned value (invariant violations),
# uncovered guards (deadlocks), arithmetic on a boolean (an error only
# once the state that runs it is reached) and an operation that never
# fires, under names declared in any order.  The walk reuses an operation's
# successors across states that agree on what it reads and may leave as it
# is, so some operations assign a variable on one path only, read one after
# assigning it, read none at all or fail where they read none.


@st.composite
def small_machines(draw):
    top = draw(st.integers(min_value=2, max_value=4))
    x_values = st.integers(min_value=0, max_value=top)
    banned = draw(st.none() | x_values)
    posts = st.sampled_from(["0", "x + 1", "2"])

    def x():
        return draw(x_values)

    def one_path():
        k = x()
        return f"SELECT x = {k} THEN y := 0 WHEN x /= {k} THEN skip END"

    templates = [
        lambda: f"PRE x < {x()} THEN x := x + {draw(st.sampled_from([1, 2]))} END",
        lambda: f"ANY a, b WHERE a : 0..{x()} & b : 0..1 THEN x := a END",
        lambda: "ANY a WHERE a : 0..1 THEN y := a END",
        lambda: (
            f"SELECT x <= {x()} THEN x := {draw(posts)} "
            f"WHEN x >= {x()} THEN x := {draw(posts)} END"
        ),
        lambda: f"PRE x = {x()} THEN y := 1 - y END",
        lambda: f"PRE x = {x()} & y = 1 THEN x := x + TRUE END",
        lambda: "PRE x < 0 THEN x := 0 END",
        one_path,
        lambda: "PRE x >= 0 THEN y := 1; x := y END",
        lambda: "ANY a WHERE a : 0..1 THEN x := a; y := a END",
        lambda: "ANY a WHERE a : 0..1 THEN y := a + TRUE END",
    ]
    picks = draw(st.lists(st.sampled_from(templates), min_size=1, max_size=4))
    names = draw(st.permutations([f"op{i}" for i in range(len(picks))]))
    operations = "; ".join(f"{name} = {pick()}" for name, pick in zip(names, picks))
    initialisation = draw(st.sampled_from(
        ["x := 0; y := 0", "ANY v WHERE v : 0..1 THEN x := v; y := v END"]
    ))
    invariant = f"x : 0..{top} & y : 0..1"
    if banned is not None:
        invariant += f" & x /= {banned}"
    return (
        f"MACHINE Small VARIABLES x, y INVARIANT {invariant} "
        f"INITIALISATION {initialisation} OPERATIONS {operations} END"
    )


# From x = 0 the ANY yields x := 0 and x := 1 twice each, so with a bound
# of 1 or 2 a duplicate arrives once the transition bound is reached.
_DUPLICATES = (
    "MACHINE Dup VARIABLES x, y INVARIANT x : 0..2 & y : 0..1 "
    "INITIALISATION x := 0; y := 0 OPERATIONS "
    "op0 = ANY a, b WHERE a : 0..1 & b : 0..1 THEN x := a END END"
)
# Operations declared out of code-point order, one of which never fires;
# from x = 2 both of the others fire, so their codes order its edges.
_UNORDERED = (
    "MACHINE Unordered VARIABLES x, y INVARIANT x : 0..3 & y : 0..1 "
    "INITIALISATION x := 0; y := 0 OPERATIONS "
    "zeta = PRE x < 3 THEN x := x + 1 END; never = PRE x < 0 THEN x := 0 END; "
    "alpha = PRE x >= 2 THEN y := 1 - y END END"
)

# keep leaves y as it is where x /= 2, so its successors depend on y
# although it reads only x; from (0, 0) flip reaches (0, 1), where keep
# must loop on (0, 1).
_ONE_PATH = (
    "MACHINE OnePath VARIABLES x, y INVARIANT x : 0..2 & y : 0..1 "
    "INITIALISATION x := 0; y := 0 OPERATIONS "
    "flip = PRE x = 0 THEN y := 1 - y END; up = PRE x < 2 THEN x := x + 1 END; "
    "keep = SELECT x = 2 THEN y := 0 WHEN x /= 2 THEN skip END END"
)
# jump reads nothing and yields (0, 0) and (1, 1) twice each from every
# state, so every state after the first reuses its 2 successors, after its
# up edge where x < 3.  A limit of 5 transitions falls inside the second
# state's jump, one of 6 stops on its last new successor with a duplicate
# still to come, and with 3 states up's successors are cut while jump's are
# all reached.
_JUMP = (
    "MACHINE Jump VARIABLES x, y INVARIANT x : 0..3 & y : 0..1 "
    "INITIALISATION x := 0; y := 0 OPERATIONS up = PRE x < 3 THEN x := x + 1 END; "
    "jump = ANY a, b WHERE a : 0..1 & b : 0..1 THEN x := a; y := a END END"
)


@given(
    small_machines(),
    st.none() | st.integers(min_value=1, max_value=12),
    st.none() | st.integers(min_value=0, max_value=40),
)
@example(_DUPLICATES, None, 1)
@example(_DUPLICATES, None, 2)
@example(_DUPLICATES, 1, None)
@example(_UNORDERED, None, None)
@example(_ONE_PATH, None, None)
@example(_JUMP, None, 5)
@example(_JUMP, None, 6)
@example(_JUMP, 3, None)
@example(_JUMP, 2, 9)
@settings(max_examples=300, deadline=None)
def test_explore_matches_object_walk(source, max_states, max_transitions):
    machine = parse_machine(source)
    limits = {"max_states": max_states, "max_transitions": max_transitions}
    limits = {name: value for name, value in limits.items() if value is not None}
    got, result = explored(
        lambda: explore(machine, meter_memory=False, **limits), initial_states
    )
    want, oracle = explored(
        lambda: independent_explore(machine, **limits), attrgetter("initial_states")
    )
    assert got == want
    if result is None:
        return
    # One id space: the canonical order is a permutation of the walk's edges.
    order = result.canonical[1]
    ordered = [result.edge_objects[i] for i in order.tolist()]
    assert ordered == sorted_transitions(result.transitions)
    assert object_plan(result, missing=result.edge_objects).missing.tolist() == order.tolist()
    counts = label_counts(oracle.transitions)
    assert list(result.label_counts.items()) == sorted(counts.items())


# --- fault injection on the coded relation --------------------------------------
# The derived system reaches x = 4, which breaks the invariant, so 3 -> 4
# violates and 4 is never left; 5 and 6 are valid but never derived.

_GATE = (
    "MACHINE Gate VARIABLES x INVARIANT x : 0..6 & x /= 4 "
    "INITIALISATION x := 0 OPERATIONS "
    "up = PRE x < 4 THEN x := x + 1 END; "
    "down = PRE x > 0 & x < 3 THEN x := x - 1 END END"
)


_GATE_MACHINE = parse_machine(_GATE)
_GATE_RESULT = explore(_GATE_MACHINE, meter_memory=False)


def _gate(pre, label, post):
    return Transition((intval(pre),), label, (intval(post),))


@st.composite
def gate_plans(draw):
    scope = draw(st.sampled_from([None, "up", "down"]))
    labels = [scope] if scope else ["up", "down"]
    derived = _GATE_RESULT.transitions
    removable = [t for t in sorted_transitions(derived) if t.label in labels]
    edges = (_gate(a, label, b) for a in range(7) for label in labels for b in range(7))
    insertable = [t for t in edges if t not in derived]
    return object_plan(
        _GATE_RESULT,
        extra=draw(st.sets(st.sampled_from(insertable), max_size=6)),
        missing=draw(st.sets(st.sampled_from(removable))),
        label_scope=scope,
    )


def _plan(extra, missing=(), scope=None):
    """A plan on the gate machine from (pre, label, post) triples."""

    def edges(triples):
        return [_gate(*triple) for triple in triples]

    return object_plan(_GATE_RESULT, edges(extra), edges(missing), scope)


@given(gate_plans())
# Into a new state and on from it, into a breaking state and on from it;
# without the initial state's only out-edge; and one plan scoped to an
# operation.
@example(_plan([(3, "up", 5), (5, "up", 6), (2, "down", 4), (4, "down", 0)]))
@example(_plan([(0, "down", 4), (4, "up", 5)], [(0, "up", 1)]))
@example(_plan([(0, "down", 6), (6, "down", 2)], [(2, "down", 1)], "down"))
@settings(max_examples=300, deadline=None)
def test_coded_apply_plan_matches_set_semantics(plan):
    result = _GATE_RESULT
    derived = result.transitions
    changed = apply_plan(result, plan)
    t_changed, u_changed, u_violating = map(
        frozenset, independent_apply(result, plan, _GATE_MACHINE.invariant)
    )
    got = changed_sets(result, changed)
    assert got.t_changed == t_changed
    assert got.u_changed == u_changed
    assert got.u_violating == u_violating
    assert got.u_ok == u_changed - u_violating

    values, _, _ = run_trials(result, [changed])
    assert values == {
        "fault_tolerance": (
            1 - Fraction(len(u_violating), len(u_changed)) if u_changed else None
        ),
        "recoverability": Fraction(
            len((u_changed - u_violating) & derived), len(derived)
        ),
        "functional_analysability": 1 - Fraction(*jaccard_sizes(derived, u_changed)),
        "fault_analysability": (
            1 - Fraction(*jaccard_sizes(result.violating, u_violating))
            if result.violating | u_violating
            else 0
        ),
    }
    per_op, weighted = modularity_sweep(result, [
        dataclasses.replace(changed, plan=dataclasses.replace(changed.plan, label_scope=op))
        for op in result.label_counts
    ])
    expected = {
        op: Fraction(*erased_sizes(op, derived, t_changed)) for op in ("down", "up")
    }
    assert per_op == expected
    assert weighted == sum(
        Fraction(count, len(derived)) * expected[op]
        for op, count in label_counts(derived).items()
    )


# --- printer / parser round trip ---------------------------------------------
# Generated ASTs use only constructs with surface syntax (TruePredicate has
# none, so it is excluded by construction).

_var_names = st.sampled_from(["hour", "minute"])


def _expressions():
    from bqual.bmachine import BinaryExpr, IntLit, VarRef

    leaves = st.one_of(
        st.integers(min_value=-9, max_value=9).map(IntLit),
        _var_names.map(VarRef),
    )
    return st.recursive(
        leaves,
        lambda inner: st.builds(
            BinaryExpr, st.sampled_from(["+", "-", "*"]), inner, inner
        ),
        max_leaves=8,
    )


def _predicates():
    from bqual.bmachine import (
        And,
        Comparison,
        Not,
        Or,
        RangeMembership,
        SetMembership,
        VarRef,
    )

    exprs = _expressions()
    atoms = st.one_of(
        st.builds(
            Comparison,
            st.sampled_from(["=", "/=", "<", "<=", ">", ">="]),
            exprs,
            exprs,
        ),
        st.builds(RangeMembership, _var_names.map(VarRef), exprs, exprs),
        st.builds(SetMembership, _var_names.map(VarRef), st.just("BOOL")),
    )
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Not, inner),
        ),
        max_leaves=10,
    )


def _scope_machine():
    from bqual.parser import parse_machine

    return parse_machine(
        "MACHINE M VARIABLES hour, minute "
        "INVARIANT hour : 0..23 & minute : 0..59 "
        "INITIALISATION hour := 0; minute := 0 OPERATIONS o = skip END"
    )


_SCOPE = _scope_machine()


@given(_predicates())
@settings(max_examples=300)
def test_predicate_print_parse_round_trip(pred):
    from bqual.parser import parse_predicate

    assert parse_predicate(pred_to_source(pred), _SCOPE) == pred


def _substitutions():
    from bqual.bmachine import AnyChoice, Assign, Precondition, Select, Sequence, Skip

    simple = st.one_of(
        st.just(Skip()),
        st.builds(Assign, _var_names, _expressions()),
    )
    compound = st.one_of(
        st.builds(Precondition, _predicates(), simple),
        st.lists(st.tuples(_predicates(), simple), min_size=1, max_size=3).map(
            lambda branches: Select(tuple(branches))
        ),
        st.builds(
            AnyChoice, st.just(("v1",)), _predicates(), simple
        ),
    )
    step = st.one_of(simple, compound)
    # the parser always yields flat sequences, so generation stays flat too
    flat_sequence = st.lists(step, min_size=2, max_size=4).map(
        lambda steps: Sequence(tuple(steps))
    )
    return st.one_of(step, flat_sequence)


@given(_substitutions())
@settings(max_examples=300)
def test_substitution_print_parse_round_trip(sub):
    from bqual.parser import parse_machine

    machine = _SCOPE
    wrapped = machine.__class__(
        name=machine.name,
        sets=machine.sets,
        variables=machine.variables,
        invariant=machine.invariant,
        initialisation=machine.initialisation,
        operations=(("generated", sub),),
    )
    reparsed = parse_machine(machine_to_source(wrapped))
    assert reparsed.operations[0][1] == sub
