from __future__ import annotations

import itertools
import math
import os
import random
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Collection, Iterable, Iterator, Mapping

import pytest

from bqual.bmachine import (
    And,
    AnyChoice,
    Assign,
    BinaryExpr,
    BoolLit,
    BoundRef,
    Comparison,
    EnumLit,
    Expression,
    IntLit,
    MachineAST,
    Not,
    Or,
    Precondition,
    Predicate,
    RangeMembership,
    Select,
    Sequence,
    SetMembership,
    Skip,
    Substitution,
    TruePredicate,
    VarRef,
)
from bqual.codegen import compile_operation
from bqual.explorer import ExplorerError, InitialisationError, explore, infer_domains
from bqual.lexer import _SYMBOLS, KEYWORDS, LexError, Token
from bqual.lts import Transition, Value, code_relations, intval, relation_of
from bqual.mutation import plan_from_json
from bqual.parser import parse_machine

from oracle import (
    FlatList,
    Row,
    agreement,
    compile_predicate,
    compile_substitution,
    flatten,
    initial_states,
)

CORPUS = Path(__file__).parent / "corpus"


def pytest_configure(config):
    # Child processes (CLI runs, the perfbench suite) import bqual from this
    # checkout, as ``pythonpath`` in pyproject.toml makes this process do.
    src = str(Path(__file__).resolve().parents[1] / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))


def corpus_path(name: str) -> Path:
    return CORPUS / name


def corpus_source(name: str) -> str:
    return corpus_path(name).read_text(encoding="utf-8")


def _machine_fixture(name):
    @pytest.fixture(scope="session", name=f"{name.lower()}_machine")
    def machine():
        return parse_machine(corpus_source(f"{name}.mch"))

    return machine


def _result_fixture(name):
    @pytest.fixture(scope="session", name=f"{name.lower()}_result")
    def result(request):
        machine = request.getfixturevalue(f"{name.lower()}_machine")
        return explore(machine, meter_memory=False)

    return result


for _name in ("CM1", "CM2", "CM3", "CM4", "CM5", "CM6"):
    globals()[f"_{_name.lower()}_machine"] = _machine_fixture(_name)
    globals()[f"_{_name.lower()}_result"] = _result_fixture(_name)


def explored(run, initial):
    """What a walk gives, and the walk: its initial, reached, taken,
    violating and deadlock sets and its truncation, or the class and
    message of its error and None."""
    try:
        result = run()
    except ExplorerError as exc:
        return (type(exc), str(exc)), None
    sets = (
        initial(result),
        result.states,
        result.transitions,
        result.violating,
        result.deadlock_states,
        result.truncated,
    )
    return sets, result


def count_transitions(monkeypatch) -> list:
    """Record the fields of every ``Transition`` built from now on.  A
    NamedTuple is built by its ``__new__``; ``Relation.edge_objects``, which
    every view of transitions reads, calls it once per edge."""
    built = []
    construct = Transition.__new__

    def counting(cls, *fields):
        built.append(fields)
        return construct(cls, *fields)

    monkeypatch.setattr(Transition, "__new__", counting)
    return built


def enumerate_substitution(sub, state: Row, machine) -> set:
    """All post-states a substitution of ``machine`` can reach from
    ``state``, by the function ``explore`` compiles for it."""
    return set(compile_operation(sub, machine)(state))


# Small random transition systems for oracle and property testing.
PROPERTY_ORDER = ("x", "y")
PROPERTY_LABELS = "abc"


def random_transition_set(rng: random.Random, max_elements: int = 7) -> frozenset:
    out = set()
    for _ in range(rng.randint(0, max_elements)):
        pre = (intval(rng.randint(0, 2)), intval(rng.randint(0, 2)))
        post = (intval(rng.randint(0, 2)), intval(rng.randint(0, 2)))
        out.add(Transition(pre, rng.choice(PROPERTY_LABELS), post))
    return frozenset(out)


def token_sort_key(token):
    """Deterministic ordering key for a flattened token (Value or label)."""
    if isinstance(token, Value):
        return ("v", *token)
    return ("label", token)


def flat_sort_key(flat: FlatList):
    return tuple(token_sort_key(tok) for tok in flat)


def brute_force_similarity(left, right, variable_order) -> int:
    """Exhaustive maximum over all injective partial matchings, memoized on
    (next left element, used-rights bitmask)."""
    from functools import lru_cache

    a = sorted(
        (flatten(e, variable_order) for e in left), key=flat_sort_key
    )
    b = sorted(
        (flatten(e, variable_order) for e in right), key=flat_sort_key
    )
    weights = [[agreement(x, y) for y in b] for x in a]

    @lru_cache(maxsize=None)
    def best(i: int, used: int) -> int:
        if i == len(a):
            return 0
        top = best(i + 1, used)  # leave element i unmatched
        for j in range(len(b)):
            if not used & (1 << j):
                top = max(top, weights[i][j] + best(i + 1, used | (1 << j)))
        return top

    return best(0, 0)


def coded(left, right, variable_order=PROPERTY_ORDER, pairs=False) -> tuple:
    """Two sets of transitions on one coding, as ``evaluate`` codes two
    relations; with ``pairs``, their label-erased pairs."""
    sides = (relation_of(side, variable_order) for side in (left, right))
    derived, required = code_relations(*sides)
    return (derived.pairs(), required.pairs()) if pairs else (derived, required)


def jaccard_sizes(a: frozenset, b: frozenset) -> tuple[int, int]:
    """The sizes of the intersection and the union of two sets."""
    return len(a & b), len(a | b)


def erased_sizes(op: str, derived: frozenset, changed: frozenset) -> tuple[int, int]:
    """``jaccard_sizes`` of two transition sets with ``op``'s transitions
    removed: the set form of the counts that modularity divides."""

    def erase(transitions):
        return frozenset(t for t in transitions if t.label != op)

    return jaccard_sizes(erase(derived), erase(changed))


def label_counts(transitions) -> Counter:
    """The number of transitions per label: what weighted modularity takes."""
    return Counter(t.label for t in transitions)


def transition_to_json(t: Transition, variable_order: Iterable[str]) -> dict:
    """Canonical JSON object: {"pre": {...}, "op": name, "post": {...}}."""
    pre, label, post = t

    def state(row: Row) -> dict:
        return {name: value.to_json() for name, value in zip(variable_order, row)}

    return {"pre": state(pre), "op": label, "post": state(post)}


def sorted_transitions(transitions: Iterable[Transition]) -> list[Transition]:
    """The transitions in canonical order: that of their flattened tokens."""
    return sorted(transitions, key=lambda t: flat_sort_key((*t[0], t[1], *t[2])))


def object_plan(result, extra=(), missing=(), label_scope=None, element_sets=None):
    """The plan on ``result`` that inserts the transitions ``extra`` and
    removes ``missing``, read from its plan-file object."""
    obj = {
        key: [transition_to_json(t, result.variable_order) for t in transitions]
        for key, transitions in (("extra", extra), ("missing", missing))
    }
    obj["label_scope"] = label_scope
    return plan_from_json(obj, result, element_sets)


def inserted_transitions(result, plan) -> list:
    """The transitions a plan on ``result`` inserts, in the plan's order."""
    rows = [*result.rows, *plan.fresh]
    columns = (column.tolist() for column in (plan.pre, plan.label, plan.post))
    return [Transition(rows[p], result.labels[c], rows[q]) for p, c, q in zip(*columns)]


def plan_fields(plan) -> tuple:
    """A plan's fields in order, its id arrays as lists: two plans are the
    same plan when these are equal."""
    return tuple(v.tolist() if hasattr(v, "tolist") else v for v in vars(plan).values())


def plan_transitions(result, plan) -> tuple[frozenset, frozenset]:
    """The transitions a plan on ``result`` inserts and removes."""
    missing = frozenset(result.edge_objects[i] for i in plan.missing.tolist())
    return frozenset(inserted_transitions(result, plan)), missing


def independent_apply(result, plan, invariant):
    """Plain set arithmetic plus BFS, sharing nothing with apply_plan."""
    extra, missing = plan_transitions(result, plan)
    relation = (set(result.transitions) | extra) - missing
    holds = compile_predicate(invariant)
    order = result.variable_order

    def ok(state):
        return holds(dict(zip(order, state)))

    initial = initial_states(result)
    reached = set(initial)
    stack = list(initial)
    t_changed = set()
    while stack:
        state = stack.pop()
        if not ok(state):
            continue
        for t in relation:
            if t.pre == state:
                t_changed.add(t)
                if t.post not in reached:
                    reached.add(t.post)
                    stack.append(t.post)
    u_changed = (t_changed | missing) - extra
    outs = {t.pre for t in u_changed}
    u_violating = {t for t in u_changed if not ok(t.post) or t.post not in outs}
    return t_changed, u_changed, u_violating


def changed_sets(result, changed) -> SimpleNamespace:
    """The transition sets of a changed system of ``result``, from its masks
    over the derived edges and over its plan's inserted transitions:
    ``t_changed`` (the transitions the changed system takes, inserted ones
    included), ``u_changed`` (the masked set), and its ``u_ok`` and
    ``u_violating`` parts."""

    def transitions(mask):
        return frozenset(itertools.compress(result.edge_objects, mask.tolist()))

    inserted = frozenset(
        itertools.compress(
            inserted_transitions(result, changed.plan), changed.extra_taken.tolist()
        )
    )
    return SimpleNamespace(
        t_changed=transitions(changed.taken) | inserted,
        u_changed=transitions(changed.masked),
        u_ok=transitions(changed.masked & ~changed.violating),
        u_violating=transitions(changed.violating),
    )


class Verdicts(dict):
    """Whether each state satisfies the invariant, evaluated on first lookup."""

    def __init__(self, holds, variable_order: tuple[str, ...]):
        super().__init__()
        self._holds = holds
        self._order = variable_order

    def __missing__(self, state: Row) -> bool:
        ok = self[state] = self._holds(dict(zip(self._order, state)))
        return ok


def reach(
    initial: Collection[Row],
    successors: Callable[[Row], Iterable[Transition]],
    verdicts: Mapping[Row, bool],
    max_states: float = math.inf,
    max_transitions: float = math.inf,
) -> tuple[frozenset, frozenset, frozenset]:
    """Breadth-first walk from ``initial``, in its order, that never expands
    a state breaking the invariant.  Returns the reached states, the
    transitions taken, and the states fully expanded: those none of whose
    successors a limit dropped.  A limit cut the walk short exactly when
    some reached state is not fully expanded (which ones a limit keeps
    depends on the order)."""
    reached = set(initial)
    taken: set[Transition] = set()
    frontier = list(initial)
    cut: set[Row] = set()
    for state in frontier:  # grows while it is walked
        if not verdicts[state]:
            continue  # violating states are terminal
        for t in successors(state):
            post = t.post
            new = post not in reached
            if (new and len(reached) >= max_states) or len(taken) >= max_transitions:
                cut.add(state)
                continue
            if new:
                reached.add(post)
                frontier.append(post)
            taken.add(t)
    reached = frozenset(reached)
    return reached, frozenset(taken), reached - cut if cut else reached


def violations(
    transitions: frozenset, verdicts: Mapping[Row, bool], cut: Collection[Row]
) -> tuple[frozenset, set]:
    """The violating transitions and the live states: those with an outgoing
    transition in ``transitions``, or ``cut``, whose successors a limit
    dropped.  A transition violates when its post-state breaks the
    invariant or is not live."""
    live = {t.pre for t in transitions}
    live.update(cut)
    violating = frozenset(
        t for t in transitions if not verdicts[t.post] or t.post not in live
    )
    return violating, live


def independent_explore(
    machine, max_states: float = math.inf, max_transitions: float = math.inf
) -> SimpleNamespace:
    """The exploration as a walk over rows and ``Transition`` triples and
    set arithmetic, run by the reference interpreter of ``oracle``; it
    shares only the domain inference with ``explore``."""
    infer_domains(machine)
    order = machine.variables
    verdicts = Verdicts(compile_predicate(machine.invariant), order)
    init = compile_substitution(machine.initialisation, machine)
    ops = [
        (name, compile_substitution(body, machine))
        for name, body in machine.operations
    ]
    rows: dict[Row, None] = {}  # the distinct initial rows, in order
    for env in init({}):
        missing = [v for v in order if v not in env]
        if missing:
            raise InitialisationError(
                f"initialisation does not assign {missing[0]!r}"
            )
        rows[tuple(env[v] for v in order)] = None
    if not rows:
        raise InitialisationError("initialisation is unsatisfiable")
    initial = list(rows)

    def successors(state: Row) -> list[Transition]:
        env = dict(zip(order, state))
        return [
            Transition(state, label, tuple(map(result.__getitem__, order)))
            for label, run in ops
            for result in run(env)
        ]

    states, transitions, expanded = reach(
        initial, successors, verdicts, max_states, max_transitions
    )
    cut = states - expanded
    violating, live = violations(transitions, verdicts, cut)
    return SimpleNamespace(
        initial_states=frozenset(initial),
        states=states,
        transitions=transitions,
        violating=violating,
        deadlock_states=states - live,
        truncated=bool(cut),
    )


# The scanner as two character loops, the reference for ``bqual.lexer``'s
# regex scan; the tokens come one at a time, so a test can stop at any.  Its
# one known difference: ``isdigit`` admits digits such as '²' into an
# ``int`` token, which ``int()`` cannot read.


def independent_strip_comments(source: str) -> str:
    """Blank out every comment (spaces, newlines kept) so token positions
    in the result match positions in the original source."""
    out: list[str] = []
    i, n = 0, len(source)
    line, col = 1, 1

    def blank(upto: int) -> None:
        nonlocal i, line, col
        while i < upto:
            if source[i] == "\n":
                out.append("\n")
                line += 1
                col = 1
            else:
                out.append(" ")
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch == "(" and source.startswith("(*", i):
            start_line, start_col = line, col
            end = source.find("*)", i + 2)
            if end < 0:
                raise LexError("unterminated comment", start_line, start_col)
            blank(end + 2)
        elif ch == "/" and source.startswith("//", i):
            end = source.find("\n", i)
            blank(n if end < 0 else end)
        else:
            out.append(ch)
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1
    return "".join(out)


def independent_tokenize(source: str) -> Iterator[Token]:
    """Yield the tokens of ``source`` in order; raises LexError on any
    character outside the language."""
    text = independent_strip_comments(source)
    i, n = 0, len(text)
    line, col = 1, 1

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch.isspace():
            advance(1)
            continue
        if ch.isdigit():
            start_line, start_col = line, col
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield Token("int", text[i:j], start_line, start_col)
            advance(j - i)
            continue
        if ch.isalpha() or ch == "_":
            start_line, start_col = line, col
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "keyword" if word in KEYWORDS else "ident"
            yield Token(kind, word, start_line, start_col)
            advance(j - i)
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                yield Token(sym, sym, line, col)
                advance(len(sym))
                break
        else:
            raise LexError(f"illegal character {ch!r}", line, col)
    yield Token("eof", "", line, col)


# Pretty-printer for the parser round-trip tests: emits source that parses
# back to an equal AST.

_EXPR_PRECEDENCE = {"+": 1, "-": 1, "*": 2}


def expr_to_source(expr: Expression) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, BoolLit):
        return "TRUE" if expr.value else "FALSE"
    if isinstance(expr, EnumLit):
        return expr.element
    if isinstance(expr, (VarRef, BoundRef)):
        return expr.name
    if isinstance(expr, BinaryExpr):
        prec = _EXPR_PRECEDENCE[expr.op]
        left = expr_to_source(expr.left)
        if isinstance(expr.left, BinaryExpr) and _EXPR_PRECEDENCE[expr.left.op] < prec:
            left = f"({left})"
        right = expr_to_source(expr.right)
        if isinstance(expr.right, BinaryExpr) and _EXPR_PRECEDENCE[expr.right.op] <= prec:
            right = f"({right})"
        return f"{left} {expr.op} {right}"
    raise TypeError(f"not an expression: {type(expr).__name__}")


def pred_to_source(pred: Predicate, _level: int = 0) -> str:
    # levels: 0 = or, 1 = and, 2 = atom; right operands of a chain get
    # parentheses so right-nested trees survive the left-associative parse
    if isinstance(pred, Or):
        right = pred_to_source(pred.right, 0)
        if isinstance(pred.right, Or):
            right = f"({right})"
        text = f"{pred_to_source(pred.left, 0)} or {right}"
        return f"({text})" if _level > 0 else text
    if isinstance(pred, And):
        right = pred_to_source(pred.right, 1)
        if isinstance(pred.right, And):
            right = f"({right})"
        text = f"{pred_to_source(pred.left, 1)} & {right}"
        return f"({text})" if _level > 1 else text
    if isinstance(pred, Not):
        return f"not({pred_to_source(pred.inner, 0)})"
    if isinstance(pred, Comparison):
        return f"{expr_to_source(pred.left)} {pred.op} {expr_to_source(pred.right)}"
    if isinstance(pred, RangeMembership):
        return (
            f"{expr_to_source(pred.expr)} : "
            f"{expr_to_source(pred.low)}..{expr_to_source(pred.high)}"
        )
    if isinstance(pred, SetMembership):
        return f"{expr_to_source(pred.expr)} : {pred.set_name}"
    if isinstance(pred, TruePredicate):
        return "0 = 0"
    raise TypeError(f"not a predicate: {type(pred).__name__}")


def subst_to_source(sub: Substitution) -> str:
    if isinstance(sub, Assign):
        return f"{sub.variable} := {expr_to_source(sub.expr)}"
    if isinstance(sub, Sequence):
        return "; ".join(subst_to_source(s) for s in sub.steps)
    if isinstance(sub, Precondition):
        return f"PRE {pred_to_source(sub.guard)} THEN {subst_to_source(sub.body)} END"
    if isinstance(sub, Select):
        parts = []
        for i, (guard, body) in enumerate(sub.branches):
            head = "SELECT" if i == 0 else "WHEN"
            parts.append(f"{head} {pred_to_source(guard)} THEN {subst_to_source(body)}")
        return " ".join(parts) + " END"
    if isinstance(sub, AnyChoice):
        ids = ", ".join(sub.identifiers)
        return (
            f"ANY {ids} WHERE {pred_to_source(sub.where)} "
            f"THEN {subst_to_source(sub.body)} END"
        )
    if isinstance(sub, Skip):
        return "skip"
    raise TypeError(f"not a substitution: {type(sub).__name__}")


def machine_to_source(machine: MachineAST) -> str:
    lines = [f"MACHINE {machine.name}"]
    if machine.sets:
        decls = "; ".join(
            f"{name} = {{{', '.join(elements)}}}" for name, elements in machine.sets
        )
        lines.append(f"SETS {decls}")
    lines.append(f"VARIABLES {', '.join(machine.variables)}")
    lines.append(f"INVARIANT {pred_to_source(machine.invariant)}")
    lines.append(f"INITIALISATION {subst_to_source(machine.initialisation)}")
    lines.append("OPERATIONS")
    op_lines = [
        f"  {name} = {subst_to_source(body)}" for name, body in machine.operations
    ]
    lines.append(";\n".join(op_lines))
    lines.append("END")
    return "\n".join(lines) + "\n"
