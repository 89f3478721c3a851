"""AST for the bounded machine language.

All nodes are frozen dataclasses, so machines compare structurally and one
generic walk over their fields, ``nodes``, reaches every nested node; the
reference and assignment queries are each one pass over it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Union

BOOL_SET = "BOOL"

COMPARISON_OPS = ("=", "/=", "<", "<=", ">", ">=")
ARITHMETIC_OPS = ("+", "-", "*")


# --- expressions -----------------------------------------------------------


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class EnumLit:
    set_name: str
    element: str


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class BoundRef:
    name: str


@dataclass(frozen=True)
class BinaryExpr:
    op: str  # one of ARITHMETIC_OPS
    left: "Expression"
    right: "Expression"


Expression = Union[IntLit, BoolLit, EnumLit, VarRef, BoundRef, BinaryExpr]


# --- predicates ------------------------------------------------------------


@dataclass(frozen=True)
class TruePredicate:
    pass


@dataclass(frozen=True)
class Comparison:
    op: str  # one of COMPARISON_OPS
    left: Expression
    right: Expression


@dataclass(frozen=True)
class RangeMembership:
    expr: Expression
    low: Expression
    high: Expression


@dataclass(frozen=True)
class SetMembership:
    expr: Expression
    set_name: str


@dataclass(frozen=True)
class And:
    left: "Predicate"
    right: "Predicate"


@dataclass(frozen=True)
class Or:
    left: "Predicate"
    right: "Predicate"


@dataclass(frozen=True)
class Not:
    inner: "Predicate"


Predicate = Union[TruePredicate, Comparison, RangeMembership, SetMembership, And, Or, Not]


# --- substitutions ---------------------------------------------------------


@dataclass(frozen=True)
class Assign:
    variable: str
    expr: Expression


@dataclass(frozen=True)
class Sequence:
    steps: tuple["Substitution", ...]


@dataclass(frozen=True)
class Precondition:
    guard: Predicate
    body: "Substitution"


@dataclass(frozen=True)
class Select:
    branches: tuple[tuple[Predicate, "Substitution"], ...]


@dataclass(frozen=True)
class AnyChoice:
    identifiers: tuple[str, ...]
    where: Predicate
    body: "Substitution"


@dataclass(frozen=True)
class Skip:
    pass


Substitution = Union[Assign, Sequence, Precondition, Select, AnyChoice, Skip]


@dataclass(frozen=True)
class MachineAST:
    name: str
    sets: tuple[tuple[str, tuple[str, ...]], ...]
    variables: tuple[str, ...]
    invariant: Predicate
    initialisation: Substitution
    operations: tuple[tuple[str, Substitution], ...]

    @property
    def element_sets(self) -> dict[str, str]:
        """Map each enumerated element name to its set name."""
        out: dict[str, str] = {}
        for set_name, elements in self.sets:
            for element in elements:
                out[element] = set_name
        return out


# --- structural helpers ----------------------------------------------------


def chain(pred: Predicate, kind) -> list[Predicate]:
    """The operands of the ``kind`` (``And`` or ``Or``) tree at ``pred``,
    left to right.  The parser builds a chain as deep as it is long, so
    this and ``nodes`` walk without recursion."""
    out, stack = [], [pred]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            stack += (node.right, node.left)
        else:
            out.append(node)
    return out


def conjuncts(pred: Predicate) -> list[Predicate]:
    """Flatten the top-level conjunction tree."""
    return chain(pred, And)


def nodes(node):
    """Yield ``node`` and every AST node nested in its fields, depth first,
    descending through tuples (``Sequence.steps``, the ``(guard, body)``
    pairs of ``Select.branches``); names and literal values are skipped."""
    stack = [node]
    while stack:
        node = stack.pop()
        if is_dataclass(node):
            yield node
            stack += reversed([getattr(node, f.name) for f in fields(node)])
        elif isinstance(node, tuple):
            stack += reversed(node)


def free_variables(node) -> frozenset:
    """Machine variables referenced anywhere inside a predicate or
    expression (bound identifiers excluded)."""
    return frozenset(n.name for n in nodes(node) if isinstance(n, VarRef))


def bound_references(node) -> frozenset:
    """Bound identifiers referenced anywhere inside a predicate or
    expression."""
    return frozenset(n.name for n in nodes(node) if isinstance(n, BoundRef))


def assigned_variables(sub: Substitution) -> frozenset:
    """Every machine variable written somewhere inside a substitution."""
    return frozenset(n.variable for n in nodes(sub) if isinstance(n, Assign))


def assigned_on_every_path(sub: Substitution) -> frozenset:
    """The machine variables a substitution writes on every path that yields
    a result: a sequence writes what any of its steps does, a ``SELECT``
    only what all of its branches do, and ``skip`` nothing."""
    if isinstance(sub, Assign):
        return frozenset((sub.variable,))
    if isinstance(sub, Sequence):
        return frozenset().union(*map(assigned_on_every_path, sub.steps))
    if isinstance(sub, (Precondition, AnyChoice)):
        return assigned_on_every_path(sub.body)
    if isinstance(sub, Select) and sub.branches:
        return frozenset.intersection(
            *(assigned_on_every_path(body) for _, body in sub.branches)
        )
    return frozenset()
