"""Recursive-descent parser for the bounded machine language.

Clause order is fixed: MACHINE, optional SETS, VARIABLES, INVARIANT,
INITIALISATION, OPERATIONS.  Identifiers are resolved while parsing, so
undeclared references and duplicate names are reported with positions.
Substitutions, predicates, expressions and unary minus nest at most
``MAX_NESTING`` deep, so that parsing and every walk over the tree stay
within Python's recursion limit; deeper nesting is a ParseError.
"""

from __future__ import annotations

from .bmachine import (
    ARITHMETIC_OPS,
    BOOL_SET,
    COMPARISON_OPS,
    And,
    AnyChoice,
    Assign,
    BinaryExpr,
    BoolLit,
    BoundRef,
    Comparison,
    EnumLit,
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
    VarRef,
    assigned_variables,
)
from .lexer import Token, tokenize

MAX_NESTING = 256


class ParseError(ValueError):
    def __init__(self, message: str, token: Token, expected=()):
        loc = f"{token.line}:{token.column}"
        found = token.text if token.kind != "eof" else "end of input"
        text = f"{loc}: {message} (found {found!r}"
        if expected:
            text += f", expected {', '.join(sorted(expected))}"
        text += ")"
        super().__init__(text)
        self.line = token.line
        self.column = token.column
        self.expected = frozenset(expected)


class _TokenStream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0  # the nested substitutions, predicates and expressions

    def enter(self) -> None:
        """Open one more nesting level; callers close it with ``depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nested more than {MAX_NESTING} levels deep", self.peek())

    def peek(self, offset: int = 0) -> Token:
        i = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        tok = self.tokens[self.index]
        if tok.kind != "eof":
            self.index += 1
        return tok

    def at_keyword(self, word: str, offset: int = 0) -> bool:
        tok = self.peek(offset)
        return tok.kind == "keyword" and tok.text == word

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.peek()
        if tok.kind != kind:
            return None
        if text is not None and tok.text != text:
            return None
        return self.advance()

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> Token:
        tok = self.accept(kind, text)
        if tok is None:
            expected = text if text is not None else kind
            raise ParseError(
                f"expected {what or expected}", self.peek(), expected={expected}
            )
        return tok


class _Scope:
    """Declared names visible while parsing predicates and substitutions."""

    def __init__(self):
        self.variables: list[str] = []
        self.set_names: set[str] = {BOOL_SET}
        self.elements: dict[str, str] = {}
        self.bound: list[str] = []

    def resolve(self, tok: Token):
        name = tok.text
        if name in self.bound:
            return BoundRef(name)
        if name in self.variables:
            return VarRef(name)
        if name == "TRUE":
            return BoolLit(True)
        if name == "FALSE":
            return BoolLit(False)
        if name in self.elements:
            return EnumLit(self.elements[name], name)
        raise ParseError(f"undeclared identifier {name!r}", tok)


_SUBST_KEYWORDS = {"PRE", "SELECT", "ANY", "skip"}


def _starts_substitution(stream: _TokenStream, offset: int) -> bool:
    tok = stream.peek(offset)
    if tok.kind == "keyword" and tok.text in _SUBST_KEYWORDS:
        return True
    # Assignment start; `ident =` instead begins the next operation.
    return tok.kind == "ident" and stream.peek(offset + 1).kind == ":="


def parse_machine(source: str) -> MachineAST:
    """Parse and validate a full machine; raises LexError or ParseError."""
    stream = _TokenStream(tokenize(source))
    scope = _Scope()

    stream.expect("keyword", "MACHINE")
    name = stream.expect("ident", what="machine name").text

    sets: list[tuple[str, tuple[str, ...]]] = []
    if stream.accept("keyword", "SETS"):
        while True:
            set_tok = stream.expect("ident", what="set name")
            if set_tok.text in scope.set_names:
                raise ParseError(f"duplicate set name {set_tok.text!r}", set_tok)
            stream.expect("=")
            stream.expect("{")
            elements: list[str] = []
            while True:
                elem_tok = stream.expect("ident", what="set element")
                if elem_tok.text in scope.elements or elem_tok.text in ("TRUE", "FALSE"):
                    raise ParseError(
                        f"duplicate enumerated element {elem_tok.text!r}", elem_tok
                    )
                scope.elements[elem_tok.text] = set_tok.text
                elements.append(elem_tok.text)
                if not stream.accept(","):
                    break
            stream.expect("}")
            scope.set_names.add(set_tok.text)
            sets.append((set_tok.text, tuple(elements)))
            if not stream.accept(";"):
                break
            if stream.at_keyword("VARIABLES"):
                break

    stream.expect("keyword", "VARIABLES")
    while True:
        var_tok = stream.expect("ident", what="variable name")
        var = var_tok.text
        if var in scope.variables:
            raise ParseError(f"duplicate variable {var!r}", var_tok)
        if var in scope.elements or var in ("TRUE", "FALSE"):
            raise ParseError(
                f"variable {var!r} collides with an enumerated element", var_tok
            )
        if var in scope.set_names:
            raise ParseError(f"variable {var!r} collides with a set name", var_tok)
        scope.variables.append(var)
        if not stream.accept(","):
            break

    stream.expect("keyword", "INVARIANT")
    invariant = _parse_predicate(stream, scope)

    stream.expect("keyword", "INITIALISATION")
    initialisation = _parse_substitution(stream, scope)

    stream.expect("keyword", "OPERATIONS")
    operations: list[tuple[str, Substitution]] = []
    seen_ops: set[str] = set()
    while True:
        op_tok = stream.expect("ident", what="operation name")
        if op_tok.text in seen_ops:
            raise ParseError(f"duplicate operation {op_tok.text!r}", op_tok)
        seen_ops.add(op_tok.text)
        stream.expect("=")
        body = _parse_substitution(stream, scope)
        operations.append((op_tok.text, body))
        if not stream.accept(";"):
            break
    stream.expect("keyword", "END")
    stream.expect("eof", what="end of machine")

    return MachineAST(
        name=name,
        sets=tuple(sets),
        variables=tuple(scope.variables),
        invariant=invariant,
        initialisation=initialisation,
        operations=tuple(operations),
    )


def parse_predicate(source: str, machine: MachineAST) -> Predicate:
    """Parse a standalone predicate (goal syntax) in a machine's scope."""
    stream = _TokenStream(tokenize(source))
    scope = _Scope()
    scope.variables = list(machine.variables)
    scope.set_names |= {name for name, _ in machine.sets}
    scope.elements = machine.element_sets
    pred = _parse_predicate(stream, scope)
    stream.expect("eof", what="end of predicate")
    return pred


# --- substitutions ---------------------------------------------------------


def _parse_substitution(stream: _TokenStream, scope: _Scope) -> Substitution:
    stream.enter()
    steps = [_parse_simple_substitution(stream, scope)]
    parallel_group = [steps[0]]
    while stream.peek().kind in (";", "||"):
        if not _starts_substitution(stream, 1):
            break
        sep = stream.advance()
        step = _parse_simple_substitution(stream, scope)
        if sep.kind == "||":
            taken = frozenset().union(
                *(assigned_variables(s) for s in parallel_group)
            )
            clash = taken & assigned_variables(step)
            if clash:
                raise ParseError(
                    f"parallel branches both assign {sorted(clash)[0]!r}", sep
                )
            parallel_group.append(step)
        else:
            parallel_group = [step]
        steps.append(step)
    stream.depth -= 1
    if len(steps) == 1:
        return steps[0]
    return Sequence(tuple(steps))


def _parse_simple_substitution(stream: _TokenStream, scope: _Scope) -> Substitution:
    tok = stream.peek()
    if tok.kind == "keyword":
        if tok.text == "skip":
            stream.advance()
            return Skip()
        if tok.text == "PRE":
            stream.advance()
            guard = _parse_predicate(stream, scope)
            stream.expect("keyword", "THEN")
            body = _parse_substitution(stream, scope)
            stream.expect("keyword", "END")
            return Precondition(guard, body)
        if tok.text == "SELECT":
            branches = []
            # SELECT opens the first branch and WHEN each later one.
            while stream.accept("keyword", "WHEN" if branches else "SELECT"):
                guard = _parse_predicate(stream, scope)
                stream.expect("keyword", "THEN")
                branches.append((guard, _parse_substitution(stream, scope)))
            stream.expect("keyword", "END")
            return Select(tuple(branches))
        if tok.text == "ANY":
            stream.advance()
            identifiers = []
            while True:
                id_tok = stream.expect("ident", what="bound identifier")
                bound = id_tok.text
                if (
                    bound in scope.variables
                    or bound in scope.bound
                    or bound in scope.elements
                    or bound in scope.set_names
                    or bound in identifiers
                    or bound in ("TRUE", "FALSE")
                ):
                    raise ParseError(
                        f"bound identifier {bound!r} shadows an existing name", id_tok
                    )
                identifiers.append(bound)
                if not stream.accept(","):
                    break
            stream.expect("keyword", "WHERE")
            scope.bound.extend(identifiers)
            try:
                where = _parse_predicate(stream, scope)
                stream.expect("keyword", "THEN")
                body = _parse_substitution(stream, scope)
            finally:
                del scope.bound[len(scope.bound) - len(identifiers):]
            stream.expect("keyword", "END")
            return AnyChoice(tuple(identifiers), where, body)
    if tok.kind == "ident":
        target = stream.advance()
        stream.expect(":=", what="':='")
        if target.text not in scope.variables:
            if target.text in scope.bound:
                raise ParseError(
                    f"cannot assign to bound identifier {target.text!r}", target
                )
            raise ParseError(f"undeclared variable {target.text!r}", target)
        expr = _parse_expression(stream, scope)
        return Assign(target.text, expr)
    raise ParseError(
        "expected a substitution",
        tok,
        expected={"PRE", "SELECT", "ANY", "skip", "assignment"},
    )


# --- predicates ------------------------------------------------------------


def _parse_predicate(stream: _TokenStream, scope: _Scope) -> Predicate:
    stream.enter()
    pred = _parse_conjunction(stream, scope)
    while stream.accept("keyword", "or"):
        pred = Or(pred, _parse_conjunction(stream, scope))
    stream.depth -= 1
    return pred


def _parse_conjunction(stream: _TokenStream, scope: _Scope) -> Predicate:
    pred = _parse_predicate_atom(stream, scope)
    while stream.accept("&"):
        pred = And(pred, _parse_predicate_atom(stream, scope))
    return pred


def _paren_wraps_predicate(stream: _TokenStream) -> bool:
    """Look past the matching ')' : if an operator follows, the '(' opens
    an expression, otherwise a parenthesized predicate."""
    depth = 0
    offset = 0
    while True:
        tok = stream.peek(offset)
        if tok.kind == "eof":
            return True  # let the predicate parser report the real error
        if tok.kind == "(":
            depth += 1
        elif tok.kind == ")":
            depth -= 1
            if depth == 0:
                after = stream.peek(offset + 1)
                return after.kind not in (*ARITHMETIC_OPS, "..", ":", *COMPARISON_OPS)
        offset += 1


def _parse_predicate_atom(stream: _TokenStream, scope: _Scope) -> Predicate:
    tok = stream.peek()
    if tok.kind == "keyword" and tok.text == "not":
        stream.advance()
        stream.expect("(")
        inner = _parse_predicate(stream, scope)
        stream.expect(")")
        return Not(inner)
    if tok.kind == "(" and _paren_wraps_predicate(stream):
        stream.advance()
        inner = _parse_predicate(stream, scope)
        stream.expect(")")
        return inner

    left = _parse_expression(stream, scope)
    op_tok = stream.peek()
    if op_tok.kind in COMPARISON_OPS:
        stream.advance()
        right = _parse_expression(stream, scope)
        return Comparison(op_tok.kind, left, right)
    if op_tok.kind == ":":
        stream.advance()
        rhs = stream.peek()
        if rhs.kind == "ident" and rhs.text in scope.set_names:
            stream.advance()
            return SetMembership(left, rhs.text)
        low = _parse_expression(stream, scope)
        stream.expect("..", what="'..' range")
        high = _parse_expression(stream, scope)
        return RangeMembership(left, low, high)
    raise ParseError(
        "expected a comparison or membership operator",
        op_tok,
        expected=set(COMPARISON_OPS) | {":"},
    )


# --- expressions -----------------------------------------------------------


def _parse_expression(stream: _TokenStream, scope: _Scope):
    stream.enter()
    expr = _parse_term(stream, scope)
    while stream.peek().kind in ("+", "-"):
        op = stream.advance().kind
        expr = BinaryExpr(op, expr, _parse_term(stream, scope))
    stream.depth -= 1
    return expr


def _parse_term(stream: _TokenStream, scope: _Scope):
    expr = _parse_factor(stream, scope)
    while stream.peek().kind == "*":
        stream.advance()
        expr = BinaryExpr("*", expr, _parse_factor(stream, scope))
    return expr


def _parse_factor(stream: _TokenStream, scope: _Scope):
    tok = stream.peek()
    if tok.kind == "int":
        stream.advance()
        return IntLit(int(tok.text))
    if tok.kind == "-":
        stream.advance()
        stream.enter()
        inner = _parse_factor(stream, scope)
        stream.depth -= 1
        if isinstance(inner, IntLit):
            return IntLit(-inner.value)
        return BinaryExpr("-", IntLit(0), inner)
    if tok.kind == "ident":
        stream.advance()
        return scope.resolve(tok)
    if tok.kind == "(":
        stream.advance()
        expr = _parse_expression(stream, scope)
        stream.expect(")")
        return expr
    raise ParseError(
        "expected an expression", tok, expected={"int", "ident", "(", "-"}
    )
