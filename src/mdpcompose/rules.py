"""Boolean rule expressions over observation features, plus effect equations.

Rule grammar (AND binds tighter than OR, no parentheses):

    rule        := conjunction (OR conjunction)*
    conjunction := comparison ((AND | "⊓") comparison)*
    comparison  := IDENT op constant
    op          := == | != | <= | >= | < | >
    constant    := number | quoted string

Equation grammar (ordinary arithmetic):

    expr   := term ((+|-) term)*
    term   := factor ((*|/) factor)*
    factor := - factor | ( expr ) | number | IDENT

A rule that is one conjunction of ``==`` comparisons against numbers, as
every state rule of the generated corpora is, keeps its (feature, value)
pairs from parsing on, and evaluation walks them in order: an absent
feature raises MissingFeatureError, a string value fails its pair, and any
other value is compared as ``float(value)``, so a bool reads as 1.0 or 0.0.
The first failing pair ends the walk, as the comparisons would. Every
other rule evaluates its comparisons one by one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import EvaluationError, MissingFeatureError, RuleSyntaxError

SQUARE_CAP = "⊓"  # accepted as an alias for AND

_RULE_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<op>==|!=|<=|>=|<|>)"
    r"|(?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<string>\"[^\"]*\")"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*|" + SQUARE_CAP + r")"
    r")"
)

_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Comparison:
    feature: str
    op: str
    value: float | str

    def evaluate(self, features) -> bool:
        if self.feature not in features:
            raise MissingFeatureError(self.feature)
        actual = features[self.feature]
        if isinstance(self.value, str):
            if not isinstance(actual, str):
                if self.op == "==":
                    return False
                if self.op == "!=":
                    return True
                raise EvaluationError(
                    f"ordered comparison of {self.feature!r} against string constant"
                )
            return _OPS[self.op](actual, self.value)
        if isinstance(actual, bool):
            actual = float(actual)
        if isinstance(actual, str):
            if self.op == "==":
                return False
            if self.op == "!=":
                return True
            raise EvaluationError(
                f"ordered comparison of non-numeric feature {self.feature!r}"
            )
        return _OPS[self.op](float(actual), self.value)


@dataclass(frozen=True)
class RuleExpr:
    """Parsed rule: disjunction of conjunctions of comparisons.

    Both derived fields are set once, at construction. ``equalities`` holds
    the (feature, value) pairs, in clause order, of a rule whose one clause
    compares only with ``==`` against numbers, and None for any other rule;
    ``evaluate`` reads those pairs instead of the comparisons. ``_pinned``
    is what ``pinned_values`` returns."""

    clauses: tuple[tuple[Comparison, ...], ...]
    source: str = ""
    equalities: tuple[tuple[str, float], ...] | None = field(init=False, repr=False, compare=False)
    _pinned: dict[str, float | str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        clause = self.clauses[0] if len(self.clauses) == 1 else ()
        pinned = {cmp.feature: cmp.value for cmp in clause if cmp.op == "=="}
        if len(pinned) != len(clause):  # another operator, or a repeated feature
            pinned = {}
        numeric = all(cmp.op == "==" and not isinstance(cmp.value, str) for cmp in clause)
        equalities = tuple((cmp.feature, cmp.value) for cmp in clause) if clause and numeric else None
        object.__setattr__(self, "equalities", equalities)
        object.__setattr__(self, "_pinned", pinned)

    def evaluate(self, features) -> bool:
        if self.equalities is None:
            return any(
                all(cmp.evaluate(features) for cmp in clause) for clause in self.clauses
            )
        # Comparison.evaluate of an ``==`` against a number, pair by pair
        for feature, value in self.equalities:
            if feature not in features:
                raise MissingFeatureError(feature)
            actual = features[feature]
            if isinstance(actual, str) or float(actual) != value:
                return False
        return True

    def feature_names(self) -> set[str]:
        return {cmp.feature for clause in self.clauses for cmp in clause}

    def pinned_values(self) -> dict[str, float | str]:
        """Feature assignments forced by the rule, when it is a pure
        conjunction of equality comparisons on distinct features; empty
        dict otherwise. Shared by every caller: read it, do not change it."""
        return self._pinned


def _tokenize_rule(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _RULE_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise RuleSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "op":
            tokens.append(("op", m.group("op"), pos))
        elif m.lastgroup == "number":
            tokens.append(("number", float(m.group("number")), pos))
        elif m.lastgroup == "string":
            tokens.append(("string", m.group("string")[1:-1], pos))
        else:
            word = m.group("word")
            upper = word.upper()
            if upper in ("AND", "OR") or word == SQUARE_CAP:
                tokens.append(("bool", "AND" if word == SQUARE_CAP else upper, pos))
            else:
                tokens.append(("ident", word, pos))
        pos = m.end()
    return tokens


def parse_rule(text: str) -> RuleExpr:
    """Parse a rule expression; raises RuleSyntaxError with the position."""
    tokens = _tokenize_rule(text)
    if not tokens:
        raise RuleSyntaxError("empty expression", 0)
    idx = 0

    def expect(kind, what):
        nonlocal idx
        if idx >= len(tokens):
            raise RuleSyntaxError(f"unexpected end of expression, expected {what}", len(text))
        tok = tokens[idx]
        if tok[0] != kind:
            raise RuleSyntaxError(f"expected {what}, found {tok[1]!r}", tok[2])
        idx += 1
        return tok

    def comparison():
        feat = expect("ident", "feature name")[1]
        op = expect("op", "comparison operator")[1]
        if idx < len(tokens) and tokens[idx][0] in ("number", "string"):
            value = tokens[idx][1]
        else:
            raise RuleSyntaxError(
                "expected numeric or quoted string constant",
                tokens[idx][2] if idx < len(tokens) else len(text),
            )
        advance()
        return Comparison(feat, op, value)

    def advance():
        nonlocal idx
        idx += 1

    clauses = []
    current = [comparison()]
    while idx < len(tokens):
        tok = tokens[idx]
        if tok[0] != "bool":
            raise RuleSyntaxError(f"expected AND or OR, found {tok[1]!r}", tok[2])
        advance()
        if tok[1] == "AND":
            current.append(comparison())
        else:
            clauses.append(tuple(current))
            current = [comparison()]
    clauses.append(tuple(current))
    return RuleExpr(tuple(clauses), source=text)


# --- arithmetic equations ---------------------------------------------------


@dataclass(frozen=True)
class EquationExpr:
    """Parsed arithmetic expression with free symbols."""

    root: tuple
    source: str = ""
    symbols: frozenset[str] = field(default_factory=frozenset)

    def evaluate(self, bindings) -> float:
        return _eval_node(self.root, bindings)


def _eval_node(node, bindings):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "sym":
        name = node[1]
        if name not in bindings:
            raise EvaluationError(f"unbound symbol {name!r}")
        value = bindings[name]
        if isinstance(value, str):
            raise EvaluationError(f"symbol {name!r} is bound to a non-numeric value")
        return float(value)
    if kind == "neg":
        return -_eval_node(node[1], bindings)
    left = _eval_node(node[1], bindings)
    right = _eval_node(node[2], bindings)
    if kind == "+":
        return left + right
    if kind == "-":
        return left - right
    if kind == "*":
        return left * right
    if right == 0.0:
        raise EvaluationError(f"division by zero in {node!r}")
    return left / right


_EQ_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[-+*/()]))"
)


def parse_equation(text: str) -> EquationExpr:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _EQ_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise RuleSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "number":
            tokens.append(("num", float(m.group("number")), pos))
        elif m.lastgroup == "ident":
            tokens.append(("sym", m.group("ident"), pos))
        else:
            tokens.append((m.group("punct"), None, pos))
        pos = m.end()
    if not tokens:
        raise RuleSyntaxError("empty expression", 0)

    idx = 0
    symbols = set()

    def peek():
        return tokens[idx][0] if idx < len(tokens) else None

    def take():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def factor():
        kind = peek()
        if kind is None:
            raise RuleSyntaxError("unexpected end of expression", len(text))
        if kind == "-":
            take()
            return ("neg", factor())
        if kind == "(":
            take()
            node = expr()
            if peek() != ")":
                raise RuleSyntaxError(
                    "missing closing parenthesis",
                    tokens[idx][2] if idx < len(tokens) else len(text),
                )
            take()
            return node
        tok = take()
        if tok[0] == "num":
            return ("num", tok[1])
        if tok[0] == "sym":
            symbols.add(tok[1])
            return ("sym", tok[1])
        raise RuleSyntaxError(f"unexpected token {tok[0]!r}", tok[2])

    def term():
        node = factor()
        while peek() in ("*", "/"):
            op = take()[0]
            node = (op, node, factor())
        return node

    def expr():
        node = term()
        while peek() in ("+", "-"):
            op = take()[0]
            node = (op, node, term())
        return node

    root = expr()
    if idx < len(tokens):
        raise RuleSyntaxError(f"trailing input {tokens[idx][0]!r}", tokens[idx][2])
    return EquationExpr(root, source=text, symbols=frozenset(symbols))
