"""Temporal-epistemic formulas over interpreted systems.

The semantics handles five constructs: atoms, negation, conjunction,
distributed knowledge, and "eventually". Individual knowledge K[r] is
distributed knowledge of the one-robot group {r}. Disjunction, implication,
"always" and mutual knowledge are expanded at construction time. A formula is
checked by labelling its subformulas bottom-up. A state subformula (knowledge,
and negations and conjunctions of state subformulas) is labelled once per
configuration: knowledge reduces its subformula's labels over each class of its
group. Atoms and "eventually" are labelled per point, and "eventually" takes a
reverse OR along each run's slice of the labels.
Verdicts are three-valued (Kleene): temporal operators on runs without a closed
lasso may come back UNKNOWN rather than guessing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, partial
from itertools import compress, islice, repeat
from operator import is_
from typing import Callable, Hashable, Iterable, Sequence

from .runs import InterpretedSystem, Point, config_classes

TRUE = "TRUE"
FALSE = "FALSE"
UNKNOWN = "UNKNOWN"


class FormulaError(ValueError):
    """Syntax or symbol error in a formula, with a byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


class UnknownAtomError(KeyError):
    """The valuation has no entry for an atom kind."""


# --- abstract syntax -------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    key: Hashable
    label: str

    def __str__(self):
        return self.label


@dataclass(frozen=True)
class Not:
    sub: "Formula"

    def __str__(self):
        return f"!{self.sub}"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"

    def __str__(self):
        return f"({self.left} & {self.right})"


@dataclass(frozen=True)
class DKnow:
    group: tuple[int, ...]
    sub: "Formula"

    def __str__(self):
        names = ",".join(f"r{r + 1}" for r in self.group)
        return f"K[{names}] {self.sub}" if len(self.group) == 1 else f"D[{{{names}}}] {self.sub}"


@dataclass(frozen=True)
class Eventually:
    sub: "Formula"

    def __str__(self):
        return f"<> {self.sub}"


Formula = Atom | Not | And | DKnow | Eventually


def conj(parts: Sequence[Formula]) -> Formula:
    """Balanced conjunction: keeps the recursion of `==`, `hash` and `str` shallow."""
    parts = list(parts)
    if not parts:
        raise ValueError("empty conjunction")
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return And(conj(parts[:mid]), conj(parts[mid:]))


def disj(parts: Sequence[Formula]) -> Formula:
    return Not(conj([Not(p) for p in parts]))


def implies(f: Formula, g: Formula) -> Formula:
    return Not(And(f, Not(g)))


def box(f: Formula) -> Formula:
    return Not(Eventually(Not(f)))


def dknow(group: Iterable[int], f: Formula) -> Formula:
    return DKnow(tuple(sorted(set(group))), f)


def everyone(robots: Iterable[int], f: Formula) -> Formula:
    return conj([DKnow((r,), f) for r in sorted(robots)])


def sp_atom(cells: frozenset[int], label: str | None = None) -> Atom:
    text = label or "sp({" + ",".join(map(str, sorted(cells))) + "})"
    return Atom(("sp", frozenset(cells)), text)


def pos_atom(robot: int, cell: int) -> Atom:
    return Atom(("pos", robot, cell), f"pos[r{robot + 1}](c{cell})")


# --- concrete syntax -------------------------------------------------------

@dataclass(frozen=True)
class Symbols:
    """Name resolution context for the parser."""

    robots: dict[str, int]
    regions: dict[str, frozenset[int]]
    n_cells: int

    def __post_init__(self):
        for name, r in self.robots.items():
            if type(r) is not int or r < 0:
                raise ValueError(f"robot {name!r}: id {r!r} is not an int >= 0")
        for name, cells in self.regions.items():
            if not set(cells) <= set(range(self.n_cells)):
                raise ValueError(f"region {name!r} has a cell outside 0..{self.n_cells - 1}")


# Each level of parentheses costs the recursive-descent parser five Python frames.
MAX_NESTING = 100
_EVERYONE = re.compile(r"E\b")


class _Parser:
    def __init__(self, text: str, symbols: Symbols):
        self.text = text
        self.symbols = symbols
        self.pos = 0
        self.depth = 0  # open parentheses
        self.atoms: dict[Atom, Atom] = {}  # one node per atom, so its labels are computed once

    def error(self, message: str):
        raise FormulaError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self, literal: str) -> bool:
        self.skip_ws()
        return self.text.startswith(literal, self.pos)

    def take(self, literal: str) -> bool:
        if self.peek(literal):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.take(literal):
            self.error(f"expected {literal!r}")

    def name(self) -> str:
        self.skip_ws()
        m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", self.text[self.pos:])
        if not m:
            self.error("expected a name")
        self.pos += m.end()
        return m.group()

    def robot(self) -> int:
        offset = self.pos
        n = self.name()
        if n not in self.symbols.robots:
            raise FormulaError(f"unknown robot name {n!r}", offset)
        return self.symbols.robots[n]

    def region(self) -> tuple[str, frozenset[int]]:
        offset = self.pos
        n = self.name()
        if n not in self.symbols.regions:
            raise FormulaError(f"unknown region name {n!r}", offset)
        return n, self.symbols.regions[n]

    def cell(self) -> int:
        offset = self.pos
        n = self.name()
        m = re.fullmatch(r"c(\d+)", n)
        if not m:
            raise FormulaError(f"expected a cell like c3, got {n!r}", offset)
        cell = int(m.group(1))
        if cell >= self.symbols.n_cells:
            raise FormulaError(f"cell c{cell} outside the grid", offset)
        return cell

    # precedence: -> (right) < | < & < prefix operators < primary
    def formula(self) -> Formula:
        parts = [self.disjunction()]
        while self.take("->"):
            parts.append(self.disjunction())
        f = parts.pop()
        while parts:
            f = implies(parts.pop(), f)
        return f

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while not self.peek("->") and self.take("|"):
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else disj(parts)

    def conjunction(self) -> Formula:
        parts = [self.unary()]
        while self.take("&"):
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else conj(parts)

    def unary(self) -> Formula:
        """A chain of prefix operators, read in a loop, then applied innermost first."""
        wraps: list[Callable[[Formula], Formula]] = []
        while True:
            if self.take("!"):
                wraps.append(Not)
            elif self.take("<>"):
                wraps.append(Eventually)
            elif self.take("[]"):
                wraps.append(box)
            elif self.take("K["):
                r = self.robot()
                self.expect("]")
                wraps.append(partial(DKnow, (r,)))
            elif self.take("D[{"):
                group = [self.robot()]
                while self.take(","):
                    group.append(self.robot())
                self.expect("}")
                self.expect("]")
                wraps.append(partial(dknow, group))
            elif _EVERYONE.match(self.text, self.pos):
                if not self.symbols.robots:
                    self.error("E needs at least one robot")
                self.pos += 1
                wraps.append(partial(everyone, self.symbols.robots.values()))
            else:
                break
        f = self.primary()
        for wrap in reversed(wraps):
            f = wrap(f)
        return f

    def atom(self, atom: Atom) -> Atom:
        return self.atoms.setdefault(atom, atom)

    def primary(self) -> Formula:
        if self.take("("):
            if self.depth == MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING}")
            self.depth += 1
            f = self.formula()
            self.expect(")")
            self.depth -= 1
            return f
        self.skip_ws()
        start = self.pos
        if re.match(r"sp\b", self.text[self.pos:]):
            self.pos += 2
            self.expect("(")
            name, cells = self.region()
            self.expect(")")
            return self.atom(sp_atom(cells, f"sp({name})"))
        if re.match(r"pos\b", self.text[self.pos:]):
            self.pos += 3
            self.expect("[")
            r = self.robot()
            self.expect("]")
            self.expect("(")
            c = self.cell()
            self.expect(")")
            return self.atom(pos_atom(r, c))
        self.pos = start
        self.error("expected a formula")


def parse(text: str, symbols: Symbols) -> Formula:
    """Parse the documented concrete syntax; reports errors with byte offsets."""
    p = _Parser(text, symbols)
    f = p.formula()
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input")
    return f


# --- semantics -------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    value: str
    witnesses: tuple[Point, ...] = ()


_NAMES = {True: TRUE, False: FALSE, None: UNKNOWN}
_NOT = {True: False, False: True, None: None}
MAX_WITNESSES = 20  # points a valid() verdict names


def _subformulas(f: Formula) -> tuple:
    if isinstance(f, Atom):
        return ()
    if isinstance(f, And):
        return (f.left, f.right)
    if isinstance(f, (Not, DKnow, Eventually)):
        return (f.sub,)
    raise TypeError(f"not a formula: {f!r}")


def _label(sys: InterpretedSystem, f: Formula, memo: dict[int, tuple]) -> tuple[list, bool]:
    """The Kleene values of f, and whether they are per configuration (else per point).

    A DKnow, and a Not or And over such nodes only, gets one value per configuration
    id in sys.configs (meaningless for a configuration no point has). Atoms, <> and
    nodes above them get one per point, in sys.points order (run by run, t ascending).
    Subformulas are labelled bottom-up, once each, from an explicit post-order
    stack, so no nesting depth reaches Python's recursion limit. `memo` maps
    id(node) to the node's labels and shape. It is meant for one call: `f` keeps all
    its nodes, and so their ids, alive while it lasts. `relation` numbers each
    group's classes once, when a knowledge node first asks for them.
    """
    relation = cache(partial(config_classes, sys))
    stack = [f]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        subs = _subformulas(node)
        pending = [g for g in subs if id(g) not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        memo[id(node)] = _label_node(sys, node, [memo[id(g)] for g in subs], relation)
    return memo[id(f)]


def _per_point(sys: InterpretedSystem, labels: list, per_config: bool) -> Iterable:
    """Labels in sys.points order; per-configuration ones are gathered lazily."""
    return map(labels.__getitem__, sys.config_of) if per_config else labels


def _label_node(sys: InterpretedSystem, f: Formula, subs: list[tuple[list, bool]],
                relation: Callable[[tuple[int, ...]], dict[int, int]]) -> tuple[list, bool]:
    """The labels and shape of f from those of its direct subformulas and `relation`."""
    if isinstance(f, Atom):
        if f.key not in sys.atoms:
            raise UnknownAtomError(f"no valuation installed for atom {f.label}")
        return list(map(sys.atoms[f.key].__contains__, sys.points)), False
    if isinstance(f, Not):
        sub, per_config = subs[0]
        return list(map(_NOT.__getitem__, sub)), per_config
    if isinstance(f, And):
        # FALSE if either side is FALSE, else UNKNOWN if either is UNKNOWN
        per_config = subs[0][1] and subs[1][1]
        left, right = (node[0] if per_config else _per_point(sys, *node) for node in subs)
        return [False if a is False or b is False else b if a else None
                for a, b in zip(left, right)], per_config
    if isinstance(f, DKnow):
        # reduce over each class the configurations whose points take each value
        sub, per_config = subs[0]
        classes = relation(f.group)
        owners = sys.config_of
        if per_config:  # count only the configurations that some point has
            owners, sub = list(classes), list(map(sub.__getitem__, classes))
        per_class: list[bool | None] = [True] * (max(classes.values()) + 1)
        for value in (None, False):  # FALSE, set last, beats UNKNOWN
            if value in sub:
                for c in set(compress(owners, map(is_, sub, repeat(value)))):
                    per_class[classes[c]] = value
        return [per_class[classes.get(c, 0)] for c in range(len(sys.configs))], True
    # Eventually: per run, a reverse Kleene OR over its row's slice; an open run may
    # still reach f later. On a lasso every time in the loop reaches the whole loop,
    # so it takes the loop head's value.
    sub, per_config = subs[0]
    out = []
    for run, start in zip(sys.runs, sys.starts):
        end = start + len(run.row)
        values = (list(map(sub.__getitem__, sys.config_of[start:end])) if per_config
                  else sub[start:end])
        acc = None if run.lasso is None else False
        labels = []
        for v in reversed(values):
            if v or (v is None and acc is False):
                acc = v
            labels.append(acc)
        labels.reverse()
        if run.lasso is not None:
            head = run.lasso.start
            labels[head:] = [labels[head]] * (len(labels) - head)
        out += labels
    return out, False


def eval_at(sys: InterpretedSystem, point: Point, f: Formula) -> Verdict:
    """Evaluate one formula at one point; a TRUE <> names the first time it is met.

    Each call labels the whole system, so calling it point by point is quadratic
    in the points. A caller with many points should use `valid`, or label once.
    """
    run_idx, t = point
    if not (0 <= run_idx < len(sys.runs) and 0 <= t <= sys.runs[run_idx].horizon):
        raise ValueError(f"point {point} outside the system")
    i = sys.starts[run_idx] + t
    memo: dict[int, tuple] = {}
    labels, per_config = _label(sys, f, memo)
    value = labels[sys.config_of[i] if per_config else i]
    if value is True and isinstance(f, Eventually):
        run = sys.runs[run_idx]
        # inside a lasso's loop the forward orbit wraps around to the loop head
        start = t if run.lasso is None else min(t, run.lasso.start)
        sub = islice(_per_point(sys, *memo[id(f.sub)]), i - t + start, i - t + run.horizon + 1)
        first = next(t2 for t2, v in enumerate(sub, start) if v)
        return Verdict(TRUE, ((run_idx, first),))
    return Verdict(_NAMES[value])


def valid(sys: InterpretedSystem, f: Formula) -> Verdict:
    """Validity: the formula holds at every point; counterexamples are witnesses.

    Witnesses are the first MAX_WITNESSES FALSE points in sys.points order, else
    the first MAX_WITNESSES UNKNOWN ones.
    """
    labels = _label(sys, f, {})
    for value in (False, None):
        points = tuple(islice(compress(sys.points, map(is_, _per_point(sys, *labels),
                                                       repeat(value))), MAX_WITNESSES))
        if points:
            return Verdict(_NAMES[value], points)
    return Verdict(TRUE)
