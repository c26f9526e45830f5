"""Temporal-epistemic formulas over interpreted systems.

The semantics handles six constructs: atoms, negation, conjunction,
individual knowledge, distributed knowledge, and "eventually". Disjunction,
implication, "always" and mutual knowledge are expanded at construction time.
A formula is checked by labelling every point with the value of every
subformula, bottom-up: knowledge reduces its subformula's labels over each
indistinguishability class, and "eventually" takes a reverse OR along each
run's slice of the labels.
Verdicts are three-valued (Kleene): temporal operators on runs without a closed
lasso may come back UNKNOWN rather than guessing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from itertools import compress, islice, repeat
from operator import is_
from typing import Callable, Hashable, Iterable, Sequence

from .runs import InterpretedSystem, Point, distributed_relation

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
class Know:
    robot: int
    sub: "Formula"

    def __str__(self):
        return f"K[r{self.robot + 1}] {self.sub}"


@dataclass(frozen=True)
class DKnow:
    group: tuple[int, ...]
    sub: "Formula"

    def __str__(self):
        names = ",".join(f"r{r + 1}" for r in self.group)
        return f"D[{{{names}}}] {self.sub}"


@dataclass(frozen=True)
class Eventually:
    sub: "Formula"

    def __str__(self):
        return f"<> {self.sub}"


Formula = Atom | Not | And | Know | DKnow | Eventually


def conj(parts: Sequence[Formula]) -> Formula:
    """Balanced conjunction (keeps evaluation recursion shallow)."""
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
    return conj([Know(r, f) for r in sorted(robots)])


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

    def all_robots(self) -> list[int]:
        return sorted(self.robots.values())


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
                wraps.append(partial(Know, r))
            elif self.take("D[{"):
                group = [self.robot()]
                while self.take(","):
                    group.append(self.robot())
                self.expect("}")
                self.expect("]")
                wraps.append(partial(dknow, group))
            elif _EVERYONE.match(self.text, self.pos):
                self.pos += 1
                wraps.append(partial(everyone, self.symbols.all_robots()))
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
    if isinstance(f, (Not, Know, DKnow, Eventually)):
        return (f.sub,)
    raise TypeError(f"not a formula: {f!r}")


def _label(sys: InterpretedSystem, f: Formula, memo: dict[int, list]) -> list[bool | None]:
    """Kleene value of f at every point, in sys.points order (run by run, t ascending).

    Subformulas are labelled bottom-up, once each, from an explicit post-order
    stack, so no nesting depth reaches Python's recursion limit. `memo` maps
    id(node) to the node's labels. It is meant for one call: `f` keeps all its
    nodes, and so their ids, alive while it lasts.
    """
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
        memo[id(node)] = _label_node(sys, node, [memo[id(g)] for g in subs])
    return memo[id(f)]


def _label_node(sys: InterpretedSystem, f: Formula, subs: list[list]) -> list[bool | None]:
    """The labels of f from the labels of its direct subformulas."""
    if isinstance(f, Atom):
        if f.key not in sys.atoms:
            raise UnknownAtomError(f"no valuation installed for atom {f.label}")
        return list(map(sys.atoms[f.key].__contains__, sys.points))
    if isinstance(f, Not):
        return list(map(_NOT.__getitem__, subs[0]))
    if isinstance(f, And):
        # FALSE if either side is FALSE, else UNKNOWN if either is UNKNOWN
        return [False if a is False or b is False else b if a else None
                for a, b in zip(*subs)]
    if isinstance(f, (Know, DKnow)):
        # K[r] is D of the singleton group: reduce over each class, then broadcast
        sub = subs[0]
        cids = distributed_relation(sys, (f.robot,) if isinstance(f, Know) else f.group)
        per_class: list[bool | None] = [True] * (max(cids) + 1)
        for value in (None, False):  # FALSE, set last, beats UNKNOWN
            if value in sub:
                for cid in set(compress(cids, map(is_, sub, repeat(value)))):
                    per_class[cid] = value
        return list(map(per_class.__getitem__, cids))
    # Eventually: per run, a reverse Kleene OR over its row's slice; an open run may
    # still reach f later. On a lasso every time in the loop reaches the whole loop,
    # so it takes the loop head's value.
    sub = subs[0]
    out: list[bool | None] = [None] * len(sub)
    for run, start in zip(sys.runs, sys.starts):
        end = start + len(run.row)
        acc = None if run.lasso is None else False
        for i in range(end - 1, start - 1, -1):
            v = sub[i]
            if v or (v is None and acc is False):
                acc = v
            out[i] = acc
        if run.lasso is not None:
            head = start + run.lasso.start
            out[head:end] = [out[head]] * (end - head)
    return out


def eval_at(sys: InterpretedSystem, point: Point, f: Formula) -> Verdict:
    """Evaluate one formula at one point; a TRUE <> names the first time it is met.

    Each call labels the whole system, so calling it point by point is quadratic
    in the points. A caller with many points should use `valid`, or label once.
    """
    run_idx, t = point
    if not (0 <= run_idx < len(sys.runs) and 0 <= t <= sys.runs[run_idx].horizon):
        raise ValueError(f"point {point} outside the system")
    i = sys.starts[run_idx] + t
    memo: dict[int, list] = {}
    value = _label(sys, f, memo)[i]
    if value is True and isinstance(f, Eventually):
        sub, run = memo[id(f.sub)], sys.runs[run_idx]
        # inside a lasso's loop the forward orbit wraps around to the loop head
        start = t if run.lasso is None else min(t, run.lasso.start)
        first = next(t2 for t2 in range(start, run.horizon + 1) if sub[i - t + t2])
        return Verdict(TRUE, ((run_idx, first),))
    return Verdict(_NAMES[value])


def valid(sys: InterpretedSystem, f: Formula) -> Verdict:
    """Validity: the formula holds at every point; counterexamples are witnesses.

    Witnesses are the first MAX_WITNESSES FALSE points in sys.points order, else
    the first MAX_WITNESSES UNKNOWN ones.
    """
    labels = _label(sys, f, {})
    for value in (False, None):
        points = tuple(islice(compress(sys.points, map(is_, labels, repeat(value))),
                              MAX_WITNESSES))
        if points:
            return Verdict(_NAMES[value], points)
    return Verdict(TRUE)
