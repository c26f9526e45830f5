"""Temporal-epistemic formulas over interpreted systems.

The evaluator core handles six constructs: atoms, negation, conjunction,
individual knowledge, distributed knowledge, and "eventually". Disjunction,
implication, "always" and mutual knowledge are expanded at construction time.
Verdicts are three-valued: temporal operators on runs without a closed lasso
may come back UNKNOWN rather than guessing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .runs import InterpretedSystem, Point, distributed_relation, group_classes

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


def lor(f: Formula, g: Formula) -> Formula:
    return disj([f, g])


def implies(f: Formula, g: Formula) -> Formula:
    return Not(And(f, Not(g)))


def ev(f: Formula) -> Formula:
    return Eventually(f)


def box(f: Formula) -> Formula:
    return Not(Eventually(Not(f)))


def know(robot: int, f: Formula) -> Formula:
    return Know(robot, f)


def dknow(group: Iterable[int], f: Formula) -> Formula:
    return DKnow(tuple(sorted(set(group))), f)


def everyone(robots: Iterable[int], f: Formula) -> Formula:
    return conj([Know(r, f) for r in sorted(robots)])


def sp_atom(cells: frozenset[int], label: str | None = None) -> Atom:
    text = label or "sp({" + ",".join(map(str, sorted(cells))) + "})"
    return Atom(("sp", frozenset(cells)), text)


def pos_atom(robot: int, cell: int) -> Atom:
    return Atom(("pos", robot, cell), f"pos[r{robot + 1}](c{cell})")


def init_pos_atom(robot: int, cell: int) -> Atom:
    return Atom(("init_pos", robot, cell), f"init_pos[r{robot + 1}](c{cell})")


def in_atom(cell: int, cells: frozenset[int], label: str | None = None) -> Atom:
    text = label or "in(c%d,{%s})" % (cell, ",".join(map(str, sorted(cells))))
    return Atom(("in", cell, frozenset(cells)), text)


# --- concrete syntax -------------------------------------------------------

@dataclass(frozen=True)
class Symbols:
    """Name resolution context for the parser."""

    robots: dict[str, int]
    regions: dict[str, frozenset[int]]
    n_cells: int

    def all_robots(self) -> list[int]:
        return sorted(self.robots.values())


_TOKEN = re.compile(
    r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<not>!)|(?P<and>&)|(?P<or>\|)"
    r"|(?P<implies>->)|(?P<ev><>)|(?P<box>\[\])"
    r"|(?P<katom>K\[)|(?P<datom>D\[\{)|(?P<eall>E\b)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[\]\}\(\),]))"
)


class _Parser:
    def __init__(self, text: str, symbols: Symbols):
        self.text = text
        self.symbols = symbols
        self.pos = 0

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
        left = self.disjunction()
        if self.take("->"):
            return implies(left, self.formula())
        return left

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
        if self.take("!"):
            return Not(self.unary())
        if self.take("<>"):
            return Eventually(self.unary())
        if self.take("[]"):
            return box(self.unary())
        if self.take("K["):
            r = self.robot()
            self.expect("]")
            return Know(r, self.unary())
        if self.take("D[{"):
            group = [self.robot()]
            while self.take(","):
                group.append(self.robot())
            self.expect("}")
            self.expect("]")
            return dknow(group, self.unary())
        self.skip_ws()
        if re.match(r"E\b", self.text[self.pos:]):
            self.pos += 1
            return everyone(self.symbols.all_robots(), self.unary())
        return self.primary()

    def primary(self) -> Formula:
        if self.take("("):
            f = self.formula()
            self.expect(")")
            return f
        self.skip_ws()
        start = self.pos
        if re.match(r"sp\b", self.text[self.pos:]):
            self.pos += 2
            self.expect("(")
            name, cells = self.region()
            self.expect(")")
            return sp_atom(cells, f"sp({name})")
        if re.match(r"pos\b", self.text[self.pos:]):
            self.pos += 3
            self.expect("[")
            r = self.robot()
            self.expect("]")
            self.expect("(")
            c = self.cell()
            self.expect(")")
            return pos_atom(r, c)
        if re.match(r"init_pos\b", self.text[self.pos:]):
            self.pos += 8
            self.expect("[")
            r = self.robot()
            self.expect("]")
            self.expect("(")
            c = self.cell()
            self.expect(")")
            return init_pos_atom(r, c)
        if re.match(r"in\b", self.text[self.pos:]):
            self.pos += 2
            self.expect("(")
            c = self.cell()
            self.expect(",")
            name, cells = self.region()
            self.expect(")")
            return in_atom(c, cells, f"in(c{c},{name})")
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

    @property
    def is_true(self) -> bool:
        return self.value == TRUE


class Evaluator:
    """Evaluation session over one interpreted system; memoizes per subformula.

    Memo keys use id() of formula nodes, so every root passed to check is kept
    alive for the session: a freed formula's id could otherwise be reused by a
    later one and hit its stale entries.
    """

    def __init__(self, sys: InterpretedSystem):
        self.sys = sys
        self.memo: dict[tuple[int, Point], bool | None] = {}
        self.know_memo: dict[tuple[int, int, int], bool | None] = {}
        self._roots: dict[int, Formula] = {}
        self._groups: dict[tuple[int, ...], tuple[dict[Point, int], list[tuple[Point, ...]]]] = {}

    def check(self, point: Point, f: Formula) -> bool | None:
        run_idx, t = point
        if not (0 <= run_idx < len(self.sys.runs) and 0 <= t <= self.sys.runs[run_idx].horizon):
            raise ValueError(f"point {point} outside the system")
        self._roots[id(f)] = f
        return self._eval(f, point)

    def _group(self, group: tuple[int, ...]) -> tuple[dict[Point, int], list[tuple[Point, ...]]]:
        """The group's D-partition and its classes, computed once per session."""
        if group not in self._groups:
            part = distributed_relation(self.sys, group)
            self._groups[group] = (part, group_classes(part))
        return self._groups[group]

    def _eval(self, f: Formula, point: Point) -> bool | None:
        key = (id(f), point)
        if key in self.memo:
            return self.memo[key]
        result = self._eval_raw(f, point)
        self.memo[key] = result
        return result

    def _eval_raw(self, f: Formula, point: Point) -> bool | None:
        if isinstance(f, Atom):
            if f.key not in self.sys.atoms:
                raise UnknownAtomError(f"no valuation installed for atom {f.label}")
            return point in self.sys.atoms[f.key]
        if isinstance(f, Not):
            v = self._eval(f.sub, point)
            return None if v is None else not v
        if isinstance(f, And):
            left = self._eval(f.left, point)
            if left is False:
                return False
            right = self._eval(f.right, point)
            if right is False:
                return False
            if left is None or right is None:
                return None
            return True
        if isinstance(f, Know):
            cid = self.sys.class_of[f.robot][point]
            mkey = (id(f), f.robot, cid)
            if mkey not in self.know_memo:
                self.know_memo[mkey] = self._quantify(f.sub, self.sys.classes[f.robot][cid])
            return self.know_memo[mkey]
        if isinstance(f, DKnow):
            part, classes = self._group(f.group)
            cid = part[point]
            mkey = (id(f), -1, cid)
            if mkey not in self.know_memo:
                self.know_memo[mkey] = self._quantify(f.sub, classes[cid])
            return self.know_memo[mkey]
        if isinstance(f, Eventually):
            run_idx, t = point
            run = self.sys.runs[run_idx]
            saw_unknown = False
            for t2 in run.future_times(t):
                v = self._eval(f.sub, (run_idx, t2))
                if v is True:
                    return True
                if v is None:
                    saw_unknown = True
            if run.is_open or saw_unknown:
                return None
            return False
        raise TypeError(f"not a formula: {f!r}")

    def _quantify(self, sub: Formula, members) -> bool | None:
        saw_unknown = False
        for p in members:
            v = self._eval(sub, p)
            if v is False:
                return False
            if v is None:
                saw_unknown = True
        return None if saw_unknown else True


def _verdict(value: bool | None, witnesses=()) -> Verdict:
    if value is True:
        return Verdict(TRUE, tuple(witnesses))
    if value is False:
        return Verdict(FALSE, tuple(witnesses))
    return Verdict(UNKNOWN, tuple(witnesses))


def eval_at(sys: InterpretedSystem, point: Point, f: Formula) -> Verdict:
    """Evaluate one formula at one point."""
    ev_session = Evaluator(sys)
    value = ev_session.check(point, f)
    witnesses = []
    if value is True and isinstance(f, Eventually):
        run_idx, t = point
        for t2 in sys.runs[run_idx].future_times(t):
            if ev_session.check((run_idx, t2), f.sub) is True:
                witnesses.append((run_idx, t2))
                break
    return _verdict(value, witnesses)


def valid(sys: InterpretedSystem, f: Formula, *, max_witnesses: int = 20) -> Verdict:
    """Validity: the formula holds at every point; counterexamples are witnesses."""
    session = Evaluator(sys)
    false_points = []
    unknown_points = []
    for p in sys.points:
        v = session.check(p, f)
        if v is False and len(false_points) < max_witnesses:
            false_points.append(p)
        elif v is None and len(unknown_points) < max_witnesses:
            unknown_points.append(p)
    if false_points:
        return Verdict(FALSE, tuple(false_points))
    if unknown_points:
        return Verdict(UNKNOWN, tuple(unknown_points))
    return Verdict(TRUE)
