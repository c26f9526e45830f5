"""Temporal-epistemic formulas over interpreted systems.

The semantics handles five constructs: atoms, negation, conjunction,
distributed knowledge, and "eventually". Individual knowledge K[r] is
distributed knowledge of the one-robot group {r}. Disjunction, implication,
"always" and mutual knowledge are expanded at construction time. A formula is
checked by labelling its subformulas bottom-up. A label is one byte, so a node's
labels are one `bytes` string: FALSE is 0, UNKNOWN 1 and TRUE 3 (bit 0 says "not
FALSE", bit 1 says "TRUE"). Negation is a `translate` that swaps 0 and 3, and
conjunction the bitwise AND of two strings. A state subformula (knowledge, and
negations and conjunctions of state subformulas) is labelled once per
configuration: knowledge reduces its subformula's labels over each class of its
group. A per-point subformula is first projected onto configurations, each
taking the least code among its points; an atom's projection is made once per
system, when a K or D first asks for it. Atoms and "eventually" are labelled per
point, by position: an atom marks the positions of its own point set, once per
system, and "eventually" splits each distinct (run slice of the labels, loop
start) into a TRUE, an UNKNOWN and a FALSE block with two searches, once per
node. Subformula labels are dropped once no node above them waits for them.
Verdicts are three-valued (Kleene): temporal operators on runs without a closed
lasso may come back UNKNOWN rather than guessing.
"""

from __future__ import annotations

import io
import re
from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from itertools import compress, count, islice
from typing import Callable, Hashable, Iterable, Sequence

from .runs import InterpretedSystem, Point, config_classes
from .space import check_count

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
    return DKnow(tuple(sorted({check_count("robot", r, 0) for r in group})), f)


def everyone(robots: Iterable[int], f: Formula) -> Formula:
    return conj([DKnow((r,), f) for r in sorted(check_count("robot", r, 0) for r in robots)])


def sp_atom(cells: frozenset[int], label: str | None = None) -> Atom:
    text = label or "sp({" + ",".join(map(str, sorted(cells))) + "})"
    return Atom(("sp", frozenset(cells)), text)


def pos_atom(robot: int, cell: int) -> Atom:
    return Atom(("pos", robot, cell), f"pos[r{robot + 1}](c{cell})")


# --- concrete syntax -------------------------------------------------------

@dataclass(frozen=True)
class Symbols:
    """Name resolution context for the parser: robot ids are ints >= 0, and region
    cells ints below `n_cells`, itself an int >= 1."""

    robots: dict[str, int]
    regions: dict[str, frozenset[int]]
    n_cells: int

    def __post_init__(self):
        check_count("n_cells", self.n_cells, 1)
        for name, r in self.robots.items():
            check_count(f"robot {name!r}: id", r, 0)
        for name, cells in self.regions.items():
            for c in cells:
                check_count(f"region {name!r}: cell", c, 0, self.n_cells)


# Each level of parentheses costs the recursive-descent parser five Python frames.
MAX_NESTING = 100
_EVERYONE = re.compile(r"E\b")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_ATOM_KIND = re.compile(r"(sp|pos)\b")


class _Parser:
    def __init__(self, text: str, symbols: Symbols):
        self.text = text
        self.symbols = symbols
        self.pos = 0
        self.depth = 0  # open parentheses

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
        m = _NAME.match(self.text, self.pos)
        if not m:
            self.error("expected a name")
        self.pos = m.end()
        return m.group()

    def named(self, table: dict, what: str) -> tuple:
        """A name of `table` and its entry; FormulaError at the name if it has none."""
        offset = self.pos
        n = self.name()
        if n not in table:
            raise FormulaError(f"unknown {what} name {n!r}", offset)
        return n, table[n]

    def robot(self) -> int:
        return self.named(self.symbols.robots, "robot")[1]

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
        while self.take("|"):
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

    def primary(self) -> Formula:
        if self.take("("):
            if self.depth == MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING}")
            self.depth += 1
            f = self.formula()
            self.expect(")")
            self.depth -= 1
            return f
        kind = _ATOM_KIND.match(self.text, self.pos)  # take("(") skipped the whitespace
        if kind is None:
            self.error("expected a formula")
        self.pos = kind.end()
        if kind.group() == "sp":
            self.expect("(")
            name, cells = self.named(self.symbols.regions, "region")
            self.expect(")")
            return sp_atom(cells, f"sp({name})")
        self.expect("[")
        r = self.robot()
        self.expect("]")
        self.expect("(")
        c = self.cell()
        self.expect(")")
        return pos_atom(r, c)


def parse(text: str, symbols: Symbols) -> Formula:
    """Parse the documented concrete syntax; reports errors with byte offsets."""
    if not isinstance(text, str):
        raise FormulaError(f"formula text {text!r} is not a str")
    if not isinstance(symbols, Symbols):
        raise FormulaError(f"symbols {symbols!r} are not a Symbols")
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


# A Kleene label is one byte: bit 0 says "not FALSE" and bit 1 says "TRUE".
_F, _U, _T = 0, 1, 3
_NAMES = {_F: FALSE, _U: UNKNOWN, _T: TRUE}
_NEGATE = bytes.maketrans(b"\0\3", b"\3\0")
_MARKED = bytes.maketrans(b"\1", b"\3")  # an atom's 0/1 marks to FALSE/TRUE codes
_SELECT = {code: bytes(c == code for c in range(256)) for code in (_F, _U)}  # code -> 1, else 0
MAX_WITNESSES = 20  # points a valid() verdict names


def _subformulas(f: Formula) -> tuple:
    if isinstance(f, Atom):
        return ()
    if isinstance(f, And):
        return (f.left, f.right)
    if isinstance(f, (Not, DKnow, Eventually)):
        return (f.sub,)
    raise TypeError(f"not a formula: {f!r}")


def _label(sys: InterpretedSystem, f: Formula, memo: dict[int, tuple]) -> tuple[bytes, bool]:
    """The Kleene codes of f, and whether they are per configuration (else per point).

    A DKnow, and a Not or And over such nodes only, gets one code per configuration
    id in sys.configs; every configuration is some point's, so no code goes unread,
    and a code is in the labels exactly when some point has it. Atoms, <> and
    nodes above them get one per point, by position: run i's point at t is at
    i * (H + 1) + t, where H + 1 = sys.length is the length of every run.
    Either way the codes are one `bytes` string. An atom's codes, and their
    projection onto configurations for K and D, are made once per system and atom
    key (`_atom`, `_per_config`), however many nodes name it. A <> labels each
    distinct (run block, loop start) once, through a cache that lives for that
    node's labelling. Subformulas are labelled bottom-up, once each, from an
    explicit post-order stack, so no nesting depth reaches Python's recursion
    limit. `memo` maps id(node) to the node's labels and shape; a node already in it
    is not labelled again. A node's entry is dropped once every node above it is
    labelled, so `memo` ends with f's entry alone. It is meant for one formula: `f`
    keeps all its nodes, and so their ids, alive while it lasts. `relation` numbers
    each group's classes once, when a knowledge node first asks for them.
    """
    relation = cache(partial(config_classes, sys))
    users: Counter[int] = Counter()  # per node below f: edges into it from unlabelled nodes
    todo = [f]
    while todo:
        for g in _subformulas(todo.pop()):
            if not users[id(g)]:
                todo.append(g)
            users[id(g)] += 1
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
        # freed though ssync-flood's peak RSS did not rise without it (26.30 against
        # 26.43 MB): a per-point label holds a byte per point, 96 KB there, and deep
        # formulas have dozens of per-point nodes
        for g in subs:
            users[id(g)] -= 1
            if not users[id(g)]:
                del memo[id(g)]
    return memo[id(f)]


def _by_position(sys: InterpretedSystem, labels: bytes, per_config: bool) -> bytes:
    """The codes by position; per-configuration ones are gathered along config_of."""
    return bytes(map(list(labels).__getitem__, sys.config_of)) if per_config else labels


def _atom(sys: InterpretedSystem, f: Atom) -> list:
    """The atom's `sys.atom_labels` entry: its point set, its codes by position, and
    their projection onto configurations, None until a K or D asks for it. Made
    once per system and point set."""
    if f.key not in sys.atoms:
        raise UnknownAtomError(f"no valuation installed for atom {f.label}")
    points = sys.atoms[f.key]
    made = sys.atom_labels.get(f.key)
    if made is None or made[0] is not points:
        try:
            marks = sys.points.indicator(points)
        except ValueError as e:
            raise ValueError(f"atom {f.label}: {e}") from None
        made = sys.atom_labels[f.key] = [points, bytes(marks).translate(_MARKED), None]
    return made


def _least(groups: Iterable[int], codes: bytes, n: int) -> bytes:
    """Per group id below n, the least code (FALSE < UNKNOWN < TRUE) of the items in
    it: item k has code codes[k] and is in group groups[k]. A group with no item is
    TRUE."""
    least = bytearray([_T]) * n
    for value in (_U, _F):  # FALSE, set last, beats UNKNOWN
        if value in codes:
            # a set first: 3.7 against 6.6 ms for a dict.fromkeys over ssync-flood's
            # 78,347 FALSE points of sp(UX), in 1,657 configurations
            for g in set(compress(groups, codes.translate(_SELECT[value]))):
                least[g] = value
    return bytes(least)


def _per_config(sys: InterpretedSystem, f: Formula, labels: bytes, per_config: bool) -> bytes:
    """f's codes per configuration id: per-point ones projected onto their points'
    configurations, each taking the least code among its points. An atom's
    projection is made once and kept in its `atom_labels` entry."""
    if per_config:
        return labels
    if not isinstance(f, Atom):
        return _least(sys.config_of, labels, len(sys.configs))
    made = _atom(sys, f)
    if made[2] is None:
        made[2] = _least(sys.config_of, made[1], len(sys.configs))
    return made[2]


def _eventually(values: bytes, lasso: int | None) -> bytes:
    """<> over one run's codes: TRUE up to the last TRUE, then UNKNOWN up to the last
    UNKNOWN, or to the end on an open run (`lasso` None), which may still reach f
    later, then FALSE. On a closed run, whose loop starts at step `lasso`, every time
    in the loop reaches the whole loop, so the codes from the loop head on take the
    head's code."""
    n = len(values)
    true_end = values.rfind(_T) + 1
    if lasso is None:
        unknown_end = n
    else:
        unknown_end = len(values.rstrip(b"\0"))
        if lasso < true_end:
            true_end = unknown_end = n
        elif lasso < unknown_end:
            unknown_end = n
    return b"\3" * true_end + b"\1" * (unknown_end - true_end) + b"\0" * (n - unknown_end)


def _label_node(sys: InterpretedSystem, f: Formula, subs: list[tuple[bytes, bool]],
                relation: Callable[[tuple[int, ...]], list[int]]) -> tuple[bytes, bool]:
    """The codes and shape of f from those of its direct subformulas and `relation`.

    K and D reduce per-configuration codes over each class: a per-point operand is
    projected onto configurations first (`_per_config`). <> cuts the per-point codes
    into one block per run and labels each distinct (block, loop start) once."""
    if isinstance(f, Atom):
        return _atom(sys, f)[1], False
    if isinstance(f, Not):
        sub, per_config = subs[0]
        return sub.translate(_NEGATE), per_config
    if isinstance(f, And):
        # 0 & x = 0, 1 & 3 = 1 and 3 & 3 = 3: FALSE if either side is, else UNKNOWN if
        # either side is
        per_config = subs[0][1] and subs[1][1]
        left, right = (node[0] if per_config else _by_position(sys, *node) for node in subs)
        both = int.from_bytes(left, "little") & int.from_bytes(right, "little")
        return both.to_bytes(len(left), "little"), per_config
    if isinstance(f, DKnow):
        classes = relation(f.group)
        per_class = _least(classes, _per_config(sys, f.sub, *subs[0]), max(classes, default=-1) + 1)
        return bytes(map(per_class.__getitem__, classes)), True
    # Eventually: the runs' slices of the codes, each distinct one with its loop start
    # labelled once (11 blocks for ssync-flood's 4,374 runs under <> sp(UX)). `writelines`
    # holds no record per run, where `bytes.join` takes an 80-byte buffer for each
    sub = _by_position(sys, *subs[0])
    length = sys.length
    blocks = map(sub.__getitem__, map(slice, range(0, len(sub), length),
                                      range(length, len(sub) + length, length)))
    out = io.BytesIO()
    out.writelines(map(cache(_eventually), blocks, sys.lassos))
    return out.getvalue(), False


def eval_at(sys: InterpretedSystem, point: Point, f: Formula) -> Verdict:
    """Evaluate one formula at one point; a TRUE <> names the first time it is met.

    Each call labels the whole system, so calling it point by point is quadratic
    in the points. A caller with many points should use `valid`, or label once.
    """
    i = sys.points.index(point)
    run_idx, t = point
    memo: dict[int, tuple] = {}
    # a <>'s operand first, so its codes outlive f's labelling for the witness search
    sub = _label(sys, f.sub, memo) if isinstance(f, Eventually) else None
    labels, per_config = _label(sys, f, memo)
    code = labels[sys.config_of[i] if per_config else i]
    if code == _T and sub is not None:
        lasso = sys.lassos[run_idx]
        # inside a lasso's loop the forward orbit wraps around to the loop head
        start = t if lasso is None else min(t, lasso)
        first = _by_position(sys, *sub).find(_T, i - t + start, i - t + sys.length) - (i - t)
        return Verdict(TRUE, ((run_idx, first),))
    return Verdict(_NAMES[code])


def valid(sys: InterpretedSystem, f: Formula) -> Verdict:
    """Validity: the formula holds at every point; counterexamples are witnesses.

    Witnesses are the first MAX_WITNESSES FALSE points by position, else the first
    MAX_WITNESSES UNKNOWN ones; only these are named as (run, t). A code is some
    point's exactly when it is in the labels, of either shape, and per-configuration
    labels are read along `config_of` only as far as the last witness.
    """
    labels, per_config = _label(sys, f, {})
    for code in (_F, _U):
        if code in labels:
            marks = labels.translate(_SELECT[code])
            if per_config:
                marks = map(marks.__getitem__, sys.config_of)
            hits = islice(compress(count(), marks), MAX_WITNESSES)
            return Verdict(_NAMES[code], tuple(map(sys.points.__getitem__, hits)))
    return Verdict(TRUE)
