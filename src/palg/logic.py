"""Terms and quasiequations over the signature {^, v, *, 0, 1}.

Grammar (whitespace insensitive):

    variables    [a-zA-Z][a-zA-Z0-9_]*   (the bare word ``v`` is the join
                                          operator and cannot be a variable)
    constants    0, 1
    star         postfix *, binds tightest
    meet         infix ^, right-associated
    join         infix v, right-associated, loosest
    equation     term = term
    quasieq      eq & eq & ... => eq     (premises optional)

``parse`` returns a :class:`Term` for plain terms and a
:class:`Quasiequation` as soon as an ``=`` is present; an equation without
premises is the identity case.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import DEFAULT_SWEEP_BUDGET, FiniteAlgebra, make_bn
from .search import Backtrack

_GRID_CELLS = 1 << 18
_GRID_MIN = 1 << 12


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnboundVariableError(ValueError):
    pass


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Const(Term):
    value: int  # 0 or 1


@dataclass(frozen=True)
class Meet(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Join(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Star(Term):
    arg: Term


ZERO = Const(0)
ONE = Const(1)


@dataclass(frozen=True)
class Quasiequation:
    """Premise equalities implying a conclusion equality; an empty premise
    list is a plain identity."""

    premises: tuple[tuple[Term, Term], ...]
    conclusion: tuple[Term, Term]


def variables_of(q: Quasiequation) -> list[str]:
    """Variables in order of first occurrence, premises before conclusion."""
    seen: dict[str, None] = {}
    todo = [t for eq in reversed((*q.premises, q.conclusion)) for t in reversed(eq)]
    while todo:
        t = todo.pop()
        if isinstance(t, Var):
            seen.setdefault(t.name)
        elif isinstance(t, (Meet, Join)):
            todo += (t.right, t.left)
        elif isinstance(t, Star):
            todo.append(t.arg)
    return list(seen)


# ---------------------------------------------------------------------------
# parsing and printing

# the group that matches names the token's kind; an operator is its own kind
_TOKEN = re.compile(r"\s*(?:(?P<JOIN>v(?![a-zA-Z0-9_]))|(?P<VAR>[a-zA-Z][a-zA-Z0-9_]*)"
                    r"|(?P<CONST>[01])|(?P<OP>=>|[()^*=&]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        kind = m.lastgroup
        tok = m.group(kind)
        tokens.append((tok if kind == "OP" else kind, tok, m.start(kind)))
        pos = m.end()
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind: str):
        k, v, at = self.tokens[self.i]
        if k != kind:
            raise ParseError(f"expected {kind}, found {v!r}", at)
        self.i += 1
        return v

    def term(self) -> Term:
        return self.join()

    def join(self) -> Term:
        terms = [self.meet()]
        while self.peek()[0] == "JOIN":
            self.i += 1
            terms.append(self.meet())
        return _fold(Join, terms, ZERO)

    def meet(self) -> Term:
        terms = [self.unary()]
        while self.peek()[0] == "^":
            self.i += 1
            terms.append(self.unary())
        return _fold(Meet, terms, ONE)

    def unary(self) -> Term:
        t = self.atom()
        while self.peek()[0] == "*":
            self.i += 1
            t = Star(t)
        return t

    def atom(self) -> Term:
        k, v, at = self.peek()
        if k == "VAR":
            self.i += 1
            return Var(v)
        if k == "CONST":
            self.i += 1
            return Const(int(v))
        if k == "(":
            self.i += 1
            t = self.term()
            self.take(")")
            return t
        raise ParseError(f"expected a term, found {v!r}", at)

    def equation(self) -> tuple[Term, Term]:
        lhs = self.term()
        self.take("=")
        return lhs, self.term()


def parse(text: str) -> Term | Quasiequation:
    """Parse a term, identity or quasiequation; round-trips with the
    formatters below."""
    p = _Parser(text)
    first = p.term()
    if p.peek()[0] == "END":
        return first
    p.take("=")
    eqs = [(first, p.term())]
    while p.peek()[0] == "&":
        p.i += 1
        eqs.append(p.equation())
    if p.peek()[0] == "=>":
        p.i += 1
        q = Quasiequation(tuple(eqs), p.equation())
    elif len(eqs) != 1:
        raise ParseError("premise list without conclusion", p.peek()[2])
    else:
        q = Quasiequation((), eqs[0])
    k, v, at = p.peek()
    if k != "END":
        raise ParseError(f"trailing input {v!r}", at)
    return q


_LEVEL_JOIN, _LEVEL_MEET, _LEVEL_STAR = 1, 2, 3


def format_term(t: Term) -> str:
    """``t`` in the parser's syntax, parenthesised only where the grammar
    needs it; built through an explicit stack, so a deep term prints."""
    out: list[str] = []
    todo: list = [(t, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        t, level = item
        if isinstance(t, Var):
            out.append(t.name)
        elif isinstance(t, Const):
            out.append(str(t.value))
        elif isinstance(t, Star):
            todo += ("*", (t.arg, _LEVEL_STAR))
        elif isinstance(t, (Meet, Join)):
            op, own = (" ^ ", _LEVEL_MEET) if isinstance(t, Meet) else (" v ", _LEVEL_JOIN)
            paren = level > own
            todo += [")"] * paren + [(t.right, own), op, (t.left, own + 1)] + ["("] * paren
        else:
            raise TypeError(f"not a term: {t!r}")
    return "".join(out)


def format_quasiequation(q: Quasiequation) -> str:
    concl = f"{format_term(q.conclusion[0])} = {format_term(q.conclusion[1])}"
    if not q.premises:
        return concl
    prem = " & ".join(f"{format_term(l)} = {format_term(r)}" for l, r in q.premises)
    return f"{prem} => {concl}"


# ---------------------------------------------------------------------------
# evaluation


def eval_term(t: Term, a: FiniteAlgebra, valuation: dict[str, int]) -> int:
    """Evaluation through the algebra's tables, by the program a sweep
    would compile for ``t = 1``."""
    names = list(valuation)
    prog = _compile(Quasiequation((), (t, ONE)), names)
    r = prog.registers(a)
    r[:len(names)] = valuation.values()
    *steps, (_, _, reg, _) = prog.conclusion
    _run(steps, r, a.meet, a.join, a.star)
    return r[reg]


# ---------------------------------------------------------------------------
# satisfaction


@dataclass(frozen=True)
class SatisfactionResult:
    status: str                     # "satisfied" | "falsified" | "inconclusive"
    falsifier: dict[str, int] | None = None
    checked: int = 0

    def __bool__(self) -> bool:
        return self.status == "satisfied"


# ---------------------------------------------------------------------------
# compiled quasiequations

_MEET, _JOIN, _STAR, _EQ = range(4)


@dataclass(frozen=True)
class _Program:
    """A quasiequation compiled against a variable order ``names``.

    Registers ``0..k-1`` hold the variables in that order, ``k`` and
    ``k+1`` the constants 0 and 1, and the rest temporaries.  A step
    ``(op, d, x, y)`` stores ``x ^ y``, ``x v y`` or ``x*`` of registers
    ``x``, ``y`` in register ``d``; an ``_EQ`` step checks ``x = y``.
    ``levels[i]`` checks the premises whose last variable is ``names[i]``.
    ``pins[i]``, if set, is ``(star, steps, reg)`` for the first premise,
    lhs before rhs, of the shape ``names[i] = t`` or ``names[i]* = t``
    with ``t`` over earlier variables; ``steps`` leave ``t`` in ``reg``.
    ``pinned`` counts the variables up to the last pinned one, inclusive.
    """

    size: int
    ground: list
    levels: list
    pins: list
    conclusion: list
    pinned: int

    def registers(self, a: FiniteAlgebra) -> list:
        r = [0] * self.size
        k = len(self.levels)
        r[k], r[k + 1] = a.zero, a.one
        return r


def _compile(q: Quasiequation, names: list[str]) -> _Program:
    k = len(names)
    slots = {name: i for i, name in enumerate(names)}
    base = size = k + 2

    def emit(t: Term, top: int, steps: list) -> tuple[int, int]:
        """Append the steps computing ``t``, with temporaries allocated as
        a stack from ``top``; return the register holding ``t`` (``top``
        when ``t`` is compound) and the last variable register it reads."""
        nonlocal size
        out: list[int] = []
        last = -1
        todo: list = [t]
        while todo:
            t = todo.pop()
            kind = type(t)
            if kind is Var:
                if t.name not in slots:
                    raise UnboundVariableError(f"unbound variable {t.name!r}")
                out.append(slots[t.name])
                last = max(last, slots[t.name])
            elif kind is Const:
                out.append(k if t.value == 0 else k + 1)
            elif kind is Star:
                todo += (_STAR, t.arg)
            elif kind is Meet or kind is Join:
                todo += (_MEET if kind is Meet else _JOIN, t.right, t.left)
            elif kind is int:  # an operator whose operands are on ``out``
                y = out.pop()
                x = y if t == _STAR else out.pop()
                top -= (x >= base) + (t != _STAR and y >= base)
                steps.append((t, top, x, y))
                out.append(top)
                top += 1
                size = max(size, top)
            else:
                raise TypeError(f"not a term: {t!r}")
        return out[0], last

    def check(lhs: Term, rhs: Term) -> tuple[list, int]:
        steps: list = []
        x, lx = emit(lhs, base, steps)
        y, ly = emit(rhs, max(base, x + 1), steps)
        steps.append((_EQ, 0, x, y))
        return steps, max(lx, ly)

    ground: list = []
    levels: list[list] = [[] for _ in names]
    pins: list = [None] * k
    for lhs, rhs in q.premises:
        steps, last = check(lhs, rhs)
        (levels[last] if last >= 0 else ground).extend(steps)
        for mine, other in ((lhs, rhs), (rhs, lhs)):
            star = isinstance(mine, Star)
            var = mine.arg if star else mine
            if not isinstance(var, Var) or var.name not in slots or pins[slots[var.name]]:
                continue
            pin_steps: list = []
            reg, last = emit(other, base, pin_steps)
            if last < slots[var.name]:
                pins[slots[var.name]] = (star, pin_steps, reg)
    conclusion = check(*q.conclusion)[0]
    pinned = max((i + 1 for i, pin in enumerate(pins) if pin), default=0)
    return _Program(size, ground, levels, pins, conclusion, pinned)


def _run(steps: list, r: list, meet, join, star) -> bool:
    """Run steps on scalar registers; False at the first failed check."""
    for op, d, x, y in steps:
        if op == _EQ:
            if r[x] != r[y]:
                return False
        elif op == _MEET:
            r[d] = meet[r[x]][r[y]]
        elif op == _JOIN:
            r[d] = join[r[x]][r[y]]
        else:
            r[d] = star[r[x]]
    return True


def _run_grid(steps: list, r: list, mask: np.ndarray, a: FiniteAlgebra) -> bool:
    """Run steps on registers holding index arrays, narrowing ``mask`` to
    the cells that pass each check; False once it is empty.  Reads the
    numpy tables of ``a`` only as the steps need them."""
    for op, d, x, y in steps:
        if op == _EQ:
            mask &= r[x] == r[y]
            if not mask.any():
                return False
        elif op == _MEET:
            r[d] = a.np_meet[r[x], r[y]]
        elif op == _JOIN:
            r[d] = a.np_join[r[x], r[y]]
        else:
            r[d] = a.np_star[r[x]]
    return True


def _level_search(prog: _Program, r: list, a: FiniteAlgebra, depth: int,
                  budget: int | None) -> Backtrack:
    """The search over the first ``depth`` variables in order, each bound in
    its register as it is set: a pinned variable tries only the values its
    pin solves for, ascending, and each level's premises are checked as soon
    as its variable is bound."""
    meet, join, star = a.meet, a.join, a.star
    pins, levels = prog.pins, prog.levels
    every = range(a.size)
    starinv: dict[int, list[int]] = {}
    if any(pin and pin[0] for pin in pins[:depth]):
        for x in every:
            starinv.setdefault(star[x], []).append(x)

    def expand(i, f, state):
        pin = pins[i]
        if pin is None:
            values = every
        else:
            is_star, steps, reg = pin
            _run(steps, r, meet, join, star)
            values = starinv.get(r[reg], ()) if is_star else (r[reg],)
        steps = levels[i]
        for u in values:
            f[i] = r[i] = u
            yield state if not steps or _run(steps, r, meet, join, star) else None

    return Backtrack(depth, expand, budget)


def _sweep_backtrack(a: FiniteAlgebra, names: list[str], prog: _Program,
                     budget: int | None) -> SatisfactionResult:
    meet, join, star = a.meet, a.join, a.star
    r = prog.registers(a)
    if not _run(prog.ground, r, meet, join, star):
        return SatisfactionResult("satisfied", None, 0)
    search = _level_search(prog, r, a, len(names), budget)
    for f in search.solutions(True):
        if not _run(prog.conclusion, r, meet, join, star):
            return SatisfactionResult("falsified", dict(zip(names, f)), search.nodes)
    status = "inconclusive" if search.exhausted else "satisfied"
    return SatisfactionResult(status, None, search.nodes)


def _sweep_grid(a: FiniteAlgebra, names: list[str], prog: _Program) -> SatisfactionResult:
    """Searches the lead variables, the last pinned one among them, and
    fills in the rest, up to ``_GRID_CELLS`` cells per lead assignment, as
    numpy index grids; the caller runs it only on a space within budget."""
    import numpy as np
    n, k = a.size, len(names)
    g = 0
    while g < k - prog.pinned and n ** (g + 1) <= _GRID_CELLS:
        g += 1
    lead, cells = k - g, n ** g
    tables = a.meet, a.join, a.star
    r = prog.registers(a)
    if not _run(prog.ground, r, *tables):
        return SatisfactionResult("satisfied", None, 0)
    r[lead:k] = np.indices((n,) * g).reshape(g, cells)
    *concl, (_, _, lhs, rhs) = prog.conclusion
    leaf = [step for level in prog.levels[lead:] for step in level] + concl
    checked = 0
    for f in _level_search(prog, r, a, lead, None).solutions(True):
        checked += cells
        mask = np.ones(cells, dtype=bool)
        if not _run_grid(leaf, r, mask, a):
            continue
        mask &= r[lhs] != r[rhs]
        if mask.any():
            cell = int(np.argmax(mask))
            out = dict(zip(names, f))
            out.update((names[i], int(r[i][cell])) for i in range(lead, k))
            return SatisfactionResult("falsified", out, checked)
    return SatisfactionResult("satisfied", None, checked)


def satisfies(a: FiniteAlgebra, q: Quasiequation,
              budget: int = DEFAULT_SWEEP_BUDGET) -> SatisfactionResult:
    """Exhaustive valuation sweep, lexicographic in (variable order,
    element index); reports the least falsifier.

    The quasiequation is compiled once into a straight-line program over
    registers (:class:`_Program`), which both engines run.  Both bind
    variables through one backtracking level search that checks each
    premise as soon as its variables are bound and solves, per variable,
    the first premise of the shape ``x = t`` / ``x* = t`` over earlier
    variables.  The pins pick the engine: every variable up to the last
    pinned one is searched, and an unpinned tail of at least ``_GRID_MIN``
    valuations is filled in as vectorized grids under each lead assignment
    when the whole space of ``n^k`` valuations fits the budget.  Every
    other sweep searches every variable.  A space that fits the budget is
    always decided; a larger one searched past the budget is inconclusive.
    """
    names = variables_of(q)
    prog = _compile(q, names)
    if not names:
        r, tables = prog.registers(a), (a.meet, a.join, a.star)
        if _run(prog.ground, r, *tables) and not _run(prog.conclusion, r, *tables):
            return SatisfactionResult("falsified", {}, 1)
        return SatisfactionResult("satisfied", None, 1)
    n, k = a.size, len(names)
    fits = n ** k <= budget
    if fits and n ** (k - prog.pinned) >= _GRID_MIN:
        return _sweep_grid(a, names, prog)
    return _sweep_backtrack(a, names, prog, None if fits else budget)


# ---------------------------------------------------------------------------
# named quasiequations


def _fold(node: type, terms: list[Term], empty: Term) -> Term:
    """Right-associated ``node`` (``Join`` or ``Meet``) of ``terms``;
    ``empty`` (its unit) when there are none."""
    if not terms:
        return empty
    out = terms[-1]
    for t in reversed(terms[:-1]):
        out = node(t, out)
    return out


def make_qb(n: int) -> Quasiequation:
    """The quasiequation whose failure is equivalent to containing the
    n-atom subdirectly irreducible as a subalgebra: premises
    ``x_i* = join of the other variables``, conclusion ``join of all = 1``."""
    if n < 1:
        raise ValueError("n must be positive")
    xs = [Var(f"x{i}") for i in range(1, n + 1)]
    premises = tuple((Star(xs[i]), _fold(Join, [xs[j] for j in range(n) if j != i], ZERO))
                     for i in range(n))
    return Quasiequation(premises, (_fold(Join, xs, ZERO), ONE))


def make_ib(m: int) -> Quasiequation:
    """The single identity axiomatizing the variety generated by the
    m-atom subdirectly irreducible."""
    if m < 1:
        raise ValueError("m must be positive")
    xs = [Var(f"x{i}") for i in range(1, m + 2)]
    summands = [Star(Meet(xs[i], _fold(Meet, [Star(xs[j]) for j in range(m + 1) if j != i], ONE)))
                for i in range(m + 1)]
    return Quasiequation((), (_fold(Join, summands, ZERO), ONE))


def make_positive_diagram(a: FiniteAlgebra) -> tuple[tuple[Term, Term], ...]:
    """Positive unnested diagram over variables ``x_<elementIndex>``: one
    equality per meet/join/star table entry plus the two constants, in
    that order (meet rows, join rows, star, constants)."""
    xs = [Var(f"x{i}") for i in range(a.size)]
    prem: list[tuple[Term, Term]] = []
    for i in range(a.size):
        for j in range(a.size):
            prem.append((Meet(xs[i], xs[j]), xs[a.meet[i][j]]))
    for i in range(a.size):
        for j in range(a.size):
            prem.append((Join(xs[i], xs[j]), xs[a.join[i][j]]))
    for i in range(a.size):
        prem.append((Star(xs[i]), xs[a.star[i]]))
    prem.append((xs[a.zero], ZERO))
    prem.append((xs[a.one], ONE))
    return tuple(prem)


def make_splitting_quasieq(m: int) -> Quasiequation:
    """Positive diagram of the m-atom subdirectly irreducible implying
    ``x_e = x_1`` where ``e`` is its Boolean top (index ``2^m - 1``) and
    the top sits at index ``2^m``."""
    bn = make_bn(m)
    e = (1 << m) - 1
    return Quasiequation(make_positive_diagram(bn),
                         (Var(f"x{e}"), Var(f"x{bn.one}")))


@dataclass(frozen=True)
class VarietyResult:
    status: str                      # "satisfied" | "falsified" | "inconclusive"
    counterexample_atoms: int | None = None
    falsifier: dict[str, int] | None = None

    def __bool__(self) -> bool:
        return self.status == "satisfied"


def variety_satisfies(q: Quasiequation,
                      budget: int = DEFAULT_SWEEP_BUDGET) -> VarietyResult:
    """Whether the whole variety satisfies an n-variable quasiequation.

    A failure anywhere is witnessed in an n-generated algebra, whose
    subdirectly irreducible quotients have at most 2^n atoms, so checking
    the algebras with 0..2^n atoms decides the variety.
    """
    n = len(variables_of(q))
    bound = 1 << n
    inconclusive = False
    for j in range(bound + 1):
        res = satisfies(make_bn(j), q, budget=budget)
        if res.status == "falsified":
            return VarietyResult("falsified", j, res.falsifier)
        if res.status == "inconclusive":
            inconclusive = True
    if inconclusive:
        return VarietyResult("inconclusive")
    return VarietyResult("satisfied")
