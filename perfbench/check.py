"""Independent checks of palg's verdicts and witnesses.

Nothing here calls palg's validators.  Tables and up-masks are read as
plain data; terms are walked by class name.  Where a negative verdict has
a second route in the paper (qb_n holds iff B_n does not embed, dually iff
no surjective pp-morphism onto the n-fan; membership in the variety of
B_m iff every dual point has at most m maximals above it), the checker
takes it.  These helpers also serve the generator, which uses them to
size and plant its inputs.
"""

from __future__ import annotations

import itertools

import numpy as np


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# posets as up-masks


def close_relation(size: int, pairs) -> list[int]:
    """Up-masks of the reflexive-transitive closure of ``lo <= hi`` pairs."""
    up = [1 << x for x in range(size)]
    for lo, hi in pairs:
        up[lo] |= 1 << hi
    changed = True
    while changed:
        changed = False
        for x in range(size):
            m = up[x]
            for y in bits(m & ~(1 << x)):
                m |= up[y]
            if m != up[x]:
                up[x] = m
                changed = True
    return up


def down_masks(up) -> list[int]:
    down = [0] * len(up)
    for x, m in enumerate(up):
        for y in bits(m):
            down[y] |= 1 << x
    return down


def max_up(up) -> list[int]:
    """Per point, the mask of maximal points above it."""
    maximal = 0
    for x, m in enumerate(up):
        if m == 1 << x:
            maximal |= 1 << x
    return [m & maximal for m in up]


def count_upsets(up) -> int:
    """Brute force over subsets; meant for posets of at most ~12 points."""
    n = len(up)
    return sum(1 for s in range(1 << n)
               if all(up[x] & ~s == 0 for x in bits(s)))


def max_fan_width(up) -> int:
    """The largest number of maximal points above a single point."""
    return max((bin(m).count("1") for m in max_up(up)), default=0)


def dual_up_masks(meet) -> list[int]:
    """Up-masks of the join-irreducibles of a lattice table under the
    converse order, listed in ascending element index."""
    n = len(meet)
    below = [0] * n           # bit y of below[x]: y <= x
    for x in range(n):
        row = meet[x]
        for y in range(n):
            if row[y] == y:
                below[x] |= 1 << y
    above = down_masks(below)     # bit z of above[y]: y <= z
    ji = []
    for x in range(n):
        strict = below[x] & ~(1 << x)
        if strict == 0:
            continue              # the bottom
        covers = sum(1 for y in bits(strict) if above[y] & strict == 1 << y)
        if covers == 1:
            ji.append(x)
    pos = {x: i for i, x in enumerate(ji)}
    up = []
    for x in ji:                  # converse order: i <= j iff ji[j] <= ji[i]
        m = 0
        for y in bits(below[x]):
            if y in pos:
                m |= 1 << pos[y]
        up.append(m)
    return up


# ---------------------------------------------------------------------------
# terms and quasiequations


def eval_term(t, a, val):
    kind = type(t).__name__
    if kind == "Var":
        return val[t.name]
    if kind == "Const":
        return a.one if t.value else a.zero
    if kind == "Meet":
        return a.meet[eval_term(t.left, a, val)][eval_term(t.right, a, val)]
    if kind == "Join":
        return a.join[eval_term(t.left, a, val)][eval_term(t.right, a, val)]
    if kind == "Star":
        return a.star[eval_term(t.arg, a, val)]
    raise TypeError(f"not a term: {t!r}")


def term_vars(t, acc: list) -> list:
    kind = type(t).__name__
    if kind == "Var":
        if t.name not in acc:
            acc.append(t.name)
    elif kind in ("Meet", "Join"):
        term_vars(t.left, acc)
        term_vars(t.right, acc)
    elif kind == "Star":
        term_vars(t.arg, acc)
    return acc


def qe_vars(q) -> list[str]:
    acc: list[str] = []
    for lhs, rhs in q.premises:
        term_vars(lhs, acc)
        term_vars(rhs, acc)
    term_vars(q.conclusion[0], acc)
    term_vars(q.conclusion[1], acc)
    return acc


def is_falsifier(a, q, val) -> bool:
    """All premises hold and the conclusion fails under ``val``."""
    if sorted(val) != sorted(qe_vars(q)):
        return False
    if any(not (0 <= v < a.size) for v in val.values()):
        return False
    if any(eval_term(l, a, val) != eval_term(r, a, val) for l, r in q.premises):
        return False
    return eval_term(q.conclusion[0], a, val) != eval_term(q.conclusion[1], a, val)


def _np_eval(t, tabs, env):
    meet, join, star, zero, one = tabs
    kind = type(t).__name__
    if kind == "Var":
        return env[t.name]
    if kind == "Const":
        return one if t.value else zero
    if kind == "Meet":
        return meet[_np_eval(t.left, tabs, env), _np_eval(t.right, tabs, env)]
    if kind == "Join":
        return join[_np_eval(t.left, tabs, env), _np_eval(t.right, tabs, env)]
    if kind == "Star":
        return star[_np_eval(t.arg, tabs, env)]
    raise TypeError(f"not a term: {t!r}")


def least_falsifier(a, q) -> dict | None:
    """Exhaustive sweep in lexicographic (variable, element) order; the
    valuation space must be small enough to hold in memory."""
    names = qe_vars(q)
    tabs = (np.array(a.meet), np.array(a.join), np.array(a.star), a.zero, a.one)
    n, k = a.size, len(names)
    grids = np.indices((n,) * k).reshape(k, -1) if k else np.zeros((0, 1), dtype=int)
    env = {name: grids[i] for i, name in enumerate(names)}
    cells = n ** k
    mask = np.ones(cells, dtype=bool)
    for lhs, rhs in q.premises:
        mask &= np.broadcast_to(_np_eval(lhs, tabs, env) == _np_eval(rhs, tabs, env), (cells,))
    mask &= np.broadcast_to(_np_eval(q.conclusion[0], tabs, env)
                            != _np_eval(q.conclusion[1], tabs, env), (cells,))
    if not mask.any():
        return None
    cell = int(np.argmax(mask))
    return {name: int(grids[i][cell]) for i, name in enumerate(names)}


# ---------------------------------------------------------------------------
# maps


def is_homomorphism(s, t, table, injective: bool = False) -> bool:
    if len(table) != s.size or any(not (0 <= v < t.size) for v in table):
        return False
    if injective and len(set(table)) != len(table):
        return False
    if table[s.zero] != t.zero or table[s.one] != t.one:
        return False
    for x in range(s.size):
        fx = table[x]
        if t.star[fx] != table[s.star[x]]:
            return False
        smx, sjx, tmx, tjx = s.meet[x], s.join[x], t.meet[fx], t.join[fx]
        for y in range(s.size):
            fy = table[y]
            if tmx[fy] != table[smx[y]] or tjx[fy] != table[sjx[y]]:
                return False
    return True


def is_surjective_ppmap(src_up, dst_up, table) -> bool:
    """Order preserving, ``f(max up x) = max up f(x)``, and onto."""
    ns, nd = len(src_up), len(dst_up)
    if len(table) != ns or any(not (0 <= v < nd) for v in table):
        return False
    for x in range(ns):
        for y in bits(src_up[x]):
            if not (dst_up[table[x]] >> table[y]) & 1:
                return False
    mu_s, mu_d = max_up(src_up), max_up(dst_up)
    for x in range(ns):
        img = 0
        for y in bits(mu_s[x]):
            img |= 1 << table[y]
        if img != mu_d[table[x]]:
            return False
    return len(set(table)) == nd


def is_quasigroup_hom(src_mult, dst_mult, table) -> bool:
    n = len(src_mult)
    return len(table) == n and all(
        dst_mult[table[x]][table[y]] == table[src_mult[x][y]]
        for x in range(n) for y in range(n))


def steiner_fan3_exists(blocks, order: int) -> bool:
    """Does the Steiner poset map onto the 3-fan?  Such a map colours the
    points with three colours so that every block is monochrome or
    rainbow and at least one block is rainbow."""
    for colours in itertools.product(range(3), repeat=order - 1):
        c = (0,) + colours
        rainbow = False
        for a, b, d in blocks:
            k = len({c[a], c[b], c[d]})
            if k == 2:
                break
            rainbow |= k == 3
        else:
            if rainbow:
                return True
    return False
