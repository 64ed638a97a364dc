"""The one backtracking kernel behind every search in palg.

:class:`Backtrack` assigns positions ``0..n-1`` in index order with an
explicit stack, so the depth of a search is not bounded by Python's
recursion limit.  An engine supplies one callback per level:

``expand(i, f, state)``
    a generator over the values tried at position ``i``, ascending;
    ``f[:i]`` holds the assignment so far and ``state`` is what the
    parent node yielded.  For each value it sets ``f[i]`` and yields one
    item: the state for position ``i + 1``, or ``None`` to reject the
    value.  Every item yielded is one node and counts against the
    budget; a value skipped without a yield is not a node.

Complete assignments come out in lexicographic order when the values are
ascending.  A map engine checks every constraint in ``expand``, so each
complete assignment it yields is one of its maps, unfiltered.
:func:`table_homs` is the table-homomorphism engine built on the kernel,
shared by algebra and quasigroup homomorphism searches; the pp-morphism
search, poset isomorphism and both quasiequation sweeps (through
``logic._level_search``) run on it too.

A state is whatever its engine needs.  The pp-morphism engine
(``duality._pp_tables``, one per source and target) packs the remaining
targets of every point not yet placed into one int, one ``nd + 1``-bit
field per point, the next point's lowest, with a guard bit on top of
each, so that placing a point narrows all the points related to it with
one AND against a cached mask; a field left empty shows as a cleared
guard once 1 is subtracted from it.  Beside it sits the mask of the
required targets that no placed point covers yet.
"""

from __future__ import annotations

import itertools


class Backtrack:
    """Depth-first search over assignments; ``nodes`` counts the items
    ``expand`` yielded and ``exhausted`` is set when more than ``budget``
    were needed."""

    def __init__(self, n: int, expand, budget: int | None = None):
        self.n = n
        self.expand = expand
        self.budget = float("inf") if budget is None else budget
        self.nodes = 0
        self.exhausted = False

    def solutions(self, state):
        """Yield each complete assignment as one shared list; copy it to
        keep it.  Stops early when the budget runs out."""
        n, expand, budget = self.n, self.expand, self.budget
        f = [-1] * n
        if n == 0:
            yield f
            return
        nodes = self.nodes
        pending = [iter(())] * n
        pending[0] = expand(0, f, state)
        i = 0
        while i >= 0:
            for child in pending[i]:
                nodes += 1
                if nodes > budget:
                    self.nodes = nodes
                    self.exhausted = True
                    return
                if child is not None:
                    break
            else:
                i -= 1
                continue
            if i + 1 == n:
                self.nodes = nodes
                yield f
            else:
                i += 1
                pending[i] = expand(i, f, child)
        self.nodes = nodes

    def take(self, solutions, limit: int | None):
        """The first ``limit`` items (all, for ``None``) of ``solutions``,
        an iterator over this search, and whether they are all there is;
        a reached limit counts as truncation."""
        found = list(itertools.islice(solutions, limit))
        return found, not self.exhausted and (limit is None or len(found) < limit)


def table_homs(n: int, unary, binary, consts, cands, *, injective: bool = False,
               limit: int | None = None, budget: int | None = None):
    """Maps ``0..n-1`` to a target that preserve every operation, as
    ``(tables, complete, nodes)`` with the tables in lexicographic order.

    ``unary`` and ``binary`` list ``(source_table, target_table)`` pairs;
    ``consts`` lists ``(source_index, target_index)`` pairs; ``cands[i]``
    holds the ascending images tried for a point whose image no earlier
    point forces.  A point that is a constant, or an operation applied to
    earlier points, has its image forced, so only a generating prefix
    branches.  Each fact ``op(x, y) = z`` with ``y <= x`` is checked once,
    as soon as its largest index is assigned.  ``complete`` is False when
    the budget ran out or ``limit`` maps were found.
    """
    forced: list[tuple | None] = [None] * n
    for s, t in consts:  # a point named by two constants must honour both
        prev = forced[s]
        forced[s] = (t,) if prev is None or prev == (t,) else ()
    # Facts live in per-index lists and binary facts are grouped, not one
    # tuple per fact: ``own[x]`` holds (target, source row, ys) for row x's
    # facts with z <= x, checked when x is assigned; ``defs[z]`` holds
    # (target, x, first y, other ys) for the facts op(x, y) = z > x, checked
    # when z is assigned.  A point z > x is forced by its first definition
    # in the scan order x, then unary ops, then y, then binary ops.
    unary_facts: list[list[tuple]] = [[] for _ in range(n)]
    own: list[list[tuple]] = [[] for _ in range(n)]
    defs: list[list[tuple]] = [[] for _ in range(n)]
    for x in range(n):
        for s, t in unary:
            z = s[x]
            unary_facts[max(x, z)].append((t, x, z))
            if z > x and forced[z] is None:
                forced[z] = (t, x)
        defined: dict[int, tuple] = {}
        for s, t in binary:
            row = s[x]
            low = [y for y in range(x + 1) if row[y] <= x]
            if low:
                own[x].append((t, row, low))
            if len(low) > x:
                continue
            groups: dict[int, list[int]] = {}
            for y, z in enumerate(row[:x + 1]):
                if z > x:
                    if z in groups:
                        groups[z].append(y)
                    else:
                        groups[z] = [y]
            for z, ys in groups.items():
                defs[z].append((t, x, ys[0], ys[1:]))
                if forced[z] is None and (z not in defined or ys[0] < defined[z][2]):
                    defined[z] = (t, x, ys[0])
        for z, d in defined.items():
            forced[z] = d

    def consistent(i, f, fi):
        for t, x, y, more in defs[i]:
            row = t[f[x]]
            if row[f[y]] != fi:
                return False
            for y in more:
                if row[f[y]] != fi:
                    return False
        for t, srow, ys in own[i]:
            row = t[fi]
            for y in ys:
                if row[f[y]] != f[srow[y]]:
                    return False
        for t, x, z in unary_facts[i]:
            if t[f[x]] != f[z]:
                return False
        return True

    def expand(i, f, used):
        d = forced[i]
        if d is None:
            values = cands[i]
        elif len(d) == 3:
            values = (d[0][f[d[1]]][f[d[2]]],)
        elif len(d) == 2:
            values = (d[0][f[d[1]]],)
        else:
            values = d
        for fi in values:
            if injective and (used >> fi) & 1:
                continue
            f[i] = fi
            yield used | (1 << fi) if consistent(i, f, fi) else None

    search = Backtrack(n, expand, budget)
    found, complete = search.take((tuple(f) for f in search.solutions(0)), limit)
    return found, complete, search.nodes
