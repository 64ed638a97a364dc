"""The list-layout pp-morphism search, kept as the oracle for the engines
that ``palg.duality._pp_tables`` builds.

Each node copies a list of per-point target masks and narrows the points
related to the one just placed, one pair at a time, from ``forward`` lists
built for every related pair of the source before the first node.  A
finished table that misses a required target or breaks
``f(max up(x)) = max up(f(x))`` is dropped by a filter at the leaf, the
reference this oracle keeps.  The packed engine yields only pp-morphisms
instead: it rejects such a value as it places the last point.  That is
one node either way, so it must visit exactly this tree: the same tables,
in the same order, at the same node counts, with the same budget
semantics.
"""

from palg.core import bits
from palg.search import Backtrack


def pp_tables(src, dst, required: int, budget: int):
    """``(search, tables)`` as ``palg.duality._pp_tables(src, dst)(required,
    budget)`` returns them."""
    ns, nd = src.size, dst.size
    up_s = src.up
    mu_s, mu_d = src.max_up_masks, dst.max_up_masks
    card_d = [m.bit_count() for m in mu_d]
    dom0 = [sum(1 << t for t in range(nd) if m.bit_count() >= card_d[t]) for m in mu_s]
    up_d, down_d = dst.up, dst.down
    forward: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(ns)]
    for x in range(ns):
        for y in bits(up_s[x] >> (x + 1)):
            y += x + 1
            forward[x].append((y, mu_d if (mu_s[x] >> y) & 1 else up_d))
        for y in bits(up_s[x] & ((1 << x) - 1)):
            forward[y].append((x, down_d))
    max_s, max_d = src.maximal_mask, dst.maximal_mask
    max_lists = [(x, list(bits(m))) for x, m in enumerate(mu_s) if m & (m - 1)]
    required_pts = set(bits(required))

    def expand(i, f, state):
        dom, covered = state
        if required:
            reach = covered
            for m in dom[i:]:
                reach |= m
            if (reach & required) != required:
                return
        maximal = (max_s >> i) & 1
        for t in bits(dom[i]):
            f[i] = t
            if maximal and not (max_d >> t) & 1:
                yield None
                continue
            ndom = dom.copy()
            for y, masks in forward[i]:
                m = ndom[y] & masks[t]
                if not m:
                    ndom = None
                    break
                ndom[y] = m
            yield None if ndom is None else (ndom, covered | (1 << t))

    search = Backtrack(ns, expand, budget)

    def tables():
        for f in search.solutions((dom0, 0)):
            if not required_pts.issubset(f):
                continue
            for x, ys in max_lists:
                img = 0
                for y in ys:
                    img |= 1 << f[y]
                if img != mu_d[f[x]]:
                    break
            else:
                yield tuple(f)

    return search, tables()
