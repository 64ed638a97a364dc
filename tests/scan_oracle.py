"""The exhaustive numpy scan of the p-algebra laws, kept as the oracle
for ``palg.core.validate_palgebra``.

It decides each law on its own, the lattice laws by O(n^3) scans, and
reports every law a table breaks with its first witness tuple in
row-major order.  ``validate_palgebra`` reports only the first of its own
checks that fails, so the tests compare verdicts, and witnesses where
both name the same law.
"""

from palg.core import FiniteAlgebra, ValidationReport, Violation


def _first_mismatch(n: int, lhs, rhs) -> tuple | None:
    """The first index, in row-major order, where the arrays ``lhs(xs)`` and
    ``rhs(xs)`` differ: each side gives the law's values for a chunk ``xs``
    of first arguments, chunked so that a 3-D side stays near 20M cells."""
    import numpy as np
    chunk = max(1, 20_000_000 // max(1, n * n))
    for x0 in range(0, n, chunk):
        xs = np.arange(x0, min(n, x0 + chunk))
        bad = np.argwhere(lhs(xs) != rhs(xs))
        if len(bad):
            return (int(bad[0][0]) + x0, *map(int, bad[0][1:]))
    return None


def _scan_palgebra(candidate: FiniteAlgebra) -> ValidationReport:
    """Every p-algebra law by exhaustive numpy scan over in-range tables,
    each failure with its first witness tuple in row-major order."""
    n, zero, one = candidate.size, candidate.zero, candidate.one
    m, j, s = candidate.np_meet, candidate.np_join, candidate.np_star
    viol: list[Violation] = []

    def check(law, lhs, rhs):
        w = _first_mismatch(n, lhs, rhs)
        if w is not None:
            viol.append(Violation(law, w))

    check("meet commutative", lambda xs: m[xs], lambda xs: m.T[xs])
    check("join commutative", lambda xs: j[xs], lambda xs: j.T[xs])
    check("meet idempotent", lambda xs: m[xs, xs], lambda xs: xs)
    check("join idempotent", lambda xs: j[xs, xs], lambda xs: xs)
    check("absorption x ^ (x v y) = x", lambda xs: m[xs[:, None], j[xs]], lambda xs: xs[:, None])
    check("absorption x v (x ^ y) = x", lambda xs: j[xs[:, None], m[xs]], lambda xs: xs[:, None])
    # t[t[x,y],z] == t[x,t[y,z]] and m[x,j[y,z]] == j[m[x,y],m[x,z]]
    # indexed so that both 3-D sides come out C-contiguous, which keeps ``!=`` fast
    check("meet associative", lambda xs: m[m[xs]], lambda xs: m[xs[:, None, None], m])
    check("join associative", lambda xs: j[j[xs]], lambda xs: j[xs[:, None, None], j])
    check("distributive", lambda xs: m[xs[:, None, None], j],
          lambda xs: j[m[xs][:, :, None], m[xs][:, None, :]])
    check("0 is bottom", lambda xs: m[xs, zero], lambda xs: zero)
    check("1 is top", lambda xs: j[xs, one], lambda xs: one)
    if s[one] != zero:
        viol.append(Violation("1* = 0", (one,)))
    if s[zero] != one:
        viol.append(Violation("0* = 1", (zero,)))
    check("x ^ (x ^ y)* = x ^ y*", lambda xs: m[xs[:, None], s[m[xs]]],
          lambda xs: m[xs[:, None], s[None, :]])

    return ValidationReport(violations=tuple(viol))


def breaks(a: FiniteAlgebra, v: Violation) -> bool:
    """Whether the witness of ``v`` breaks the check of
    ``validate_palgebra`` that ``v`` names, read off the tables entry by
    entry; ``x <= y`` is ``x ^ y = x``."""
    meet, join, star, zero, one, n = a.meet, a.join, a.star, a.zero, a.one, a.size

    def leq(x, y):
        return meet[x][y] == x

    def down(x):
        return {z for z in range(n) if leq(z, x)}

    def join_irreducible(x):
        below = down(x) - {x}
        return x != zero and sum(not any(leq(y, z) and y != z for z in below)
                                 for y in below) == 1

    def j(x):
        return {z for z in down(x) if join_irreducible(z)}

    law, w = v.law, v.witness
    if law == "meet commutative":
        return meet[w[0]][w[1]] != meet[w[1]][w[0]]
    if law == "join commutative":
        return join[w[0]][w[1]] != join[w[1]][w[0]]
    if law == "meet idempotent":
        return meet[w[0]][w[0]] != w[0]
    if law == "down(x ^ y) = down(x) & down(y)":
        return down(meet[w[0]][w[1]]) != down(w[0]) & down(w[1])
    if law == "0 is bottom":
        return not leq(zero, w[0])
    if law == "1 is top":
        return not leq(w[0], one)
    if law == "1* = 0":
        return w == (one,) and star[one] != zero
    if law == "0* = 1":
        return w == (zero,) and star[zero] != one
    if law == "J(x v y) = J(x) | J(y)":
        return j(join[w[0]][w[1]]) != j(w[0]) | j(w[1])
    if law == "x ^ (x ^ y)* = x ^ y*":
        x, y = w
        return meet[x][star[meet[x][y]]] != meet[x][star[y]]
    raise ValueError(f"no such check: {law!r}")
