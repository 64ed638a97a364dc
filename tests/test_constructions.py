"""Every construction's tables, zero/one and generator indices, pinned,
and every construction accepted by the validation certificate.

The digests were recorded before the constructions were rebuilt on one
closure and one table builder; a witness is the lexicographically least
only relative to an indexing, so the indexing must not move.
"""

import hashlib

import numpy as np
import pytest

from palg import (
    build_free,
    delta,
    epsilon,
    generated_subalgebra,
    make_bn,
    paste_w,
    poset_of,
    posets_up_to,
    product,
    reports,
    trivial_algebra,
    validate_palgebra,
)
from palg.core import covers
from palg.steiner import fano_system


def _digest(a, extra=()) -> str:
    h = hashlib.sha256()
    for tab in (a.np_meet, a.np_join, a.np_star):
        h.update(tab.tobytes())
    h.update(np.asarray([a.size, a.zero, a.one, *extra], dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def _epsilon(p):
    return lambda: (epsilon(p), ())


def _free(m, k):
    def build():
        f = build_free(m, k)
        return f.algebra, f.generators
    return build


def _product(ns):
    return lambda: (product([make_bn(n) for n in ns]), ())


def _nested(outer, inner_first):
    # product([product([a, b]), c]) or product([a, product([b, c])])
    def build():
        a, b, c = (make_bn(n) for n in outer)
        parts = [product([a, b]), c] if inner_first else [a, product([b, c])]
        return product(parts), ()
    return build


def _sub(parent, gens):
    def build():
        sub, inc = generated_subalgebra(parent(), gens)
        return sub, inc.table
    return build


def _cases():
    """Each case's name and a function returning its algebra and extra indices."""
    cases = {}
    for i, p in enumerate(posets_up_to(5)):
        cases[f"eps-poset{i}-n{p.size}"] = _epsilon(p)
    cases["eps-W3"] = _epsilon(paste_w(3))
    cases["eps-W4"] = lambda: (reports.eps_w4(), ())  # shared with other tests
    cases["eps-P(Fano)"] = _epsilon(poset_of(fano_system()))
    for n in range(9):
        cases[f"B{n}"] = (lambda n=n: (make_bn(n), ()))
    for m, k in ((0, 1), (1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)):
        cases[f"free-{m}-{k}"] = _free(m, k)
    for ns in ((0, 0), (1,), (1, 2), (0, 1, 1), (0, 0, 2), (0, 1, 2)):
        cases["prod-" + "x".join(map(str, ns))] = _product(ns)
    for outer in ((0, 1, 1), (0, 0, 2)):
        for inner_first in (True, False):
            side = "left" if inner_first else "right"
            cases[f"prod-{side}-" + "x".join(map(str, outer))] = _nested(outer, inner_first)
    b2, b3 = (lambda: make_bn(2)), (lambda: make_bn(3))
    cases["sub-B2-{1,2}"] = _sub(b2, {1, 2})
    cases["sub-B2-{}"] = _sub(b2, set())
    cases["sub-trivial-{}"] = _sub(trivial_algebra, set())
    for gens in ({1}, {3}, {1, 4}):
        cases["sub-B3-{" + ",".join(map(str, sorted(gens))) + "}"] = _sub(b3, gens)
    cases["sub-B0xB1xB2-{6}"] = _sub(lambda: product([make_bn(0), make_bn(1), make_bn(2)]),
                                     {(0 * 3 + 1) * 5 + 1})
    return cases


CASES = _cases()

PINNED = {
    "B0": "f45ce4d01976c60e",
    "B1": "36d5577038a0c214",
    "B2": "f2bd2ef5051b8691",
    "B3": "65e80d0ee2066e1a",
    "B4": "eccf6589879e0ff7",
    "B5": "600a335f3355ceb7",
    "B6": "3396a59e94f94f0f",
    "B7": "c635ef5a872f95ca",
    "B8": "67d9415c8c5e4092",
    "eps-P(Fano)": "33dd44963900439c",
    "eps-W3": "f47fac3f6cea7d3e",
    "eps-W4": "082092243a3b8dd8",
    "eps-poset0-n0": "03054a8970982fc0",
    "eps-poset1-n1": "f45ce4d01976c60e",
    "eps-poset10-n4": "d1862c68d118d18c",
    "eps-poset11-n4": "a8ebd6bdf1ac87ea",
    "eps-poset12-n4": "65e80d0ee2066e1a",
    "eps-poset13-n4": "350db1458fe2cf10",
    "eps-poset14-n4": "1fb9943e4afd26e5",
    "eps-poset15-n4": "3959afe818f5c4e4",
    "eps-poset16-n4": "8a52d39a32318c86",
    "eps-poset17-n4": "6d95f47175b1dded",
    "eps-poset18-n4": "479db2f7a59bfdb2",
    "eps-poset19-n4": "b1999e3a5edc228a",
    "eps-poset2-n2": "b32c0f79622ea39f",
    "eps-poset20-n4": "abc593c934894b94",
    "eps-poset21-n4": "c0e54da5bdcd2c1c",
    "eps-poset22-n4": "4bdce6c085fc2260",
    "eps-poset23-n4": "45d4d48a108593fe",
    "eps-poset24-n4": "7dbb1cf509e7f1a2",
    "eps-poset25-n5": "73e1379e12529f91",
    "eps-poset26-n5": "c77481157cdb7c8d",
    "eps-poset27-n5": "12eb7f56954eee5c",
    "eps-poset28-n5": "dc8db8ddd4325bcf",
    "eps-poset29-n5": "eccf6589879e0ff7",
    "eps-poset3-n2": "36d5577038a0c214",
    "eps-poset30-n5": "8f70e2a0587313b4",
    "eps-poset31-n5": "c928bf9c6c197d8a",
    "eps-poset32-n5": "6f12f68a40531460",
    "eps-poset33-n5": "83884027b24e9505",
    "eps-poset34-n5": "59584d60de0e2b87",
    "eps-poset35-n5": "99c8a9f6a3c39f69",
    "eps-poset36-n5": "9513f118ff3f0c43",
    "eps-poset37-n5": "370a6e7f37ef1373",
    "eps-poset38-n5": "774f622284925334",
    "eps-poset39-n5": "b2e9abc1ba327cda",
    "eps-poset4-n3": "402b6b89df86686e",
    "eps-poset40-n5": "b6b2df03da8ad24d",
    "eps-poset41-n5": "db100a8c1d68eb8b",
    "eps-poset42-n5": "599cb4ca2268e85d",
    "eps-poset43-n5": "06fb0ccccdfe1952",
    "eps-poset44-n5": "15a6375e15533d4d",
    "eps-poset45-n5": "5dfc4f9672d1e0c6",
    "eps-poset46-n5": "9c67b9e189454094",
    "eps-poset47-n5": "937975d98e7ddec2",
    "eps-poset48-n5": "296675c0ef305b52",
    "eps-poset49-n5": "e148d4f07d0c41fc",
    "eps-poset5-n3": "a1f2f8a41f2a1d0f",
    "eps-poset50-n5": "777f0ba30c632735",
    "eps-poset51-n5": "9112557d040824c7",
    "eps-poset52-n5": "516840f98e138923",
    "eps-poset53-n5": "48f407ddbb74035a",
    "eps-poset54-n5": "49a07dc0e6725ea4",
    "eps-poset55-n5": "0fea4ecba5e0f24e",
    "eps-poset56-n5": "2872d641619aef80",
    "eps-poset57-n5": "2a2048b762333f7d",
    "eps-poset58-n5": "6995684806d1f0ae",
    "eps-poset59-n5": "4bb0b3478a7456cf",
    "eps-poset6-n3": "f2bd2ef5051b8691",
    "eps-poset60-n5": "60a1c342fac8a9aa",
    "eps-poset61-n5": "e78ef1d505814745",
    "eps-poset62-n5": "cbf1610acc6f69ca",
    "eps-poset63-n5": "fe7eb9827a32360c",
    "eps-poset64-n5": "07fcd1d55aa7a25d",
    "eps-poset65-n5": "3d946c05fb0af690",
    "eps-poset66-n5": "8a0108dda1c751fe",
    "eps-poset67-n5": "f7fbd6182ab9c13d",
    "eps-poset68-n5": "0f9bf7f8d2dee1f4",
    "eps-poset69-n5": "9eb91221a9f4820c",
    "eps-poset7-n3": "efc8d729f59897e4",
    "eps-poset70-n5": "1701fa863183562c",
    "eps-poset71-n5": "7be59e6158ec848d",
    "eps-poset72-n5": "f35bec1681ff5c07",
    "eps-poset73-n5": "0f5146cbfe36e912",
    "eps-poset74-n5": "639c665761e6835a",
    "eps-poset75-n5": "68ed59210e9ce3ec",
    "eps-poset76-n5": "c7d3e4c1194e3404",
    "eps-poset77-n5": "2d390650bd4c2c6a",
    "eps-poset78-n5": "e1a061387139144c",
    "eps-poset79-n5": "c219106b01d12f4a",
    "eps-poset8-n3": "c8d20eccfab267ba",
    "eps-poset80-n5": "f4943b5fbba859af",
    "eps-poset81-n5": "9a37df1786ce81eb",
    "eps-poset82-n5": "d9d9b2f78137c91c",
    "eps-poset83-n5": "e7cde1b365c1c448",
    "eps-poset84-n5": "58c2bffd211f4c9f",
    "eps-poset85-n5": "415d8a4c9ae3fd38",
    "eps-poset86-n5": "4a6a8f6369eb1232",
    "eps-poset87-n5": "d509d575d36b6f8e",
    "eps-poset9-n4": "f5eea847d86db8ff",
    "free-0-1": "bd1caeee4f04a15e",
    "free-1-1": "ca0451641202baa2",
    "free-1-2": "d39a8b7c12b7d9c9",
    "free-2-1": "fb9fba5fbfe25dd5",
    "free-2-2": "44977a8d4818b966",
    "free-3-1": "fb9fba5fbfe25dd5",
    "free-3-2": "a21d5b1e023f2d04",
    "prod-0x0": "b32c0f79622ea39f",
    "prod-0x0x2": "8079488876c8540d",
    "prod-0x1x1": "64eca0e170ae9da0",
    "prod-0x1x2": "53195d7f582b244f",
    "prod-1": "36d5577038a0c214",
    "prod-1x2": "1df709938dcb51c8",
    "prod-left-0x0x2": "8079488876c8540d",
    "prod-left-0x1x1": "64eca0e170ae9da0",
    "prod-right-0x0x2": "8079488876c8540d",
    "prod-right-0x1x1": "64eca0e170ae9da0",
    "sub-B0xB1xB2-{6}": "bed8c58f741d861a",
    "sub-B2-{1,2}": "f57c90a94f5b3bdd",
    "sub-B2-{}": "626dda62e6b5f1e6",
    "sub-B3-{1,4}": "775626f61732ff85",
    "sub-B3-{1}": "02e03d4f453d5cc7",
    "sub-B3-{3}": "5cf0e0921d3d066f",
    "sub-trivial-{}": "055cf771ba2125a2",
}


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_construction_tables_are_pinned(name):
    assert _digest(*CASES[name]()) == PINNED[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_accepts_every_construction(name, scan_agrees):
    a, _ = CASES[name]()
    if a.size <= 300:
        assert scan_agrees(a).ok
    else:  # the cubic scan would take minutes
        assert validate_palgebra(a).ok


def _hasse_by_leq(a):
    """The lattice's Hasse edges by a search over ``leq``: ``y`` covers
    ``x`` iff no third point above ``x`` lies below ``y``."""
    out = []
    for x in range(a.size):
        above = [y for y in range(a.size) if y != x and a.leq(x, y)]
        out += [(x, y) for y in above if not any(z != y and a.leq(z, y) for z in above)]
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_order_readers_match_the_leq_oracles(name):
    a, _ = CASES[name]()
    poset, labels = delta(a)
    assert labels == a.join_irreducibles
    # the converse order on the join-irreducibles
    assert poset.up == tuple(sum(1 << j for j, y in enumerate(labels) if a.leq(y, x))
                             for x in labels)
    assert poset.covers() == [(x, y) for x in range(poset.size) for y in range(poset.size)
                              if x != y and poset.leq(x, y)
                              and not any(poset.leq(x, z) and poset.leq(z, y)
                                          for z in range(poset.size) if z not in (x, y))]
    if a.size <= 700:  # the search is cubic on the larger pasted-poset algebras
        assert covers(a.up_masks, a.down_masks) == _hasse_by_leq(a)
