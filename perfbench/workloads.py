"""Seeded task lists for the in-process workloads, and their execution.

``generate(workload, seed)`` returns a JSON-able spec: named input recipes
plus one pass of tasks.  The same seed gives the same spec (its sha256 is
printed with every run).  ``build_inputs`` turns the recipes into palg
objects; ``run_task`` executes one task through palg's public functions
and returns an :class:`Outcome`.  Every palg call goes through a module
attribute at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

import numpy as np

from palg import core, duality, free, logic, steiner

from check import close_relation, count_upsets, max_fan_width, qe_vars, term_vars

DEFAULT_SEED = 1

# Per-task budgets.  A sweep task's budget also picks its engine: palg
# sweeps on the grid when n^k <= budget and backtracks otherwise.
SWEEP_BUDGET = 50_000_000          # palg's default sweep budget (grid tasks)
GRID_CELL_CAP = 2_000_000          # grid tasks: n^k at most this
BACKTRACK_COST_CAP = 250_000       # backtrack tasks: n^(unpinned vars) at most this
PP_BUDGET = 150_000                # pp-morphism searches and each membership sub-search
HARD_BUDGET = 80_000               # Steiner -> Fano: ends inconclusive in about 0.7 s
MAP_BUDGET = 200_000               # embeddings / homomorphisms
ISO_BUDGET = 10_000_000            # is_isomorphic raises when it runs out
QHOM_BUDGET = 300_000              # Steiner quasigroup homomorphisms


# ---------------------------------------------------------------------------
# generation helpers


def random_poset(rng: random.Random, lo: int, hi: int, band: tuple[int, int],
                 max_width: int | None = None) -> dict:
    """A random poset on lo..hi points whose upset algebra has a size in
    ``band`` (and no point under more than ``max_width`` maximals), as a
    relation list ``i <= j`` closed on build."""
    while True:
        n = rng.randint(lo, hi)
        p = rng.uniform(0.15, 0.5)
        pairs = [[i, j] for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        perm = list(range(n))
        rng.shuffle(perm)
        pairs = sorted([perm[i], perm[j]] for i, j in pairs)
        up = close_relation(n, pairs)
        if max_width is not None and max_fan_width(up) > max_width:
            continue
        if band[0] <= count_upsets(up) <= band[1]:
            return {"op": "poset", "size": n, "pairs": pairs}


def poset_up(recipe: dict) -> list[int]:
    return close_relation(recipe["size"], recipe["pairs"])


def unpinned_vars(q) -> int:
    """Variables the backtracking sweep must branch on: those not solved by
    a premise ``x = t`` / ``x* = t`` over earlier variables."""
    names = qe_vars(q)
    free_count = 0
    for i, name in enumerate(names):
        earlier = set(names[:i])
        pinned = False
        for lhs, rhs in q.premises:
            for mine, other in ((lhs, rhs), (rhs, lhs)):
                kind = type(mine).__name__
                var = mine if kind == "Var" else (mine.arg if kind == "Star" else None)
                if (var is not None and type(var).__name__ == "Var" and var.name == name
                        and set(term_vars(other, [])) <= earlier):
                    pinned = True
        free_count += not pinned
    return free_count


def build_qe(recipe: dict):
    op = recipe["op"]
    if op == "qb":
        return logic.make_qb(recipe["n"])
    if op == "ib":
        return logic.make_ib(recipe["m"])
    if op == "split":
        return logic.make_splitting_quasieq(recipe["m"])
    if op == "random":
        # redraw until every variable occurs and there is a premise, so
        # that each seed's task list has the same shape
        rng = random.Random(recipe["seed"])
        while True:
            q = free.random_special_quasiequation(rng, recipe["nvars"])
            if q.premises and len(qe_vars(q)) == recipe["nvars"]:
                return q
    raise ValueError(f"unknown quasiequation recipe {op!r}")


# ---------------------------------------------------------------------------
# sweep


def _gen_sweep(rng: random.Random) -> dict:
    inputs: dict[str, dict] = {
        "P.fano": {"op": "fano_poset"},
        "A.fano": {"op": "epsilon", "of": "P.fano"},
        "P.w3": {"op": "paste_w", "m": 3},
        "A.w3": {"op": "epsilon", "of": "P.w3"},
        "A.f12": {"op": "free", "m": 1, "k": 2},
        "A.b5": {"op": "bn", "n": 5},
    }
    sizes = {"A.fano": 458, "A.w3": 1189, "A.f12": 108, "A.b5": 33}
    # seeded small and mid-sized random posets for the grid, in narrow
    # size bands so that every seed does about the same work
    for i in range(4):
        inputs[f"P.s{i}"] = random_poset(rng, 5, 7, (18, 22))
    for i in range(4):
        inputs[f"P.m{i}"] = random_poset(rng, 7, 10, (95, 105))
    # the backtracking qb4 sweeps run on seeded relabellings of one fixed
    # poset without a 4-point fan: each is satisfied, and a satisfied sweep
    # visits the same valuations under any labelling
    inputs["P.q"] = random_poset(random.Random("sweep:q"), 5, 8, (24, 27), max_width=3)
    for name in [k for k in inputs if k.startswith("P.") and inputs[k]["op"] == "poset"]:
        alg = "A." + name[2:]
        inputs[alg] = {"op": "epsilon", "of": name}
        sizes[alg] = count_upsets(poset_up(inputs[name]))
    for i in range(16):
        inputs[f"A.q{i}r"] = {"op": "relabel", "of": "A.q", "seed": rng.randrange(1 << 30)}
        sizes[f"A.q{i}r"] = sizes["A.q"]
    # seeded relabellings of the Fano upset algebra: each qb2 sweep fills
    # one 458^2 grid
    for i in range(12):
        inputs[f"A.fano{i}r"] = {"op": "relabel", "of": "A.fano",
                                 "seed": rng.randrange(1 << 30)}
        sizes[f"A.fano{i}r"] = sizes["A.fano"]

    qes = {"qb2": {"op": "qb", "n": 2}, "qb3": {"op": "qb", "n": 3}, "qb4": {"op": "qb", "n": 4},
           "ib1": {"op": "ib", "m": 1}, "ib2": {"op": "ib", "m": 2},
           "split1": {"op": "split", "m": 1}}
    for i, nvars in enumerate((2, 3, 2)):
        qes[f"rand{i}"] = {"op": "random", "seed": rng.randrange(1 << 30), "nvars": nvars}
    for name, recipe in qes.items():
        inputs["Q." + name] = recipe
    built = {name: build_qe(r) for name, r in qes.items()}

    tasks = []

    def add(alg, qe, engine):
        q = built[qe]
        n, k = sizes[alg], len(qe_vars(q))
        if engine == "grid":
            if n ** k > GRID_CELL_CAP:
                return
            budget = SWEEP_BUDGET
        else:
            if n ** k <= 1 or n ** unpinned_vars(q) > BACKTRACK_COST_CAP:
                return        # would walk its whole budget: left out
            budget = min(SWEEP_BUDGET, n ** k - 1)
        tasks.append({"kind": "satisfies", "alg": alg, "qe": "Q." + qe,
                      "budget": budget, "engine": engine})

    # The mix is fixed so that every seed has the same shape: about 37
    # sub-millisecond grid sweeps, 13 qb2 sweeps of a 458^2 grid (where the
    # median falls), 20 of 10-150 ms, and 17 backtracking sweeps of
    # 0.2-2 s (where the 90th percentile falls).
    for i in range(4):
        for qe in ("qb3", "ib2", "split1", "rand1"):
            add(f"A.s{i}", qe, "grid")
        for qe in ("qb2", "ib1", "split1", "rand0"):
            add(f"A.m{i}", qe, "grid")
    for alg, qe in (("A.f12", "qb2"), ("A.f12", "ib1"), ("A.f12", "split1"),
                    ("A.w3", "qb2"), ("A.w3", "rand2")):
        add(alg, qe, "grid")
    for i in range(12):
        add(f"A.fano{i}r", "qb2", "grid")
    for qe in ("qb2", "ib1", "rand0", "rand2"):
        add("A.fano", qe, "grid")
    add("A.w3", "ib1", "grid")
    for alg in ("A.m0", "A.m1", "A.m2", "A.m3", "A.f12"):
        add(alg, "qb3", "grid")
        add(alg, "ib2", "grid")
        add(alg, "qb3", "backtrack")
    for i in range(4):
        add(f"A.s{i}", "qb4", "grid")
    add("A.b5", "qb4", "backtrack")
    add("A.fano", "qb3", "backtrack")
    for i in range(16):
        add(f"A.q{i}r", "qb4", "backtrack")
    # one interleaving for every seed: the tasks have the same shape under
    # every seed, so a run cut mid-pass keeps the same mix
    random.Random("sweep:order").shuffle(tasks)
    return {"inputs": inputs, "tasks": tasks}


# ---------------------------------------------------------------------------
# search


def _gen_search(rng: random.Random) -> dict:
    inputs: dict[str, dict] = {"P.fano": {"op": "fano_poset"}}
    tasks = []
    for v in (9, 13, 15):
        inputs[f"P.s{v}"] = {"op": "sts_poset", "v": v}
    for m in (2, 3, 4, 5):
        inputs[f"P.fan{m}"] = {"op": "fan", "m": m}
    for m in (3, 4, 5):
        inputs[f"P.w{m}"] = {"op": "paste_w", "m": m}
    for n in (2, 3):
        inputs[f"A.b{n}"] = {"op": "bn", "n": n}
    inputs["P.db3"] = {"op": "delta", "of": "A.b3"}

    # pp-morphisms with a planted witness: a 2-fan and W3 in seeded order,
    # then the target or a poset that collapses onto it.  (The target
    # first, or a Steiner part, can send the search past its budget.)
    planted = [("P.fano", "P.fano"), ("P.fan3", "P.fan3"), ("P.fan3", "P.db3"),
               ("P.w4", "P.fan3"), ("P.w5", "P.fan4"), ("P.fan4", "P.fan2"),
               ("P.fan5", "P.db3"), ("P.fano", "P.fano")]
    for i, (core_part, target) in enumerate(planted * 2):
        parts = rng.sample(["P.fan2", "P.w3"], 2) + [core_part]
        name = f"P.u{i}"
        inputs[name] = {"op": "union", "of": parts}
        tasks.append({"kind": "ppmorph", "src": name, "dst": target,
                      "budget": PP_BUDGET, "expect": "found"})
    # proven none: every source point has fewer maximals above it than the
    # target bottom
    for i, target in enumerate(["P.fan4", "P.fan5", "P.db3", "P.fan4"] * 2):
        width = {"P.fan4": 4, "P.fan5": 5, "P.db3": 3}[target]
        pool = [p for p in ("P.s9", "P.s13", "P.fan2", "P.fan3", "P.fano")
                if {"P.fan2": 2, "P.fan3": 3}.get(p, 3) < width]
        name = f"P.n{i}"
        inputs[name] = {"op": "union", "of": rng.sample(pool, min(len(pool), 2))}
        tasks.append({"kind": "ppmorph", "src": name, "dst": target,
                      "budget": PP_BUDGET, "expect": "none"})
    # searched none: the Fano poset onto the 3-fan exhausts a real tree
    tasks.append({"kind": "ppmorph", "src": "P.fano", "dst": "P.fan3",
                  "budget": PP_BUDGET, "expect": "none", "steiner_orders": [7]})
    tasks.append({"kind": "ppmorph", "src": "P.s9", "dst": "P.fan3",
                  "budget": PP_BUDGET, "expect": "found", "steiner_orders": [9]})
    # onto the 3-fan: a map 3-colours the points, every block one colour or
    # three, so the colour classes have equal size and 3 must divide v
    tasks.append({"kind": "ppmorph", "src": "P.s13", "dst": "P.fan3",
                  "budget": PP_BUDGET, "expect": "none", "steiner_orders": [13]})
    tasks.append({"kind": "ppmorph", "src": "P.s15", "dst": "P.fan3",
                  "budget": PP_BUDGET, "steiner_orders": [15]})
    # the hard Steiner -> Fano cases: no surjection, run to the budget.
    # They are where the 90th percentile falls, so they are many and alike.
    inputs["P.h"] = {"op": "union", "of": ["P.s13", "P.s15"]}
    for _ in range(12):
        tasks.append({"kind": "ppmorph", "src": "P.h", "dst": "P.fano", "budget": HARD_BUDGET,
                      "expect": "none", "steiner_orders": [13, 15]})

    # embeddings / homomorphisms from B_n into upset algebras of six fixed
    # random posets: these searches sit around the median, so every seed
    # runs the same ones
    fixed = random.Random("search:e")
    for i in range(6):
        p = f"P.e{i}"
        inputs[p] = random_poset(fixed, 6, 9, (90, 110))
        inputs[f"A.e{i}"] = {"op": "epsilon", "of": p}
    inputs["A.fano"] = {"op": "epsilon", "of": "P.fano"}
    for big in ("A.e0", "A.e1", "A.e2", "A.e3", "A.e4", "A.e5", "A.fano"):
        for kind in ("embed", "homs"):
            for n in (2, 3):
                tasks.append({"kind": kind, "small": f"A.b{n}", "big": big,
                              "limit": 1, "budget": MAP_BUDGET})
        tasks.append({"kind": "embed", "small": "A.b2", "big": big,
                      "limit": None, "budget": MAP_BUDGET})
    for big in ("A.e0", "A.e1"):
        tasks.append({"kind": "homs", "small": "A.b2", "big": big,
                      "limit": None, "budget": MAP_BUDGET})

    # isomorphism against a seeded relabelling
    inputs["A.f12"] = {"op": "free", "m": 1, "k": 2}
    inputs["A.f22"] = {"op": "free", "m": 2, "k": 2}
    # (a third isomorphism test on a 500+ element algebra makes the peak
    # resident memory jump by 30 MB in some runs and not in others)
    for i, base in enumerate(("A.e0", "A.e2", "A.f12", "A.f22", "A.f22")):
        name = f"{base}.relabel{i}"
        inputs[name] = {"op": "relabel", "of": base, "seed": rng.randrange(1 << 30)}
        tasks.append({"kind": "iso", "a": base, "b": name, "budget": ISO_BUDGET,
                      "expect": "yes"})

    # Steiner quasigroup homomorphisms, complete enumerations
    for v in (7, 9, 13, 15):
        inputs[f"G.{v}"] = {"op": "quasigroup", "v": v}
    pairs = [(7, 13), (13, 7), (9, 7), (15, 7), (7, 7), (9, 9), (13, 13), (9, 15)]
    for s, t in [(15, 15)] + pairs:
        tasks.append({"kind": "qhoms", "src": f"G.{s}", "dst": f"G.{t}",
                      "budget": QHOM_BUDGET})

    # membership in the quasivariety of B_n: yes iff every dual point has
    # at most n maximals above it
    for n in (1, 4):
        inputs[f"A.b{n}"] = {"op": "bn", "n": n}
    inputs["A.fan3"] = {"op": "epsilon", "of": "P.fan3"}
    for alg, gens in [("A.b2", ["A.b3"]), ("A.b3", ["A.b2"]), ("A.b4", ["A.b3", "A.b2"]),
                      ("A.b1", ["A.b2"]), ("A.fan3", ["A.b3"]), ("A.e1", ["A.b1"]),
                      ("A.e3", ["A.b4"]), ("A.e2", ["A.b2", "A.b3"])]:
        tasks.append({"kind": "member", "alg": alg, "gens": gens, "budget": PP_BUDGET})
    random.Random("search:order").shuffle(tasks)
    return {"inputs": inputs, "tasks": tasks}


GENERATORS = {"sweep": _gen_sweep, "search": _gen_search}


def generate(workload: str, seed: int) -> dict:
    if workload == "cli":
        from cliwork import gen_cli
        spec = gen_cli(random.Random(f"cli:{seed}"))
    else:
        spec = GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    for i, task in enumerate(spec["tasks"]):
        task["id"] = f"{workload[:2]}{i:03d}"
    spec["workload"] = workload
    spec["seed"] = seed
    return spec


def spec_hash(spec: dict) -> str:
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# inputs


def _relabel(a, seed: int):
    """An isomorphic copy of ``a`` with its elements shuffled by ``seed``."""
    n = a.size
    perm = np.arange(n)
    random.Random(seed).shuffle(perm)
    inv = np.argsort(perm)
    meet = perm[np.asarray(a.meet)[np.ix_(inv, inv)]]
    join = perm[np.asarray(a.join)[np.ix_(inv, inv)]]
    star = perm[np.asarray(a.star)[inv]]
    return core.FiniteAlgebra(n, meet.tolist(), join.tolist(), star.tolist(),
                              int(perm[a.zero]), int(perm[a.one]))


def build_one(recipe: dict, built: dict):
    op = recipe["op"]
    if op == "poset":
        return duality.FinitePoset(recipe["size"], tuple(poset_up(recipe)))
    if op == "fano_poset":
        return steiner.poset_of(steiner.construct_sts(7))
    if op == "sts_poset":
        return steiner.poset_of(steiner.construct_sts(recipe["v"]))
    if op == "fan":
        return steiner.make_p1(recipe["m"])
    if op == "paste_w":
        return steiner.paste_w(recipe["m"])
    if op == "union":
        return duality.disjoint_union([built[p] for p in recipe["of"]])
    if op == "epsilon":
        return duality.epsilon(built[recipe["of"]])
    if op == "delta":
        return duality.delta(built[recipe["of"]])[0]
    if op == "bn":
        return core.make_bn(recipe["n"])
    if op == "free":
        return free.build_free(recipe["m"], recipe["k"]).algebra
    if op == "relabel":
        return _relabel(built[recipe["of"]], recipe["seed"])
    if op == "quasigroup":
        return steiner.to_quasigroup(steiner.construct_sts(recipe["v"]))
    return build_qe(recipe)


def _warm(obj) -> None:
    """Fill the lazy tables palg would otherwise build inside a task."""
    if isinstance(obj, core.FiniteAlgebra):
        lazy = ("np_meet", "np_join", "np_star", "up_masks", "join_irreducibles")
    elif isinstance(obj, duality.FinitePoset):
        lazy = ("down", "max_up_masks")
    else:
        lazy = ()
    for name in lazy:
        getattr(obj, name)


def build_inputs(spec: dict) -> dict:
    built: dict = {}
    for name, recipe in spec["inputs"].items():
        built[name] = build_one(recipe, built)
        _warm(built[name])
    return built


# ---------------------------------------------------------------------------
# execution


@dataclass
class Outcome:
    verdict: str
    witness: object = None             # JSON-able
    counts: dict = field(default_factory=dict)
    result: object = None              # the raw palg result, for the checker
    error: str | None = None

    def key(self) -> str:
        """Everything two runs of one task must agree on."""
        return json.dumps([self.verdict, self.witness, self.counts, self.error],
                          sort_keys=True)


def _maps_outcome(res) -> Outcome:
    tables = [list(m.table) for m in res.maps]
    digest = hashlib.sha256(json.dumps(tables).encode()).hexdigest()[:16]
    if res.maps:
        verdict = "found"
    else:
        verdict = "none" if res.complete else "inconclusive"
    return Outcome(verdict, {"first": tables[0] if tables else None, "all": digest},
                   {"nodes": res.nodes, "maps": len(tables), "complete": int(res.complete)},
                   res)


def run_task(task: dict, objs: dict) -> Outcome:
    kind = task["kind"]
    if kind == "satisfies":
        res = logic.satisfies(objs[task["alg"]], objs[task["qe"]], budget=task["budget"])
        wit = sorted(res.falsifier.items()) if res.falsifier is not None else None
        return Outcome(res.status, wit, {"valuations": res.checked}, res)
    if kind == "ppmorph":
        res = duality.find_surjective_ppmorphism(objs[task["src"]], objs[task["dst"]],
                                                 budget=task["budget"])
        wit = list(res.witness.table) if res.witness is not None else None
        return Outcome(res.status, wit, {"nodes": res.nodes}, res)
    if kind in ("embed", "homs"):
        fn = core.enumerate_embeddings if kind == "embed" else core.enumerate_homomorphisms
        return _maps_outcome(fn(objs[task["small"]], objs[task["big"]],
                                limit=task["limit"], budget=task["budget"]))
    if kind == "iso":
        ok, witness = core.is_isomorphic(objs[task["a"]], objs[task["b"]],
                                         budget=task["budget"])
        return Outcome("yes" if ok else "no",
                       list(witness.table) if witness is not None else None, {},
                       witness)
    if kind == "qhoms":
        return _maps_outcome(steiner.enumerate_quasigroup_homs(
            objs[task["src"]], objs[task["dst"]], budget=task["budget"]))
    if kind == "member":
        res = duality.finite_membership(objs[task["alg"]], [objs[g] for g in task["gens"]],
                                        budget=task["budget"])
        wit = None
        if res.witness is not None:
            wit = {"table": list(res.witness.table), "summands": list(res.summands)}
        return Outcome(res.status, wit, {}, res)
    raise ValueError(f"unknown task kind {kind!r}")
