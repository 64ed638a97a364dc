"""Command-line driver.

Exit codes are a stable contract: 0 pass/found, 1 violation/none,
2 input error, 3 resource limit, 4 inconclusive.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import _lazy, serialize
from .core import (
    DEFAULT_SEARCH_BUDGET,
    DEFAULT_SWEEP_BUDGET,
    FiniteAlgebra,
    ResourceLimitError,
    StructureError,
    ValidationReport,
    enumerate_embeddings,
    enumerate_homomorphisms,
    is_isomorphic,
    make_bn,
)
from .serialize import (
    algebra_to_dict,
    algebra_to_dot,
    load_json,
    load_object,
    poset_to_dict,
    poset_to_dot,
    save_json,
)

# the palg names of the other modules, imported by the commands that run
# them, so that a cold process compiles no module its command does not use
_use, __getattr__ = _lazy(globals(), {
    "duality": """FinitePoset PPMap delta epsilon find_surjective_ppmorphism finite_membership
        posets_isomorphic validate_ppmap""",
    "free": "build_free",
    "logic": "ONE Quasiequation format_quasiequation make_ib make_qb parse satisfies",
    "reports": "run_suite",
    "steiner": "construct_sts fano_system make_p1 paste_w poset_of",
})
# the keys of ``reports.SUITES``, so that the parser need not import reports
REPORT_SUITES = ("covers", "lemma10", "lemma11", "lemma7", "lemma8", "thm13", "thm16")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INCONCLUSIVE = 4
# the exit code of every verdict a command reports
EXIT_BY_STATUS = {
    "satisfied": EXIT_OK, "found": EXIT_OK, "yes": EXIT_OK,
    "falsified": EXIT_FAIL, "none": EXIT_FAIL, "no": EXIT_FAIL,
    "inconclusive": EXIT_INCONCLUSIVE,
}


def _emit(data: dict, out: str | None) -> None:
    if out:
        save_json(out, data)
    else:
        print(json.dumps(data, indent=1))


def _load_algebra(path: str) -> FiniteAlgebra:
    obj = load_object(path)
    if not isinstance(obj, FiniteAlgebra):
        raise StructureError(f"{path} does not hold an algebra")
    return obj


def _load_poset(path: str) -> FinitePoset:
    _use("duality")
    obj = load_object(path)
    if not isinstance(obj, FinitePoset):
        raise StructureError(f"{path} does not hold a poset")
    return obj


def _cmd_make(args) -> int:
    kind = args.kind
    if kind == "bn":
        a = make_bn(args.n)
        data, dot = algebra_to_dict(a), algebra_to_dot(a) if args.dot else None
    elif kind == "free":
        _use("free")
        a = build_free(args.m, args.k).algebra
        data = algebra_to_dict(a)
        dot = algebra_to_dot(a) if args.dot else None
    else:
        _use("steiner")
        if kind == "p1":
            p = make_p1(args.n)
        elif kind == "fano":
            p = poset_of(fano_system())
        elif kind == "sts":
            p = poset_of(construct_sts(args.n))
        else:
            p = paste_w(args.n)
        data, dot = poset_to_dict(p), poset_to_dot(p) if args.dot else None
    _emit(data, args.out)
    if dot is not None:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.what == "palgebra":
        from .core import validate_palgebra
        a = serialize.parse_algebra(load_json(args.file))
        rep = validate_palgebra(a)
    elif args.what == "poset":
        serialize.poset_from_dict(load_json(args.file))
        rep = ValidationReport()  # a file that is not an order was refused above
    elif args.what == "ppmap":
        _use("duality")
        src = _load_poset(args.src)
        dst = _load_poset(args.dst)
        table = serialize.map_from_dict(load_json(args.map))
        f = PPMap(src, dst, table)
        rep = validate_ppmap(f)
        if rep.ok and not f.is_surjective():
            print("valid pp-morphism (not surjective)")
    else:
        _use("logic")
        a = _load_algebra(args.algebra)
        q = _parse_quasieq(args)
        res = satisfies(a, q, budget=args.budget)
        print({"satisfied": "true", "falsified": "false"}.get(res.status, res.status))
        if res.status == "falsified":
            print("falsifier:", json.dumps(res.falsifier, sort_keys=True))
        return EXIT_BY_STATUS[res.status]
    if args.json:
        print(json.dumps({"ok": rep.ok,
                          "violations": [{"law": v.law, "witness": list(v.witness)}
                                         for v in rep.violations]}))
    elif rep.ok:
        print("ok")
    else:
        for v in rep.violations:
            print(f"violation {v.law!r} witness {v.witness}")
    return EXIT_OK if rep.ok else EXIT_FAIL


def _parse_quasieq(args) -> Quasiequation:
    text = args.q if args.q is not None else open(args.q_file, encoding="utf-8").read()
    q = parse(text)
    if not isinstance(q, Quasiequation):
        q = Quasiequation((), (q, ONE))  # a bare term t is read as t = 1
    return q


def _cmd_dual(args) -> int:
    _use("duality")
    if args.direction == "delta":
        a = _load_algebra(args.file)
        poset, labels = delta(a)
        _emit(poset_to_dict(poset), args.out)
        if args.roundtrip:
            ok = is_isomorphic(epsilon(poset), a)[0]
            print(f"roundtrip {'ok' if ok else 'FAILED'}")
            return EXIT_OK if ok else EXIT_FAIL
    else:
        p = _load_poset(args.file)
        alg = epsilon(p)
        _emit(algebra_to_dict(alg), args.out)
        if args.roundtrip:
            ok = posets_isomorphic(delta(alg)[0], p)
            print(f"roundtrip {'ok' if ok else 'FAILED'}")
            return EXIT_OK if ok else EXIT_FAIL
    return EXIT_OK


def _cmd_search(args) -> int:
    if args.kind == "ppmorph":
        _use("duality")
        src = _load_poset(args.src)
        dst = _load_poset(args.dst)
        res = find_surjective_ppmorphism(src, dst, budget=args.budget)
    elif args.kind in ("embed", "homs"):
        small = _load_algebra(args.small)
        big = _load_algebra(args.big)
        find = enumerate_embeddings if args.kind == "embed" else enumerate_homomorphisms
        res = find(small, big, limit=args.limit, budget=args.budget)
        if res:
            print(f"{len(res.maps)} found (complete={res.complete})")
    else:
        _use("duality")
        a = _load_algebra(args.algebra)
        gens = [_load_algebra(g) for g in args.gens]
        res = finite_membership(a, gens, budget=args.budget)
        print(res.status)
        if res.status == "yes":
            _emit(serialize.map_to_dict(res.witness.table), args.out)
        return EXIT_BY_STATUS[res.status]
    if res:
        _emit(serialize.map_to_dict(res.witness.table), args.out)
    else:
        print(res.status)
    return EXIT_BY_STATUS[res.status]


def _cmd_report(args) -> int:
    _use("reports")
    data = run_suite(args.suite, expensive=args.expensive)
    if args.json:
        print(json.dumps(data, indent=1))
    else:
        print(f"suite {data['suite']}: {'PASS' if data['passed'] else 'FAIL'}")
        for c in data["clauses"]:
            mark = "pass" if c["passed"] else "FAIL"
            print(f"  [{mark}] {c['id']}" + (f" -- {c['detail']}" if c["detail"] else ""))
    return EXIT_OK if data["passed"] else EXIT_FAIL


# the largest n of ``palg qb n`` and m of ``palg ib m`` that print, each
# text at most 2,000,000 characters; a larger one is refused before any of
# its O(n^2) term is built
MAX_PRINTED = {"qb": 541, "ib": 505}


def _cmd_print(args) -> int:
    _use("logic")
    n = args.n if args.command == "qb" else args.m
    if n > MAX_PRINTED[args.command]:
        raise ResourceLimitError(f"{args.command} {n} is past the largest that prints, "
                                 f"{MAX_PRINTED[args.command]}")
    print(format_quasiequation(make_qb(n) if args.command == "qb" else make_ib(n)))
    return EXIT_OK


def _int_at_least(low: int):
    """An argparse type for an integer no smaller than ``low``, so that a
    bad value exits 2 with a usage line instead of reaching a search."""
    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {int(text)}")
        return int(text)
    parse.__name__ = "int"  # argparse's message for a non-integer: "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="palg",
        description="finite p-algebras, poset duality, quasiequations")
    sub = ap.add_subparsers(dest="command", required=True)

    mk = sub.add_parser("make", help="construct a named algebra or poset")
    mk.set_defaults(fn=_cmd_make)
    mk_kinds = mk.add_subparsers(dest="kind", required=True)
    for kind in ("bn", "p1", "fano", "sts", "w", "free"):
        p = mk_kinds.add_parser(kind)
        if kind == "free":
            p.add_argument("--m", type=int, required=True, help="variety parameter")
            p.add_argument("--k", type=int, required=True, help="generator count")
        elif kind != "fano":
            p.add_argument("n", type=int, help="size parameter")
        p.add_argument("--out", help="output JSON path (default: stdout)")
        p.add_argument("--dot", help="also write a Hasse diagram in DOT")

    ck = sub.add_parser("check", help="validate an object or a quasiequation")
    ck.set_defaults(fn=_cmd_check)
    ck_kinds = ck.add_subparsers(dest="what", required=True)
    for what, files in (("palgebra", {"--file": "algebra file"}),
                        ("poset", {"--file": "poset file"}),
                        ("ppmap", {"--src": "source poset file", "--dst": "target poset file",
                                   "--map": "map table file"})):
        p = ck_kinds.add_parser(what)
        for option, about in files.items():
            p.add_argument(option, required=True, help=about)
        p.add_argument("--json", action="store_true")
    qe = ck_kinds.add_parser("quasieq")
    qe.add_argument("--algebra", required=True, help="algebra file")
    text = qe.add_mutually_exclusive_group(required=True)
    text.add_argument("--q", help="quasiequation text (a bare term t is read as t = 1)")
    text.add_argument("--q-file", help="file holding the quasiequation text")
    qe.add_argument("--budget", type=_int_at_least(0), default=DEFAULT_SWEEP_BUDGET)

    du = sub.add_parser("dual", help="apply a dual functor")
    du.add_argument("direction", choices=["delta", "epsilon"])
    du.add_argument("file")
    du.add_argument("--out")
    du.add_argument("--roundtrip", action="store_true",
                    help="verify the double dual is isomorphic to the input")
    du.set_defaults(fn=_cmd_dual)

    se = sub.add_parser("search", help="witness searches")
    se.set_defaults(fn=_cmd_search)
    se_kinds = se.add_subparsers(dest="kind", required=True)
    for kind, files in (("ppmorph", ("--src", "--dst")), ("embed", ("--small", "--big")),
                        ("member", ("--algebra",)), ("homs", ("--small", "--big"))):
        p = se_kinds.add_parser(kind)
        for option in files:
            p.add_argument(option, required=True)
        if kind == "member":
            p.add_argument("--gens", nargs="+", default=[])
        elif kind != "ppmorph":
            p.add_argument("--limit", type=_int_at_least(1))
        p.add_argument("--budget", type=_int_at_least(0), default=DEFAULT_SEARCH_BUDGET)
        p.add_argument("--out")

    rp = sub.add_parser("report", help="run a named verification suite")
    rp.add_argument("suite", choices=REPORT_SUITES)
    rp.add_argument("--json", action="store_true")
    rp.add_argument("--expensive", action="store_true",
                    help="include the 2-generator free-p-algebra tier")
    rp.set_defaults(fn=_cmd_report)

    qb = sub.add_parser("qb", help="print the qb_n quasiequation")
    qb.add_argument("n", type=int)
    qb.set_defaults(fn=_cmd_print)

    ib = sub.add_parser("ib", help="print the ib_m identity")
    ib.add_argument("m", type=int)
    ib.set_defaults(fn=_cmd_print)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ResourceLimitError, RecursionError, MemoryError) as exc:
        # the parser recurses into parentheses, so deeply nested input ends here
        print(f"resource limit: {exc or type(exc).__name__}", file=sys.stderr)
        return EXIT_RESOURCE
    except (StructureError, ValueError, OSError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
