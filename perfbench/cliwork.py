"""The cli workload: the README flow, one cold ``palg`` process per command.

``gen_cli`` makes the seeded command list.  Inputs that no ``palg make``
can produce (random posets) are written as files during set-up; every
other file is produced by an earlier command of the same pass.
``check_command`` judges one command's exit code, stdout and output
file against objects the parent process builds itself.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from palg import logic, steiner

import check
from workloads import random_poset

REPORTS = ["lemma8", "lemma10", "lemma11", "thm16", "covers"]
REPORT_EXIT = {"lemma11": 1}       # the documented known red (criterion 7c)
# Reports left out because one of them alone outlasts most of a run:
# lemma7 (about 14 s) and thm13 (about 5 s).
ALGEBRA_CAP = 130                  # validation on load is cubic


def _task(argv, group, check_spec):
    return {"kind": "cli", "argv": [str(a) for a in argv], "group": group,
            "check": check_spec}


def gen_cli(rng: random.Random) -> dict:
    inputs: dict[str, dict] = {}
    tasks = []
    for n in (2, 3):
        inputs[f"A.b{n}"] = {"op": "bn", "n": n}
        tasks.append(_task(["make", "bn", n, "--out", f"b{n}.json"], "make",
                           {"what": "algebra", "obj": f"A.b{n}", "out": f"b{n}.json"}))
    for m in (2, 3):
        inputs[f"P.fan{m}"] = {"op": "fan", "m": m}
        tasks.append(_task(["make", "p1", m, "--out", f"fan{m}.json"], "make",
                           {"what": "poset", "obj": f"P.fan{m}", "out": f"fan{m}.json"}))
    qb_n = 3
    tasks.append(_task(["qb", qb_n], "qb", {"what": "qb", "n": qb_n}))
    qb_text = logic.format_quasiequation(logic.make_qb(qb_n))
    # the made B_n checked as well: qb_3 fails on B_3 and holds on B_2
    # (these also bring a pass to 34 commands, so that three passes give
    # the 90th percentile ten samples beyond it)
    for n in (2, 3):
        tasks.append(_task(["check", "palgebra", "--file", f"b{n}.json"], "check",
                           {"what": "valid"}))
        tasks.append(_task(["check", "quasieq", "--algebra", f"b{n}.json", "--q", qb_text],
                           "check", {"what": "quasieq", "alg": f"A.b{n}", "poset": None,
                                     "n": qb_n}))

    # poset objects carried through the whole flow.  The seed picks the
    # random posets; their sizes and the searches stay fixed, so that every
    # seed loads alike algebras (load time is cubic in the size).
    objects = [("r0", random_poset(rng, 5, 7, (40, 50)), None),
               ("r1", random_poset(rng, 6, 8, (ALGEBRA_CAP - 5, ALGEBRA_CAP)), None),
               ("fan", {"op": "fan", "m": 5}, "p1")]
    searches = ["ppmorph", "embed", "member"]
    for (name, recipe, make_kind), search in zip(objects, searches):
        pfile, afile = f"{name}.json", f"{name}.alg.json"
        inputs[f"P.{name}"] = recipe
        inputs[f"A.{name}"] = {"op": "epsilon", "of": f"P.{name}"}
        if make_kind:
            tasks.append(_task(["make", make_kind, recipe["m"], "--out", pfile], "make",
                               {"what": "poset", "obj": f"P.{name}", "out": pfile}))
        else:
            inputs[f"P.{name}"] = {**recipe, "file": pfile}
        roundtrip = ["--roundtrip"] if name != "r1" else []
        tasks.append(_task(["dual", "epsilon", pfile, "--out", afile, *roundtrip], "dual",
                           {"what": "epsilon", "poset": f"P.{name}", "obj": f"A.{name}",
                            "out": afile, "roundtrip": bool(roundtrip)}))
        tasks.append(_task(["check", "palgebra", "--file", afile], "check",
                           {"what": "valid"}))
        tasks.append(_task(["check", "quasieq", "--algebra", afile, "--q", qb_text], "check",
                           {"what": "quasieq", "alg": f"A.{name}", "poset": f"P.{name}",
                            "n": qb_n}))
        if search == "member":
            argv = ["search", "member", "--algebra", afile, "--gens", "b3.json"]
            spec = {"what": "member", "poset": f"P.{name}", "width": 3}
        elif search == "embed":
            argv = ["search", "embed", "--small", "b2.json", "--big", afile, "--limit", 1,
                    "--out", f"{name}.emb.json"]
            spec = {"what": "embed", "small": "A.b2", "alg": f"A.{name}", "poset": f"P.{name}",
                    "n": 2, "out": f"{name}.emb.json"}
        else:
            argv = ["search", "ppmorph", "--src", pfile, "--dst", "fan3.json",
                    "--out", f"{name}.pp.json"]
            spec = {"what": "ppmorph", "src": f"P.{name}", "dst": "P.fan3",
                    "out": f"{name}.pp.json"}
        tasks.append(_task(argv, "search", spec))
        tasks.append(_task(["dual", "delta", afile, "--out", f"{name}.delta.json",
                            "--roundtrip"], "dual",
                           {"what": "delta", "poset": f"P.{name}",
                            "out": f"{name}.delta.json"}))

    # Steiner and pasted posets: searched, never turned into algebras
    v = 9
    inputs["P.sts"] = {"op": "sts_poset", "v": v}
    tasks.append(_task(["make", "sts", v, "--out", "sts.json"], "make",
                       {"what": "poset", "obj": "P.sts", "out": "sts.json"}))
    tasks.append(_task(["search", "ppmorph", "--src", "sts.json", "--dst", "fan3.json",
                        "--out", "sts.pp.json"], "search",
                       {"what": "ppmorph", "src": "P.sts", "dst": "P.fan3",
                        "out": "sts.pp.json", "steiner_order": v}))
    m = rng.choice([3, 4])
    inputs["P.w"] = {"op": "paste_w", "m": m}
    tasks.append(_task(["make", "w", m, "--out", "w.json"], "make",
                       {"what": "poset", "obj": "P.w", "out": "w.json"}))
    tasks.append(_task(["search", "ppmorph", "--src", "w.json", "--dst", "fan2.json",
                        "--out", "w.pp.json"], "search",
                       {"what": "ppmorph", "src": "P.w", "dst": "P.fan2", "out": "w.pp.json",
                        "expect": 0}))
    tasks += [_task(["report", s], "report", {"what": "report", "suite": s,
                                              "exit": REPORT_EXIT.get(s, 0)})
              for s in REPORTS]
    return {"inputs": inputs, "tasks": tasks}


def write_inputs(spec: dict, objs: dict, workdir: Path) -> None:
    """Write the poset files no ``palg make`` command produces."""
    for name, recipe in spec["inputs"].items():
        if "file" in recipe:
            p = objs[name]
            covers = [[x, y] for x in range(p.size) for y in check.bits(p.up[x] & ~(1 << x))
                      if not any((p.up[z] >> y) & 1
                                 for z in check.bits(p.up[x] & ~(1 << x) & ~(1 << y)))]
            (workdir / recipe["file"]).write_text(
                json.dumps({"size": p.size, "covers": covers}) + "\n")


# ---------------------------------------------------------------------------
# checking


def _read(workdir: Path, name: str):
    try:
        return json.loads((workdir / name).read_text())
    except (OSError, ValueError):
        return None


def _poset_up_from_file(data) -> list[int] | None:
    if not isinstance(data, dict) or "covers" not in data:
        return None
    return check.close_relation(int(data["size"]), [tuple(c) for c in data["covers"]])


def _tables_equal(data, a) -> bool:
    return (isinstance(data, dict) and data.get("size") == a.size
            and data.get("zero") == a.zero and data.get("one") == a.one
            and [list(r) for r in a.meet] == data.get("meet")
            and [list(r) for r in a.join] == data.get("join")
            and list(a.star) == data.get("star"))


def _profile(up) -> list[tuple[int, int]]:
    down = check.down_masks(up)
    return sorted((bin(u).count("1"), bin(d).count("1")) for u, d in zip(up, down))


def expected_exit(spec: dict, objs: dict, routes) -> int | None:
    """The exit code the contract demands, or None when no independent
    route decides it here."""
    what = spec["what"]
    if "expect" in spec:
        return spec["expect"]
    if what == "report":
        return spec["exit"]
    if what == "quasieq":
        a, q = objs[spec["alg"]], logic.make_qb(spec["n"])
        if a.size ** spec["n"] <= 2_000_000:
            return 1 if check.least_falsifier(a, q) is not None else 0
        hit = routes.onto_fan(list(objs[spec["poset"]].up), spec["n"])
        return None if hit is None else int(hit)
    if what == "member":
        return 0 if check.max_fan_width(list(objs[spec["poset"]].up)) <= spec["width"] else 1
    if what == "embed":
        hit = routes.onto_fan(list(objs[spec["poset"]].up), spec["n"])
        return None if hit is None else 1 - int(hit)
    if what == "ppmorph":
        src_up, dst_up = list(objs[spec["src"]].up), list(objs[spec["dst"]].up)
        if check.max_fan_width(src_up) < check.max_fan_width(dst_up):
            return 1
        if "steiner_order" in spec and spec["dst"] == "P.fan3":
            v = spec["steiner_order"]
            blocks = steiner.construct_sts(v).blocks
            return 0 if check.steiner_fan3_exists(blocks, v) else 1
        hit = routes.onto_fan(src_up, len(dst_up) - 1) if spec["dst"].startswith("P.fan") \
            else None
        return None if hit is None else 1 - int(hit)
    return 0


def check_command(spec: dict, code: int, stdout: str, objs: dict, workdir: Path,
                  routes) -> str:
    """``"ok"``, ``"unconfirmed"`` or ``"rejected: <why>"`` for a command
    that exited with a code in the contract's range."""
    what = spec["what"]
    expect = expected_exit(spec, objs, routes)
    if code == 4:
        return "ok"                                    # inconclusive
    if expect is not None and code != expect:
        return f"rejected: exit {code}, expected {expect}"
    out = _read(workdir, spec["out"]) if "out" in spec else None
    if what == "algebra" and not _tables_equal(out, objs[spec["obj"]]):
        return "rejected: made algebra differs"
    if what == "poset" and _poset_up_from_file(out) != list(objs[spec["obj"]].up):
        return "rejected: made poset differs"
    if what == "qb" and stdout.strip() != logic.format_quasiequation(logic.make_qb(spec["n"])):
        return "rejected: qb text differs"
    if what == "valid" and stdout.strip() != "ok":
        return "rejected: a valid algebra was not reported ok"
    if what == "epsilon":
        up = list(objs[spec["poset"]].up)
        if not isinstance(out, dict) or out.get("size") != check.count_upsets(up):
            return "rejected: epsilon has the wrong number of elements"
        if not _tables_equal(out, objs[spec["obj"]]):
            return "rejected: epsilon differs from the in-process result"
        if spec["roundtrip"] and "roundtrip ok" not in stdout:
            return "rejected: roundtrip not ok"
    if what == "delta":
        if "roundtrip ok" not in stdout:
            return "rejected: roundtrip not ok"
        got = _poset_up_from_file(out)
        if got is None or _profile(got) != _profile(list(objs[spec["poset"]].up)):
            return "rejected: delta is not the original poset"
    if what == "quasieq" and code == 1:
        line = next((l for l in stdout.splitlines() if l.startswith("falsifier:")), None)
        val = json.loads(line.split(":", 1)[1]) if line else None
        if val is None or not check.is_falsifier(objs[spec["alg"]],
                                                 logic.make_qb(spec["n"]), val):
            return "rejected: falsifier does not falsify"
    if what == "embed" and code == 0:
        table = out.get("table") if isinstance(out, dict) else None
        if table is None or not check.is_homomorphism(objs[spec["small"]], objs[spec["alg"]],
                                                      table, injective=True):
            return "rejected: embedding witness is invalid"
    if what == "ppmorph" and code == 0:
        table = out.get("table") if isinstance(out, dict) else None
        if table is None or not check.is_surjective_ppmap(
                list(objs[spec["src"]].up), list(objs[spec["dst"]].up), table):
            return "rejected: pp-morphism witness is invalid"
    return "ok" if expect is not None else "unconfirmed"


def output_digest(spec: dict, stdout: str, workdir: Path) -> str:
    h = hashlib.sha256(stdout.encode())
    if "out" in spec and (workdir / spec["out"]).is_file():
        h.update((workdir / spec["out"]).read_bytes())
    return h.hexdigest()[:16]
