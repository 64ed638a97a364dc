import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import palg

from palg import (
    ResourceLimitError,
    StructureError,
    build_free,
    construct_sts,
    epsilon,
    format_quasiequation,
    make_bn,
    make_p1,
    make_qb,
    poset_of,
    posets_up_to,
)
from palg import cli, serialize
from palg.cli import main
from palg.serialize import (
    algebra_from_dict,
    algebra_to_dict,
    algebra_to_dot,
    load_json,
    poset_from_dict,
    poset_to_dict,
    poset_to_dot,
)
from palg.steiner import fano_system, paste_w


class TestSerialization:
    def test_algebra_round_trip(self, bn, free1):
        for a in [bn[0], bn[2], bn[3], free1.algebra]:
            assert algebra_from_dict(algebra_to_dict(a)) == a

    def test_poset_round_trip(self):
        for p in posets_up_to(4) + [paste_w(4)]:
            if p.size == 0:
                continue
            assert poset_from_dict(poset_to_dict(p)) == p

    def test_invalid_algebra_file_fails(self, bn):
        data = algebra_to_dict(bn[1])
        data["star"] = [0, 0, 0]
        with pytest.raises(StructureError):
            algebra_from_dict(data)

    def test_cyclic_poset_file_fails(self):
        with pytest.raises(StructureError):
            poset_from_dict({"size": 2, "covers": [[0, 1], [1, 0]]})

    def test_oversized_files_are_refused_before_building(self):
        with pytest.raises(ResourceLimitError):
            poset_from_dict({"size": 100_000_000, "covers": []})
        with pytest.raises(ResourceLimitError):
            algebra_from_dict({"size": 100_000_000, "meet": [], "join": [], "star": [],
                               "zero": 0, "one": 0})

    def test_dot_is_byte_stable(self, bn):
        assert poset_to_dot(make_p1(1)) == (
            "digraph poset {\n  rankdir=BT;\n"
            "  n0 [label=\"0\"];\n  n1 [label=\"1\"];\n"
            "  n1 -> n0;\n}\n")
        assert algebra_to_dot(bn[1]) == algebra_to_dot(bn[1])


# sha256 of the DOT text, recorded while Hasse edges were still found by
# searches over ``leq`` and over every pair of points
DOT_PINS = {
    "B0": "905258ca4226748f6eea30e1cc816116a59806a8e657efa6e32f8bf89ec084f9",
    "B1": "1d8d573d81d1cd7fa554f8f6cae65a9bc954ab6ade16772f15b381b899b89ca2",
    "B2": "a38991c9775c16449ae3dfe3afc05653443122eea7a0ac4a7dba27806fa73cc2",
    "B3": "88ea0b36a95d2de818384796ab940cd160ccbca7f513a9a22f83b81bfd734191",
    "B4": "f7dd8fbe9f3eaad177bd73ac9012c8e7446d944f850f092c379dd23d75176988",
    "B5": "244d00cce13b085bf98645eae130efd786b74e2c976c92484d6311a0b341ea17",
    "B6": "45e739625e669b15a4e8eae6d69e6a75940f884137a903e9e7cf70fcae12a250",
    "eps-fano": "a48f727eefd766c9fdf993302d70b04adbd9552cfd5cad0887a25e21a6d5ab92",
    "free32": "616059b83ae2922677da7fe8c52a82c8af7a539b24103802a9b69a812cf79089",
    "p1-5": "c6688a407c93e040a267f1aa36e9c8ad099e19205a3b63b7692ed9d437e1fff0",
    "w4": "13964b2fd971e5479765b1e38b3f14ad67b470263edec8afefff8016b4baf5fd",
    "s13": "b587528da8120437f9115ba5bb272b5a5d1ccc234c215af4c63989dfbe21986d",
}


def _dot_cases():
    cases = {f"B{n}": (lambda n=n: algebra_to_dot(make_bn(n))) for n in range(7)}
    cases["eps-fano"] = lambda: algebra_to_dot(epsilon(poset_of(fano_system())))
    cases["free32"] = lambda: algebra_to_dot(build_free(3, 2).algebra)
    cases["p1-5"] = lambda: poset_to_dot(make_p1(5))
    cases["w4"] = lambda: poset_to_dot(paste_w(4))
    cases["s13"] = lambda: poset_to_dot(poset_of(construct_sts(13)))
    return cases


@pytest.mark.parametrize("name", sorted(DOT_PINS))
def test_dot_text_is_pinned(name):
    text = _dot_cases()[name]()
    assert hashlib.sha256(text.encode()).hexdigest() == DOT_PINS[name]


@pytest.fixture()
def files(tmp_path):
    out = {}
    for name, args in [("bn3", ["make", "bn", "3"]),
                       ("bn4", ["make", "bn", "4"]),
                       ("w4", ["make", "w", "4"]),
                       ("p13", ["make", "p1", "3"]),
                       ("p14", ["make", "p1", "4"]),
                       ("fano", ["make", "fano"])]:
        path = tmp_path / f"{name}.json"
        assert main(args + ["--out", str(path)]) == 0
        out[name] = str(path)
    return out


def run_cli(argv):
    """``palg argv`` run in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(palg.__file__)))
    return subprocess.run([sys.executable, "-m", "palg.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


class TestCli:
    def test_make_writes_expected_sizes(self, files):
        assert json.load(open(files["bn3"]))["size"] == 9
        assert json.load(open(files["w4"]))["size"] == 17

    def test_make_free(self, tmp_path):
        path = tmp_path / "f1.json"
        assert main(["make", "free", "--m", "2", "--k", "1", "--out", str(path)]) == 0
        assert json.load(open(path))["size"] == 7

    def test_check_palgebra_ok(self, files):
        assert main(["check", "palgebra", "--file", files["bn3"]]) == 0

    def test_check_palgebra_violation(self, tmp_path, files):
        data = json.load(open(files["bn3"]))
        data["star"][2] = 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check", "palgebra", "--file", str(bad)]) == 1

    def test_check_palgebra_reports_the_first_failing_check(self, tmp_path, free32, capsys):
        data = algebra_to_dict(free32.algebra)
        data["star"][5] = 212
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check", "palgebra", "--file", str(bad), "--json"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "ok": False, "violations": [{"law": "x ^ (x ^ y)* = x ^ y*", "witness": [2, 5]}]}

    def test_ib_500_prints(self, capsys):
        # 501 summands deep: printing must not recurse (nor compare terms, as == would)
        xs = [f"x{i}" for i in range(1, 502)]
        summands = [f"({x} ^ {' ^ '.join(y + '*' for y in xs if y != x)})*" for x in xs]
        assert main(["ib", "500"]) == 0
        assert capsys.readouterr().out == " v ".join(summands) + " = 1\n"

    def test_check_quasieq_prints_falsifier(self, files, capsys):
        code = main(["check", "quasieq", "--algebra", files["bn3"],
                     "--q", "x1* = x2 v x3 & x2* = x1 v x3 & x3* = x1 v x2 => x1 v x2 v x3 = 1"])
        out = capsys.readouterr().out
        assert code == 1 and "false" in out
        assert json.loads(out.splitlines()[1].split("falsifier: ")[1]) == {
            "x1": 1, "x2": 2, "x3": 4}

    def test_check_quasieq_true(self, files):
        assert main(["check", "quasieq", "--algebra", files["bn3"],
                     "--q", "x ^ (x ^ y)* = x ^ y*"]) == 0

    def test_search_ppmorph_found_and_checkable(self, files, tmp_path):
        witness = tmp_path / "h.json"
        assert main(["search", "ppmorph", "--src", files["w4"],
                     "--dst", files["p13"], "--out", str(witness)]) == 0
        assert main(["check", "ppmap", "--src", files["w4"],
                     "--dst", files["p13"], "--map", str(witness)]) == 0

    def test_search_ppmorph_none(self, files):
        assert main(["search", "ppmorph", "--src", files["fano"],
                     "--dst", files["p14"]]) == 1

    def test_search_ppmorph_budget_inconclusive(self, files):
        assert main(["search", "ppmorph", "--src", files["w4"],
                     "--dst", files["p14"], "--budget", "2"]) == 4

    def test_search_embed(self, files, tmp_path):
        b1 = tmp_path / "bn1.json"
        main(["make", "bn", "1", "--out", str(b1)])
        assert main(["search", "embed", "--small", str(b1), "--big", files["bn3"]]) == 0
        assert main(["search", "embed", "--small", files["bn4"], "--big", files["bn3"]]) == 1

    def test_make_sts(self, tmp_path):
        out = tmp_path / "s13.json"
        assert main(["make", "sts", "13", "--out", str(out)]) == 0
        assert json.load(open(out))["size"] == 39

    def test_search_homs(self, files, tmp_path):
        b1 = tmp_path / "bn1.json"
        main(["make", "bn", "1", "--out", str(b1)])
        assert main(["search", "homs", "--small", str(b1), "--big", files["bn3"]]) == 0

    def test_search_member(self, files, tmp_path):
        b1 = tmp_path / "bn1.json"
        b2 = tmp_path / "bn2.json"
        main(["make", "bn", "1", "--out", str(b1)])
        main(["make", "bn", "2", "--out", str(b2)])
        assert main(["search", "member", "--algebra", str(b1), "--gens", str(b2)]) == 0
        assert main(["search", "member", "--algebra", str(b2), "--gens", str(b1)]) == 1

    def test_dual_roundtrips(self, files, tmp_path):
        out = tmp_path / "d.json"
        assert main(["dual", "delta", files["bn3"], "--out", str(out), "--roundtrip"]) == 0
        out2 = tmp_path / "e.json"
        assert main(["dual", "epsilon", files["p13"], "--out", str(out2), "--roundtrip"]) == 0
        assert json.load(open(out2))["size"] == 9

    def test_qb_and_ib_print(self, capsys):
        assert main(["qb", "3"]) == 0
        text = capsys.readouterr().out.strip()
        assert text == ("x1* = x2 v x3 & x2* = x1 v x3 & x3* = x1 v x2 "
                        "=> x1 v x2 v x3 = 1")
        assert main(["ib", "1"]) == 0
        assert "(x1 ^ x2*)* v (x2 ^ x1*)*" in capsys.readouterr().out

    def test_resource_exit_code(self):
        assert main(["make", "bn", "13"]) == 3
        assert main(["make", "free", "--m", "9", "--k", "9"]) == 3

    def test_deep_terms_at_the_cli(self, tmp_path):
        b1 = tmp_path / "b1.json"
        assert main(["make", "bn", "1", "--out", str(b1)]) == 0
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(palg.__file__)))

        def check(*q):
            return subprocess.run([sys.executable, "-m", "palg.cli", "check", "quasieq",
                                   "--algebra", str(b1), *q],
                                  capture_output=True, text=True, env=env, timeout=60)

        # a 1500-join chain runs end to end: sweeping 1501 variables
        # falsifies ``t = 1`` at the all-zero valuation
        chain = check("--q", " v ".join(f"x{i}" for i in range(1501)))
        assert chain.returncode == 1 and "Traceback" not in chain.stderr
        assert chain.stdout.startswith("false\n")
        assert json.loads(chain.stdout.split("falsifier:")[1]) == {f"x{i}": 0 for i in range(1501)}
        deep = tmp_path / "deep.txt"
        deep.write_text(" v ".join(["x"] * 1500) + " = x\n")
        same = check("--q-file", str(deep))
        assert (same.returncode, same.stdout) == (0, "true\n")
        # parenthesis nesting still recurses in the parser: a resource limit
        nested = check("--q", "(" * 1500 + "x" + ")" * 1500)
        assert nested.returncode == 3
        assert nested.stderr.startswith("resource limit:") and "Traceback" not in nested.stderr

    def test_oversized_posets_are_a_resource_limit(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(palg.__file__)))
        antichain = tmp_path / "antichain.json"
        antichain.write_text(json.dumps({"size": 3000, "covers": []}))
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"size": 100_000_000, "covers": []}))
        for path in (antichain, huge):
            start = time.perf_counter()
            run = subprocess.run([sys.executable, "-m", "palg.cli", "dual", "epsilon", str(path)],
                                 capture_output=True, text=True, env=env, timeout=60)
            assert time.perf_counter() - start < 10, path.name
            assert run.returncode == 3, run.stderr
            lines = run.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("resource limit:"), run.stderr
            assert "Traceback" not in run.stderr
        assert main(["check", "poset", "--file", str(huge)]) == 3

    def test_qb_and_ib_past_the_print_cap_are_refused_before_building(self, capsys, monkeypatch):
        assert main(["qb", "541"]) == 0
        out = capsys.readouterr().out
        assert 1_900_000 < len(out) <= 2_000_001 and out.startswith("x1* = x2 v x3 v ")

        def unbuilt(n):
            raise AssertionError(f"a term was built for {n}")

        monkeypatch.setattr(cli, "make_qb", unbuilt)
        monkeypatch.setattr(cli, "make_ib", unbuilt)
        for command, n in (("qb", 542), ("ib", 506)):
            assert main([command, str(n)]) == 3
            out, err = capsys.readouterr()
            assert out == "" and len(err.splitlines()) == 1
            assert err.startswith("resource limit:")

    def test_input_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["check", "palgebra", "--file", str(missing)]) == 2

    @pytest.mark.parametrize("command,key,value", [
        ("palgebra", "one", [1]),            # a list where an index belongs
        ("palgebra", "meet", [[0.9, 0, 0], [0, 1, 1], [0, 1, 2]]),  # B_1's, not truncated
        ("poset", "size", [3]),
        ("poset", "covers", [[0.5, 1]]),
        ("ppmap", "table", [0.7, 1]),
        ("palgebra", "meet", [[0, 0, 0], [0, 1, 2 ** 40], [0, 1, 2]]),  # past int32
    ])
    def test_malformed_entries_are_input_errors(self, tmp_path, bn, capsys, command, key, value):
        p = tmp_path / "p.json"
        p.write_text(json.dumps(poset_to_dict(make_p1(1))))
        if command == "palgebra":
            data = algebra_to_dict(bn[1])
        elif command == "poset":
            data = {"size": 3, "covers": [[0, 1]]}
        else:
            data = {"table": [0, 1]}
        data[key] = value
        f = tmp_path / "f.json"
        f.write_text(json.dumps(data))
        args = ["--src", str(p), "--dst", str(p), "--map", str(f)] if command == "ppmap" else ["--file", str(f)]
        assert main(["check", command] + args) == 2
        assert capsys.readouterr().err.startswith("input error:")
        if command == "palgebra":
            assert main(["dual", "delta", str(f)]) == 2

    @pytest.mark.parametrize("text", ["5", "null", "true"])
    def test_a_file_that_is_not_an_object_is_an_input_error(self, tmp_path, files, capsys, text):
        f = tmp_path / "f.json"
        f.write_text(text)
        for args in (["dual", "epsilon", str(f)],
                     ["search", "ppmorph", "--src", str(f), "--dst", files["p13"]]):
            assert main(args) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("input error:"), err

    def test_check_quasieq_sweeps_with_the_sweep_budget(self, tmp_path, capsys):
        # 257^3 valuations: within the sweep budget (the grid, as satisfies()
        # picks), past the search budget (the backtracking sweep, which ran out)
        b8 = tmp_path / "b8.json"
        assert main(["make", "bn", "8", "--out", str(b8)]) == 0
        assert main(["check", "quasieq", "--algebra", str(b8),
                     "--q", "x ^ (y ^ z) = (x ^ y) ^ z"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    @pytest.mark.parametrize("kind,args,message", [
        ("search", ["embed", "--small", "bn3", "--big", "bn4", "--limit", "-1"],
         "argument --limit: must be at least 1, got -1"),
        ("search", ["embed", "--small", "bn3", "--big", "bn4", "--limit", "0"],
         "argument --limit: must be at least 1, got 0"),
        ("search", ["ppmorph", "--src", "w4", "--dst", "p13", "--budget", "-1"],
         "argument --budget: must be at least 0, got -1"),
        ("check", ["quasieq", "--algebra", "bn3", "--q", "x = x", "--budget", "-1"],
         "argument --budget: must be at least 0, got -1"),
    ], ids=["negative-limit", "zero-limit", "search-budget", "sweep-budget"])
    def test_limits_and_budgets_out_of_range_are_usage_errors(self, files, kind, args, message):
        run = run_cli([kind, *(files.get(a, a) for a in args)])
        assert run.returncode == 2 and "Traceback" not in run.stderr
        assert run.stderr.splitlines()[-1] == f"palg {kind} {args[0]}: error: {message}"

    def test_numpy_is_loaded_only_by_a_grid_sweep(self, files, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(palg.__file__)))
        b3, p13, e13 = files["bn3"], files["p13"], str(tmp_path / "e13.json")
        b5, qb3 = str(tmp_path / "b5.json"), format_quasiequation(make_qb(3))
        commands = [["make", "p1", "3", "--out", str(tmp_path / "p.json")],
                    ["check", "palgebra", "--file", b3],
                    ["dual", "delta", b3, "--out", str(tmp_path / "d.json")],
                    ["dual", "epsilon", p13, "--out", e13],
                    ["search", "ppmorph", "--src", files["w4"], "--dst", p13],
                    ["search", "embed", "--small", b3, "--big", e13],
                    ["search", "member", "--algebra", b3, "--gens", e13],
                    ["qb", "3"],
                    # qb_3 pins its last variable, so these sweeps stay off the grid
                    ["check", "quasieq", "--algebra", b3, "--q", qb3],
                    ["check", "quasieq", "--algebra", e13, "--q", qb3],
                    ["report", "thm16"],
                    ["report", "lemma8"],
                    ["make", "bn", "5", "--out", b5],
                    # nothing is pinned: 33^3 valuations go to the grid
                    ["check", "quasieq", "--algebra", b5, "--q", "x ^ (y ^ z) = (x ^ y) ^ z"]]
        # one cold process runs every command, reporting after each whether
        # numpy has been imported yet
        script = ("import contextlib, io, json, sys\n"
                  "from palg.cli import main\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
                  "        code = main(argv)\n"
                  "    print(json.dumps([code, 'numpy' in sys.modules, out.getvalue()]))\n")
        run = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                             capture_output=True, text=True, env=env, timeout=120)
        rows = [json.loads(line) for line in run.stdout.splitlines()]
        assert [code for code, _, _ in rows] == [0] * 8 + [1, 1, 0, 0, 0, 0], run.stderr
        assert [loaded for _, loaded, _ in rows] == [False] * 13 + [True]
        assert rows[8][2] == 'false\nfalsifier: {"x1": 1, "x2": 2, "x3": 4}\n'

    def test_check_palgebra_keeps_the_size_cap(self, files, monkeypatch):
        monkeypatch.setattr(serialize, "MAX_ALGEBRA_SIZE", 3)
        assert main(["dual", "delta", files["bn3"]]) == 3
        assert main(["check", "palgebra", "--file", files["bn3"]]) == 3

    def test_check_palgebra_reads_its_file_once(self, files, monkeypatch):
        reads = []
        monkeypatch.setattr(cli, "load_json", lambda path: reads.append(path) or load_json(path))
        assert main(["check", "palgebra", "--file", files["bn3"]]) == 0
        assert reads == [files["bn3"]]

    def test_report_covers(self, capsys):
        assert main(["report", "covers", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True

    def test_make_with_dot(self, tmp_path):
        out = tmp_path / "p.json"
        dot = tmp_path / "p.dot"
        assert main(["make", "p1", "2", "--out", str(out), "--dot", str(dot)]) == 0
        assert dot.read_text().startswith("digraph")

    def test_make_missing_parameter(self):
        with pytest.raises(SystemExit) as exc:
            main(["make", "p1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,option", [
        (["check", "palgebra"], "--file"),
        (["check", "poset"], "--file"),
        (["check", "ppmap", "--src", "p13", "--dst", "p13"], "--map"),
        (["check", "quasieq", "--q", "x = x"], "--algebra"),
        (["search", "ppmorph", "--dst", "p13"], "--src"),
        (["search", "embed", "--small", "bn3"], "--big"),
        (["search", "homs", "--big", "bn3"], "--small"),
        (["search", "member", "--gens", "bn3"], "--algebra"),
    ])
    def test_a_missing_file_option_is_an_input_error(self, files, argv, option):
        run = run_cli([files.get(a, a) for a in argv])
        assert run.returncode == 2 and "Traceback" not in run.stderr
        assert run.stderr.splitlines()[-1] == (
            f"palg {argv[0]} {argv[1]}: error: the following arguments are required: {option}")

    @pytest.mark.parametrize("argv,message", [
        (["check", "quasieq", "--algebra", "bn3", "--q", "x = x", "--json"],
         "palg: error: unrecognized arguments: --json"),
        (["search", "member", "--algebra", "bn3", "--gens", "bn3", "--limit", "1"],
         "palg: error: unrecognized arguments: --limit 1"),
        (["search", "ppmorph", "--src", "p13", "--dst", "p13", "--limit", "1"],
         "palg: error: unrecognized arguments: --limit 1"),
        (["check", "palgebra", "--file", "bn3", "--budget", "5"],
         "palg: error: unrecognized arguments: --budget 5"),
        (["make", "fano", "3"], "palg: error: unrecognized arguments: 3"),
        (["check", "quasieq", "--algebra", "bn3", "--q", "x = x", "--q-file", "q.txt"],
         "palg check quasieq: error: argument --q-file: not allowed with argument --q"),
    ], ids=["quasieq-json", "member-limit", "ppmorph-limit", "palgebra-budget", "fano-n",
            "q-and-q-file"])
    def test_an_option_the_kind_does_not_read_is_a_usage_error(self, files, argv, message):
        run = run_cli(argv[:2] + [files.get(a, a) for a in argv[2:]])  # "fano" is also a file
        assert run.returncode == 2 and "Traceback" not in run.stderr
        assert run.stderr.splitlines()[-1] == message

    @pytest.mark.parametrize("kind,n,code", [
        ("p1", 4999, 0), ("w", 4987, 0), ("sts", 169, 0),
        ("p1", 5000, 3), ("w", 4988, 3), ("sts", 171, 3),
    ])
    def test_make_refuses_posets_past_the_table_budget(self, tmp_path, kind, n, code):
        out = tmp_path / "p.json"
        start = time.perf_counter()
        assert main(["make", kind, str(n), "--out", str(out)]) == code
        if code == 0:  # every poset make writes loads again
            assert main(["check", "poset", "--file", str(out)]) == 0
        else:
            assert time.perf_counter() - start < 1 and not out.exists()

    def test_dual_epsilon_of_empty_poset(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"size": 0, "covers": []}))
        assert main(["dual", "epsilon", str(empty)]) == 0
        assert json.loads(capsys.readouterr().out)["size"] == 1

    def test_quasieq_from_file(self, files, tmp_path):
        qf = tmp_path / "q.txt"
        qf.write_text("x ^ (x ^ y)* = x ^ y*\n")
        assert main(["check", "quasieq", "--algebra", files["bn3"],
                     "--q-file", str(qf)]) == 0


# each command's exit code and stdout on small poset files; the epsilon
# algebra's JSON text is pinned by its sha256
POSET_COMMANDS = [
    (["check", "poset", "--file", "p13"], 0, "ok\n"),
    (["check", "poset", "--file", "p13", "--json"], 0, '{"ok": true, "violations": []}\n'),
    (["check", "poset", "--file", "cyclic"], 2, ""),
    (["dual", "epsilon", "p13"], 0,
     "sha256:3cffd4a786d5f6a0d29ab334802eca99f5be16d33c5ac919efb8e24a2a792e64"),
    (["search", "ppmorph", "--src", "p13", "--dst", "p12"], 0,
     '{\n "table": [\n  0,\n  0,\n  1,\n  2\n ]\n}\n'),
    (["search", "ppmorph", "--src", "p12", "--dst", "p13"], 1, "none\n"),
    (["check", "ppmap", "--src", "p13", "--dst", "p12", "--map", "onto"], 0, "ok\n"),
    (["check", "ppmap", "--src", "p13", "--dst", "p12", "--map", "constant"], 0,
     "valid pp-morphism (not surjective)\nok\n"),
]


def test_poset_loads_never_rescan(tmp_path, monkeypatch, capsys):
    """A poset file is decided by ``from_covers`` alone: with
    ``validate_poset`` unusable, every command that loads posets prints
    what it printed while loads still ran it."""
    from palg import duality

    paths = {name: str(tmp_path / f"{name}.json") for name in
             ("p12", "p13", "cyclic", "onto", "constant")}
    assert main(["make", "p1", "2", "--out", paths["p12"]]) == 0
    assert main(["make", "p1", "3", "--out", paths["p13"]]) == 0
    serialize.save_json(paths["cyclic"], {"size": 2, "covers": [[0, 1], [1, 0]]})
    serialize.save_json(paths["onto"], serialize.map_to_dict([0, 0, 1, 2]))
    serialize.save_json(paths["constant"], serialize.map_to_dict([0, 0, 0, 0]))
    capsys.readouterr()

    def rescan(p):
        raise AssertionError("a loaded poset was validated again")

    monkeypatch.setattr(duality, "validate_poset", rescan)
    for argv, code, expected in POSET_COMMANDS:
        assert main([paths.get(a, a) for a in argv]) == code, argv
        out = capsys.readouterr().out
        if expected.startswith("sha256:"):
            out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
        assert out == expected, argv
