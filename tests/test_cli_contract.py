"""The CLI's exit-code contract: 0 pass/found, 1 violation/none, 2 input
error, 3 resource limit, 4 inconclusive, for every verdict command and for
malformed input files."""

import argparse
import json
import pathlib
import random
import shlex

import pytest

from palg import format_quasiequation, make_qb
from palg.cli import build_parser, main
from palg.core import MAX_ALGEBRA_SIZE

TRIVIAL = {"size": 1, "meet": [[0]], "join": [[0]], "star": [0], "zero": 0, "one": 0}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    out = {}
    for name, argv in [("bn1", ["bn", "1"]), ("bn2", ["bn", "2"]), ("bn3", ["bn", "3"]),
                       ("bn4", ["bn", "4"]), ("w4", ["w", "4"]), ("p13", ["p1", "3"]),
                       ("p14", ["p1", "4"]), ("fano", ["fano"])]:
        path = root / f"{name}.json"
        assert main(["make", *argv, "--out", str(path)]) == 0
        out[name] = str(path)
    trivial = root / "trivial.json"
    trivial.write_text(json.dumps(TRIVIAL))
    out["trivial"] = str(trivial)
    return out


QB3 = format_quasiequation(make_qb(3))
STAR_LAW = "x ^ (x ^ y)* = x ^ y*"

# (argv with file names for paths, exit code, first line of stdout)
CONTRACT = {
    "quasieq-satisfied": (["check", "quasieq", "--algebra", "bn3", "--q", STAR_LAW], 0, "true"),
    "quasieq-falsified": (["check", "quasieq", "--algebra", "bn3", "--q", QB3], 1, "false"),
    "quasieq-budget0": (["check", "quasieq", "--algebra", "bn3", "--q", QB3, "--budget", "0"],
                        4, "inconclusive"),
    "ppmorph-found": (["search", "ppmorph", "--src", "w4", "--dst", "p13"], 0, "{"),
    "ppmorph-none": (["search", "ppmorph", "--src", "fano", "--dst", "p14"], 1, "none"),
    "ppmorph-budget0": (["search", "ppmorph", "--src", "w4", "--dst", "p14", "--budget", "0"],
                        4, "inconclusive"),
    "embed-found": (["search", "embed", "--small", "bn1", "--big", "bn3"],
                    0, "1 found (complete=True)"),
    "embed-none": (["search", "embed", "--small", "bn4", "--big", "bn3"], 1, "none"),
    "embed-budget0": (["search", "embed", "--small", "bn1", "--big", "bn3", "--budget", "0"],
                      4, "inconclusive"),
    "homs-found": (["search", "homs", "--small", "bn1", "--big", "bn3"],
                   0, "2 found (complete=True)"),
    "homs-limit": (["search", "homs", "--small", "bn1", "--big", "bn3", "--limit", "1"],
                   0, "1 found (complete=False)"),
    "homs-none": (["search", "homs", "--small", "trivial", "--big", "bn3"], 1, "none"),
    "homs-budget0": (["search", "homs", "--small", "bn1", "--big", "bn3", "--budget", "0"],
                     4, "inconclusive"),
    "member-yes": (["search", "member", "--algebra", "bn1", "--gens", "bn2"], 0, "yes"),
    "member-no": (["search", "member", "--algebra", "bn2", "--gens", "bn1"], 1, "no"),
    "member-budget0": (["search", "member", "--algebra", "bn1", "--gens", "bn2", "--budget", "0"],
                       4, "inconclusive"),
}


@pytest.mark.parametrize("case", list(CONTRACT))
def test_verdict_commands_keep_their_exit_codes_and_first_lines(paths, capsys, case):
    argv, code, first = CONTRACT[case]
    assert main([paths.get(a, a) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == first
    assert captured.err == ""


def test_a_map_past_the_table_budget_is_refused_before_any_entry_is_read(paths, tmp_path, capsys):
    # entries that would be input errors, had any of them been converted
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"table": ["x"] * (MAX_ALGEBRA_SIZE + 1)}))
    assert main(["check", "ppmap", "--src", paths["p13"], "--dst", paths["p13"],
                 "--map", str(big)]) == 3
    assert capsys.readouterr().err.startswith("resource limit:")
    edge = tmp_path / "edge.json"
    edge.write_text(json.dumps({"table": ["x"] * MAX_ALGEBRA_SIZE}))
    assert main(["check", "ppmap", "--src", paths["p13"], "--dst", paths["p13"],
                 "--map", str(edge)]) == 2


# ---------------------------------------------------------------------------
# the command lines the parser accepts

# the options each (command, kind) reads; "!" marks a required one
READS = {
    **{("make", kind): "n! --out --dot" for kind in ("bn", "p1", "sts", "w")},
    ("make", "fano"): "--out --dot",
    ("make", "free"): "--m! --k! --out --dot",
    ("check", "palgebra"): "--file! --json",
    ("check", "poset"): "--file! --json",
    ("check", "ppmap"): "--src! --dst! --map! --json",
    ("check", "quasieq"): "--algebra! --q --q-file --budget",
    ("search", "ppmorph"): "--src! --dst! --budget --out",
    ("search", "embed"): "--small! --big! --limit --budget --out",
    ("search", "homs"): "--small! --big! --limit --budget --out",
    ("search", "member"): "--algebra! --gens --budget --out",
}


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_each_kind_accepts_exactly_the_options_it_reads():
    commands = _subparsers(build_parser())
    accepted = {}
    for command in ("make", "check", "search"):
        for kind, parser in _subparsers(commands[command]).items():
            accepted[command, kind] = {
                (a.option_strings[0] if a.option_strings else a.dest) + "!" * a.required
                for a in parser._actions if not isinstance(a, argparse._HelpAction)}
    assert accepted == {key: set(options.split()) for key, options in READS.items()}
    (text,) = _subparsers(commands["check"])["quasieq"]._mutually_exclusive_groups
    assert text.required
    assert [a.option_strings for a in text._group_actions] == [["--q"], ["--q-file"]]


def test_every_command_line_in_the_readme_parses():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("## The CLI")[1].split("```")[1]
    lines = [line.split("#")[0] for line in block.splitlines() if line.startswith("palg ")]
    assert len(lines) >= 10
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"the README's {line.strip()!r} does not parse")


# ---------------------------------------------------------------------------
# seeded fuzz over malformed files

# every size here is small or refused on sight, so no case builds anything large
JUNK = [-1, 0, 1, 2, 2.5, True, False, 10 ** 30, -(10 ** 30), None, "1", "x", [], {}, [0],
        [0, 1, 2], [[0, 1]], {"a": 1}]
BASES = {
    "algebra": {"size": 3, "meet": [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
                "join": [[0, 1, 2], [1, 1, 2], [2, 2, 2]], "star": [2, 0, 0], "zero": 0, "one": 2},
    "poset": {"size": 3, "covers": [[0, 1], [0, 2]]},
    "map": {"table": [0, 1, 2, 3]},
}


def _slots(obj, path=()):
    """The paths of every value inside ``obj``, itself included."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _slots(value, path + (key,))


def _mutate(rng: random.Random, kind: str) -> bytes:
    data = json.loads(json.dumps(BASES[kind]))
    roll = rng.randrange(10)
    if roll == 0:
        return rng.choice([b"\xff\xfe{}", b'{"size": 3, "covers": [[0, 1]], "x": "\xe9"}',
                           b"", b"{", b"[1, 2]", b'"text"', b"5", b"null", b"true"])
    if roll == 1 and kind == "poset":  # a cycle, or cover pairs too short or too long
        data["covers"] = rng.choice([[[0, 1], [1, 2], [2, 0]], [[0, 1], [1, 0]], [[0]],
                                     [[0, 1, 2]], [[]], [[0, 1], 5], ["01"]])
    elif roll == 2:
        del data[rng.choice(list(data))]
    else:
        for _ in range(rng.randrange(1, 3)):
            path = rng.choice(list(_slots(data))[1:])
            *head, last = path
            parent = data
            for key in head:
                parent = parent[key]
            parent[last] = rng.choice(JUNK)
    return json.dumps(data).encode()


COMMANDS = {
    "algebra": [["check", "palgebra", "--file", "{f}"], ["dual", "delta", "{f}"],
                ["check", "quasieq", "--algebra", "{f}", "--q", STAR_LAW, "--budget", "500"],
                ["search", "embed", "--small", "{bn1}", "--big", "{f}", "--budget", "500"],
                ["search", "homs", "--small", "{f}", "--big", "{bn1}", "--budget", "500"],
                ["search", "member", "--algebra", "{f}", "--gens", "{bn1}", "--budget", "500"]],
    "poset": [["check", "poset", "--file", "{f}"], ["dual", "epsilon", "{f}"],
              ["search", "ppmorph", "--src", "{f}", "--dst", "{p13}", "--budget", "500"],
              ["check", "ppmap", "--src", "{f}", "--dst", "{p13}", "--map", "{map}"]],
    "map": [["check", "ppmap", "--src", "{p13}", "--dst", "{p13}", "--map", "{f}"]],
}


def test_malformed_files_exit_within_the_contract(paths, tmp_path):
    rng = random.Random(2024)
    good_map = tmp_path / "map.json"
    good_map.write_text(json.dumps({"table": [3, 0, 1]}))
    names = dict(paths, map=str(good_map))
    f = tmp_path / "f.json"
    seen = set()
    for _ in range(240):
        kind = rng.choice(sorted(COMMANDS))
        f.write_bytes(_mutate(rng, kind))
        argv = [a.format(f=f, **names) for a in rng.choice(COMMANDS[kind])]
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # any escape breaks the contract
            pytest.fail(f"{argv} on {f.read_bytes()!r} raised {exc!r}")
        assert type(code) is int and 0 <= code <= 4, (argv, f.read_bytes(), code)
        seen.add(code)
    assert {2, 3} <= seen  # the fuzz reaches both refusals
