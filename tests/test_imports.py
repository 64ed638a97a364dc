"""Imports: every name a ``palg`` module imports is used in that module,
a cold command loads only the modules it runs, and lazily imported names
stay replaceable."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import palg

MODULES = sorted(pathlib.Path(palg.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


# ---------------------------------------------------------------------------
# a cold command loads only the palg modules it runs

ENV = dict(os.environ, PYTHONPATH=str(pathlib.Path(palg.__file__).parent.parent))
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
FILES = ("b3", "p13", "w4", "e13")
BASE = {"palg", "palg.cli", "palg.core", "palg.search", "palg.serialize"}
DUALITY = BASE | {"palg.duality"}
REPORT = DUALITY | {"palg.steiner", "palg.reports"}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """``argv`` with each name in FILES replaced by the path of that file,
    made once by the CLI."""
    from palg.cli import main

    tmp = tmp_path_factory.mktemp("cli")

    def paths(argv):
        return [str(tmp / f"{a}.json") if a in FILES else a for a in argv.split()]

    for name, argv in zip(FILES, ["make bn 3", "make p1 3", "make w 4", "dual epsilon p13"]):
        assert main(paths(argv) + ["--out", str(tmp / f"{name}.json")]) == 0
    return paths


@pytest.mark.parametrize("argv,modules", [
    ("make bn 3", BASE),
    ("make p1 3", DUALITY | {"palg.steiner"}),
    ("qb 3", BASE | {"palg.logic"}),
    ("check palgebra --file b3", BASE),
    ("check quasieq --algebra b3 --q x1=1", BASE | {"palg.logic"}),
    ("dual epsilon p13", DUALITY),
    ("dual delta b3", DUALITY),
    ("search ppmorph --src w4 --dst p13", DUALITY),
    ("search embed --small b3 --big e13", BASE),
    ("search member --algebra b3 --gens e13", DUALITY),
    ("report lemma10", REPORT),
    ("report lemma11", REPORT),
], ids=lambda v: v if isinstance(v, str) else "")
def test_each_cold_command_loads_only_what_it_runs(cli_files, argv, modules):
    code, loaded, stderr = run_cold(cli_files(argv))
    assert code in (0, 1), stderr
    assert [m for m in loaded if m.split(".")[0] == "palg"] == sorted(modules)


def test_rejecting_a_table_stays_off_numpy(cli_files, tmp_path):
    data = json.loads(pathlib.Path(cli_files("b3")[0]).read_text())
    data["star"][2] = 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, loaded, stderr = run_cold(["check", "palgebra", "--file", str(bad)])
    assert code == 1, stderr
    assert "numpy" not in loaded


def run_cold(argv):
    """The exit code of ``palg argv`` run in a fresh process, the sorted
    names of the modules loaded by its end, and its stderr."""
    script = ("import contextlib, io, json, sys\n"
              "from palg.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = main(sys.argv[1:])\n"
              "print(json.dumps([code, sorted(sys.modules)]))\n")
    run = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                         text=True, env=ENV, timeout=60)
    return *json.loads(run.stdout), run.stderr


# ---------------------------------------------------------------------------
# lazily bound names stay what callers and wrappers see


def test_every_traced_cli_name_resolves_and_each_entry_point_is_wrapped_once():
    # a fresh process installs the perfbench tracer, as its cli launcher does
    script = ("import json, sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import tracing\n"
              "import palg.cli\n"
              "missing = [a for _, _, sites in tracing.WRAPS for m, a in sites\n"
              "           if m == 'palg.cli' and not hasattr(palg.cli, a)]\n"
              "tracer = tracing.Tracer()\n"
              "made, wrap = [], tracer.wrap\n"
              "tracer.wrap = lambda fn, *args: made.append(wrap(fn, *args)) or made[-1]\n"
              "tracer.install()\n"
              "ids = set(map(id, made))\n"
              "print(json.dumps([missing, sum(id(w.__wrapped__) in ids for w in made)]))\n")
    run = subprocess.run([sys.executable, "-c", script, str(PERFBENCH)], capture_output=True,
                         text=True, env=ENV, timeout=60)
    missing, rewrapped = json.loads(run.stdout)
    assert missing == [] and rewrapped == 0, run.stderr


@pytest.mark.parametrize("name,argv", [
    ("parse", "check quasieq --algebra b3 --q x1=1"),
    ("epsilon", "dual epsilon p13"),
    ("make_p1", "make p1 2"),
])
def test_a_name_replaced_on_the_cli_module_is_what_the_command_calls(
        cli_files, monkeypatch, name, argv):
    from palg import cli

    calls = []
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args, **kw: calls.append(args) or real(*args, **kw))
    assert cli.main(cli_files(argv)) in (0, 1)
    assert len(calls) == 1


def test_re_exports_are_the_submodule_objects():
    exported = []
    for module, names in palg._EXPORTS.items():
        source = importlib.import_module(f"palg.{module}")
        for name in names.split():
            assert getattr(palg, name) is getattr(source, name)
            assert name in dir(palg)
            exported.append(name)
    assert palg.__all__ == exported


def test_the_parser_names_every_report_suite():
    from palg import cli, reports

    assert list(cli.REPORT_SUITES) == sorted(reports.SUITES)
