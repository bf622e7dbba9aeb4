"""The names that the README, ``scripts/`` and ``perfbench/`` reach in persreg.

A name they use that the library no longer has makes the benchmark die
with a traceback instead of printing its result line, so each reference
is resolved here first.  The other way round, a function or class that
nothing but the tests reaches does not belong in the library.
"""

import argparse
import ast
import dataclasses
import importlib
import importlib.util
import os
import re
import subprocess
import sys
import typing
from collections import Counter
from pathlib import Path

import pytest

import persreg
from persreg import cli, storage
from persreg.model import HyperParams, Range

ROOT = Path(__file__).resolve().parents[1]
SRC_FILES = sorted((ROOT / "src" / "persreg").glob("*.py"))
CALLER_FILES = sorted((ROOT / "perfbench").glob("*.py")) + sorted(
    (ROOT / "scripts").glob("*.py")
)

EXPORTS = [
    "CATEGORICAL",
    "CLASSIFICATION",
    "CONTINUOUS",
    "REGRESSION",
    "CovariateTable",
    "Dataset",
    "ElasticNetConfig",
    "ElasticNetConvergenceError",
    "HyperParams",
    "NumericalError",
    "TrainedModel",
    "evaluate_recovery",
    "fit",
    "fit_population",
    "generate",
    "initialize",
    "predict_batch",
    "predict_point",
    "rank_neighbors",
]


def resolve(dotted: str):
    """The object at a dotted path below ``persreg``, importing submodules
    as needed; raises AttributeError when a part is missing."""
    obj = persreg
    for part in dotted.split("."):
        if not hasattr(obj, part) and hasattr(obj, "__path__"):
            try:
                importlib.import_module(f"{obj.__name__}.{part}")
            except ModuleNotFoundError:
                pass
        obj = getattr(obj, part)
    return obj


def attribute_references(text: str) -> set:
    return set(re.findall(r"\b(?:pr|persreg)((?:\.[A-Za-z_]\w*)+)", text))


def readme_code() -> str:
    text = (ROOT / "README.md").read_text()
    return "\n".join(re.findall(r"```[a-z]*\n(.*?)```", text, flags=re.S))


def from_imports(path: Path) -> set:
    """``module.name`` for every ``from persreg[.module] import name``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("persreg"):
            module = node.module[len("persreg") :]
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_all_is_the_kept_list():
    assert sorted(persreg.__all__) == sorted(EXPORTS)
    for name in persreg.__all__:
        assert hasattr(persreg, name), name


@pytest.mark.parametrize(
    "path", CALLER_FILES + [ROOT / "README.md"], ids=lambda p: p.relative_to(ROOT).as_posix()
)
def test_caller_references_resolve(path):
    if path.suffix == ".md":
        refs = attribute_references(readme_code())
    else:
        refs = attribute_references(path.read_text()) | from_imports(path)
    assert refs, f"{path.name} references no persreg name"
    for ref in sorted(refs):
        try:
            resolve(ref.lstrip("."))
        except AttributeError as exc:
            pytest.fail(f"{path.name}: persreg{ref} does not resolve ({exc})")


def load_probes():
    spec = importlib.util.spec_from_file_location("probes", ROOT / "perfbench" / "probes.py")
    probes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probes)
    return probes


def test_every_probe_target_is_called(tmp_path):
    """A tiny fit, a save and a CLI predict call every probe target, so a
    target that still exists but is no longer called fails here, not only
    in the benchmark's selftest."""
    probes = load_probes()
    assert probes.TARGETS
    inst = persreg.generate(30, 2, 2, seed=0)
    test = inst.test_dataset()
    storage.write_matrix_csv(tmp_path / "x.csv", test.predictors, ["x0", "x1"])
    storage.write_covariates_csv(tmp_path / "u.csv", test.covariates)
    tracer = probes.Tracer()
    with tracer.installed():
        model = persreg.fit(inst.train_dataset(), persreg.HyperParams(max_iters=2))
        storage.save_model(tmp_path / "model.json", model)
        code = cli.main(
            ["predict", "--model", str(tmp_path / "model.json"),
             "--x", str(tmp_path / "x.csv"), "--u", str(tmp_path / "u.csv"),
             "--out", str(tmp_path / "pred.csv")]
        )
    assert code == 0
    assert tracer.missing == []
    recorded = {span[0] for span in tracer.spans}
    for owner, attr, name in probes.TARGETS:
        assert name in recorded, f"persreg.{owner}.{attr} was not called"


def definitions(tree) -> list:
    """Every function and class defined in a module, at any depth, except
    the dunder methods."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def referenced_names(node) -> list:
    """Every name read, attribute reached and name imported below ``node``."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.alias):
            names.append(sub.name)
    return names


def test_every_library_definition_has_a_user_outside_the_tests():
    """Each function and class in ``src/persreg`` is referenced elsewhere in
    the library, or by ``perfbench/``, ``scripts/`` or the README; code that
    only the tests call belongs under ``tests/``."""
    trees = {path.name: ast.parse(path.read_text()) for path in SRC_FILES}
    in_src = Counter(name for tree in trees.values() for name in referenced_names(tree))
    outside = "\n".join(p.read_text() for p in CALLER_FILES + [ROOT / "README.md"])
    unused = [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in definitions(tree)
        if in_src[node.name] == referenced_names(node).count(node.name)
        and not re.search(rf"\b{node.name}\b", outside)
    ]
    assert unused == []


def readme_hyper_rows() -> list:
    """(name, default, range) per row of the README's hyperparameter table,
    each cell as written between its backticks."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Hyperparameters\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)` +\| `([^`]+)` +\| `([^`]+)` +\|", section, re.M)


def range_text(bound: Range) -> str:
    """A bound as the README's range column writes it."""
    if bound.high is None:
        return f"{'>' if bound.strict else '>='} {bound.low}"
    return f"{'(' if bound.strict else '['}{bound.low}, {bound.high})"


def test_readme_hyperparameter_table_matches_the_class():
    """Every ``HyperParams`` field has exactly one row, with its default and
    its declared range, so a field added without a row fails here."""
    rows = readme_hyper_rows()
    names = [name for name, _, _ in rows]
    fields = [field.name for field in dataclasses.fields(HyperParams)]
    assert sorted(names) == sorted(fields)
    hints = typing.get_type_hints(HyperParams, include_extras=True)
    for name, default, bound in rows:
        # a default cell is a number, an arithmetic of numbers, or None
        value = eval(default, {"__builtins__": {}})
        assert value == HyperParams.__dataclass_fields__[name].default, name
        assert bound == range_text(hints[name].__metadata__[0]), name


def cli_options() -> dict:
    """Each ``persreg`` command with the option strings its parser takes."""
    parser = cli._build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    return {name: {flag for action in sub._actions for flag in action.option_strings}
            for name, sub in commands.items()}


def test_readme_names_only_flags_the_cli_takes():
    """Every flag of a ``persreg <command>`` line in a README code block is
    an option of that command, and every ``--flag`` in a backticked span of
    the prose is an option of some command.  Lines that run ``scripts/`` or
    ``pip`` are not ``persreg`` lines, so they are not checked."""
    options = cli_options()
    # a command continues over lines that end in a backslash
    for line in readme_code().replace("\\\n", " ").splitlines():
        words = line.split("#")[0].split()
        if words[:1] != ["persreg"]:
            continue
        assert words[1] in options, line
        flags = {word.split("=")[0] for word in words if word.startswith("--")}
        assert flags <= options[words[1]], line
    prose = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    known = set().union(*options.values())
    for span in re.findall(r"`([^`]+)`", prose):
        for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", span):
            assert flag in known, f"README names {flag} in `{span}`"


@pytest.mark.parametrize(
    "script, args, last",
    [("check_drift_bounds.py", ["--runs", "2", "--iters", "5"],
      "all center-of-mass bounds hold"),
     ("run_simulation_study.py", ["--seeds", "1", "--max-iters", "2"],
      "2500 5 personalized")],
)
def test_script_runs_to_its_last_line(script, args, last):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    # the simulation study closes each setting with a timing note in brackets
    lines = [line for line in done.stdout.splitlines()
             if not line.strip().startswith("(")]
    assert " ".join(lines[-1].split()).startswith(last)


def test_benchmark_selftest_reports_no_problem():
    """The benchmark's self-test at tiny sizes: every per-layer metric that
    ``BENCHMARK.json`` names is still produced through the probes, and
    training survives a deleted ``metric.neighbor_sets``."""
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "0 problem(s)"
