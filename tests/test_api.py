"""The names that the README, ``scripts/`` and ``perfbench/`` reach in persreg.

A name they use that the library no longer has makes the benchmark die
with a traceback instead of printing its result line, so each reference
is resolved here first.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import persreg

ROOT = Path(__file__).resolve().parents[1]
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


def test_probe_targets_are_callable():
    spec = importlib.util.spec_from_file_location("probes", ROOT / "perfbench" / "probes.py")
    probes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probes)
    assert probes.TARGETS
    for owner, attr, _ in probes.TARGETS:
        module = importlib.import_module("persreg." + owner)
        assert callable(getattr(module, attr, None)), f"persreg.{owner}.{attr}"
