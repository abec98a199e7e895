"""Every module ``src/`` imports is stdlib, ``repro`` or a declared dependency.

A static check: each ``.py`` file under ``src/`` is parsed with :mod:`ast`
and the top-level name of every absolute import is looked up in
``sys.stdlib_module_names`` and in ``pyproject.toml``'s
``[project].dependencies``.  Nothing is imported or installed, so the check
runs offline and catches a dependency the package uses without declaring.
"""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PYPROJECT = ROOT / "pyproject.toml"


def _requirement_name(requirement: str) -> str:
    """``"numpy>=1.22"`` -> ``"numpy"`` (PEP 503-normalized, as a module name)."""
    name = re.match(r"[A-Za-z0-9._-]+", requirement.strip()).group(0)
    return re.sub(r"[-_.]+", "_", name).lower()


def _dependencies_by_hand(text: str) -> list[str]:
    """``[project].dependencies`` without a TOML parser (Python 3.10)."""
    section = re.search(r"^\[project\]\s*$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    array = re.search(r"^dependencies\s*=\s*\[(.*?)\]", section.group(1), re.M | re.S)
    body = re.sub(r"#[^\n]*", "", array.group(1))
    return re.findall(r"""["']([^"']+)["']""", body)


def _declared_dependencies() -> list[str]:
    text = PYPROJECT.read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        return _dependencies_by_hand(text)
    return tomllib.loads(text)["project"]["dependencies"]


def _imported_modules() -> dict[str, set[str]]:
    """Top-level imported module name -> files importing it."""
    found: dict[str, set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], set()).add(
                    str(path.relative_to(ROOT))
                )
    return found


def test_every_import_is_stdlib_repro_or_declared():
    declared = {_requirement_name(req) for req in _declared_dependencies()}
    undeclared = {
        module: sorted(files)
        for module, files in _imported_modules().items()
        if module != "repro"
        and module not in sys.stdlib_module_names
        and module not in declared
    }
    assert undeclared == {}, f"imported but not declared in pyproject.toml: {undeclared}"


def test_declared_dependencies_are_imported():
    """The check is live: the walk sees the declared scientific stack."""
    imported = _imported_modules()
    for requirement in _declared_dependencies():
        assert _requirement_name(requirement) in imported


def test_hand_parser_matches_tomllib():
    tomllib = pytest.importorskip("tomllib")
    text = PYPROJECT.read_text()
    assert _dependencies_by_hand(text) == tomllib.loads(text)["project"]["dependencies"]


def test_hand_parser_reads_multiline_arrays():
    text = (
        "[build-system]\nrequires = [\"setuptools\"]\n\n"
        "[project]\nname = \"x\"\ndependencies = [\n"
        "    \"numpy>=1.22\",  # arrays\n    'scipy',\n]\n\n"
        "[project.optional-dependencies]\ndev = [\"pytest\"]\n"
    )
    assert _dependencies_by_hand(text) == ["numpy>=1.22", "scipy"]
    assert [_requirement_name(r) for r in _dependencies_by_hand(text)] == [
        "numpy", "scipy",
    ]
