"""Every name a weylstrata module imports is used in that module.

``__init__`` is left out: it imports no module at its top level, and its
table of public names must name for each the module that defines it.

Every DomainError the package builds passes a ``code=``, so each refusal
carries its machine-readable code rather than the generic domain_error.

No module imports ``dataclasses``: records build on ``errors.Record``, and
``dataclasses`` would bring ``inspect`` into every command's start-up.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weylstrata"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def _imported_modules(source: str) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    return modules


def _uncoded_domain_errors(source: str) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "DomainError"
        and not any(keyword.arg == "code" for keyword in node.keywords)
    ]


def _top_level_names(source: str) -> set[str]:
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_init_table_names_each_defining_module():
    import weylstrata

    for module in set(weylstrata._MODULE_OF.values()):
        defined = _top_level_names((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        names = {name for name, home in weylstrata._MODULE_OF.items() if home == module}
        assert names <= defined, f"{module} does not define {sorted(names - defined)}"


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"atlas", "classical", "cli", "jordan", "partitions", "verify", "weyl"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_caught():
    source = "from typing import NamedTuple, Optional\nimport os.path\nx: Optional[int] = None\n"
    assert _unused_imports(source) == ["NamedTuple (line 1)", "os (line 2)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in _imported_modules(path.read_text(encoding="utf-8"))


def test_an_imported_module_is_found():
    source = "import dataclasses\nfrom .errors import Record\ndef f():\n    from inspect import signature\n"
    assert _imported_modules(source) == {"dataclasses", "inspect"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_domain_error_has_a_code(path):
    assert _uncoded_domain_errors(path.read_text(encoding="utf-8")) == []


def test_an_uncoded_domain_error_is_caught():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise DomainError('no', code='bad_x')\n"
        "    raise DomainError(f'no {x}') from None\n"
        "def g(why):\n"
        "    return DomainError(why)\n"
    )
    assert _uncoded_domain_errors(source) == [4, 6]
