"""Every name a weylstrata module imports is used in that module.

Every module under the package is checked, subpackages included.
``__init__`` is left out of the unused-import check: it imports no module
at its top level, and its table of public names must name for each the
module that defines it.  It holds the one module ``__getattr__``: no other
module forwards names it does not define.

Every DomainError the package builds passes a ``code=``, so each refusal
carries its machine-readable code rather than the generic domain_error.

No module imports ``dataclasses``: records build on ``errors.Record``, and
``dataclasses`` would bring ``inspect`` into every command's start-up.

Records fill their slots one way, through ``_fill``, which ``Record``
generates for each record class: no module calls ``object.__setattr__``
except ``Record.__setstate__``, no module reads a slot's ``__set__`` outside
``Record`` or names ``_setters``, and no ``_set`` helper is defined or called.
No class declares ``_fields``: ``Record`` derives a record's fields from
its slots, leaving out those whose names start with an underscore.

Every module parses as Python 3.10, the floor ``pyproject.toml`` declares
(``requires-python = ">=3.10"``), so no later syntax such as ``except*``
creeps in.  Where a ``python3.10`` runs, the package also runs under it, so
code generated at import (each record's ``_fill``) is checked too: records
and ``phi`` print the same text as under this interpreter, the atlas
checksum (through the interpreter's own ``_sha256``) is the sha256 of the
packaged file, and a ``verify`` suite passes.

``atlas`` reads its input without recursion: none of its functions calls
itself, directly or through other ``atlas`` functions, and none catches
``RecursionError``, so a bound the module states, not the interpreter's
stack, limits how deep a class label may nest.

The functions on the point-query path read enum members through module
globals bound once at import, never through the enum class (``Series.GL``).

No command tests a value against ``int`` or ``bool``: the integer gate is
``errors``', and the record constructors word each refusal.

No library module reads the environment (``os.environ``, ``os.getenv``):
the atlas file is an argument.  ``cli`` and the commands are left out.
"""

import ast
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weylstrata"
ALL_MODULES = sorted(PACKAGE.rglob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def _name(path: Path) -> str:
    # the module's dotted name under the package: "cli", "commands.phi"
    return ".".join(path.relative_to(PACKAGE).with_suffix("").parts)


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


def _slot_writes_past_the_setters(source: str) -> list[int]:
    # lines calling object.__setattr__ outside Record.__setstate__, reading
    # a __set__ outside Record, naming _setters, or defining or calling a _set
    tree = ast.parse(source)
    allowed, in_record = set(), set()
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == "Record":
            in_record = {id(node) for node in ast.walk(cls)}
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__setstate__":
                    allowed = {id(node) for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Attribute) and (
            node.attr in ("_set", "_setters")
            or (node.attr == "__set__" and id(node) not in in_record)
            or (node.attr == "__setattr__" and isinstance(node.value, ast.Name) and node.value.id == "object")
        ):
            found.append(node.lineno)
        elif (isinstance(node, ast.FunctionDef) and node.name == "_set") or (
            isinstance(node, ast.Name) and node.id == "_setters"
        ):
            found.append(node.lineno)
    return sorted(found)


def _declared_fields(source: str) -> list[int]:
    # lines that declare a record's fields by hand: _fields assigned in a class
    # body, or set as an attribute outside Record, which derives them from the
    # slots' names
    tree = ast.parse(source)
    records = [cls for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "Record"]
    in_record = {id(node) for cls in records for node in ast.walk(cls)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    found += [
                        name.lineno
                        for name in ast.walk(stmt)
                        if isinstance(name, ast.Name) and name.id == "_fields" and isinstance(name.ctx, ast.Store)
                    ]
        elif isinstance(node, ast.Attribute) and node.attr == "_fields" and isinstance(node.ctx, ast.Store):
            if id(node) not in in_record:
                found.append(node.lineno)
    return sorted(found)


def _self_calling_functions(source: str) -> list[str]:
    # functions reaching themselves through calls by name, or through
    # self.<method> calls within one class
    calls: dict[str, set[str]] = {}

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callees = calls.setdefault(f"{cls}.{child.name}" if cls else child.name, set())
                for call in ast.walk(child):
                    func = getattr(call, "func", None) if isinstance(call, ast.Call) else None
                    if isinstance(func, ast.Name):
                        callees.add(func.id)
                    elif cls and isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "self":
                        callees.add(f"{cls}.{func.attr}")
                visit(child, None)
            else:
                visit(child, cls)

    def reached(name):
        seen, todo = set(), list(calls[name])
        while todo:
            callee = todo.pop()
            if callee in calls and callee not in seen:
                seen.add(callee)
                todo.extend(calls[callee])
        return seen

    visit(ast.parse(source), None)
    return sorted(name for name in calls if name in reached(name))


def _recursion_error_handlers(source: str) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and any(getattr(n, "id", None) == "RecursionError" for n in ast.walk(node.type))
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
    assert {_name(p) for p in MODULES} >= {
        "atlas", "classical", "cli", "enumeration", "jordan", "jordan_inverse", "partitions", "verify", "weyl",
        "commands._shared", "commands.classify", "commands.enumerate", "commands.invert", "commands.phi",
        "commands.tables", "commands.verify",
    }


def test_only_the_package_forwards_names():
    forwarding = [
        _name(p) for p in ALL_MODULES
        if any(isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
               for node in ast.parse(p.read_text(encoding="utf-8")).body)
    ]
    assert forwarding == ["__init__"]


@pytest.mark.parametrize("path", MODULES, ids=_name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_caught():
    source = "from typing import NamedTuple, Optional\nimport os.path\nx: Optional[int] = None\n"
    assert _unused_imports(source) == ["NamedTuple (line 1)", "os (line 2)"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=_name)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in _imported_modules(path.read_text(encoding="utf-8"))


def test_an_imported_module_is_found():
    source = "import dataclasses\nfrom .errors import Record\ndef f():\n    from inspect import signature\n"
    assert _imported_modules(source) == {"dataclasses", "inspect"}


@pytest.mark.parametrize("path", ALL_MODULES, ids=_name)
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


@pytest.mark.parametrize("path", ALL_MODULES, ids=_name)
def test_records_fill_slots_through_their_setters(path):
    assert _slot_writes_past_the_setters(path.read_text(encoding="utf-8")) == []


def test_a_slot_write_past_the_setters_is_caught():
    source = (
        "class Record:\n"
        "    def _set(self, *values):\n"
        "        pass\n"
        "    def __setstate__(self, state):\n"
        "        object.__setattr__(self, 'x', state)\n"
        "    def __init_subclass__(cls):\n"
        "        cls._fill = cls.__dict__['x'].__set__\n"
        "        cls._setters = ()\n"
        "class Point(Record):\n"
        "    def __init__(self, x):\n"
        "        object.__setattr__(self, 'x', x)\n"
        "        self._set(x)\n"
        "    def __setstate__(self, state):\n"
        "        object.__setattr__(self, 'x', state)\n"
        "set_x, = _setters\n"
        "Point.__dict__['x'].__set__(Point(0), 1)\n"
    )
    assert _slot_writes_past_the_setters(source) == [2, 8, 11, 12, 14, 15, 16]


@pytest.mark.parametrize("path", ALL_MODULES, ids=_name)
def test_no_class_declares_its_fields(path):
    assert _declared_fields(path.read_text(encoding="utf-8")) == []


def test_a_declared_fields_is_caught():
    source = (
        "class Record:\n"
        "    def __init_subclass__(cls):\n"
        "        cls._fields = cls.__slots__\n"
        "class Point(Record):\n"
        "    __slots__ = ('x', '_y')\n"
        "    _fields = ('x',)\n"
        "class Pair(Record):\n"
        "    _fields: tuple = ()\n"
        "    def hidden(self):\n"
        "        _fields = ()\n"
        "        return _fields\n"
        "Point._fields = ('x',)\n"
    )
    assert _declared_fields(source) == [6, 8, 12]


PYTHON_FLOOR = (3, 10)


@pytest.mark.parametrize("path", ALL_MODULES, ids=_name)
def test_every_module_parses_at_the_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=PYTHON_FLOOR)


def _floor_python():
    # (a python3.10 on PATH that runs, the environment it runs in), or None.
    # A pyenv shim for a version that is installed but not selected exits
    # nonzero; it is tried again with PYENV_VERSION naming each installed 3.10
    found = shutil.which("python3.10")
    probe = "import sys; assert sys.version_info[:2] == (3, 10)"

    def runs(env):
        return subprocess.run([found, "-c", probe], capture_output=True, timeout=60, env=env).returncode == 0

    if not found:
        return None
    if runs(os.environ):
        return found, dict(os.environ)
    pyenv = shutil.which("pyenv")
    listed = subprocess.run([pyenv, "versions", "--bare"], capture_output=True, text=True, timeout=60) if pyenv else None
    for version in listed.stdout.split() if listed else ():
        env = {**os.environ, "PYENV_VERSION": version}
        if version.split(".")[:2] == ["3", "10"] and runs(env):
            return found, env
    return None


# imports every module, prints the repr of one record of each class, then
# the checksum of the packaged atlas (through _sha256 on 3.10 and 3.11)
_FLOOR_RECORDS = f"""
import importlib
for name in {sorted(_name(p) for p in MODULES)!r}:
    importlib.import_module("weylstrata." + name)
from weylstrata.atlas import AtlasRow, CarterLabel, RepLabel, load_atlas
from weylstrata.classical import EigenOrbit, GroupDescriptor, OrbitKind, SpectralDatum, StratumResult, enumerate_strata
from weylstrata.jordan import LabeledPartition
from weylstrata.partitions import Bipartition, Partition
from weylstrata.verify import CheckResult
from weylstrata.weyl import SignedCycleType, WeylType, enumerate_classes
orbit = EigenOrbit("1", OrbitKind.INVOLUTIVE, Partition([2, 1, 1]))
rep = RepLabel("e_8", 1050, 10, 2, 1)
for record in (
    rep, AtlasRow("E8", (CarterLabel("D_4(a_1)", 4),), rep, "note"), orbit,
    SpectralDatum(GroupDescriptor("sp", 4), [orbit]), StratumResult(Bipartition([2, 1]), 3, 10),
    LabeledPartition([2, 2, 1, 1], {{2: 1}}), WeylType("c", 3), SignedCycleType([2, 1], [1]),
    CheckResult("x", True, "ok", 0.5, 1.0), enumerate_strata(GroupDescriptor("so_even", 8))[-1],
    enumerate_classes(WeylType("d", 3))[-1],
):
    print(repr(record))
print(load_atlas().checksum())
"""


def test_the_package_runs_at_the_python_floor():
    found = _floor_python()
    if found is None:
        pytest.skip("no python3.10 runs on PATH")
    floor, floor_env = found
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))

    def run(python, *args):
        env = {**(floor_env if python is floor else os.environ), "PYTHONPATH": path}
        return subprocess.run([python, *args], capture_output=True, text=True, env=env, timeout=120)

    phi = ("-m", "weylstrata.cli", "phi", "--group", "B", "--rank", "3", "--class", "1;2")
    invert = ("-m", "weylstrata.cli", "invert", "--family", "Z2", "--N", "8", "--target", "2,2")
    printed = []
    for args in (("-c", _FLOOR_RECORDS), phi, invert):
        here, there = run(sys.executable, *args), run(floor, *args)
        assert (here.returncode, here.stderr) == (0, "")
        assert (there.returncode, there.stdout, there.stderr) == (0, here.stdout, "")
        printed.append(there.stdout)
    # the floor's checksum is the sha256 of the packaged file's bytes
    packaged = (PACKAGE / "data" / "exceptional_atlas.txt").read_bytes()
    assert printed[0].splitlines()[-1] == hashlib.sha256(packaged).hexdigest()
    # verify prints its timings, so only the exit status and the verdict are compared
    here, there = (
        run(python, "-m", "weylstrata.cli", "verify", "--suite", "golden-sp2") for python in (sys.executable, floor)
    )
    assert there.returncode == here.returncode == 0
    assert json.loads(there.stdout)["payload"]["passed"] is json.loads(here.stdout)["payload"]["passed"] is True


def test_syntax_above_the_python_floor_is_caught():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError, match="3.11"):  # refused for its version, not as malformed
        ast.parse(source, feature_version=PYTHON_FLOOR)


def test_atlas_reads_without_recursion():
    source = (PACKAGE / "atlas.py").read_text(encoding="utf-8")
    assert _self_calling_functions(source) == []
    assert _recursion_error_handlers(source) == []


def test_recursion_in_a_module_is_caught():
    source = (
        "def parse_sum(text):\n"
        "    return [parse_term(t) for t in text.split('+')]\n"
        "def parse_term(term):\n"
        "    return parse_sum(term[1:-1]) if term.startswith('(') else term\n"
        "def depth(n):\n"
        "    return 0 if n == 0 else 1 + depth(n - 1)\n"
        "def caller(text):\n"
        "    return parse_sum(text)\n"
        "class Tree:\n"
        "    def walk(self, node):\n"
        "        return [self.walk(c) for c in node]\n"
        "    def size(self, node):\n"
        "        return len(node)\n"
        "def read(text):\n"
        "    try:\n"
        "        return parse_sum(text)\n"
        "    except (ValueError, RecursionError):\n"
        "        return None\n"
    )
    assert _self_calling_functions(source) == ["Tree.walk", "depth", "parse_sum", "parse_term"]
    assert _recursion_error_handlers(source) == [17]


# The point queries read enum members through module globals bound once at
# import, by name (`_GL = Series.GL`): on CPython 3.11 a read through the enum
# class costs about fifteen times a global's.  Each entry names a top-level
# function or class (all of its methods), or one method as "Class.method".
QUERY_PATHS = {
    "classical": (
        "GroupDescriptor", "_check_group", "positive_roots", "EigenOrbit", "_classifying_group", "_involutive_family",
        "SpectralDatum", "stratum_of_label", "_stratum_of_label", "classify",
    ),
    "weyl": (
        "WeylType", "_check_class", "_fixed_space_dim", "_class_runs", "_stratum_rule", "_stratum", "stratum_of_class",
    ),
    "jordan": (
        "LabeledPartition", "_runs", "_member_runs", "_runs_if_member", "_check_family", "_rule", "_emit", "_rewrite",
        "apply_bijection",
    ),
    "partitions": ("_as_int_seq", "Bipartition", "Partition", "n_invariant"),
    "errors": ("_check_int", "_check_size"),
}
ENUMS = {"Series", "OrbitKind", "WeylSeries", "JordanFamily"}


def _enum_member_reads(source: str, names) -> list[str]:
    # each attribute read through an enum class inside the named definitions;
    # a name the source does not define raises KeyError
    defs = {node.name: node for node in ast.parse(source).body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    found = []
    for name in names:
        outer, _, method = name.partition(".")
        node = defs[outer]
        if method:
            node = {fn.name: fn for fn in node.body if isinstance(fn, ast.FunctionDef)}[method]
        found += sorted(
            f"{name}, line {read.lineno}: {read.value.id}.{read.attr}"
            for read in ast.walk(node)
            if isinstance(read, ast.Attribute) and isinstance(read.value, ast.Name) and read.value.id in ENUMS
        )
    return found


@pytest.mark.parametrize("module", sorted(QUERY_PATHS))
def test_query_paths_read_no_enum_member_through_its_class(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert _enum_member_reads(source, QUERY_PATHS[module]) == []


def test_an_enum_member_read_through_its_class_is_caught():
    source = (
        "_GL = Series.GL\n"
        "class Group:\n"
        "    def __init__(self, series):\n"
        "        self.gl = series is _GL and isinstance(series, Series)\n"
        "    def rank_half(self):\n"
        "        return 1 if self.series is Series.SP else 2\n"
        "def family(series):\n"
        "    return JordanFamily.SYMPLECTIC.paired if series is WeylSeries.A else None\n"
        "def other():\n"
        "    return OrbitKind.GENERIC\n"
    )
    assert _enum_member_reads(source, ("Group.__init__", "family")) == [
        "family, line 8: JordanFamily.SYMPLECTIC", "family, line 8: WeylSeries.A",
    ]
    assert _enum_member_reads(source, ("Group",)) == ["Group, line 6: Series.SP"]
    with pytest.raises(KeyError):
        _enum_member_reads(source, ("missing",))


# The commands reach the library through its public names, which check
# what they are given; the private ones trust their caller.  Only the
# commands' own helpers in commands._shared are "_"-named.
COMMANDS = [p for p in MODULES if p.parent.name == "commands"]


def _private_library_imports(source: str, package: str) -> list[str]:
    # each "_"-prefixed name imported from a weylstrata module other than
    # weylstrata.commands._shared, relative imports resolved against the
    # module's package
    found, parts = [], package.split(".")
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        # level 1 is the package itself, each further level one package up
        base = parts[: len(parts) + 1 - node.level] if node.level else []
        module = ".".join(base + [node.module] if node.module else base)
        if module.split(".")[0] == "weylstrata" and module != "weylstrata.commands._shared":
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names if alias.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", COMMANDS, ids=_name)
def test_commands_import_no_private_weyl_name(path):
    # nor any other private library name
    assert _private_library_imports(path.read_text(encoding="utf-8"), "weylstrata.commands") == []


def test_a_private_weyl_import_is_caught():
    source = (
        "from ..weyl import WeylType, _stratum as s\n"
        "from weylstrata.weyl import _fixed_space_dim\n"
        "from ._shared import _STRATUM_FIELDS, _table_text\n"
        "from ..classical import stratum_of_label, _stratum\n"
        "from os.path import _get_sep\n"
        "from weylstrata_extra import _helper\n"
        "from .. import _MODULE_OF\n"
        "def run():\n"
        "    from ..partitions import parse_entries, _ENTRY\n"
    )
    assert _private_library_imports(source, "weylstrata.commands") == [
        "_stratum (line 1)", "_fixed_space_dim (line 2)", "_stratum (line 4)", "_MODULE_OF (line 7)",
        "_ENTRY (line 9)",
    ]


# The atlas file reaches the code that reads it as an argument: no module
# changes the process environment, which would outlive the call that set it.
_ENVIRON_MUTATORS = {"__setitem__", "__delitem__", "clear", "pop", "popitem", "setdefault", "update"}


def _is_environ(node) -> bool:
    # os.environ, or environ imported from os
    if isinstance(node, ast.Attribute):
        return node.attr == "environ" and isinstance(node.value, ast.Name) and node.value.id == "os"
    return isinstance(node, ast.Name) and node.id == "environ"


def _environment_writes(source: str) -> list[int]:
    # lines that assign to or delete from os.environ, call one of its
    # mutating methods, or call os.putenv or os.unsetenv
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Subscript, ast.Attribute)) and not isinstance(node.ctx, ast.Load):
            written = node.value if isinstance(node, ast.Subscript) else node
            if _is_environ(written):
                found.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            owner = func.value if isinstance(func, ast.Attribute) else None
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if (_is_environ(owner) and name in _ENVIRON_MUTATORS) or (
                name in ("putenv", "unsetenv") and (owner is None or getattr(owner, "id", None) == "os")
            ):
                found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", ALL_MODULES, ids=_name)
def test_no_module_writes_the_environment(path):
    assert _environment_writes(path.read_text(encoding="utf-8")) == []


def test_an_environment_write_is_caught():
    source = (
        "import os\n"
        "from os import environ, putenv\n"
        "path = os.environ.get('WEYLSTRATA_ATLAS')\n"
        "saved, value = dict(os.environ), environ['A']\n"
        "os.environ['A'] = 'x'\n"
        "del environ['A']\n"
        "os.environ.pop('A', None)\n"
        "os.environ.update(A='x')\n"
        "environ.setdefault('A', 'x')\n"
        "os.putenv('A', 'x')\n"
        "os.unsetenv('A')\n"
        "putenv('A', 'x')\n"
        "os.environ = {}\n"
        "os.environ |= {'A': 'x'}\n"
        "first, os.environ['B'] = 'x', 'y'\n"
        "def restore(saved):\n"
        "    os.environ.clear()\n"
        "    other.pop('A'); other['A'] = 1; self.putenv('A')\n"
    )
    assert _environment_writes(source) == [5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 17]


# The package reads no environment variable: the atlas file is an argument of
# load_atlas and run_suite, set from --data-file.  cli and the commands are
# left out, where a switch for the whole process would be read.
LIBRARY = [p for p in ALL_MODULES if _name(p) != "cli" and p.parent.name != "commands"]


def _environment_reads(source: str) -> list[int]:
    # lines that name os.environ or os.getenv, or environ or getenv imported from os
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
            name = node.attr
        else:
            name = node.id if isinstance(node, ast.Name) else None
        if name in ("environ", "getenv"):
            found.add(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", LIBRARY, ids=_name)
def test_no_library_module_reads_the_environment(path):
    assert _environment_reads(path.read_text(encoding="utf-8")) == []


def test_an_environment_read_is_caught():
    source = (
        "import os\n"
        "from os import environ, getenv\n"
        "path = os.environ.get('WEYLSTRATA_ATLAS')\n"
        "trace = os.getenv('A'), getenv('A'), environ['A']\n"
        "def home():\n"
        "    return 'HOME' in os.environ\n"
        "other.environ, self.getenv('A'), os.path.join('a', 'b')\n"
    )
    assert _environment_reads(source) == [3, 4, 6]


# The integer gate is errors' (_check_int, _check_size), and partitions'
# _as_int_seq for sequences of entries: the commands hand raw values to the
# record constructors, which word each refusal, and test no value's type
# against int or bool themselves.
def _integer_gates(source: str) -> list[int]:
    # lines calling isinstance(..., bool), or comparing type(...) with int by is or is not
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(kind, "id", None) == "bool" for kind in kinds):
                found.append(node.lineno)
        elif isinstance(node, ast.Compare) and all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            sides = [node.left, *node.comparators]
            typed = any(isinstance(side, ast.Call) and getattr(side.func, "id", None) == "type" for side in sides)
            if typed and any(getattr(side, "id", None) == "int" for side in sides):
                found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", COMMANDS, ids=_name)
def test_commands_make_no_integer_gate(path):
    assert _integer_gates(path.read_text(encoding="utf-8")) == []


def test_an_integer_gate_is_caught():
    source = (
        "def read(doc):\n"
        "    if any(isinstance(x, bool) or not isinstance(x, int) for x in doc):\n"
        "        raise ValueError\n"
        "    ok = all(type(p) is int for p in doc) and type(doc[0]) is not int\n"
        "    return isinstance(doc, (list, bool)), int is type(doc), type(doc) is list, isinstance(doc, int)\n"
    )
    assert _integer_gates(source) == [2, 4, 4, 5, 5]
