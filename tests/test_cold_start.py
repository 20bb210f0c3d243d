"""A CLI process imports only the package modules its command uses.

``import weylstrata`` imports no submodule: each public name is looked up
in its defining module on first access (PEP 562).  Each command imports
its own modules, so a fresh process of one command leaves the others'
modules unloaded.  Import sets are read in fresh interpreters, since this
one has imported everything already.

Each command also loads only its own module of ``weylstrata.commands``,
and a help request or a usage error loads none.  The weight-n listing
(``enumeration``) and the Jordan set operations (``jordan_inverse``) load
only for the commands that run them.  Under ``python -m weylstrata.cli``
the CLI runs as ``__main__``, and no module imports ``weylstrata.cli`` a
second time.  The commands are the corpus of ``scripts/count_lines.py``,
which prints the code lines each of them loads and its peak memory.

No command loads ``hashlib`` or OpenSSL (``_hashlib``): the atlas checksum
that ``tables`` prints comes from the interpreter's own sha256 module.  No
command loads ``dataclasses`` or ``inspect``, nor ``argparse``, ``gettext``
or ``locale``: the command line is read from the CLI's own option table.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylstrata

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the script is loaded by file path, as it is not part of the package
_spec = importlib.util.spec_from_file_location("count_lines", ROOT / "scripts" / "count_lines.py")
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)
CORPUS = count_lines.CORPUS

# runs main() on argv
_MAIN = """
import contextlib, io, json, sys
from weylstrata.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        main(sys.argv[1:])
    except SystemExit:
        pass
"""
# ...then prints the weylstrata submodules loaded
_PROBE = _MAIN + """
print(json.dumps(sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("weylstrata."))))
"""
# ...then prints which of these standard-library modules are loaded
_STDLIB = ("dataclasses", "inspect", "hashlib", "_hashlib", "argparse", "gettext", "locale")
_STDLIB_PROBE = _MAIN + f"""
print(json.dumps([m for m in {_STDLIB!r} if m in sys.modules]))
"""

_DATUM = '{"group": {"series": "Sp", "N": 4}, "orbits": [{"id": "1", "kind": "involutive", "parts": [2, 1, 1]}]}'


def _run(*args: str, stdin: str = "") -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )


def _loaded(code: str, *argv: str, stdin: str = "") -> set[str]:
    done = _run("-c", code, *argv, stdin=stdin)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_bare_import_loads_no_submodule():
    code = "import json, sys, weylstrata; print(json.dumps([m for m in sys.modules if m.startswith('weylstrata.')]))"
    assert _loaded(code) == set()


@pytest.mark.parametrize(
    "argv",
    [
        ("phi", "--group", "E8", "--class", "D_7(a_1)"),
        ("tables", "--group", "E8"),
        ("invert", "--family", "Z2", "--N", "6", "--target", "3"),
        pytest.param(("tables", "--group", "E8", "--char", "2"), id="tables-char"),
    ],
    ids=lambda argv: argv[0],
)
def test_exceptional_and_invert_commands_load_no_classical_module(argv):
    assert _loaded(_PROBE, *argv).isdisjoint({"classical", "weyl", "verify"})


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "-"),
        ("phi", "--group", "B", "--rank", "3", "--class", "1;2"),
        ("enumerate", "--series", "Sp", "--dimension", "4"),
        ("tables", "--group", "E8", "--char", "2"),
        ("phi", "--group", "E9", "--class", "A_1"),
        ("phi", "--group", "E8"),
        ("verify", "--suite", "golden-sp2"),
    ],
    ids=["classify", "phi-classical", "enumerate", "tables-char", "domain-error", "usage-error", "verify"],
)
def test_only_verify_loads_verify(argv):
    loaded = _loaded(_PROBE, *argv, stdin=_DATUM)
    assert "cli" in loaded
    assert ("verify" in loaded) == (argv[0] == "verify")


@pytest.mark.parametrize("command", CORPUS)
def test_commands_load_no_dataclasses_inspect_or_hashlib(command):
    # tables too: the atlas checksum uses the interpreter's own sha256 module
    assert _loaded(_STDLIB_PROBE, *CORPUS[command], stdin=count_lines.DATUM) == set()


@pytest.mark.parametrize(
    "argv",
    [
        ("phi", "--group", "E8", "--class", "D_7(a_1)"),
        ("phi", "--group", "B", "--rank", "3", "--class", "1;2"),
        ("classify", "-"),
        ("enumerate", "--series", "Sp", "--dimension", "4"),
        ("invert", "--family", "Z2", "--N", "6", "--target", "3"),
        ("tables", "--group", "E8"),
        ("verify", "--suite", "golden-sp2"),
        ("verify", "--suite", "no-such-suite"),
        ("phi", "--group", "E8"),
        ("phi", "--help"),
    ],
    ids=["phi-exceptional", "phi-classical", "classify", "enumerate", "invert", "tables", "verify",
         "verify-usage-error", "usage-error", "help"],
)
def test_no_command_loads_argparse_gettext_or_locale(argv):
    # the command line is read from the option table of weylstrata.cli
    assert _loaded(_STDLIB_PROBE, *argv, stdin=_DATUM).isdisjoint({"argparse", "gettext", "locale"})


def test_every_public_name_is_its_defining_modules_object():
    for name in weylstrata.__all__:
        if name != "__version__":
            module = importlib.import_module(f"weylstrata.{weylstrata._MODULE_OF[name]}")
            assert getattr(weylstrata, name) is getattr(module, name), name


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from weylstrata import *", namespace)
    assert set(weylstrata.__all__) <= set(namespace)
    assert set(weylstrata.__all__) <= set(dir(weylstrata))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        weylstrata.no_such_name


@pytest.mark.parametrize("command", CORPUS)
def test_each_command_loads_only_its_own_command_module(command):
    argv = CORPUS[command]
    loaded = _loaded(_PROBE, *argv, stdin=count_lines.DATUM)
    own = set() if command in ("help", "usage-error") else {f"commands.{argv[0]}"}
    assert {m for m in loaded if m.startswith("commands.")} - {"commands._shared"} == own
    assert ("commands" in loaded) == bool(own)
    if command in ("classify", "phi-classical", "phi-exceptional"):
        assert loaded.isdisjoint({"enumeration", "jordan_inverse"})
    if command == "invert":
        assert "enumeration" not in loaded


@pytest.mark.parametrize("command", CORPUS)
def test_no_module_imports_the_cli_run_as_main(command):
    # under -m the running CLI is __main__; an import of weylstrata.cli
    # would compile and run cli.py a second time
    done = _run("-X", "importtime", "-m", "weylstrata.cli", *CORPUS[command], stdin=count_lines.DATUM)
    imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")]
    assert "weylstrata.errors" in imported  # the log was read
    assert "weylstrata.cli" not in imported


def test_count_lines_sums_the_files_a_command_loads():
    package = SRC / "weylstrata"
    loaded, peak_kb = count_lines.probe(CORPUS["phi-exceptional"])
    files = {Path(f).relative_to(package).as_posix() for f in loaded}
    assert files == {
        "__init__.py", "cli.py", "errors.py", "atlas.py", "commands/__init__.py", "commands/_shared.py",
        "commands/phi.py",
    }
    # the probe's peak resident memory, in kB
    assert type(peak_kb) is int and 1_000 < peak_kb < 1_000_000


def test_count_lines_counts_the_values_each_command_line_sets():
    # --format on every command, --data-file only on those that read an atlas
    from weylstrata import cli

    assert count_lines.option_counts() == {
        "classify": 2, "phi": 6, "enumerate": 4, "tables": 7, "verify": 3, "invert": 4,
    }
    assert sum(count_lines.option_counts().values()) == 26
    assert [o[0] for o in cli._COMMON] == ["--format"]
    assert [c for c, (_, options) in cli._COMMANDS.items() if options[0][0] == "--data-file"] == ["phi", "tables", "verify"]


def test_count_lines_counts_the_environment_variables_the_package_reads():
    # none: the atlas file is an argument, and no variable chooses it
    package = SRC / "weylstrata"
    sources = [path.read_text(encoding="utf-8") for path in sorted(package.rglob("*.py"))]
    assert count_lines.environment_variables(sources) == set()
    sample = (
        "import os\n"
        "from os import environ, getenv\n"
        "ATLAS_ENV_VAR = 'WEYLSTRATA_ATLAS'\n"
        "def load_atlas(path=None):\n"
        "    return path or os.environ.get(ATLAS_ENV_VAR)\n"
        "trace = os.getenv('WEYLSTRATA_TRACE'), getenv('WEYLSTRATA_TRACE', '0')\n"
        "home = 'HOME' not in os.environ, environ['USER'], os.environ[key]\n"
        "other = os.path.join('A', 'B'), config.get('C'), self.environ['D'], os.environ.copy()\n"
    )
    assert count_lines.environment_variables([sample]) == {
        "WEYLSTRATA_ATLAS", "WEYLSTRATA_TRACE", "HOME", "USER", "key",
    }
