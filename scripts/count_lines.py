"""Line counts of the package's modules, the code lines each CLI command compiles, and its knobs.

    python3 scripts/count_lines.py

Code lines are the lines that hold a token other than a comment, a line
break or an indentation change, leaving out the lines of docstrings (the
string that opens a module, class or function body).  One row per module
under src/weylstrata, subpackages included, by its path there, then the
totals.  Then one row per command of CORPUS, the command lines that
tests/test_cold_start.py runs: the code lines of the weylstrata modules
that a fresh process running that command loads, and so compiles when no
bytecode is cached, and that process's peak resident memory in MB of
1,024 kB, as perfbench reports peak_rss_mb (VmHWM from /proc/self/status,
else resource.getrusage).  Then one row per command of weylstrata.cli's option
table: how many values its command line can set, the options every command
takes and its own, then their total; and last the number of environment
variables the package's modules read, found from their syntax trees.
"""

from __future__ import annotations

import ast
import io
import json
import os
import subprocess
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "weylstrata")

# command -> argv of weylstrata.cli.main; classify reads DATUM from stdin
CORPUS = {
    "classify": ("classify", "-"),
    "phi-classical": ("phi", "--group", "B", "--rank", "3", "--class", "1;2"),
    "phi-exceptional": ("phi", "--group", "E8", "--class", "D_7(a_1)"),
    "enumerate": ("enumerate", "--series", "Sp", "--dimension", "4"),
    "tables": ("tables", "--group", "E8"),
    "verify": ("verify", "--suite", "golden-sp2"),
    "invert": ("invert", "--family", "Z2", "--N", "6", "--target", "3"),
    "help": ("--help",),
    "usage-error": ("phi", "--group", "E8"),
}
DATUM = '{"group": {"series": "Sp", "N": 4}, "orbits": [{"id": "1", "kind": "involutive", "parts": [2, 1, 1]}]}'

# runs main() on argv, then prints the files of the weylstrata modules loaded
# and the process's peak resident memory in kB: VmHWM, else ru_maxrss (bytes on macOS)
_PROBE = """
import contextlib, io, json, sys
from weylstrata.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main(sys.argv[1:])
files = [m.__file__ for name, m in sys.modules.items() if name.split(".")[0] == "weylstrata"]
try:
    with open("/proc/self/status") as status:
        peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    import resource
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // (1024 if sys.platform == "darwin" else 1)
print(json.dumps([files, peak]))
"""

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def probe(argv) -> tuple[list[str], int]:
    """The source files of the weylstrata modules a fresh process running main(argv) loads, and its peak kB."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _PROBE, *argv], input=DATUM, capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    files, peak_kb = json.loads(done.stdout.splitlines()[-1])
    return [os.path.realpath(path) for path in files], peak_kb


def option_counts() -> dict[str, int]:
    """command -> the values its command line can set: the common options and its own."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from weylstrata import cli

    return {command: len(cli._COMMON) + len(entry[1]) for command, entry in cli._COMMANDS.items()}


def _is_os(node, name: str) -> bool:
    # os.<name>, or <name> imported from os
    if isinstance(node, ast.Attribute):
        return node.attr == name and isinstance(node.value, ast.Name) and node.value.id == "os"
    return isinstance(node, ast.Name) and node.id == name


def _environment_key(node):
    # the key of an environment read: os.environ.get(key), os.getenv(key),
    # os.environ[key] or key in os.environ; None for any other node
    if isinstance(node, ast.Call) and node.args:
        func = node.func
        got = isinstance(func, ast.Attribute) and func.attr == "get" and _is_os(func.value, "environ")
        if got or _is_os(func, "getenv"):
            return node.args[0]
    elif isinstance(node, ast.Subscript) and _is_os(node.value, "environ"):
        return node.slice
    elif isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn)):
        return node.left if _is_os(node.comparators[0], "environ") else None
    return None


def environment_variables(sources) -> set[str]:
    """The environment variables that the given module sources read.

    A key is a string, or a module-level name bound to one, whose string
    is counted; any other key is counted by its text.
    """
    found: set[str] = set()
    for source in sources:
        tree = ast.parse(source)
        strings = {
            target.id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(getattr(node.value, "value", None), str)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            key = _environment_key(node)
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                found.add(key.value)
            elif isinstance(key, ast.Name):
                found.add(strings.get(key.id, key.id))
            elif key is not None:
                found.add(ast.unparse(key))
    return found


def main() -> None:
    totals, code_of, sources = [0, 0], {}, []
    print(f"{'module':<20} {'lines':>6} {'code':>6}")
    paths = (os.path.join(folder, name) for folder, _, names in os.walk(PACKAGE) for name in names)
    for path in sorted(p for p in paths if p.endswith(".py")):
        with open(path, encoding="utf-8") as handle:
            sources.append(handle.read())
        lines, code = count(sources[-1])
        totals, code_of[os.path.realpath(path)] = [totals[0] + lines, totals[1] + code], code
        print(f"{os.path.relpath(path, PACKAGE):<20} {lines:>6} {code:>6}")
    print(f"{'total':<20} {totals[0]:>6,} {totals[1]:>6,}")
    print(f"\n{'command':<20} {'code':>13} {'peak MB':>9}")
    for command, argv in CORPUS.items():
        files, peak_kb = probe(argv)
        print(f"{command:<20} {sum(code_of[path] for path in files):>13,} {peak_kb / 1024:>9.1f}")
    options = option_counts()
    print(f"\n{'command':<20} {'options':>13}")
    for command, n in options.items():
        print(f"{command:<20} {n:>13}")
    print(f"{'total':<20} {sum(options.values()):>13}")
    print(f"{'environment':<20} {len(environment_variables(sources)):>13}")


if __name__ == "__main__":
    main()
