"""Command-line interface.

Every invocation runs exactly one subcommand and writes a single result
envelope to standard output: {"status": "ok"|"error", "payload": ...,
"diagnostics": [...]}.  The exceptions are a successful `tables --raw`,
which writes the table file's bytes verbatim, and -h/--help.  The JSON shape
is described in data/envelope.schema.json.  Exit codes: 0 success, 1 domain
error, 2 usage error (a usage_error envelope, in JSON whatever --format says),
3 consistency failure (a recorded claim was falsified).

The command line is read against one option table, _COMMANDS, by the rules
argparse applies; tests/test_cli.py keeps an argparse parser as the reference.

Each command's handler and table renderer live in its own module of
weylstrata.commands, and main imports only the module of the command it
runs; that module imports the package modules the command uses.  So a
process compiles only its own command and the library code it calls, and
a help request or a usage error imports no command module.
"""

from __future__ import annotations

import json
import re
import sys
from importlib import import_module
from types import SimpleNamespace

from .errors import ConsistencyError, DomainError


def _emit(status: str, payload, diagnostics: list, fmt: str, renderer=None) -> None:
    """Write the envelope {"status", "payload", "diagnostics"} of these parts in fmt.

    In table format an error is its code and message on one line, and a
    success is the renderer's text of the payload; either is followed by one
    "# " line per diagnostic.
    """
    if fmt == "json":
        envelope = {"status": status, "payload": payload, "diagnostics": diagnostics}
        sys.stdout.write(json.dumps(envelope, sort_keys=True, indent=2) + "\n")
        return
    if renderer is None:
        sys.stdout.write(f"error [{payload['code']}]: {payload['message']}\n")
    else:
        sys.stdout.write(renderer(payload))
    for note in diagnostics:
        sys.stdout.write(f"# {note}\n")


def _one_of(words):
    """A converter that passes the words that words() returns and refuses any other."""

    def check(word: str) -> str:
        if word not in words():
            raise ValueError(f"invalid choice: {word!r} (choose from {', '.join(map(repr, words()))})")
        return word

    return check


def _suite_names() -> tuple[str, ...]:
    from .verify import check_names

    return ("all",) + check_names()


def _flag(value) -> bool:
    """The converter of an option that takes no value."""
    if value is not None:
        raise ValueError(f"ignored explicit argument {value!r}")
    return True


# An option is (name, dest, kind, default, help): kind converts the value (int, str,
# an _one_of check, or _flag), and the default ... marks an option that must be
# given.  A name without dashes is the command's positional argument.
_HELP = (("-h", None, _flag, None, ""), ("--help", None, _flag, None, "show this help message and exit"))
_COMMON = (("--format", "format", _one_of(lambda: ("json", "table")), "json", "json (default) or table"),)
# the first option of each command that reads the exceptional tables
_DATA_FILE = ("--data-file", "data_file", str, None, "override the packaged strata table file")

# command -> (help, options).  Each command is also the name of its module in
# weylstrata.commands, whose run(args) returns (payload, diagnostics) and
# whose render(payload) is the text of --format table.
_COMMANDS = {
    "classify": ("classify a spectral datum into its stratum", (
        ("input", "input", str, ..., "path to a JSON spectral datum, or - for stdin"),)),
    "phi": ("map a Weyl conjugacy class to its stratum", (
        _DATA_FILE,
        ("--group", "group", str, ..., "A, B, C, D (with --rank) or G2, F4, E6, E7, E8"),
        ("--rank", "rank", int, None, "rank for classical series"),
        ("--class", "class_label", str, ..., "cycle lengths '3,1' (A) or '3,1;2' (B/C/D), or a label 'D_7(a_1)'"),
        ("--rep", "rep", str, None, "representation hint 'd_n[*r][#k]' when the class name is ambiguous"),)),
    "enumerate": ("enumerate the strata of a classical group", (
        ("--series", "series", str, ..., "GL, Sp, SO, SO_odd or SO_even"),
        ("--dimension", "dimension", int, ..., "size N of the group GL_N/Sp_N/SO_N"),
        ("--char", "char", int, 0, "field characteristic (default 0)"),)),
    "tables": ("dump rows of the exceptional strata table", (
        _DATA_FILE,
        ("--group", "group", str, ..., "G2, F4, E6, E7 or E8"),
        ("--char", "char", int, None, "keep only strata with unipotent classes in this characteristic"),
        ("--rep", "rep", str, None, "keep only the row for this representation"),
        ("--class", "class_label", str, None, "keep only rows containing this class"),
        ("--raw", "raw", _flag, False, "write the table file bytes verbatim and exit"),)),
    "verify": ("run the recorded verification checks", (
        _DATA_FILE,
        ("--suite", "suite", _one_of(_suite_names), "all", "which check to run (default all)"),)),
    "invert": ("find the preimage of a stratum under a family bijection", (
        ("--family", "family", str, ..., "Z1, Z2, Z1P, Z2P or a family name like symplectic_char2"),
        ("--N", "N", int, ..., "weight of the preimage"),
        ("--target", "target", str, ..., "bipartition entries, e.g. '2,0,1'"),)),
}
# the words before the command: the first value names the command, which reads the rest
_TOP = (("command", "command", _one_of(lambda: tuple(_COMMANDS)), ..., "one of:"),)


class _UsageError(Exception):
    """A refused command line, as (command or None, message): main exits 2."""


def _help(command) -> str:
    """The help text of a command, or of the tool; its first line is the usage line."""
    table = _COMMON + _COMMANDS[command][1] if command else _TOP
    spelled = [o[0] if o[2] is _flag or o[0][0] != "-" else f"{o[0]} {o[1].upper()}" for o in table]
    usage = " ".join(s if o[3] is ... else f"[{s}]" for s, o in zip(spelled, table))
    rows = [("-h, --help", _HELP[1][4]), *zip(spelled, (o[4] for o in table))]
    if command is None:
        rows += [(f"  {name}", entry[0]) for name, entry in _COMMANDS.items()]
    about = _COMMANDS[command][0] if command else "Stratifications of classical and exceptional groups."
    return (f"usage: weylstrata {command + ' ' if command else ''}[-h] {usage}\n\n{about}\n\n"
            + "".join(f"  {left:<22} {text}\n" for left, text in rows))


def _option(word: str, names, command) -> tuple | None:
    """How argparse reads a word before a command's '--': None for a value, else
    (option name, the text after '=' or None), the name None for an unknown option."""
    if word[:1] != "-" or word in ("-", "--"):
        return None
    # -h, the one short option, takes what runs on after it as its value
    head, eq, value = ("-h", word[2:], word[2:]) if word[:2] == "-h" else word.partition("=")
    # a long option may be shortened to a prefix of one name
    found = [head] if head in names else [n for n in names if word[1] == "-" and n.startswith(head)]
    if len(found) > 1:
        raise _UsageError(command, f"ambiguous option: {word} could match {', '.join(found)}")
    if found:
        return found[0], value if eq else None
    # a dash and a number, or a word with a space, is a value
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", word) or " " in word else (None, None)


def _read(command, words: list[str], extras=()):
    """The values of a command line as argparse read them, or the help text asked
    for.  With command None the first value names the command, which reads the
    words after it; extras are the words already left over."""
    table = _COMMON + _COMMANDS[command][1] if command else _TOP
    options = {o[0]: o for o in _HELP + table}
    values = {o[1]: o[3] for o in table}
    positional = next((o[0] for o in table if o[0][0] != "-"), None)
    # after a command's first '--' every word is a value; (None, None) marks the '--' and the end
    cut = words.index("--") if command and "--" in words else len(words)
    read = [_option(word, tuple(options), command) for word in words[:cut]]
    read += [(None, None)] + [None] * (len(words) - cut - 1)
    extras, taken, i = list(extras), None, 0
    while i < len(words):
        how, word, i = read[i], words[i], i + 1
        # a value is the positional's, if the command has one and it is not yet given
        name, value = how or (positional, word)
        if name is None or how is None and values[name] is not ...:
            extras.append(word)
            continue
        if how is None:
            taken = i - 1
        elif value is None and options[name][2] is not _flag:
            if read[i] is not None:
                raise _UsageError(command, f"argument {name}: expected one argument")
            value, i = words[i], i + 1
        try:
            value = options[name][2](value)
        except ValueError as err:
            raise _UsageError(command, f"argument {name}: {err}")
        if name in ("-h", "--help"):
            return _help(command)
        if command is None:
            return _read(value, words[i:], extras)
        values[options[name][1]] = value
    missing = [o[0] for o in table if values[o[1]] is ...]
    if missing:
        raise _UsageError(command, f"the following arguments are required: {', '.join(missing)}")
    # a '--' next to the positional's value is read with it
    if cut < len(words) and taken in (cut - 1, cut + 1):
        extras.remove("--")
    if extras:
        raise _UsageError(command, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, **values)


def main(argv=None) -> int:
    try:
        args = _read(None, sys.argv[1:] if argv is None else list(argv))
    except _UsageError as err:
        command, message = err.args
        sys.stderr.write(f"{_help(command).splitlines()[0]}\nweylstrata: error: {message}\n")
        # a usage error is a JSON envelope whatever --format says
        _emit("error", {"code": "usage_error", "message": message}, [], "json")
        return 2
    if isinstance(args, str):
        # a help request is its text, not an envelope
        sys.stdout.write(args)
        return 0
    command = import_module(f".commands.{args.command}", __package__)
    try:
        payload, diagnostics = command.run(args)
    except (DomainError, ConsistencyError) as err:
        _emit("error", {"code": err.code, "message": str(err)}, [], args.format)
        return 3 if isinstance(err, ConsistencyError) else 1
    if isinstance(payload, str):
        # tables --raw: the table file bytes, not an envelope
        sys.stdout.write(payload)
        return 0
    _emit("ok", payload, diagnostics, args.format, command.render)
    # only verify reports "passed"; a falsified check is a consistency failure
    return 3 if payload.get("passed") is False else 0


if __name__ == "__main__":
    sys.exit(main())
