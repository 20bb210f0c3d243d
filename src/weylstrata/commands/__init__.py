"""The command-line commands, one module each.

Each command module has ``run(args) -> (payload, diagnostics)`` and
``render(payload) -> str``, the text of ``--format table``.
``weylstrata.cli`` reads the command line and imports only the module of
the command it runs, so a process compiles no other command's code.
``_shared`` holds what two commands both use.

No module here imports ``weylstrata.cli``: under ``python -m
weylstrata.cli`` that module runs as ``__main__``, so importing it would
compile and run it a second time.
"""
