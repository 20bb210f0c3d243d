"""verify: run the recorded verification checks."""

from __future__ import annotations

import os

from ..atlas import ATLAS_ENV_VAR
from ..verify import CheckResult, check_names, run_suite


def run(args) -> tuple[dict, list[str]]:
    names = check_names() if args.suite == "all" else (args.suite,)
    # checks load the atlas themselves; route the override through the env var
    saved = os.environ.get(ATLAS_ENV_VAR)
    if args.data_file is not None:
        os.environ[ATLAS_ENV_VAR] = os.path.abspath(args.data_file)
    try:
        results = run_suite(names)
    finally:
        if saved is None:
            os.environ.pop(ATLAS_ENV_VAR, None)
        else:
            os.environ[ATLAS_ENV_VAR] = saved
    # each row holds exactly the fields of CheckResult, so the renderer rebuilds it
    payload = {
        "passed": all(r.passed for r in results),
        "results": [dict(zip(r._fields, r._values(r)), seconds=round(r.seconds, 6)) for r in results],
    }
    return payload, []


def render(payload: dict) -> str:
    lines = [CheckResult(**row).line() for row in payload["results"]]
    lines.append("all checks passed" if payload["passed"] else "verification FAILED")
    return "\n".join(lines) + "\n"
