"""verify: run the recorded verification checks."""

from __future__ import annotations

from ..verify import CheckResult, run_suite


def run(args) -> tuple[dict, list[str]]:
    results = run_suite(None if args.suite == "all" else (args.suite,), args.data_file)
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
