"""Output checks: right answers pass, a deliberately wrong one counts as failed."""

import json
import os

import jsonschema
import pytest

import checks as C
import run as R
import workloads as W

SCHEMA = os.path.join(W.DATA, "envelope.schema.json")


@pytest.fixture(scope="module")
def validator():
    with open(SCHEMA, encoding="utf-8") as handle:
        return jsonschema.Draft7Validator(json.load(handle))


def test_stratum_rows():
    # Sp_4: the stratum (0, 2) has n-invariant 2 and class dimension 2*4 - 2*2
    assert C.stratum_problem("Sp", 4, ((0, 2), 2, 4, None)) is None
    assert C.stratum_problem("Sp", 4, ((0, 2), 2, 6, None))  # wrong dimension
    assert C.stratum_problem("Sp", 4, ((0, 3), 3, 2, None))  # wrong weight
    # SO_4: 2 positive roots, so (1, 1) with n-invariant 1 has class dimension 2
    assert C.stratum_problem("SO_even", 4, ((1, 1), 1, 2, True)) is None
    assert C.stratum_problem("SO_even", 4, ((1, 1), 1, 2, False))  # wrong degeneracy


def test_listings():
    assert C.bipartitions_problem(2, (2, 2), [(2,), (1, 1), (1, 0, 1), (0, 2), (0, 1, 0, 1)]) is None
    assert C.bipartitions_problem(2, (2, 2), [(2,), (1, 1), (1, 0, 1), (0, 2)])  # one missing
    assert C.bipartitions_problem(2, (2, 2), [(1, 1), (2,), (1, 0, 1), (0, 2), (0, 1, 0, 1)])  # out of order
    assert C.jordan_problem("Z1", 4, [((4,), None), ((2, 2), None), ((2, 1, 1), None), ((1, 1, 1, 1), None)]) is None
    assert C.jordan_problem("Z1", 4, [((4,), None), ((3, 1), None)])


def test_preimage_round_trip():
    assert C.preimage_problem("Z1", 4, (2,), (4,), None, (2,)) is None
    assert C.preimage_problem("Z1", 4, (2,), (4,), None, (1, 1))


def test_envelopes(validator):
    ok = json.dumps({"status": "ok", "payload": {"d": 1}, "diagnostics": []}).encode()
    op = {"kind": "invert", "family": "Z1", "N": 4, "expect": "ok"}
    assert C.envelope_problem(validator, op, 1, ok) == "exit 1, expected 0"
    good = {"status": "ok", "payload": {"parts": [4]}, "diagnostics": []}
    assert C.envelope_problem(validator, op, 0, json.dumps(good).encode()) is None
    bad = {"status": "ok", "payload": {"parts": [3, 1]}, "diagnostics": []}
    assert C.envelope_problem(validator, op, 0, json.dumps(bad).encode())
    unknown = {"status": "ok", "payload": {"parts": [4]}, "diagnostics": [], "extra": 1}
    assert "schema" in C.envelope_problem(validator, op, 0, json.dumps(unknown).encode())


def test_error_envelopes_hit_the_schema_oneof_defect(validator):
    err = {"status": "error", "payload": {"code": "bad_group", "message": "no"}, "diagnostics": []}
    op = {"kind": "error", "expect": "bad_group"}
    problem = C.envelope_problem(validator, op, 1, json.dumps(err).encode())
    assert isinstance(problem, C.KnownDefect)
    wrong_code = C.envelope_problem(validator, {"kind": "error", "expect": "bad_rep"}, 1, json.dumps(err).encode())
    assert wrong_code and not isinstance(wrong_code, C.KnownDefect)


class _OneWrongAnswer(W.Invert):
    """The invert workload with its first preimage replaced by a wrong one."""

    wrong = True

    def execute(self, op, tr):
        elapsed, out = super().execute(op, tr)
        if self.wrong:
            self.wrong = False
            parts, labels, image = out[1]
            out = ("ok", (parts, labels, tuple(image) + (1,)))
        return elapsed, out


def test_a_wrong_answer_counts_as_failed():
    res = W.run(_OneWrongAnswer(), seed=1, cycles=1)
    assert res.attempted == 20 and res.failed == 1
    assert not res.correct
    clean = W.run(W.Invert(), seed=1, cycles=1)
    assert clean.failed == 0 and clean.correct
    assert clean.input_digest == res.input_digest != ""
    assert clean.output_digest != res.output_digest


def test_benchmark_json_lists_what_the_runner_reports():
    with open(os.path.join(W.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == R.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == R.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
