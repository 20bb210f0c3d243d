"""The four workloads: what one cycle asks, how it runs, how it is checked.

Load comes from one closed-loop client: the next request starts when the
previous one has returned, and at most one child process runs at a time.
A request's latency covers the library call (in-process workloads) or the
whole child process (cli-mix); checking and input generation are outside it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from time import perf_counter, perf_counter_ns

import checks as C
import sampler as S
from child import MARK
from spans import NullTracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(SRC, "weylstrata", "data")
CHILD = os.path.join(ROOT, "perfbench", "child.py")
OUT = os.path.join(ROOT, ".perfbench")

CHILD_ENV = {**os.environ, "PYTHONPATH": SRC}

# The host's speed drifts by up to 1.6x over tens of seconds, as neighbours
# come and go.  So between requests the benchmark times a fixed reference
# task of its own, once REFERENCE_SPACING times the last reference's
# duration has passed, and reports each latency scaled by NOMINAL / (mean
# of the reference times around it): the latency at the host speed where
# the reference takes NOMINAL.  Both commits of a comparison run the same
# reference code.
REFERENCE_SPACING = 5


def run_child(args: list[str], stdin: bytes = b"", timeout: float = 60):
    """One child process, waited for; returns (exit code, stdout, stderr, records)."""
    proc = subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, cwd=ROOT, env=CHILD_ENV, timeout=timeout
    )
    records = [
        json.loads(line[len(MARK):])
        for line in proc.stderr.decode(errors="replace").splitlines()
        if line.startswith(MARK)
    ]
    return proc.returncode, proc.stdout, proc.stderr, records


def spawn_reference() -> int:
    """Wall time of a bare `python -c pass`, the reference for process workloads."""
    start = perf_counter_ns()
    run_child(["-c", "pass"])
    return perf_counter_ns() - start


def cpu_reference() -> int:
    """Wall time of a fixed pure-Python task, the reference for in-process workloads."""
    start = perf_counter_ns()
    rng = S.rng_for("reference", 0, 0)
    for series in S.SERIES * 7:
        S.spectral_datum(rng, series, 0, 16)
    return perf_counter_ns() - start


class RunResult:
    """Per-request latencies and outcomes of one run of a workload."""

    def __init__(self, name: str, nominal_ns: float):
        self.name = name
        self.nominal_ns = nominal_ns
        self.latencies_ns: list[int] = []  # as timed
        self.scaled_ns: list[float] = []  # at the nominal host speed, in the same order
        self.references_ns: list[int] = []
        self.work = 0  # requests, queries, emitted items or preimages, by workload
        self.attempted = self.failed = self.rejected = self.repeats = self.cycles = 0
        self.problems: list[str] = []  # failures other than the known defects
        self.known: dict[str, int] = {}  # known defect -> failures it caused
        self.input_digest = self.output_digest = ""
        self._seen: set[int] = set()

    def record(self, op: dict, elapsed_ns: int, problem: str | None, work: int) -> None:
        self.attempted += 1
        self.latencies_ns.append(elapsed_ns)
        key = hash(S.canonical(op))
        self.repeats += key in self._seen
        self._seen.add(key)
        if problem is None:
            self.work += work
            self.rejected += op["expect"] != "ok"
            return
        self.failed += 1
        if isinstance(problem, C.KnownDefect):
            self.known[problem] = self.known.get(problem, 0) + 1
        else:
            self.problems.append(f"{op['kind']}: {problem}")

    def reference(self, ns: int) -> None:
        """A new reference time: scale the requests since the previous one."""
        if self.references_ns:
            factor = 2 * self.nominal_ns / (self.references_ns[-1] + ns)
            self.scaled_ns += [x * factor for x in self.latencies_ns[len(self.scaled_ns):]]
        self.references_ns.append(ns)

    @property
    def correct(self) -> bool:
        """Every failure is a known defect."""
        return not self.problems


def run(wl, seed: int, seconds: float | None = None, cycles: int | None = None, tracer=None) -> RunResult:
    """Whole cycles, until `cycles` are done or `seconds` have passed."""
    tracer = tracer or NullTracer()
    tracer.workload = wl.name
    wl.prepare()
    res = RunResult(wl.name, wl.NOMINAL_NS)
    res.reference(wl.reference())
    start = last_reference = perf_counter()
    spacing = REFERENCE_SPACING * res.references_ns[-1] / 1e9
    while (res.cycles < cycles) if cycles is not None else (res.cycles == 0 or perf_counter() - start < seconds):
        ops = wl.cycle(seed, res.cycles)
        outputs = []
        for op in ops:
            elapsed_ns, out = wl.execute(op, tracer)
            problem = wl.check(op, out)
            res.record(op, elapsed_ns, problem, wl.work(out))
            if res.cycles == 0:
                outputs.append(out)
            if perf_counter() - last_reference >= spacing:
                res.reference(wl.reference())
                last_reference = perf_counter()
                spacing = REFERENCE_SPACING * res.references_ns[-1] / 1e9
        if res.cycles == 0:
            res.input_digest, res.output_digest = S.digest(ops), S.digest(outputs)
        res.cycles += 1
    res.reference(wl.reference())
    return res


def _call(lib, fn, *args):
    """(status, value): ok, rejected with a DomainError code, or raised otherwise."""
    try:
        return "ok", fn(*args)
    except lib.DomainError as err:
        return "rejected", err.code
    except Exception as err:  # the query failed; check() reports it
        return "raised", f"{type(err).__name__}: {err}"


def _outcome_problem(op: dict, out) -> str | None:
    """Whether a refusal was expected, and with which error code."""
    status, value = out
    if op["expect"] == "ok":
        return None if status == "ok" else f"{status}: {value}"
    if status != "rejected":
        return f"invalid input was not rejected: {status} {value}"
    if op["expect"] != "error" and value != op["expect"]:
        return f"rejected with {value!r}, expected {op['expect']!r}"
    return None


class _InProcess:
    lib = None
    NOMINAL_NS = 3e6
    reference = staticmethod(cpu_reference)

    def prepare(self):
        if self.lib is not None:
            return
        import weylstrata

        self.lib = weylstrata
        self.families = dict(zip(S.FAMILIES, (
            weylstrata.JordanFamily.SYMPLECTIC,
            weylstrata.JordanFamily.SYMPLECTIC_CHAR2,
            weylstrata.JordanFamily.ORTHOGONAL,
            weylstrata.JordanFamily.ORTHOGONAL_CHAR2,
        )))
        weylstrata.load_atlas()  # the atlas parse is set-up, not a query
        self._prepare_inputs()

    def _prepare_inputs(self):
        pass

    def peak_rss_kb(self, trace: bool) -> int:
        """A fresh process runs one fixed cycle (seed 0), dropping each answer."""
        code, _, stderr, records = run_child([CHILD, "rss", self.name, "1" if trace else "0"], timeout=120)
        if code != 0:
            raise RuntimeError(f"memory probe failed:\n{stderr.decode(errors='replace')}")
        return records[-1]["maxrss_kb"]

    def work(self, out) -> int:
        return 1


RANKS = range(8, 25)


class PointQueries(_InProcess):
    """Small classification and lookup queries built from raw integers."""

    name = "point-queries"

    def _prepare_inputs(self):
        index = S.class_index(S.read_atlas(os.path.join(DATA, "exceptional_atlas.txt")))
        self.reps = {key: reps[0] for key, reps in index.items() if len(reps) == 1}
        self.labels = sorted(self.reps)
        self.ambiguous = sorted(key for key, reps in index.items() if len(reps) > 1)

    def cycle(self, seed: int, c: int) -> list[dict]:
        rng = S.rng_for(self.name, seed, c)
        ops = []
        for series in S.SERIES:
            for _ in range(11):
                doc = S.spectral_datum(rng, series, rng.choice((0, 2, 3)), rng.randint(8, 24))
                ops.append({"kind": "classify", "doc": doc, "expect": "ok"})
        # ranks weighted by how many inputs they have, so inputs rarely repeat
        for series in ("B", "D"):
            for _ in range(11):
                rank = rng.choices(RANKS, [S.signed_class_count(series, r) for r in RANKS])[0]
                pos, neg = S.signed_cycle_type(rng, series, rank)
                ops.append({"kind": "weyl", "series": series, "rank": rank, "pos": pos, "neg": neg, "expect": "ok"})
        # the atlas names only a few hundred classes, so these repeat within a run
        for _ in range(5):
            group, label = rng.choice(self.labels)
            ops.append({"kind": "rep", "group": group, "label": label, "rep": self.reps[group, label], "expect": "ok"})
        for family in S.FAMILIES:
            sizes = range(16, 50) if family == "Z1P" else range(16, 50, 2)
            for _ in range(6):
                N = rng.choices(sizes, [S.jordan_count(family, N) for N in sizes])[0]
                parts, labels = S.jordan_type(rng, family, N)
                ops.append({"kind": "apply", "family": family, "parts": parts, "labels": labels, "expect": "ok"})
        ops += self._invalid(rng)
        rng.shuffle(ops)
        return ops

    def _invalid(self, rng) -> list[dict]:
        """One of each kind of input the library must refuse with a DomainError."""
        parts = ()
        while len(set(parts)) < 2:
            parts = S.partition(rng, rng.randint(8, 24))
        labeled = ((), {})
        while not labeled[1]:
            labeled = S.jordan_type(rng, "Z2", 2 * rng.randint(4, 12))
        doc = S.spectral_datum(rng, rng.choice(S.SERIES), rng.choice((0, 2, 3)), rng.randint(8, 24))
        doc["group"]["N"] += 1 if doc["group"]["series"] == "GL" else 2
        rank = rng.randint(8, 24)
        neg = ()
        while len(neg) % 2 == 0:
            pos, neg = S.signed_cycle_type(rng, "B", rank)
        group, label = rng.choice(self.ambiguous)
        return [
            {"kind": "apply", "family": "Z1P", "parts": parts[::-1], "labels": None, "expect": "error"},
            {"kind": "apply", "family": "Z2", "parts": labeled[0], "labels": {}, "expect": "error"},
            {"kind": "classify", "doc": doc, "expect": "bookkeeping"},
            {"kind": "weyl", "series": "D", "rank": rank, "pos": pos, "neg": neg, "expect": "error"},
            {"kind": "rep", "group": group, "label": label, "expect": "ambiguous_class"},
        ]

    def execute(self, op: dict, tr):
        start = perf_counter_ns()
        out = _call(self.lib, getattr(self, "_" + op["kind"]), op, tr)
        return perf_counter_ns() - start, out

    def _jordan(self, parts, labels, tr):
        if labels is None:
            return tr.call("partitions.Partition", self.lib.Partition, parts)
        return tr.call("jordan.LabeledPartition", self.lib.LabeledPartition, parts, labels)

    def _classify(self, op, tr):
        L, g = self.lib, op["doc"]["group"]
        group = L.GroupDescriptor(L.Series(g["series"]), g["N"], g["char"])
        orbits = [
            L.EigenOrbit(o["id"], L.OrbitKind(o["kind"]), self._jordan(o["parts"], o.get("labels"), tr))
            for o in op["doc"]["orbits"]
        ]
        datum = tr.call("classical.SpectralDatum", L.SpectralDatum, group, orbits)
        r = tr.call("classical.classify", L.classify, datum)
        return tuple(r.bp), r.n_invariant, r.class_dim, r.pair_degenerate

    def _weyl(self, op, tr):
        L = self.lib
        w = L.WeylType(L.WeylSeries(op["series"]), op["rank"])
        pos = tr.call("partitions.Partition", L.Partition, op["pos"])
        neg = tr.call("partitions.Partition", L.Partition, op["neg"])
        return tuple(tr.call("weyl.stratum_of_class", L.stratum_of_class, w, L.SignedCycleType(pos, neg)))

    def _rep(self, op, tr):
        rep = tr.call("atlas.rep_of_class", self.lib.rep_of_class, op["group"], op["label"])
        return [rep.d, rep.n, rep.star, rep.synthetic_id]

    def _apply(self, op, tr):
        nu = self._jordan(op["parts"], op["labels"], tr)
        return tuple(tr.call("jordan.apply_bijection", self.lib.apply_bijection, self.families[op["family"]], nu))

    def check(self, op: dict, out) -> str | None:
        problem = _outcome_problem(op, out)
        if problem or op["expect"] != "ok":
            return problem
        kind, value = op["kind"], out[1]
        if kind == "classify":
            return C.stratum_problem(op["doc"]["group"]["series"], op["doc"]["group"]["N"], value)
        if kind == "weyl":
            return C.label_problem(value, op["rank"], S.stratum_excess(C.WEYL_GROUPS[op["series"]]))
        if kind == "rep":
            return None if value == op["rep"] else f"rep {value}, atlas file says {op['rep']}"
        excess, half = S.codomain(op["family"], sum(op["parts"]))
        return C.label_problem(value, half, excess)


class BulkEnumerate(_InProcess):
    """Whole enumerations; several queries share their label sets on purpose."""

    name = "bulk-enumerate"

    def cycle(self, seed: int, c: int) -> list[dict]:
        rng = S.rng_for(self.name, seed, c)
        ops = []
        for n in (12, 16, 20):
            ops += [{"kind": "bipartitions", "n": n, "excess": ex} for ex in ((2, 2), (0, 4))]
        for n in (12, 16):
            # Sp_2n and SO_2n+1 have the same strata labels
            for series, dimension in (("Sp", 2 * n), ("SO_odd", 2 * n + 1), ("SO_even", 2 * n)):
                ops.append({"kind": "strata", "series": series, "dimension": dimension, "char": rng.choice((0, 2, 3))})
        for series, dimension in (("SO_odd", 29), ("SO_even", 36)):
            ops.append({"kind": "dimension_set", "series": series, "dimension": dimension, "char": rng.choice((0, 2, 3))})
        ops += [{"kind": "partitions", "n": n} for n in (24, 30, 36)]
        ops += [{"kind": "strata", "series": "GL", "dimension": n, "char": rng.choice((0, 2, 3))} for n in (20, 28)]
        ops += [{"kind": "fibers", "series": s, "rank": r} for s in ("B", "D") for r in (6, 9, 12)]
        ops += [{"kind": "jordan", "family": f, "N": N} for f in S.FAMILIES for N in (16, 28)]
        for op in ops:
            op["expect"] = "ok"
        rng.shuffle(ops)
        return ops

    def _target(self, op):
        L, kind = self.lib, op["kind"]
        if kind == "bipartitions":
            return "partitions.enumerate_bipartitions", L.enumerate_bipartitions, (op["n"], op["excess"])
        if kind == "partitions":
            return "partitions.enumerate_partitions", L.enumerate_partitions, (op["n"],)
        if kind in ("strata", "dimension_set"):
            group = L.GroupDescriptor(L.Series(op["series"]), op["dimension"], op["char"])
            if kind == "strata":
                return "classical.enumerate_strata", L.enumerate_strata, (group,)
            return "classical.dimension_set", L.dimension_set, (group,)
        if kind == "fibers":
            return "weyl.strata_fibers", L.strata_fibers, (L.WeylType(L.WeylSeries(op["series"]), op["rank"]),)
        return "jordan.enumerate_jordan", L.enumerate_jordan, (self.families[op["family"]], op["N"])

    def execute(self, op: dict, tr):
        span, fn, args = self._target(op)
        start = perf_counter_ns()
        status, value = _call(self.lib, tr.call, span, fn, *args)
        elapsed = perf_counter_ns() - start
        if status != "ok":
            return elapsed, (status, value)
        tr.count(span + ".items", len(value))
        return elapsed, ("ok", self._plain(op["kind"], value))

    def _plain(self, kind: str, value):
        if kind in ("bipartitions", "partitions"):
            return [tuple(x) for x in value]
        if kind == "strata":
            return [(tuple(r.bp), r.n_invariant, r.class_dim, r.pair_degenerate) for r in value]
        if kind == "dimension_set":
            return sorted(value)
        if kind == "fibers":
            cycle_type = lambda c: (tuple(c.positive), tuple(c.negative))  # noqa: E731
            return [
                (tuple(bp), [cycle_type(c) for c in f.classes], cycle_type(f.cross_section))
                for bp, f in value.items()
            ]
        return [(tuple(d.parts), d.label_map()) if hasattr(d, "labels") else (tuple(d), None) for d in value]

    def check(self, op: dict, out) -> str | None:
        problem = _outcome_problem(op, out)
        if problem:
            return problem
        kind, value = op["kind"], out[1]
        if kind == "bipartitions":
            return C.bipartitions_problem(op["n"], op["excess"], value)
        if kind == "partitions":
            return C.bipartitions_problem(op["n"], (0, 0), value)
        if kind == "strata":
            return C.strata_problem(op["series"], op["dimension"], value)
        if kind == "dimension_set":
            return C.dimension_set_problem(op["series"], op["dimension"], value)
        if kind == "fibers":
            return C.fibers_problem(op["series"], op["rank"], value)
        return C.jordan_problem(op["family"], op["N"], value)

    def work(self, out) -> int:
        return len(out[1])


class Invert(_InProcess):
    """invert_bijection for every family, targets drawn uniformly from the codomain."""

    name = "invert"

    def cycle(self, seed: int, c: int) -> list[dict]:
        rng = S.rng_for(self.name, seed, c)
        ops = []
        for family in S.FAMILIES:
            for N in (12, 16, 20, 24, 28):
                target = S.sample_bipartition(rng, *reversed(S.codomain(family, N)))
                ops.append({"kind": "invert", "family": family, "N": N, "target": target, "expect": "ok"})
        rng.shuffle(ops)
        return ops

    def execute(self, op: dict, tr):
        L, family = self.lib, self.families[op["family"]]
        start = perf_counter_ns()
        status, value = _call(
            L, tr.call, "jordan.invert_bijection." + op["family"],
            lambda: L.invert_bijection(family, op["N"], L.Bipartition(op["target"])),
        )
        elapsed = perf_counter_ns() - start
        if status != "ok":
            return elapsed, (status, value)
        labels = value.label_map() if hasattr(value, "labels") else None
        parts = tuple(value.parts) if labels is not None else tuple(value)
        return elapsed, ("ok", (parts, labels, tuple(L.apply_bijection(family, value))))

    def check(self, op: dict, out) -> str | None:
        problem = _outcome_problem(op, out)
        if problem:
            return problem
        return C.preimage_problem(op["family"], op["N"], op["target"], *out[1])


class CliMix:
    """Fresh `python -m weylstrata.cli` processes, one request each."""

    name = "cli-mix"
    ATLAS_KINDS = ("phi_exc", "tables")
    NOMINAL_NS = 50e6
    reference = staticmethod(spawn_reference)
    validator = None

    def prepare(self):
        if self.validator is not None:
            return
        import jsonschema

        with open(os.path.join(DATA, "envelope.schema.json"), encoding="utf-8") as handle:
            self.validator = jsonschema.Draft7Validator(json.load(handle))
        self.rows = S.read_atlas(os.path.join(DATA, "exceptional_atlas.txt"))
        index = S.class_index(self.rows)
        self.reps = {key: reps[0] for key, reps in index.items() if len(reps) == 1}
        self.labels = sorted(self.reps)
        self.not_in_e8 = sorted({label for group, label in index if (("E8", label) not in index)})
        os.makedirs(OUT, exist_ok=True)

    def cycle(self, seed: int, c: int) -> list[dict]:
        rng = S.rng_for(self.name, seed, c)
        ops = []
        for _ in range(3):
            ops += [self._phi_exc(rng), self._phi_classical(rng), self._classify(rng), self._error(rng)]
        ops += [self._enumerate(rng, rng.choice((0, 2, 3))) for _ in range(2)]
        ops.append(self._enumerate(rng, S.BIG_PRIME))
        ops += [self._tables(rng) for _ in range(2)]
        ops.append(self._invert(rng))
        ops += self._defects(rng)
        rng.shuffle(ops)
        return ops

    def _phi_exc(self, rng):
        group, label = rng.choice(self.labels)
        argv = ["phi", "--group", group, "--class", label]
        return {"kind": "phi_exc", "argv": argv, "group": group, "label": label, "rep": self.reps[group, label],
                "expect": "ok"}

    def _phi_classical(self, rng):
        series = rng.choice("ABCD")
        if series == "A":
            rank = rng.randint(2, 10)
            text = ",".join(map(str, S.partition(rng, rank + 1)))
        else:
            rank = rng.randint(3, 10)
            pos, neg = S.signed_cycle_type(rng, "D" if series == "D" else "B", rank)
            text = ",".join(map(str, pos)) + ";" + ",".join(map(str, neg))
        argv = ["phi", "--group", series, "--rank", str(rank), "--class", text]
        return {"kind": "phi_classical", "argv": argv, "series": series, "rank": rank, "expect": "ok"}

    def _classify(self, rng):
        doc = S.spectral_datum(rng, rng.choice(S.SERIES), rng.choice((0, 2, 3)), rng.randint(2, 8))
        return {"kind": "classify", "argv": ["classify", "-"], "stdin": json.dumps(doc), "doc": doc, "expect": "ok"}

    def _enumerate(self, rng, char):
        series = rng.choice(S.SERIES)
        n = rng.randint(3, 8)
        dimension = 2 * n + (series == "SO_odd") if series != "GL" else n
        argv = ["enumerate", "--series", series, "--dimension", str(dimension), "--char", str(char)]
        return {"kind": "enumerate", "argv": argv, "series": series, "dimension": dimension, "expect": "ok"}

    def _tables(self, rng):
        # always the largest table, so that these requests cost the same in
        # every cycle: they hold the 90th percentile of the cycle's latencies
        group, char = "E8", rng.choice((None, 0, 2, 3))
        argv = ["tables", "--group", group] + ([] if char is None else ["--char", str(char)])
        reps = [row["rep"] for row in S.rows_for_char(self.rows, group, char)]
        return {"kind": "tables", "argv": argv, "group": group, "char": char, "reps": reps, "expect": "ok"}

    def _invert(self, rng):
        family = rng.choice(S.FAMILIES)
        N = rng.randint(5, 12) if family == "Z1P" else 2 * rng.randint(3, 6)
        target = S.sample_bipartition(rng, *reversed(S.codomain(family, N)))
        argv = ["invert", "--family", family, "--N", str(N), "--target", ",".join(map(str, target))]
        return {"kind": "invert", "argv": argv, "family": family, "N": N, "expect": "ok"}

    def _error(self, rng):
        """An invalid request that must exit 1 with the given error code."""
        doc = S.spectral_datum(rng, "Sp", rng.choice((0, 2, 3)), rng.randint(2, 8))
        doc["group"]["N"] += 2
        requests = [
            (["phi", "--group", rng.choice(("E9", "H3", "F5")), "--class", "A_1"], None, "bad_group"),
            (["enumerate", "--series", "Sp", "--dimension", str(2 * rng.randint(1, 8) + 1)], None, "bad_dimension"),
            (["enumerate", "--series", rng.choice(("Sp", "GL")), "--dimension", "6", "--char",
              str(rng.choice((4, 6, 9, 15, 1000000000001)))], None, "bad_characteristic"),
            (["invert", "--family", rng.choice(("Z3", "Z1Q")), "--N", "6", "--target", "3"], None, "bad_family"),
            (["phi", "--group", "E8", "--class", rng.choice(self.not_in_e8)], None, "unknown_class"),
            (["classify", "-"], json.dumps(doc), "bookkeeping"),
            (["invert", "--family", "Z2", "--N", "8", "--target", str(rng.randint(5, 9))], None, "no_preimage"),
            (["tables", "--group", "E8", "--rep", f"{rng.randint(9000, 9999)}_1"], None, "unknown_rep"),
        ]
        argv, stdin, code = rng.choice(requests)
        return {"kind": "error", "argv": argv, "stdin": stdin, "expect": code}

    def _defects(self, rng):
        """The two known envelope defects: each should exit 1 with an error envelope."""
        doc = S.spectral_datum(rng, "Sp", 0, rng.randint(2, 8))
        doc["orbits"].append({"id": "gé", "kind": "generic", "parts": [1]})
        doc["group"]["N"] += 2
        path = os.path.join(".perfbench", "latin1.json")
        k = rng.randint(1, 4)
        labeled = {"group": {"series": "Sp", "N": 4 * k, "char": 2},
                   "orbits": [{"id": "1", "kind": "involutive", "parts": [2 * k, 2 * k], "labels": {2 * k: 1.7}}]}
        return [
            {"kind": "error", "argv": ["classify", path], "file": json.dumps(doc, ensure_ascii=False).encode("latin-1"),
             "expect": "error", "defect": "non-UTF-8 classify file"},
            {"kind": "error", "argv": ["classify", "-"], "stdin": json.dumps(labeled),
             "expect": "error", "defect": "fractional label"},
        ]

    def _args(self, op: dict, wrapped: bool) -> list[str]:
        """The child's arguments, after writing its input file if it has one."""
        if "file" in op:
            with open(os.path.join(ROOT, op["argv"][1]), "wb") as handle:
                handle.write(op["file"])
        if wrapped:
            return [CHILD, "cli", "1" if op["kind"] in self.ATLAS_KINDS else "0", *op["argv"]]
        return ["-m", "weylstrata.cli", *op["argv"]]

    def peak_rss_kb(self, trace: bool) -> int:
        """The largest CLI process of one fixed cycle (seed 0), each run through child.py."""
        self.prepare()
        peak = 0
        for op in self.cycle(0, 0):
            records = run_child(self._args(op, True), (op.get("stdin") or "").encode())[3]
            peak = max([peak] + [r["maxrss_kb"] for r in records])
        return peak

    def execute(self, op: dict, tr):
        args = self._args(op, tr.enabled)
        stdin = (op.get("stdin") or "").encode()
        start = perf_counter_ns()
        try:
            code, stdout, _, records = run_child(args, stdin)
        except subprocess.TimeoutExpired:
            code, stdout, records = None, b"", []
        elapsed = perf_counter_ns() - start
        for record in records:
            for name, s, e in record["spans"]:
                tr.add("cli.main." + op["kind"] if name == "cli.main" else name, s, e)
        return elapsed, (code, stdout)

    def check(self, op: dict, out) -> str | None:
        return C.envelope_problem(self.validator, op, *out)

    def work(self, out) -> int:
        return 1


WORKLOADS = {w.name: w for w in (CliMix, PointQueries, BulkEnumerate, Invert)}


def make(name: str):
    return WORKLOADS[name]()
