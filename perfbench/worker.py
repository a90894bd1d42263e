"""One measuring process: fresh import, first call per signature, timed loop.

    python3 worker.py OPS_JSON RESULT_JSON --seconds S --trace 0|1 [--spans PATH]

OPS_JSON holds one cycle of generated ops (see workloads.py). The worker
times the import of spincover and the first op of every (kind, method,
signature) combination: that is one set-up sample. It then repeats whole
cycles until S seconds of timed work have passed, timing each op, and
checks every output of a cycle against its reference after the cycle.
Every 50 ms of timed work it also times a fixed reference kernel, outside
the ops' timings, so that run.py can scale each op by the host's speed.

With --trace 1 it instead runs the cycles untraced for S/2 seconds, then
the same number of cycles with the tracer installed, and reports per-layer
totals from the traced cycles and the wall-time ratio of the two phases.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time

_T0 = time.perf_counter()
import spincover  # noqa: E402
import spincover.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import numpy as np  # noqa: E402
from spincover import covering, division_algebras, matrix_group  # noqa: E402
from spincover.clifford_core import Multivector, Signature  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

cli = spincover.cli


def runner(op: dict) -> callable:
    """A zero-argument call performing op; inputs are converted beforehand.

    Library functions are looked up on their module at call time, so the
    tracer's wrappers are seen when installed and the originals otherwise.
    """
    sig = Signature(op["p"], op["q"])
    kind = op["kind"]
    if kind == "rotor":
        arr = np.array(op["input"])
        method = op["method"]
        if method == "quaternion":
            name = "so3_to_unit_quaternion" if (sig.p, sig.q) == (3, 0) else "so21_to_unit_split_quaternion"

            def run():
                return getattr(division_algebras, name)(arr)
        else:
            def run():
                return covering.matrix_to_rotor(arr, sig, method=method)
    elif kind == "matrix":
        value = Multivector(sig, op["input"])

        def run():
            matrix = covering.forward_map(covering.Rotor.checked(value))
            return matrix, matrix_group.check_membership(matrix, sig)
    else:
        argv = op["argv"]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, out.getvalue()
    return run


def plain(op: dict, result: object) -> object:
    """The part of a result the check needs, as arrays and numbers."""
    if op["kind"] == "rotor":
        if op["method"] == "quaternion":
            return workloads.quaternion_coeffs(op["p"], op["q"], (result.a, result.b, result.c, result.d))
        return np.array(result.coeffs)
    if op["kind"] == "matrix":
        matrix, report = result
        return matrix, report.ok
    return result


def call(run: callable) -> tuple[str, object, float]:
    start = time.perf_counter()
    try:
        result = run()
        status = "ok"
    except Exception as exc:  # a failed op is counted, and the loop goes on
        result, status = type(exc).__name__, "raised"
    return status, result, time.perf_counter() - start


class Tally:
    """Checks outcomes as they come and counts failures by reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.conversions = 0
        self.reasons: dict[str, int] = {}
        self.worst = 0.0

    def add(self, op: dict, status: str, result: object) -> None:
        value = plain(op, result) if status == "ok" else result
        reason, err = workloads.check(op, (status, value))
        self.attempted += 1
        self.worst = max(self.worst, err)
        if reason is None:
            self.conversions += _is_conversion(op)
        else:
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def summary(self) -> dict:
        unexpected = sum(v for k, v in self.reasons.items() if k not in workloads.REJECTIONS)
        return {"attempted": self.attempted, "failed": sum(self.reasons.values()), "reasons": self.reasons,
                "correct": unexpected == 0, "max_rel_err": self.worst}


#: Seconds of timed work between two groups of reference-kernel runs, and
#: the runs in a group.
REFERENCE_EVERY_S = 0.05
REFERENCE_RUNS = 3

_REFERENCE_MATRIX = np.cos(np.arange(36.0)).reshape(6, 6)


def reference_kernel() -> int:
    """Fixed work that shares no code with spincover: an interpreted loop and
    small numpy calls, as in a conversion. Its time, taken between the ops,
    tells how fast the shared host runs at that moment."""
    total = 0
    for i in range(3000):
        total += i * i % 7
    for _ in range(20):
        total += int(np.linalg.det(_REFERENCE_MATRIX @ _REFERENCE_MATRIX.T) > 0)
    return total


def run_cycles(ops: list[dict], runs: list, counter: Tally, seconds: float | None = None,
               cycles: int | None = None, references: list | None = None) -> tuple[list[float], int, float]:
    """Repeat whole cycles until seconds of timed work or the given cycles are done.

    Outputs of each cycle are checked after it, outside the timed region;
    returns the op latencies, the cycles run and the timed wall seconds,
    which are the sum of the latencies. Given a references list, a group of
    REFERENCE_RUNS reference-kernel times is appended to it, as (index of the
    next latency, seconds), before the first op and then before the first op
    after every REFERENCE_EVERY_S of timed work.
    """
    latencies: list[float] = []
    done, wall, since = 0, 0.0, REFERENCE_EVERY_S
    while True:
        outcomes = []
        for run in runs:
            if references is not None and since >= REFERENCE_EVERY_S:
                for _ in range(REFERENCE_RUNS):
                    start = time.perf_counter()
                    reference_kernel()
                    references.append((len(latencies), time.perf_counter() - start))
                since = 0.0
            status, result, elapsed = call(run)
            latencies.append(elapsed)
            outcomes.append((status, result))
            wall += elapsed
            since += elapsed
        done += 1
        for op, (status, result) in zip(ops, outcomes):
            counter.add(op, status, result)
        if (cycles is not None and done >= cycles) or (cycles is None and wall >= seconds):
            return latencies, done, wall


def warm_up(ops: list[dict], runs: list) -> None:
    seen = set()
    for op, run in zip(ops, runs):
        key = (op["kind"], op.get("method"), op.get("argv", [None])[0], op["p"], op["q"])
        if key not in seen:
            seen.add(key)
            call(run)


def measure(ops: list[dict], seconds: float) -> dict:
    tracing.require_untraced()
    runs = [runner(op) for op in ops]
    start = time.perf_counter()
    warm_up(ops, runs)
    setup_s = IMPORT_S + time.perf_counter() - start
    counter = Tally()
    references: list[tuple[int, float]] = []
    latencies, cycles, wall = run_cycles(ops, runs, counter, seconds=seconds, references=references)
    tracing.require_untraced()
    result = counter.summary()
    result.update(setup_s=setup_s, latencies=latencies, references=references, cycles=cycles, wall=wall,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, rss_file_kb=rss_file_kb())
    return result


def rss_file_kb() -> int:
    """Resident file-backed pages (shared libraries, mostly) of this process, in kB.

    How many of them are resident follows the host's page cache, not the
    program, so run.py takes them out of the peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("RssFile:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def measure_traced(ops: list[dict], seconds: float, spans_path: str | None) -> dict:
    tracer = tracing.Tracer()
    runs = [runner(op) for op in ops]
    tracer.install()
    warm_up(ops, runs)
    tracer.restore()
    setup_end = len(tracer.spans)
    build = tracing.layer_totals(tracer.spans, 0, setup_end).get("clifford_core.sign_table.build", [0, 0.0])
    table_bytes = tracer.counts["clifford_core.sign_table.bytes"]

    tracing.require_untraced()
    counter = Tally()
    _, cycles, plain_wall = run_cycles(ops, runs, counter, seconds=seconds / 2)
    plain_conversions = counter.conversions

    tracer.counts.clear()
    marks: list[tuple[int, int, dict, dict]] = []

    def marked(run):
        timed = tracer.timed("bench.op", run)

        def wrapped():
            first, before = len(tracer.spans), dict(tracer.counts)
            try:
                return timed()
            finally:
                marks.append((first, len(tracer.spans), before, dict(tracer.counts)))

        return wrapped

    traced_start = len(tracer.spans)
    tracer.install()
    try:
        _, _, traced_wall = run_cycles(ops, [marked(run) for run in runs], counter, cycles=cycles)
    finally:
        tracer.restore()
    tracing.require_untraced()
    traced_end = len(tracer.spans)

    per_op = [_op_counts(tracer.spans, *mark) for mark in marks]
    width = len(ops)
    result = counter.summary()
    result.update(
        traced_ops=len(marks),
        cycles=cycles,
        conversions=counter.conversions - plain_conversions,
        totals={name: list(v) for name, v in tracing.layer_totals(tracer.spans, traced_start, traced_end).items()},
        counts=dict(tracer.counts),
        counts_repeat=all(c == per_op[i % width] for i, c in enumerate(per_op)),
        per_signature=_per_signature(ops, per_op[:width]),
        sign_table_build_s=build[1],
        sign_table_bytes=table_bytes,
        trace_overhead=traced_wall / plain_wall - 1.0,
        import_s=IMPORT_S,
    )
    if spans_path:
        tracer.write(spans_path, {"setup": [0, setup_end], "traced": [traced_start, traced_end]})
    return result


def _op_counts(spans: list, first: int, last: int, before: dict, after: dict) -> dict:
    """Calls per span name and counter increments inside one op."""
    counts = {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}
    for i in range(first, last):
        name = spans[i][0]
        counts[name] = counts.get(name, 0) + 1
    return counts


def _is_conversion(op: dict) -> bool:
    if op["kind"] == "rotor":
        return op["method"] != "quaternion"
    return op["kind"] == "cli" and op["expect"] == "rotor" and "quaternion" not in op["argv"]


def _per_signature(ops: list[dict], per_op: list[dict]) -> dict:
    """Operation counts per op of one cycle, grouped by kind and signature."""
    keys = {"candidates": "covering.candidates_assembled", "minors": "matrix_group.minors_computed",
            "products": "clifford_core.geometric_product"}
    table: dict[str, dict] = {}
    for op, counts in zip(ops, per_op):
        label = " ".join(op["argv"][:-1]) if op["kind"] == "cli" else f"{op['kind']} {op.get('method', 'forward')}"
        label += f" ({op['p']},{op['q']})"
        row = table.setdefault(label, {"ops": 0, **{k: set() for k in keys}})
        row["ops"] += 1
        for k, name in keys.items():
            row[k].add(counts.get(name, 0))
    return {label: {k: (sorted(v) if isinstance(v, set) else v) for k, v in row.items()}
            for label, row in sorted(table.items())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ops")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    with open(args.ops, encoding="utf-8") as handle:
        ops = json.load(handle)
    if args.trace:
        result = measure_traced(ops, args.seconds, args.spans)
    else:
        result = measure(ops, args.seconds)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
