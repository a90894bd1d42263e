"""Seeded closed-loop benchmark of spincover, end to end or per layer.

    python3 perfbench/run.py --workload small-mixed --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src. One
client in one thread sends the next operation only when the previous one
has returned. Every input is generated from --seed before timing starts,
and every output is checked against an independent reference afterwards.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
a separate traced measurement and prints the per-layer metrics. The last
line of standard output is one JSON object with keys correct, attempted,
failed and metrics. perfbench/README.md defines every metric.
"""

from __future__ import annotations

import os

# Pin BLAS pools before numpy loads, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh worker processes per untraced run; each gives one set-up sample
#: and measures a third of the run's seconds.
WORKERS = 3
#: Sequential CLI subprocesses after each worker, so that the cold starts
#: are spread over the run like the timed loops. Each is paired with a
#: reference start that only imports numpy.
COLD_STARTS = 7
REFERENCE_START = ["-c", "import numpy"]
#: Each child must finish well inside the run's 180 s limit.
CHILD_TIMEOUT_S = 150
#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
#: Each op is scaled by the median reference-kernel time of this many groups
#: on each side of it (see worker.run_cycles).
REFERENCE_SPAN = 2
#: Typical median times of worker.reference_kernel and of REFERENCE_START on
#: the host the benchmark was written on (see README). Every reported time is
#: scaled by these over the reference times measured next to it, so it reads
#: as a wall time on that host at a steady speed.
NOMINAL_KERNEL_S = 0.00047
NOMINAL_START_S = 0.165

MINOR_GRADES = range(11)
WORKLOAD_NAMES = ["small-mixed", "large-recovery", "forward-large"]


def environment() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": model}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_worker(ops_path: Path, scratch: Path, index: int, seconds: float, trace: int,
               spans: Path | None = None) -> dict:
    result_path = scratch / f"result-{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(ops_path), str(result_path),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {index} exited with code {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def cold_starts(op: dict, scratch: Path) -> tuple[list[float], list[float], list]:
    """Wall times of sequential `python -m spincover` runs and of the reference
    start after each, all started outside the repo root."""
    walls, references, outcomes = [], [], []
    for _ in range(COLD_STARTS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "spincover", *op["argv"]], env=child_env(),
                              cwd=scratch, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
        outcomes.append(("ok", (proc.returncode, proc.stdout)))
        start = time.perf_counter()
        subprocess.run([sys.executable, *REFERENCE_START], env=child_env(), cwd=scratch,
                       capture_output=True, timeout=CHILD_TIMEOUT_S, check=True)
        references.append(time.perf_counter() - start)
    return walls, references, outcomes


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond): the highest whole percentile with
    at least TAIL_BEYOND samples beyond it, by nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct, n - rank
    rank = math.ceil(n / 2)
    return ordered[rank - 1], 50, n - rank


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def speed_factors(worker: dict) -> list[float]:
    """NOMINAL_KERNEL_S over the median reference-kernel time around each latency.

    Other guests of the shared host slow it down for seconds to minutes at a
    time, by up to half. The reference kernel slows down with the ops around
    it, so scaling by it removes most of that drift from the figures.
    """
    groups: dict[int, list[float]] = {}
    for index, seconds in worker["references"]:
        groups.setdefault(index, []).append(seconds)
    starts = sorted(groups)
    per_group = [
        NOMINAL_KERNEL_S / statistics.median(
            [s for g in starts[max(0, k - REFERENCE_SPAN + 1):k + 1 + REFERENCE_SPAN] for s in groups[g]])
        for k in range(len(starts))
    ]
    factors, k = [], 0
    for index in range(len(worker["latencies"])):
        while k + 1 < len(starts) and starts[k + 1] <= index:
            k += 1
        factors.append(per_group[k])
    return factors


def end_to_end(workers: list[dict], walls: list[float], references: list[float],
               cold_checked: list) -> tuple[dict, list[str]]:
    latencies = [x for w in workers for x in w["latencies"]]
    factors = [speed_factors(w) for w in workers]
    scaled = [x * f for w, fs in zip(workers, factors) for x, f in zip(w["latencies"], fs)]
    tail_s, pct, beyond = tail(scaled)
    metrics = {
        "setup_s": metric(statistics.median(w["setup_s"] * fs[0] for w, fs in zip(workers, factors)), "s"),
        "convert_per_s": metric(len(scaled) / sum(scaled), "1/s"),
        "latency_p50_ms": metric(1000 * statistics.median(scaled), "ms"),
        "latency_tail_ms": metric(1000 * tail_s, "ms"),
        "peak_rss_mb": metric(statistics.median(w["maxrss_kb"] - w["rss_file_kb"] for w in workers) / 1024, "MB"),
        "cli_cold_start_ms": metric(
            1000 * NOMINAL_START_S * statistics.median(walls) / statistics.median(references), "ms"),
    }
    kernel = [s for w in workers for _, s in w["references"]]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    reasons: dict[str, int] = {}
    for w in workers:
        for k, v in w["reasons"].items():
            reasons[k] = reasons.get(k, 0) + v
    notes = [
        f"latency_tail_ms is p{pct}: {beyond} of {len(latencies)} samples lie beyond it",
        f"unscaled: median latency {1000 * statistics.median(latencies):.4f} ms, "
        f"{len(latencies) / sum(w['wall'] for w in workers):.4f} ops per second, "
        f"median set-up {statistics.median(w['setup_s'] for w in workers):.4f} s, "
        f"median ru_maxrss {statistics.median(w['maxrss_kb'] for w in workers) / 1024:.2f} MB, "
        f"median cli cold start {1000 * statistics.median(walls):.2f} ms",
        f"references: median kernel {1000 * statistics.median(kernel):.4f} ms over {len(kernel)} runs "
        f"(nominal {1000 * NOMINAL_KERNEL_S} ms), median start {1000 * statistics.median(references):.2f} ms "
        f"over {len(references)} runs (nominal {1000 * NOMINAL_START_S} ms)",
        f"fail_share {failed / attempted:.6f} ({failed} of {attempted} ops; by reason {reasons})",
        f"cli cold starts failed: {sum(1 for r, _ in cold_checked if r is not None)} of {len(cold_checked)}",
        f"cycles per worker {[w['cycles'] for w in workers]}, "
        f"max relative error {max(w['max_rel_err'] for w in workers):.3e}",
    ]
    return metrics, notes


def per_layer(traced: dict) -> tuple[dict, list[str]]:
    ops = traced["traced_ops"]
    totals = traced["totals"]
    counts = traced["counts"]

    def calls(name: str) -> float:
        return totals.get(name, [0, 0.0])[0] / ops

    def self_s(name: str) -> float:
        return totals.get(name, [0, 0.0])[1] / ops

    minors = [f"matrix_group.batched_minors.k{k}" for k in MINOR_GRADES]
    candidates = counts.get("covering.candidates_assembled", 0)
    m = {
        "clifford_core.sign_table.build_s": metric(traced["sign_table_build_s"], "s"),
        "clifford_core.sign_table.bytes": metric(traced["sign_table_bytes"], "B"),
        "clifford_core.geometric_product.calls": metric(calls("clifford_core.geometric_product"), "count/op"),
        "clifford_core.geometric_product.self_s": metric(self_s("clifford_core.geometric_product"), "s/op"),
        "matrix_group.check_membership.calls": metric(calls("matrix_group.check_membership"), "count/op"),
        "matrix_group.check_membership.self_s": metric(self_s("matrix_group.check_membership"), "s/op"),
        "matrix_group.batched_minors.calls": metric(sum(calls(n) for n in minors), "count/op"),
        "matrix_group.batched_minors.self_s": metric(sum(self_s(n) for n in minors), "s/op"),
    }
    for name in minors:
        m[f"{name}.self_s"] = metric(self_s(name), "s/op")
    m.update({
        "matrix_group.minors_computed": metric(counts.get("matrix_group.minors_computed", 0) / ops, "count/op"),
        "covering.candidates_assembled": metric(candidates / ops, "count/op"),
        "covering.probe_useful_ratio": metric(traced["conversions"] / candidates if candidates else 0.0, "ratio"),
        "covering.select_candidate.calls": metric(calls("covering.select_candidate"), "count/op"),
        "covering.select_candidate.self_s": metric(self_s("covering.select_candidate"), "s/op"),
        "covering.matrix_to_rotor.self_s": metric(self_s("covering.matrix_to_rotor"), "s/op"),
        "covering.forward_map.calls": metric(calls("covering.forward_map"), "count/op"),
        "covering.forward_map.self_s": metric(self_s("covering.forward_map"), "s/op"),
        "division_algebras.select_quaternion_candidate.self_s":
            metric(self_s("division_algebras.select_quaternion_candidate"), "s/op"),
        "division_algebras.select_split_candidate.self_s":
            metric(self_s("division_algebras.select_split_candidate"), "s/op"),
        "oracle.verify_covering.calls": metric(calls("oracle.verify_covering"), "count/op"),
        "oracle.verify_covering.self_s": metric(self_s("oracle.verify_covering"), "s/op"),
        "cli.main.self_s": metric(self_s("cli.main"), "s/op"),
        "cli.render_json.self_s": metric(self_s("cli.render_json"), "s/op"),
        "cli.import_s": metric(traced["import_s"], "s"),
        "bench.trace_overhead": metric(traced["trace_overhead"], "ratio"),
        "bench.unattributed_s": metric(self_s("bench.op"), "s/op"),
        "bench.max_rel_err": metric(traced["max_rel_err"], "ratio"),
        "bench.fail_share": metric(traced["failed"] / traced["attempted"], "ratio"),
    })
    notes = [f"traced {ops} ops in {traced['cycles']} cycles; {traced['conversions']} conversions; "
             f"operation counts repeat in every cycle: {traced['counts_repeat']}"]
    notes += [f"  {label}: {row}" for label, row in traced["per_signature"].items()]
    return m, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="n <= 3 and a handful of ops per cycle, for the self-test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "spincover" / "__init__.py").is_file():
        print(f"spincover sources not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    env = environment()
    print(f"environment: {json.dumps(env)}")
    ops = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    cold_op = workloads.cold_start_op(args.seed)
    # A known defect, kept out of the timed cycles so that they never fail.
    boost_rejected = workloads.boost_probe()
    print(f"boost grid probe (untimed): {sum(boost_rejected.values())} of "
          f"{len(workloads.BOOST_GRID) * len(workloads.BOOST_SIGS)} rejected, by reason {boost_rejected}")
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT))
    try:
        ops_path = scratch / "ops.json"
        ops_path.write_text(json.dumps(ops), encoding="utf-8")
        print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per cycle, closed loop, 1 client")
        if args.trace:
            spans = OUT / f"spans-{args.workload}-{args.seed}.json.gz"
            traced = run_worker(ops_path, scratch, 0, args.seconds, 1, spans)
            metrics, notes = per_layer(traced)
            metrics["bench.boost_grid_rejected"] = metric(float(sum(boost_rejected.values())), "count")
            notes.append(f"spans written to {spans.relative_to(ROOT)}")
            correct, attempted, failed = traced["correct"], traced["attempted"], traced["failed"]
        else:
            workers, walls, references, cold = [], [], [], []
            for i in range(WORKERS):
                workers.append(run_worker(ops_path, scratch, i, args.seconds / WORKERS, 0))
                more_walls, more_references, more_cold = cold_starts(cold_op, scratch)
                walls += more_walls
                references += more_references
                cold += more_cold
            cold_checked = [workloads.check(cold_op, outcome) for outcome in cold]
            metrics, notes = end_to_end(workers, walls, references, cold_checked)
            cold_failed = sum(1 for reason, _ in cold_checked if reason is not None)
            correct = all(w["correct"] for w in workers) and all(
                reason is None or reason in workloads.REJECTIONS for reason, _ in cold_checked)
            attempted = sum(w["attempted"] for w in workers) + len(cold)
            failed = sum(w["failed"] for w in workers) + cold_failed
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for note in notes:
        print(note)
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
