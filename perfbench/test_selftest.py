"""Self-test of the benchmark harness.

    python3 -m pytest perfbench

Tiny runs (n <= 3, a handful of ops per cycle) of every workload, untraced
and traced, must print every metric named in BENCHMARK.json with its unit;
no timed op may fail; the output checks must count a wrong rotor as
failed.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spincover.covering  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spincover.clifford_core import Multivector, Signature  # noqa: E402
from spincover.covering import Rotor  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tally(outcomes: list) -> dict:
    counter = worker.Tally()
    for outcome in outcomes:
        counter.add(*outcome)
    return counter.summary()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    for entry in result["metrics"].values():
        assert math.isfinite(entry["value"])


def test_wrong_rotor_counts_as_failed_and_negated_rotor_does_not():
    ops = workloads.large_recovery(seed=5, tiny=True)
    op = ops[0]
    sig = Signature(op["p"], op["q"])
    good = np.array(op["ref"]["rotor"])
    wrong = good.copy()
    wrong[1 + np.argmax(np.abs(good[1:]))] *= -1.0  # flip the largest non-scalar coefficient

    def outcome(coeffs):
        return (op, "ok", Rotor(Multivector(sig, coeffs)))

    fine = tally([outcome(good), outcome(-good)])
    assert fine["failed"] == 0 and fine["correct"]
    bad = tally([outcome(good), outcome(wrong)])
    assert bad["failed"] == 1
    assert bad["reasons"] == {"over budget": 1}
    assert not bad["correct"]


def test_rejections_count_as_failed_but_keep_the_run_correct():
    ops = workloads.large_recovery(seed=5, tiny=True)
    result = tally([(ops[0], "raised", "MembershipError"), (ops[1], "raised", "KeyError")])
    assert result["failed"] == 2
    assert result["reasons"] == {"MembershipError": 1, "KeyError": 1}
    assert not result["correct"]
    assert tally([(ops[0], "raised", "MembershipError")])["correct"]


@pytest.mark.parametrize("sig", [(2, 0), (1, 1), (2, 1), (1, 3), (2, 2), (3, 2)])
def test_references_agree(sig):
    p, q = sig
    rng = np.random.default_rng(p * 10 + q)
    params = list(rng.uniform(-2.0, 2.0, (p + q) // 2))
    rotor, matrix = workloads.block_rotor(p, q, params)
    assert np.max(np.abs(workloads.grade1_matrix(p, q, rotor) - matrix)) < 1e-13


def test_tracer_restores_the_original_functions():
    original = spincover.covering.select_candidate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert spincover.covering.select_candidate is not original
        with pytest.raises(RuntimeError):
            tracing.require_untraced()
    finally:
        tracer.restore()
    assert spincover.covering.select_candidate is original
    tracing.require_untraced()


def test_boost_probe_counts_rejections_by_reason():
    reasons = workloads.boost_probe()
    assert set(reasons) <= set(workloads.REJECTIONS)
    assert sum(reasons.values()) <= len(workloads.BOOST_GRID) * len(workloads.BOOST_SIGS)


def test_speed_factors_use_the_reference_groups_around_each_op():
    import run

    # Reference groups run before ops 0, 2 and 4. With two groups on each
    # side, ops 0-3 see all three groups (median 2) and ops 4-5 the last two
    # (median 3).
    assert run.REFERENCE_SPAN == 2
    refs = [(0, 1.0), (0, 1.0), (2, 2.0), (2, 2.0), (4, 4.0), (4, 4.0)]
    factors = run.speed_factors({"latencies": [0.1] * 6, "references": refs})
    assert factors == [run.NOMINAL_KERNEL_S / 2.0] * 4 + [run.NOMINAL_KERNEL_S / 3.0] * 2
