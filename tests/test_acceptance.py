"""End-to-end acceptance gate.

Each test exercises one contract of the covering pipeline at its stated
tolerance, records a single PASS/FAIL line (echoed in the terminal summary),
and then asserts. Tolerances and trial counts are part of the contract and
are not to be loosened here.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spincover.clifford_core import Multivector, Signature
from spincover.covering import (
    candidate_n3,
    forward_map,
    matrix_to_rotor,
    select_candidate,
)
from spincover.division_algebras import (
    Quaternion,
    SplitQuaternion,
    quaternion_to_rotor,
    quaternion_to_su2,
    so21_to_unit_split_quaternion,
    so3_to_unit_quaternion,
    split_to_rotor,
    split_to_su11,
)
from spincover.oracle import (
    SplitMix64,
    center_sum,
    rotor_distance,
    sample_matrix,
    sample_multivector,
    sample_rotor,
)

FIXTURES = Path(__file__).parent / "fixtures"

RESULTS: list[str] = []


def _record(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {name} ({detail})"
    RESULTS.append(line)
    print(line)
    assert ok, line


def _signed_error(coeffs: np.ndarray, expected: np.ndarray) -> float:
    return min(
        float(np.max(np.abs(coeffs - expected))),
        float(np.max(np.abs(coeffs + expected))),
    )


def test_criterion_1_plane_rotation_family():
    sig = Signature(2, 0)
    start = time.perf_counter()
    worst = 0.0
    for phi in np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False):
        c, s = math.cos(phi), math.sin(phi)
        rotor = matrix_to_rotor(np.array([[c, -s], [s, c]]), sig)
        expected = np.array([math.cos(phi / 2.0), 0.0, 0.0, -math.sin(phi / 2.0)])
        worst = max(worst, _signed_error(rotor.coeffs, expected))
    half_turn = np.array([[-1.0, 0.0], [0.0, -1.0]])
    branch = select_candidate(half_turn, sig)
    rotor_pi = matrix_to_rotor(half_turn, sig)
    err_pi = _signed_error(rotor_pi.coeffs, np.array([0.0, 0.0, 0.0, 1.0]))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and branch.F == 0b11 and err_pi == 0.0 and elapsed < 1.0
    _record(
        1,
        "SO(2) family recovers +-(cos(phi/2) - sin(phi/2) e12)",
        ok,
        f"100 angles, max coeff error {worst:.3e} <= 1e-12, half-turn branch F = "
        f"{branch.blade}, its error {err_pi:.1e}, {elapsed:.2f}s < 1s",
    )


def test_criterion_2_boost_family():
    # Rounding cosh(10)/sinh(10) to doubles leaves the stored matrix with
    # det - 1 ~ 2.7e-8, yet the rotor is still recoverable to 1e-9: the
    # candidate's own e_F coefficient, 2^n eps_F s_F^2, gives the
    # normalizer without the cancellation of the indefinite reverse-norm
    # (2 + 2 cosh t)^2 - (2 sinh t)^2, which alone cost ~7e-9 here.
    sig = Signature(1, 1)
    start = time.perf_counter()
    worst = 0.0
    within = 0
    for phi in np.linspace(-10.0, 10.0, 50):
        ch, sh = math.cosh(phi), math.sinh(phi)
        matrix = np.array([[ch, sh], [sh, ch]])
        # cosh(10)^2 * eps ~ 2.4e-8 of unavoidable metric-check residual at
        # the extremes, so membership runs at 1e-6
        rotor = matrix_to_rotor(matrix, sig, tol=1e-6)
        expected = np.array([math.cosh(phi / 2.0), 0.0, 0.0, -math.sinh(phi / 2.0)])
        rel = _signed_error(rotor.coeffs, expected) / float(np.max(np.abs(expected)))
        worst = max(worst, rel)
        within += rel <= 1e-9
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    _record(
        2,
        "SO+(1,1) family recovers +-(cosh(phi/2) - sinh(phi/2) e12)",
        ok,
        f"{within}/50 rapidities within 1e-9, max relative error {worst:.3e} "
        f"(det of the stored matrix is off by up to ~2.7e-8), {elapsed:.2f}s < 1s",
    )


def test_criterion_3_half_turn_degeneracies():
    sig = Signature(3, 0)
    half_turn = np.diag([1.0, -1.0, -1.0])
    zeros_ok = all(
        candidate_n3(half_turn, sig, F).max_abs() <= 1e-14 for F in (0, 0b011, 0b101)
    )
    l23 = candidate_n3(half_turn, sig, 0b110)
    l23_ok = np.array_equal(l23.coeffs, Multivector.basis(sig, 0b110, 4.0).coeffs)
    rotor = matrix_to_rotor(half_turn, sig, method="n3")
    rotor_ok = np.array_equal(rotor.coeffs, Multivector.basis(sig, 0b110).coeffs)

    family_worst = 0.0
    for phi in np.linspace(0.0, 2.0 * math.pi, 50):
        c, s = math.cos(phi), math.sin(phi)
        matrix = np.array([[c, s, 0.0], [s, -c, 0.0], [0.0, 0.0, -1.0]])
        l13 = candidate_n3(matrix, sig, 0b101)
        l23_phi = candidate_n3(matrix, sig, 0b110)
        want13 = Multivector.from_terms(sig, {0b101: 2.0 * (1.0 - c), 0b110: -2.0 * s})
        want23 = Multivector.from_terms(sig, {0b101: -2.0 * s, 0b110: 2.0 * (1.0 + c)})
        family_worst = max(
            family_worst, (l13 - want13).max_abs(), (l23_phi - want23).max_abs()
        )
    ok = zeros_ok and l23_ok and rotor_ok and family_worst <= 1e-12
    _record(
        3,
        "diag(1,-1,-1) degeneracy and the half-turn family candidates",
        ok,
        f"L_1, L_12, L_13 vanish <= 1e-14: {zeros_ok}, L_23 = 4 e23 exactly: {l23_ok}, "
        f"rotor = e23 exactly: {rotor_ok}, family L_13/L_23 error {family_worst:.3e} <= 1e-12",
    )


def test_criterion_4_round_trip_all_signatures():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    sigs = [
        Signature(p, q)
        for n in range(1, 7)
        for p in range(n, (n - 1) // 2, -1)
        for q in [n - p]
    ]
    for sig in sigs:
        for seed in range(200):
            rotor = sample_rotor(sig, seed)
            matrix = forward_map(rotor)
            recovered = matrix_to_rotor(matrix, sig)
            worst = max(worst, rotor_distance(recovered, rotor))
            count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 120.0 and len(sigs) == 15
    _record(
        4,
        "round trip matrix_to_rotor(forward_map(S)) = +-S for p >= q, n <= 6",
        ok,
        f"{count} rotors over {len(sigs)} signatures, max coeff error {worst:.3e} <= 1e-9, "
        f"{elapsed:.1f}s <= 120s",
    )


def test_criterion_5_cross_formalism_agreement():
    worst = 0.0
    for sig, bridge in (
        (Signature(3, 0), lambda m: quaternion_to_rotor(so3_to_unit_quaternion(m))),
        (Signature(2, 1), lambda m: split_to_rotor(so21_to_unit_split_quaternion(m))),
    ):
        for seed in range(500):
            matrix = sample_matrix(sig, seed)
            general = matrix_to_rotor(matrix, sig, method="general")
            first_order = matrix_to_rotor(matrix, sig, method="n3")
            bridged = bridge(matrix)
            worst = max(
                worst,
                rotor_distance(general, first_order),
                rotor_distance(general, bridged),
                rotor_distance(first_order, bridged),
            )
    ok = worst <= 1e-10
    _record(
        5,
        "general, first-order, and (split-)quaternion paths agree at n = 3",
        ok,
        f"500 matrices each for (3,0) and (2,1), max pairwise error {worst:.3e} <= 1e-10",
    )


def test_criterion_6_algebra_laws():
    sigs = [Signature(p, q) for n in range(1, 6) for p in range(n + 1) for q in [n - p]]
    per_sig = 1000 // len(sigs)
    triples = 0
    worst = 0.0
    anticommutation_exact = True
    for index, sig in enumerate(sigs):
        for a in range(sig.n):
            for b in range(sig.n):
                ea = Multivector.basis(sig, 1 << a)
                eb = Multivector.basis(sig, 1 << b)
                target = 2.0 * sig.metric(a + 1) if a == b else 0.0
                defect = (ea * eb + eb * ea - Multivector.scalar(sig, target)).max_abs()
                if defect != 0.0:
                    anticommutation_exact = False
        rng = SplitMix64(1000 + index)
        for _ in range(per_sig):
            u = sample_multivector(sig, rng)
            v = sample_multivector(sig, rng)
            w = sample_multivector(sig, rng)
            worst = max(worst, ((u * v) * w - u * (v * w)).max_abs())
            worst = max(worst, ((u * v).reverse() - v.reverse() * u.reverse()).max_abs())
            worst = max(
                worst, (center_sum(u) - float(sig.dim) * u.center_projection()).max_abs()
            )
            triples += 1
    ok = worst <= 1e-12 and anticommutation_exact and triples == 1000
    _record(
        6,
        "associativity, anticommutation, reversion, center projection",
        ok,
        f"{triples} triples over {len(sigs)} signatures, max residual {worst:.3e} <= 1e-12, "
        f"anticommutation exact: {anticommutation_exact}",
    )


def test_criterion_7_complex_representations():
    rng = SplitMix64(77)
    hom_worst = 0.0
    member_worst = 0.0
    eta = np.diag([1.0, -1.0])
    pairs = 0
    for _ in range(200):
        x = Quaternion(*(rng.next_symmetric() for _ in range(4)))
        y = Quaternion(*(rng.next_symmetric() for _ in range(4)))
        defect = quaternion_to_su2(x * y) - quaternion_to_su2(x) @ quaternion_to_su2(y)
        hom_worst = max(hom_worst, float(np.max(np.abs(defect))))
        norm = math.sqrt(x.norm_squared())
        if norm > 1e-3:
            unit = quaternion_to_su2(Quaternion(x.a / norm, x.b / norm, x.c / norm, x.d / norm))
            member_worst = max(
                member_worst, float(np.max(np.abs(unit.conj().T @ unit - np.eye(2))))
            )
        pairs += 1
    for _ in range(200):
        u = SplitQuaternion(*(rng.next_symmetric() for _ in range(4)))
        v = SplitQuaternion(*(rng.next_symmetric() for _ in range(4)))
        defect = split_to_su11(u * v) - split_to_su11(u) @ split_to_su11(v)
        hom_worst = max(hom_worst, float(np.max(np.abs(defect))))
        while u.norm_squared() <= 0.1:
            u = SplitQuaternion(*(rng.next_symmetric() for _ in range(4)))
        norm = math.sqrt(u.norm_squared())
        unit = split_to_su11(SplitQuaternion(u.a / norm, u.b / norm, u.c / norm, u.d / norm))
        member_worst = max(
            member_worst, float(np.max(np.abs(unit.conj().T @ eta @ unit - eta)))
        )
        pairs += 1
    ok = hom_worst <= 1e-12 and member_worst <= 1e-12 and pairs == 400
    _record(
        7,
        "SU(2)/SU(1,1) images: product homomorphism and membership",
        ok,
        f"200 pairs per algebra, homomorphism defect {hom_worst:.3e} <= 1e-12, "
        f"membership defect {member_worst:.3e} <= 1e-12",
    )


def test_criterion_8_cli_contract(cli_env):
    manifest = json.loads((FIXTURES / "manifest.json").read_text())
    stable = True
    codes_ok = True
    orthochronous_named = False
    forced_numerical = False
    for entry in manifest:
        golden = (FIXTURES / entry["golden"]).read_text()
        outputs = []
        for _ in range(2):
            result = subprocess.run(
                [sys.executable, "-m", "spincover", *entry["args"], entry["input"]],
                capture_output=True,
                text=True,
                cwd=FIXTURES,
                env=cli_env,
            )
            outputs.append(result.stdout)
            codes_ok = codes_ok and result.returncode == entry["exit_code"]
        stable = stable and outputs[0] == outputs[1] == golden
        doc = json.loads(outputs[0])
        if entry["exit_code"] == 3:
            orthochronous_named = any(
                "orthochronous" in f for f in doc["report"]["failures"]
            )
        if entry["exit_code"] == 4:
            forced_numerical = "no nonzero covering candidate" in doc["error"]
    ok = stable and codes_ok and orthochronous_named and forced_numerical
    _record(
        8,
        "CLI fixtures: byte-stable JSON and exit codes 0/3/4",
        ok,
        f"{len(manifest)} fixtures run twice, byte-stable: {stable}, exit codes: {codes_ok}, "
        f"wrong-sheet rejection names the orthochronous condition: {orthochronous_named}, "
        f"forced tolerance yields numerical failure: {forced_numerical}",
    )
