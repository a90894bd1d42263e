"""One SHA-256 over the library's outputs, to show that a change keeps them byte for byte.

Run from anywhere as `python tests/output_digest.py`; it imports spincover
from the `src` directory next to this file. It prints the digest and the
number of outputs it covers:

    matrix_to_rotor, with every method that fits, and verify_covering and
    check_membership on sample_matrix inputs; forward_map(Rotor.checked(.))
    and check_membership on sample_rotor inputs, with every piece of the
    closed form; at the four n = 3 signatures, the recovered rotor read as a
    quaternion or split-quaternion, its SU(2) or SU(1,1) image and, at (3,0)
    and (2,1), the rotor written back; the four CLI commands run in-process,
    rejections included; and the seven CLI goldens of tests/fixtures.

After the total it prints one digest per output family (recoveries,
covering reports, membership of matrices, closed forms, forward maps,
membership of images, bridges, CLI commands and goldens), the library and
CLI families split at n <= 4 and n >= 5, so a change that moves some
outputs shows which. sample_matrix is the forward map of sample_rotor, so
a change to the forward map also moves every family whose inputs are
sample matrices, at the same n.

The digest is not a pinned value: numpy builds may round differently. Run
it on a checkout of the parent commit and on the change, on one machine,
and compare the two outputs line by line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from spincover import (  # noqa: E402
    Rotor,
    Signature,
    blade_name,
    check_membership,
    forward_map,
    matrix_to_rotor,
    sample_matrix,
    sample_rotor,
    verify_covering,
)
from spincover import cli  # noqa: E402
from spincover.covering import _closed_form  # noqa: E402
from spincover.division_algebras import (  # noqa: E402
    quaternion_to_rotor,
    quaternion_to_su2,
    rotor_to_quaternion,
    rotor_to_split,
    split_to_rotor,
    split_to_su11,
)

#: Every signature with n <= 4, and one or two for each n from 5 to 12.
SIGNATURES = [Signature(p, n - p) for n in range(1, 5) for p in range(n + 1)] + [
    Signature(*pq)
    for pq in ((3, 2), (5, 0), (4, 2), (5, 2), (5, 3), (6, 3), (3, 6), (7, 3), (8, 3), (8, 4), (4, 8))
]
SEEDS = (1, 2, 3, 4, 5)
#: The CLI runs on these signatures only; its arithmetic is the library's.
CLI_SIGNATURES = [sig for sig in SIGNATURES if sig.n <= 4] + [Signature(7, 3)]
#: Each n = 3 signature with its read bridge, 2x2 image and write bridge,
#: if one writes that signature.
BRIDGES = {
    Signature(0, 3): (rotor_to_quaternion, quaternion_to_su2, None),
    Signature(1, 2): (rotor_to_split, split_to_su11, None),
    Signature(2, 1): (rotor_to_split, split_to_su11, split_to_rotor),
    Signature(3, 0): (rotor_to_quaternion, quaternion_to_su2, quaternion_to_rotor),
}


def span(sig: Signature) -> str:
    return "n <= 4" if sig.n <= 4 else "n >= 5"


class Digest:
    def __init__(self) -> None:
        self.hash = hashlib.sha256()
        self.count = 0
        #: family -> [its own hash, its number of outputs]
        self.families: dict[str, list] = {}

    def add(self, family: str, label: str, *parts: object) -> None:
        """Feed one output to the total and to its family: its label, then each part."""
        self.count += 1
        entry = self.families.setdefault(family, [hashlib.sha256(), 0])
        entry[1] += 1
        self._hashes = (self.hash, entry[0])
        self._bytes(label.encode())
        for part in parts:
            self._part(part)

    def _part(self, part: object) -> None:
        # Every part is fed with its type, so no two outputs share bytes.
        if isinstance(part, np.ndarray):
            self._bytes(f"{part.dtype.str}{part.shape}".encode())
            self._bytes(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, float):
            self._bytes(b"f" + struct.pack("<d", part))
        elif isinstance(part, (bool, int, type(None))):
            self._bytes(repr(part).encode())
        elif isinstance(part, str):
            self._bytes(b"s" + part.encode())
        elif isinstance(part, (tuple, list)):
            self._bytes(f"seq{len(part)}".encode())
            for item in part:
                self._part(item)
        else:
            raise TypeError(f"cannot digest {type(part).__name__}")

    def _bytes(self, data: bytes) -> None:
        for digest in self._hashes:
            digest.update(struct.pack("<Q", len(data)) + data)


def report_parts(report) -> tuple:
    return (report.metric_residual, report.determinant, report.orientation_minor,
            report.tolerance, report.scale, report.ok, report.failures(), str(report))


def library(digest: Digest) -> None:
    for sig in SIGNATURES:
        methods = ("general", "n3") if sig.n == 3 else ("general",)
        for seed in SEEDS:
            tag = f"({sig.p},{sig.q}) seed {seed}"
            matrix = sample_matrix(sig, seed)
            digest.add(f"membership of matrices, {span(sig)}", f"membership of matrix {tag}", report_parts(check_membership(matrix, sig)))
            for method in methods:
                rotor = matrix_to_rotor(matrix, sig, method)
                digest.add(f"recoveries, {span(sig)}", f"{method} rotor {tag}", rotor.coeffs, rotor.probe)
                digest.add(f"covering reports, {span(sig)}", f"{method} covering {tag}", verify_covering(rotor, matrix).residuals)
            value = sample_rotor(sig, seed + 100).value
            digest.add(f"closed forms, {span(sig)}", f"closed form {tag}", _closed_form(value))
            image = forward_map(Rotor.checked(value))
            digest.add(f"forward maps, {span(sig)}", f"forward map {tag}", image)
            digest.add(f"membership of images, {span(sig)}", f"membership of image {tag}", report_parts(check_membership(image, sig)))


def bridges(digest: Digest) -> None:
    for sig, (read, image, write) in BRIDGES.items():
        for seed in SEEDS:
            tag = f"({sig.p},{sig.q}) seed {seed}"
            q = read(matrix_to_rotor(sample_matrix(sig, seed), sig, "n3"))
            digest.add("bridges", f"bridge read {tag}", q.components())
            digest.add("bridges", f"bridge image {tag}", image(q))
            if write is not None:
                digest.add("bridges", f"bridge write {tag}", write(q).coeffs)


def run_cli(digest: Digest, family: str, label: str, argv: list[str]) -> None:
    # The label names the case; input paths differ between checkouts.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    digest.add(family, f"cli {label}", code, out.getvalue(), err.getvalue())


def commands(digest: Digest) -> None:
    for sig in CLI_SIGNATURES:
        family = f"CLI commands, {span(sig)}"
        methods = ["general"] + (["n3", "quaternion"] if sig.n == 3 else [])
        for seed in SEEDS:
            tag = f"({sig.p},{sig.q}) seed {seed}"
            matrix = sample_matrix(sig, seed)
            text = json.dumps({"p": sig.p, "q": sig.q, "matrix": matrix.tolist()})
            for method in methods:
                run_cli(digest, family, f"rotor-from-matrix {method} {tag}",
                        ["rotor-from-matrix", "--method", method, text])
            run_cli(digest, family, f"check {tag}", ["check", text])
            # A reflection: det -1, so check and recovery reject it.
            reflected = matrix * np.where(np.arange(sig.n) == 0, -1.0, 1.0)
            text = json.dumps({"p": sig.p, "q": sig.q, "matrix": reflected.tolist()})
            run_cli(digest, family, f"check reflected {tag}", ["check", text])
            run_cli(digest, family, f"rotor-from-matrix reflected {tag}", ["rotor-from-matrix", text])
            coeffs = sample_rotor(sig, seed + 100).coeffs
            terms = {blade_name(mask): float(coeffs[mask]) for mask in np.flatnonzero(coeffs).tolist()}
            run_cli(digest, family, f"matrix-from-rotor {tag}",
                    ["matrix-from-rotor", json.dumps({"p": sig.p, "q": sig.q, "rotor": terms})])
            # An odd grade-1 term breaks the rotor rule.
            terms["e1"] = 0.5
            run_cli(digest, family, f"matrix-from-rotor odd {tag}",
                    ["matrix-from-rotor", json.dumps({"p": sig.p, "q": sig.q, "rotor": terms})])
        if sig.n <= 4:
            run_cli(digest, family, f"selfcheck ({sig.p},{sig.q})",
                    ["selfcheck", "--p", str(sig.p), "--q", str(sig.q), "--trials", "3", "--seed", "5"])


def goldens(digest: Digest) -> None:
    fixtures = ROOT / "tests" / "fixtures"
    for case in json.loads((fixtures / "manifest.json").read_text()):
        run_cli(digest, "goldens", f"golden {case['golden']}", [*case["args"], str(fixtures / case["input"])])


def main() -> None:
    digest = Digest()
    library(digest)
    bridges(digest)
    commands(digest)
    goldens(digest)
    print(f"{digest.hash.hexdigest()}  {digest.count} outputs")
    for family, (hashed, count) in digest.families.items():
        print(f"{hashed.hexdigest()}  {count} {family}")


if __name__ == "__main__":
    main()
