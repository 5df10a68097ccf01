"""Golden reports: every docs/examples payload through the CLI, byte for byte.

The files under tests/golden/ are the reports the CLI wrote for the shipped
examples; a change that moves any of their bytes shows up here.  The
cover-verify case checks the covering written by the graded build example.
"""

import json
from pathlib import Path

import pytest

from shiftlab.cli import run

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
GOLDEN = Path(__file__).resolve().parent / "golden"

# golden file -> (command, example payload, output format)
CASES = {
    "carac_check.json": ("carac-check", "carac_check", "json"),
    "corollary_check.json": ("corollary-check", "corollary_check", "json"),
    "criterion_check.json": ("criterion-check", "criterion_check", "json"),
    "graded_cover_build.json": ("cover-build", "graded_cover_build", "json"),
    "log_cover_build.json": ("cover-build", "log_cover_build", "json"),
    "orbit_probe.json": ("orbit-probe", "orbit_probe", "json"),
    "unif_check.json": ("unif-check", "unif_check", "json"),
    "witness_build.json": ("witness-build", "witness_build", "json"),
    "witness_eval.json": ("witness-eval", "witness_eval", "json"),
    "witness_sweep.json": ("witness-sweep", "witness_sweep", "json"),
    "witness_sweep.csv": ("witness-sweep", "witness_sweep", "csv"),
}


def report_bytes(tmp_path, command: str, payload: dict, fmt: str = "json", rc: int = 0) -> bytes:
    out = tmp_path / "report"
    job = {"command": command, "payload": payload,
           "output": {"format": fmt, "path": str(out)}}
    assert run(job) == rc
    return out.read_bytes()


def example(name: str) -> dict:
    return json.loads((EXAMPLES / f"{name}.json").read_text())


@pytest.mark.parametrize("golden", sorted(CASES))
def test_example_report_bytes(golden, tmp_path):
    command, name, fmt = CASES[golden]
    got = report_bytes(tmp_path, command, example(name), fmt)
    assert got == (GOLDEN / golden).read_bytes()


# d = 3: one family per variant kind, consecutive powers 4 and 5 so that
# index 1 of the first cell meets index 0 of the second
CRITERION_D3 = {
    "families": [{"variant": "pure_power"}, {"variant": "geometric"},
                 {"variant": "affine", "alpha": 0.4}],
    "covering": {"cells": [
        {"n": n, "anchor": [a, b, c], "box": [[a, a + 0.02], [b, b + 0.01], [c, c + 0.03]]}
        for n, a, b, c in ((4, 1.1, 1.05, 1.2), (5, 1.12, 1.06, 1.23), (7, 1.14, 1.07, 1.26))]},
    "v": [{"entries": [[0, 1.0], [1, 0.5]]}, {"entries": [[0, 0.8], [1, 0.2]]},
          {"entries": [[0, 1.2]]}],
    "m_lo": 1, "m_hi": 3, "eps": 0.1, "samples_per_axis": 2,
}


def test_criterion_check_d3_report_bytes(tmp_path):
    got = report_bytes(tmp_path, "criterion-check", CRITERION_D3, rc=1)  # II.a to IV fail
    assert got == (GOLDEN / "criterion_check_d3.json").read_bytes()


def criterion_blocks(norm: str) -> dict:
    """400 cells tiling [1.2, 1.3]^2, 20 x 20, with powers 100**2 + 100 * (j + 1).

    With 4 samples per axis and 2 supported indices per axis, a block holds
    2**13 // 800 = 10 cells, so the check runs in 40 blocks.  The II.b
    witness is cell 19 in l1 and cell 39 in sup, past the first block.
    """
    g, side = 20, 0.1 / 20
    cells = [{"n": 10_000 + 100 * (j + 1),
              "anchor": [1.2 + (r + 0.5) * side, 1.2 + (c + 0.5) * side],
              "box": [[1.2 + r * side, 1.2 + (r + 1) * side],
                      [1.2 + c * side, 1.2 + (c + 1) * side]]}
             for j, (r, c) in enumerate((r, c) for r in range(g) for c in range(g))]
    return {"families": [{"variant": "affine", "alpha": 0.0}, {"variant": "pure_power"}],
            "covering": {"cells": cells},
            "v": [{"entries": [[0, 1.0], [1, 0.5]]}, {"entries": [[0, 0.9], [2, 0.4]]}],
            "m_lo": 1, "m_hi": 2, "eps": 0.2, "samples_per_axis": 4, "norm": norm}


@pytest.mark.parametrize("norm", ["l1", "sup"])
def test_criterion_check_in_blocks_report_bytes(norm, tmp_path):
    got = report_bytes(tmp_path, "criterion-check", criterion_blocks(norm))
    assert got == (GOLDEN / f"criterion_check_blocks_{norm}.json").read_bytes()
    witness = json.loads(got)["conditions"]["II.b"]["witness"]
    assert witness["cell"] == {"l1": 19, "sup": 39}[norm]


# the paper's own family, affine(alpha = 0) on both axes, through the witness
# path: the docs/examples/witness_sweep.json config at three small bases
WITNESS_SWEEP_AFFINE0 = {
    "bases": [8, 16, 32],
    "config": {
        "eta": 0.05,
        "log_cov": {"base": 128, "box": [[1.2, 1.3], [1.2, 1.3]], "m": 2, "r": 1},
        "u": [{"entries": []}, {"entries": []}],
        "v": [{"entries": [[0, 1.0], [1, 0.5]]}, {"entries": [[0, 1.0]]}],
        "families": [{"variant": "affine", "alpha": 0.0}] * 2,
    },
    "grid_per_axis": 3,
}


def test_witness_sweep_affine0_report_bytes(tmp_path):
    got = report_bytes(tmp_path, "witness-sweep", WITNESS_SWEEP_AFFINE0)
    assert got == (GOLDEN / "witness_sweep_affine0.json").read_bytes()


def test_cover_verify_of_graded_build(tmp_path):
    covering = json.loads((GOLDEN / "graded_cover_build.json").read_text())
    payload = {"covering": covering, "K": example("graded_cover_build")["K"]}
    got = report_bytes(tmp_path, "cover-verify", payload)
    assert got == (GOLDEN / "graded_cover_verify.json").read_bytes()
