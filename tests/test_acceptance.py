"""Acceptance suite: one test per numbered criterion, at pinned tolerances.

Each test prints its criterion line so a verbose run doubles as the
acceptance report.  The same checks back the ``dessins verify`` command.
"""

import json

import numpy as np
import pytest

from dessins import metrics as mt
from dessins import verification as vf
from dessins.cli import main


def _run(check, *args):
    result = check(*args)
    print(result.line())
    assert result.passed, result.detail
    return result


def test_criterion_01_group_orders():
    # C_n -> n, D_n -> 2n, A4 -> 12, S4 -> 24, A5 -> 60; under 10 s
    _run(vf.check_group_orders, None)


def test_criterion_02_orbit_signatures():
    # (n,n,2) / (6,4,4) / (12,8,6) / (30,20,12) with exact class formula
    _run(vf.check_orbit_signatures)


def test_criterion_03_unitarization():
    # D4, A4, S4, A5 and 3 random conjugates each: projective unitarity 1e-8
    _run(vf.check_unitarization, 0)


def test_criterion_04_constant_curvature():
    # |K - 1| < 1e-10 on the 40x40 two-chart grid of exact curvatures, for the six
    # non-cyclic groups and 3 conjugates each of condition up to 100; under 60 s
    _run(vf.check_constant_curvature, 0)


def test_criterion_05_invariance():
    # defects < 1e-8 (conjugate) and < 1e-9 (average, hermitian), 200 samples
    _run(vf.check_invariance, 0)


def test_criterion_06_well_definedness():
    # conjugator spread < 1e-6 over 3 trials; cyclic groups rejected
    _run(vf.check_well_definedness, 0)


def test_criterion_07_so3_coincidence():
    # rotation groups: constructions 1-3 within 1e-9 of the round metric
    _run(vf.check_so3_coincidence)


def test_criterion_08_dessin_topology():
    # reference dessins, Riemann-Hurwitz on 20 random dessins, brute-force Aut
    _run(vf.check_dessin_topology, 0)


def test_criterion_09_triangle_map():
    # angles 1e-6, round trips 1e-9, gluing 1e-3, exact vertex images
    _run(vf.check_triangle_map)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    # identical seeds give byte-identical grid files and reports
    artifacts = []
    for k in range(2):
        out = tmp_path / f"grid{k}.csv"
        code = main(["metric", "--group", "A4", "--construction", "conjugate",
                     "--grid", "16", "--seed", "11", "--out", str(out)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        report["grid"]["path"] = "grid.csv"
        artifacts.append((out.read_bytes(), json.dumps(report, sort_keys=True)))
    identical = artifacts[0] == artifacts[1]
    mark = "PASS" if identical else "FAIL"
    print(f"[{mark}] criterion 10: repeated runs with a fixed seed are byte-identical")
    assert identical


def test_criterion_10_grid_emission():
    # two runs, the row and the column writers agree; CSV and JSON parse back bit for bit
    _run(vf.check_grid_determinism)


def _one_ulp_lower_rho(write):
    return lambda cols: write((*cols[:3], np.nextafter(np.asarray(cols[3], dtype=float), 0), cols[4]))


@pytest.mark.parametrize("name, patch, failure", [
    ("format_grid_json", lambda write: lambda rows: write(rows).replace("\n }", "\n  }"),
     "the row writers differ from the column writers"),
    ("format_columns_csv", _one_ulp_lower_rho, "CSV grid does not parse back to the rows bit for bit"),
    ("format_columns_json", _one_ulp_lower_rho, "JSON grid does not parse back to the rows bit for bit"),
])
def test_criterion_10_grid_emission_catches_drift(name, patch, failure, monkeypatch):
    monkeypatch.setattr(mt, name, patch(getattr(mt, name)))
    result = vf.check_grid_determinism()
    assert not result.passed and result.detail == failure
