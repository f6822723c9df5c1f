import json

import pytest

from dessins.cli import main

EQUATOR = '{"darts":2,"sigma_white":[[1,2]],"sigma_black":[[1,2]]}'
TORUS = '{"darts":4,"sigma_white":[[1,2,3,4]],"sigma_black":[[1,2,3,4]]}'


@pytest.fixture
def equator_file(tmp_path):
    p = tmp_path / "equator.json"
    p.write_text(EQUATOR)
    return str(p)


@pytest.fixture
def torus_file(tmp_path):
    p = tmp_path / "torus.json"
    p.write_text(TORUS)
    return str(p)


def test_info_equator(equator_file, capsys):
    assert main(["info", equator_file]) == 0
    out = capsys.readouterr().out
    assert "genus: 0" in out
    assert "degree 2" in out
    assert "order 2, type C2" in out


def test_info_torus_notes_missing_constructions(torus_file, capsys):
    assert main(["info", torus_file]) == 0
    out = capsys.readouterr().out
    assert "genus: 1" in out
    assert "do not apply" in out


def test_info_malformed_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"darts":2,"sigma_white":[[1,1]],"sigma_black":[[1,2]]}')
    assert main(["info", str(p)]) == 2
    assert "NotAPermutation" in capsys.readouterr().err


def test_metric_group_tag(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = main(["metric", "--group", "S4", "--construction", "conjugate",
                 "--grid", "10", "--out", str(out)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["group"] == {"order": 24, "type": "S4"}
    assert any("round sphere" in w for w in report["warnings"])
    text = out.read_text()
    assert text.splitlines()[0] == "re,im,chart,rho,curvature"


def test_metric_cyclic_conjugate_exit_3(capsys):
    assert main(["metric", "--group", "C5", "--construction", "conjugate"]) == 3


def test_metric_cyclic_average_succeeds(tmp_path):
    out = tmp_path / "c5.csv"
    assert main(["metric", "--group", "C5", "--construction", "average",
                 "--grid", "8", "--out", str(out)]) == 0


def test_metric_genus_one_dessin_exit_4(torus_file, tmp_path):
    out = tmp_path / "g.csv"
    assert main(["metric", torus_file, "--group", "C4",
                 "--grid", "8", "--out", str(out)]) == 4


def test_metric_requires_group_spec(equator_file):
    assert main(["metric", equator_file, "--grid", "8"]) == 2


def test_metric_dessin_with_group(equator_file, tmp_path, capsys):
    out = tmp_path / "eq.csv"
    code = main(["metric", equator_file, "--group", "C2",
                 "--construction", "average", "--grid", "8", "--out", str(out)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dessin"]["genus"] == 0
    assert report["dessin"]["automorphism_order"] == 2


def test_metric_generator_file(tmp_path, capsys):
    gens = tmp_path / "gens.json"
    # generators of the dihedral group of order 6
    from dessins.grouptypes import parse_group_tag
    from dessins.moebius import standard_generators
    entries = [m.to_entries() for m in standard_generators(parse_group_tag("D3"))]
    gens.write_text(json.dumps(entries))
    out = tmp_path / "d3.json"
    code = main(["metric", "--generators", str(gens), "--construction", "hermitian",
                 "--grid", "8", "--format", "json", "--out", str(out)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["group"] == {"order": 6, "type": "D3"}
    rows = json.loads(out.read_text())
    assert rows[0].keys() == {"re", "im", "chart", "rho", "curvature"}


def test_metric_unknown_tag_exit_2(capsys):
    assert main(["metric", "--group", "Q8", "--grid", "8"]) == 2


def test_metric_accepts_serialized_group_file(tmp_path, capsys):
    from dessins.finite_groups import from_type
    path = tmp_path / "group.json"
    path.write_text(json.dumps(from_type("C3").to_json()))
    out = tmp_path / "c3.csv"
    code = main(["metric", "--generators", str(path), "--construction", "average",
                 "--grid", "8", "--out", str(out)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["group"] == {"order": 3, "type": "C3"}


def test_metric_deterministic_bytes(tmp_path, capsys):
    outputs = []
    for k in range(2):
        out = tmp_path / f"run{k}.csv"
        code = main(["metric", "--group", "D3", "--construction", "orbit",
                     "--grid", "10", "--seed", "7", "--out", str(out)])
        assert code == 0
        outputs.append((out.read_bytes(), capsys.readouterr().out.replace(f"run{k}", "run")))
    assert outputs[0] == outputs[1]


def test_verify_sc_scope(capsys):
    assert main(["verify", "sc"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_perturbation_hook_fails(capsys):
    assert main(["verify", "groups", "--perturb", "1.001"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_sc_demo(capsys):
    assert main(["sc-demo", "--samples", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["boundary_correspondence"]) == 3
    assert payload["triangle"]["angles"][0] == pytest.approx(1.5707963267948966)


def _rejected(argv, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("size", ["0", "1", "-3"])
def test_metric_grid_below_two_exit_2(size, capsys):
    _rejected(["metric", "--group", "D3", "--grid", size], capsys, "--grid")


@pytest.mark.parametrize("step", ["0", "-0.001", "nan", "inf"])
def test_metric_step_not_positive_exit_2(step, capsys):
    _rejected(["metric", "--group", "D3", "--step", step], capsys, "--step")


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_sc_demo_samples_below_one_exit_2(samples, capsys):
    _rejected(["sc-demo", "--samples", samples], capsys, "--samples")
