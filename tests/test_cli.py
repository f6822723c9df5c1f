import cmath
import io
import json
import os
import runpy
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dessins
from dessins import cli, errors
from dessins import permutations as perms
from dessins import schwarz_christoffel as sc
from dessins.cli import build_parser, main
from dessins.grouptypes import parse_group_tag
from dessins.moebius import MoebiusTransform, standard_generators

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


def test_metric_genus_one_dessin_exit_4(torus_file, tmp_path, monkeypatch):
    # the genus is checked before the automorphism group is computed
    def automorphisms(d):
        raise AssertionError("automorphisms of a genus-1 dessin")

    monkeypatch.setattr(cli.dd, "automorphisms", automorphisms)
    out = tmp_path / "g.csv"
    assert main(["metric", torus_file, "--group", "C4",
                 "--grid", "8", "--out", str(out)]) == 4


def test_metric_requires_group_spec(equator_file):
    assert main(["metric", equator_file, "--grid", "8"]) == 2


def test_metric_group_and_generators_exclude_each_other(tmp_path):
    gens = tmp_path / "bad.json"
    gens.write_text("not json")
    out = tmp_path / "g.csv"
    code, stdout, err = _run_quietly(["metric", "--group", "D3", "--generators", str(gens),
                                      "--grid", "8", "--out", str(out)])
    assert code == 2 and stdout == "" and not out.exists()
    assert _usage_and_one_error(err) and "not allowed with argument" in err


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


def test_metric_closes_serialized_group_above_the_default_cap(tmp_path, capsys):
    # 202 elements: the cap is taken from the list, where 200 ended in InfiniteGroup
    from dessins.finite_groups import closure
    path = tmp_path / "d101.json"
    path.write_text(json.dumps(closure(standard_generators(parse_group_tag("D101")),
                                       cap=300).to_json()))
    code = main(["metric", "--generators", str(path), "--construction", "average",
                 "--grid", "8", "--out", str(tmp_path / "d101.csv")])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["group"] == {"order": 202, "type": "D101"}


def _shift_flip(k):
    """Entries of z -> -z + 2k, an involution."""
    return [[-1, 0], [2 * k, 0], [0, 0], [1, 0]]


def test_metric_generator_list_above_the_order_cap_exit_2(tmp_path, monkeypatch):
    # 14012 distinct entries give a closure cap of 14013, past the largest group
    # whose element orders resolve; that is reported before any closure round
    path = tmp_path / "long.json"
    path.write_text(json.dumps([_shift_flip(k) for k in range(14012)]))
    monkeypatch.setattr(cli, "closure", None)
    code, _, err = _run_quietly(["metric", "--generators", str(path), "--grid", "8",
                                 "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert err == ("error: NumericalAmbiguity: element orders cannot be resolved at tolerance "
                   "1e-09 in a group of up to 14013 elements; the limit is 14012\n")


def test_metric_repeated_generator_pair_closes_at_the_default_cap(tmp_path):
    # the two distinct entries set the cap, not the 14012 listed ones
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps([_shift_flip(0), _shift_flip(1)] * 7006))
    start = time.perf_counter()
    code, _, err = _run_quietly(["metric", "--generators", str(path), "--grid", "8",
                                 "--out", str(tmp_path / "g.csv")])
    assert time.perf_counter() - start < 10.0
    assert code == 2
    assert err == ("error: MalformedInput: the generators do not close: "
                   "closure exceeded 200 elements\n")


def test_metric_generator_index_counts_file_entries(tmp_path):
    # repeats count once for the cap only; an element-order failure names its entry
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([_shift_flip(0)] * 3 + [[[1, 0], [1, 0], [0, 0], [1, 0]]]))
    code, _, err = _run_quietly(["metric", "--generators", str(path), "--grid", "8",
                                 "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert err == "error: MalformedInput: generator 4 has no finite order up to 200\n"


def test_metric_group_keeps_every_listed_generator(tmp_path):
    # repeats set no cap of their own, and the group still lists each entry
    path = tmp_path / "gens.json"
    listed = [m.to_entries() for m in standard_generators(parse_group_tag("D3"))] * 3
    path.write_text(json.dumps(listed))
    group, _, _ = cli._load_group(build_parser().parse_args(["metric", "--generators", str(path)]))
    assert group.type_tag == parse_group_tag("D3")
    assert group.generators.shape == (len(listed), 2, 2)


def test_metric_closes_serialized_group_without_its_identity(tmp_path, capsys):
    # 201 entries: the identity closure registers first needs one more place
    from dessins.finite_groups import closure
    data = closure(standard_generators(parse_group_tag("D101")), cap=300).to_json()
    identity = MoebiusTransform(np.eye(2)).to_entries()
    data["elements"].remove(identity)
    assert len(data["elements"]) == 201
    path = tmp_path / "d101.json"
    path.write_text(json.dumps(data))
    code = main(["metric", "--generators", str(path), "--construction", "average",
                 "--grid", "8", "--out", str(tmp_path / "d101.csv")])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["group"] == {"order": 202, "type": "D101"}


def test_metric_generators_whose_product_overflows_exit_2_without_a_warning(tmp_path):
    # round 2 multiplies 1e300 by 1.0 and by 1e300: the matmul overflows, and the
    # overflowing product is refused by its determinant, with no numpy warning
    path = tmp_path / "gens.json"
    path.write_text("[[[0, 0], [0, 1], [0, 1e300], [0, 0]], [[0, 0], [0, 1.0], [0, 1.0], [0, 0]]]")
    code, _, err = _run_quietly(["metric", "--generators", str(path), "--grid", "4",
                                 "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert err == "error: invalid input: matrix determinant overflows\n"


def test_metric_generator_object_without_elements_exit_2(tmp_path):
    path = tmp_path / "gens.json"
    path.write_text('{"type": "D3"}')
    code, _, err = _run_quietly(["metric", "--generators", str(path), "--grid", "8",
                                 "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert err == "error: MalformedInput: generator object has no 'elements' list\n"


_ERRORS = [cls for cls in vars(errors).values()
           if isinstance(cls, type) and issubclass(cls, errors.DessinsError)]


@pytest.mark.parametrize("error", _ERRORS, ids=lambda cls: cls.__name__)
def test_every_package_error_has_its_exit_code(error, monkeypatch):
    def run_checks(*args, **kwargs):
        raise error("reason")

    monkeypatch.setattr(cli, "run_checks", run_checks)
    if error is errors.InfiniteGroup:  # still a traceback; see cli.main
        with pytest.raises(errors.InfiniteGroup):
            main(["verify", "sc"])
        return
    code, out, err = _run_quietly(["verify", "sc"])
    expected = {errors.CyclicGroupUnsupported: 3, errors.GenusMismatch: 4}.get(error, 2)
    assert code == error.exit_code == expected
    assert (out, err) == ("", f"error: {error.__name__}: reason\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_metric_deterministic_bytes(fmt, tmp_path, capsys):
    outputs = []
    for k in range(2):
        out = tmp_path / f"run{k}.{fmt}"
        code = main(["metric", "--group", "D3", "--construction", "orbit", "--format", fmt,
                     "--grid", "10", "--seed", "7", "--out", str(out)])
        assert code == 0
        outputs.append((out.read_bytes(), capsys.readouterr().out.replace(f"run{k}", "run")))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("construction", ["average", "conjugate", "hermitian", "orbit"])
@pytest.mark.parametrize("source", ["tag", "generators"])
def test_metric_grid_and_curvatures_match_the_row_writers(source, construction, fmt,
                                                          tmp_path, capsys):
    # the row functions are what a replay of the command computes
    from dessins import metrics as mt
    from dessins.finite_groups import closure
    from dessins.grouptypes import parse_group_tag
    from dessins.moebius import standard_generators
    gens = standard_generators(parse_group_tag("A4"))
    if source == "tag":
        args = ["--group", "A4"]
    else:
        m = MoebiusTransform([[1.1, 0.2j], [0.1, 0.9]])
        gens = [m.compose(g).compose(m.inverse()) for g in gens]
        path = tmp_path / "gens.json"
        path.write_text(json.dumps([g.to_entries() for g in gens]))
        gens = [MoebiusTransform.from_entries(g.to_entries()) for g in gens]
        args = ["--generators", str(path)]
    out = tmp_path / f"grid.{fmt}"
    assert main(["metric", *args, "--construction", construction, "--grid", "11",
                 "--format", fmt, "--out", str(out)]) == 0
    diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
    build = {"average": mt.averaged_metric, "conjugate": mt.conjugated_metric,
             "hermitian": mt.hermitian_metric, "orbit": mt.orbit_triple_metric}[construction]
    rows = mt.metric_grid_rows(build(closure(gens)), n=11)
    assert out.read_text() == (mt.format_grid_csv(rows) if fmt == "csv" else
                               json.dumps(mt.grid_rows_as_json(rows), sort_keys=True, indent=1) + "\n")
    curvatures = [row[4] for row in rows]
    expected = [min(curvatures), max(curvatures), max(curvatures) - min(curvatures)]
    got = [diagnostics[f"curvature_{k}"] for k in ("min", "max", "spread")]
    assert [x.hex() for x in got] == [x.hex() for x in expected]


def test_alternating_calls_match_fresh_processes(equator_file, tmp_path):
    # the parser is built once per process; no call may leave anything behind for the next
    gens = tmp_path / "gens.json"
    m = MoebiusTransform([[1.1, 0.2j], [0.1, 0.9]])
    gens.write_text(json.dumps([m.compose(g).compose(m.inverse()).to_entries()
                                for g in standard_generators(parse_group_tag("A4"))]))
    out = str(tmp_path / "g.csv")
    calls = [["metric", "--group", "A4", "--grid", "8", "--out", out],
             ["metric", "--generators", str(gens), "--construction", "average", "--grid", "8",
              "--out", out],
             ["metric", "--group", "A4", "--grid", "2", "--out", out],
             ["info", equator_file],
             ["verify", "sc"]]
    src = str(Path(dessins.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = [subprocess.run([sys.executable, "-m", "dessins", *argv], capture_output=True,
                            text=True, env=env, timeout=120) for argv in calls]
    for argv, proc in zip(calls * 2, fresh * 2):
        assert _run_quietly(argv) == (proc.returncode, proc.stdout, proc.stderr), argv
    assert build_parser() is build_parser()


def test_verify_sc_scope(capsys):
    assert main(["verify", "sc"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_perturbation_hook_fails(capsys):
    assert main(["verify", "groups", "--perturb", "1.001"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert len(failed) == 1 and failed[0].startswith("[FAIL] criterion 1:")


def test_verify_all(capsys):
    assert main(["verify", "all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [
        f"[PASS] criterion {k}" for k in (1, 2, 3, 6, 8, 4, 5, 7, 10, 9)]
    assert lines[-1] == "10/10 checks passed"


def test_sc_demo(capsys):
    assert main(["sc-demo", "--samples", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["boundary_correspondence"]) == 3
    assert payload["triangle"]["angles"][0] == pytest.approx(1.5707963267948966)


def _sc_demo_payload(samples):
    tm = sc.triangle_map()
    return {
        "triangle": {
            "prevertices": [0.0, -1.0, "inf"],
            "vertices": [[v.real, v.imag] for v in tm.vertices],
            "angles": list(tm.angles),
            "constant": [tm.constant.real, tm.constant.imag],
        },
        "boundary_correspondence": sc.boundary_correspondence(samples),
    }


@pytest.mark.parametrize("samples", [1, 2, 5, 300])
def test_sc_demo_text_is_json_dumps(samples, tmp_path, capsys):
    # json.dumps with indent is the slow path the row template replaces, kept as the oracle
    expected = json.dumps(_sc_demo_payload(samples), sort_keys=True, indent=2) + "\n"
    assert main(["sc-demo", "--samples", str(samples)]) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "sc.json"
    assert main(["sc-demo", "--samples", str(samples), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == expected


def test_sc_demo_text_writes_non_finite_floats_as_json_does():
    payload = _sc_demo_payload(2)
    arcs = payload["boundary_correspondence"]
    arcs[0]["samples"][0].update(x=float("nan"), re=float("inf"), im=-float("inf"))
    arcs[1]["samples"][1]["re"] = 1e308
    arcs[2]["samples"] = []
    payload["triangle"]["constant"] = [float("nan"), -0.0]
    assert cli._sc_demo_text(payload) == json.dumps(payload, sort_keys=True, indent=2)


def _rejected(argv, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("size", ["0", "1", "2", "-3"])
def test_metric_grid_below_three_exit_2(size, tmp_path, capsys):
    # at 2 points per axis the grid is the four corners, all outside the disc
    out = tmp_path / "g.csv"
    _rejected(["metric", "--group", "D3", "--grid", size, "--out", str(out)], capsys, "--grid")
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_sc_demo_samples_below_one_exit_2(samples, capsys):
    _rejected(["sc-demo", "--samples", samples], capsys, "--samples")


@pytest.mark.parametrize("argv", [
    ["metric", "--group", "D3", "--grid", str(10**15)],
    ["sc-demo", "--samples", str(10**15)],
])
def test_size_too_large_to_allocate_exit_2(argv, tmp_path):
    # numpy refuses the first array at once; sizes it would really try to allocate are not tested
    out = tmp_path / "out"
    code, stdout, err = _run_quietly(argv + ["--out", str(out)])
    assert code == 2 and stdout == ""
    assert err.startswith("error: input too large: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [["metric", "--group", "A4", "--grid", "4"],
                                  ["sc-demo", "--samples", "2"]])
@pytest.mark.parametrize("target", ["directory", "missing parent"])
def test_unwritable_out_exit_2(argv, target, tmp_path):
    # exit 1 is kept for verification failure; metric writes after every diagnostic, so no report
    out = tmp_path if target == "directory" else tmp_path / "missing" / "dir" / "g.csv"
    code, stdout, err = _run_quietly(argv + ["--out", str(out)])
    assert code == 2 and stdout == ""
    assert err.startswith("error: MalformedInput: cannot write ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    *(["metric", "--group", "A4", "--construction", c, "--grid", "8"]
      for c in ("average", "conjugate", "hermitian", "orbit")),
    ["verify", "groups"],
])
def test_negative_seed_exit_2(argv, tmp_path, capsys):
    if argv[0] == "metric":  # a run that is not rejected writes its grid here, not into the cwd
        argv = argv + ["--out", str(tmp_path / "g.csv")]
    _rejected(argv + ["--seed", "-1"], capsys, "--seed")


@pytest.mark.parametrize("text", [
    "5",
    '"abc"',
    '{"elements": 3}',
    "[[1, 2, 3, 4]]",
    "[[[1], [0, 0], [0, 0], [1, 0]]]",
    '[[["a", "b"], [0, 0], [0, 0], [1, 0]]]',
    "[[[null, 0], [0, 0], [0, 0], [1, 0]]]",
    "[[[true, 0], [0, 0], [0, 0], [1, 0]]]",
    "[[[NaN, 0], [0, 0], [0, 0], [1, 0]]]",
    "[[[1" + "0" * 400 + ", 0], [0, 0], [0, 0], [1, 0]]]",
    "[[[1, 0], [0, 0], [0, 0]]]",
    "[[[0, 0], [0, 0], [0, 0], [0, 0]]]",
    # a translation by 1e-9 has no finite order
    "[[[1, 0], [1e-9, 0], [0, 0], [1, 0]], [[1, 0], [0, 0], [0, 0], [1, 0]]]",
])
def test_metric_bad_generator_file_exit_2(text, tmp_path, capsys):
    gens = tmp_path / "gens.json"
    gens.write_text(text)
    assert main(["metric", "--generators", str(gens), "--grid", "8",
                 "--out", str(tmp_path / "g.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _run_quietly(argv):
    """main(argv) with warnings as errors: (exit code, stdout, stderr).

    A warning printed by numpy would add lines to stderr; as an error it
    escapes main and fails the test like any other traceback.  An argparse
    rejection returns its exit code like main's own errors.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _usage_and_one_error(err: str) -> bool:
    """argparse's rejection: the usage block, then exactly one error line."""
    lines = [line for line in err.splitlines() if not line.startswith(("usage: ", " "))]
    return err.startswith("usage: ") and len(lines) == 1 and "error: " in lines[0]


@pytest.mark.parametrize("step", ["0", "-0.001", "nan", "inf", "0.01"])
def test_metric_step_not_positive_exit_2(step, tmp_path):
    # the curvature is exact, so the finite-difference step is no longer an option:
    # every --step value, sound or not, is refused
    out = tmp_path / "g.csv"
    code, stdout, err = _run_quietly(["metric", "--group", "D3", "--step", step,
                                      "--out", str(out)])
    assert code == 2 and stdout == ""
    assert _usage_and_one_error(err) and "--step" in err and "Traceback" not in err
    assert not out.exists()


_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("argv, expected", [
    (["metric", "--group", "D3", "--grid", _HUGE], 2),  # numpy refuses the size
    (["metric", "--group", "D3", "--grid", "8", "--seed", _HUGE], 0),
    (["sc-demo", "--samples", _HUGE], 2),
    (["verify", "sc", "--seed", _HUGE], 0),
], ids=["grid", "seed", "samples", "verify-seed"])
def test_huge_integer_flags_do_not_traceback(argv, expected, tmp_path):
    # a 400-digit int overflowed math.isfinite in the flag check: an OverflowError traceback
    if argv[0] != "verify":
        argv = argv + ["--out", str(tmp_path / "out")]
    code, stdout, err = _run_quietly(argv)
    assert code == expected
    assert err == "" if code == 0 else err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("construction", ["average", "conjugate", "hermitian", "orbit"])
@pytest.mark.parametrize("text", [
    "[[[1,0],[1,0],[0,0],[1,0]]]",  # translation
    "[[[2,0],[0,0],[0,0],[1,0]]]",  # scaling
    "[[[-1.23,-1.19],[1e300,-0.32],[0.43,-1.48],[0.81,-0.88]]]",
    "[[[1e150,0],[1e150,0],[0,0],[1e-150,0]]]",  # its powers overflow
])
def test_metric_generator_of_infinite_order_exit_2(text, construction, tmp_path):
    # rejected before closing, instead of an InfiniteGroup traceback or a metric of overflows
    gens = tmp_path / "gens.json"
    gens.write_text(text)
    code, _, err = _run_quietly(["metric", "--generators", str(gens), "--construction",
                                 construction, "--grid", "8", "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert err == "error: MalformedInput: generator 1 has no finite order up to 200\n"


@pytest.mark.parametrize("construction", ["average", "conjugate", "hermitian", "orbit"])
def test_metric_kernel_overflow_one_line(construction, tmp_path):
    # z -> -z + 2e150 has order 2, but squares of its images overflow in the kernel
    gens = tmp_path / "gens.json"
    gens.write_text("[[[0,1],[0,-2e150],[0,0],[0,-1]]]")
    out = tmp_path / "g.csv"
    code, stdout, err = _run_quietly(["metric", "--generators", str(gens), "--construction",
                                      construction, "--grid", "8", "--out", str(out)])
    assert code == (3 if construction == "conjugate" else 2) and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("construction", ["average", "hermitian"])
@pytest.mark.parametrize("offset", ["2e5", "2e10", "2e30"])
def test_metric_far_translated_involution_is_invariant(offset, construction, tmp_path):
    # z -> -z + c: the samples it moves lie near c, where the density's digits
    # cancelled (defects 2.5e-5, 1.0 and 1.0); the pulled-back stack S @ h is
    # evaluated at the samples themselves
    gens = tmp_path / "gens.json"
    gens.write_text(f"[[[0,1],[0,-{offset}],[0,0],[0,-1]]]")
    code, stdout, err = _run_quietly(["metric", "--generators", str(gens), "--construction",
                                      construction, "--grid", "8", "--out", str(tmp_path / "g.csv")])
    assert (code, err) == (0, "")
    report = json.loads(stdout)
    assert report["group"] == {"order": 2, "type": "C2"}
    assert report["diagnostics"]["invariance_defect"] < 1e-9


def test_metric_generators_in_ambiguity_band_exit_2(tmp_path):
    # both of order 8; products land in the band next to the dedup tolerance
    rot = MoebiusTransform.scaling(cmath.exp(2j * cmath.pi / 8))
    shift = MoebiusTransform.translation(3e-9)
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([rot.to_entries(),
                                shift.compose(rot).compose(shift.inverse()).to_entries()]))
    code, _, err = _run_quietly(["metric", "--generators", str(gens), "--grid", "8",
                                 "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert err.startswith("error: NumericalAmbiguity: ") and err.count("\n") == 1


def test_metric_orbit_on_huge_generator_entry(tmp_path):
    # |z|^2 of a fixed point overflowed in the chordal distance (OverflowError); the
    # generator has no finite order, so the file is now rejected before closing
    gens = tmp_path / "gens.json"
    gens.write_text("[[[-1.23,-1.19],[1e300,-0.32],[0.43,-1.48],[0.81,-0.88]]]")
    code, _, err = _run_quietly(["metric", "--generators", str(gens), "--construction", "orbit",
                                 "--grid", "8", "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_metric_non_finite_determinant_one_line(tmp_path):
    gens = tmp_path / "gens.json"
    gens.write_text("[[[1e300,0],[0,0],[0,0],[1e300,0]]]")
    code, _, err = _run_quietly(["metric", "--generators", str(gens), "--grid", "8",
                                 "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", [pytest.param("not json", id="not-json"),
                                  pytest.param("[" * 200000, id="nested")])
@pytest.mark.parametrize("command", ["info", "metric", "generators"])
def test_json_input_file_errors_share_one_contract(command, text, tmp_path):
    # a dessin file and a generator file are decoded by the same wrapper; text nested
    # too deeply for the parser is rejected like text that is not JSON
    path = tmp_path / "input.json"
    path.write_text(text)
    grid = ["--grid", "8", "--out", str(tmp_path / "g.csv")]
    code, out, err = _run_quietly({"info": ["info", str(path)],
                                   "metric": ["metric", str(path), "--group", "D3", *grid],
                                   "generators": ["metric", "--generators", str(path), *grid],
                                   }[command])
    assert code == 2 and out == ""
    assert err.startswith("error: MalformedInput: invalid JSON: ") and err.count("\n") == 1


def test_info_huge_dart_count_without_labels_exit_2(tmp_path):
    # rejected from the labels before the dart count is used as a size
    path = tmp_path / "huge.json"
    path.write_text('{"darts": 100000000000000, "sigma_white": [[1, 2]], "sigma_black": []}')
    code, _, err = _run_quietly(["info", str(path)])
    assert code == 2
    assert err.startswith("error: Disconnected: ") and err.count("\n") == 1


# The malformed dessin files that tools/compare_outputs.py feeds to info on two
# checkouts, with the one stderr line each printed before the labels were
# checked in bulk: the first bad label in file order, with its first failing
# check (type, then range, then repeat).
_MALFORMED_DESSINS = runpy.run_path(
    str(Path(__file__).parents[1] / "tools" / "compare_outputs.py"))["MALFORMED_DESSINS"]
_MALFORMED_ERRORS = {
    "label-zero": "NotAPermutation: dart label 0 outside 1..3",
    "label-negative": "NotAPermutation: dart label -1 outside 1..3",
    "label-above-darts": "NotAPermutation: dart label 4 outside 1..3",
    "label-10**30": "NotAPermutation: dart label 1000000000000000000000000000000 outside 1..3",
    "label--10**30": "NotAPermutation: dart label -1000000000000000000000000000000 outside 1..3",
    "label-2**63": "NotAPermutation: dart label 9223372036854775808 outside 1..3",
    "label--2**63": "NotAPermutation: dart label -9223372036854775808 outside 1..3",
    "label-true": "NotAPermutation: dart label True is not an integer",
    "label-float": "NotAPermutation: dart label 1.0 is not an integer",
    "label-string": "NotAPermutation: dart label '1' is not an integer",
    "label-nested-list": "NotAPermutation: dart label [2, 3] is not an integer",
    "label-null": "NotAPermutation: dart label None is not an integer",
    "repeat-in-cycle": "NotAPermutation: dart 1 appears twice",
    "repeat-across-cycles": "NotAPermutation: dart 2 appears twice",
    "range-before-type": "NotAPermutation: dart label 5 outside 1..3",
    "repeat-before-type": "NotAPermutation: dart 1 appears twice",
    "type-before-range": "NotAPermutation: dart label 2.5 is not an integer",
    "white-before-black": "NotAPermutation: dart 2 appears twice",
    "repeat-after-empty-cycles": "NotAPermutation: dart 2 appears twice",
    "only-empty-cycles": "Disconnected: 2 darts but only 0 labels in the cycles; "
                         "an unlisted dart is fixed by both rotations",
    "fewer-labels-than-darts": "Disconnected: 4 darts but only 3 labels in the cycles; "
                               "an unlisted dart is fixed by both rotations",
    "disconnected": "Disconnected: the two rotations do not generate a transitive action",
}


def test_malformed_dessin_table_is_the_compare_tool_table():
    assert _MALFORMED_ERRORS.keys() == _MALFORMED_DESSINS.keys()


@pytest.mark.parametrize("name", _MALFORMED_ERRORS)
def test_info_malformed_dessin_error_contract(name, tmp_path):
    path = tmp_path / "dessin.json"
    path.write_text(_MALFORMED_DESSINS[name])
    assert _run_quietly(["info", str(path)]) == (2, "", f"error: {_MALFORMED_ERRORS[name]}\n")


def _cycles_1_based(p):
    return [[d + 1 for d in c] for c in perms.cycles(p) if len(c) > 1]


_LABELS = st.lists(st.lists(st.integers(min_value=-2, max_value=14), max_size=5), max_size=4)
_JSONISH = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-3, max_value=14)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=10)


@st.composite
def info_files(draw):
    """(kind, file text): valid dessins, bad labels, bad shapes, disconnected pairs, bad JSON."""
    kind = draw(st.sampled_from(["valid", "labels", "shape", "disconnected", "text"]))
    n = draw(st.integers(min_value=1, max_value=10))
    if kind == "valid":  # may still be disconnected
        sw, sb = (tuple(draw(st.permutations(range(n)))) for _ in range(2))
        data = {"darts": n, "sigma_white": _cycles_1_based(sw),
                "sigma_black": _cycles_1_based(sb)}
    elif kind == "labels":  # repeats, zero, negative and out-of-range labels
        data = {"darts": n, "sigma_white": draw(_LABELS), "sigma_black": draw(_LABELS)}
    elif kind == "disconnected":  # two blocks of darts, each rotated on its own
        k = draw(st.integers(min_value=1, max_value=n)) if n > 1 else 1
        data = {"darts": n + k, "sigma_white": [list(range(1, n + 1))],
                "sigma_black": [list(range(n + 1, n + k + 1))]}
    elif kind == "shape":
        keys = draw(st.sets(st.sampled_from(["darts", "sigma_white", "sigma_black"])))
        data = {key: draw(_JSONISH) for key in keys}
        if draw(st.booleans()):
            data = draw(_JSONISH)
    else:
        valid = json.dumps({"darts": n, "sigma_white": [list(range(1, n + 1))],
                            "sigma_black": []})
        return kind, draw(st.text(max_size=30) | st.just(valid[:draw(st.integers(0, len(valid)))]))
    return kind, json.dumps(data)


@settings(max_examples=300, deadline=None)
@given(info_files())
def test_info_fuzz_exit_codes(tmp_path_factory, case):
    kind, text = case
    path = tmp_path_factory.getbasetemp() / "fuzz-dessin.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run_quietly(["info", str(path)])
    assert code in (0, 2)
    if code == 0:
        assert err == "" and "automorphisms: order " in out
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
    if kind == "disconnected":
        assert code == 2 and "Disconnected" in err


def _int_at_most(limit):
    """Text that int() rejects, or that it parses to at most ``limit`` (no huge grids)."""
    def small(text):
        try:
            return int(text) <= limit
        except ValueError:
            return True
    return small


_GRID_TEXT = st.integers(min_value=-3, max_value=14).map(str) | st.text(max_size=4).filter(
    _int_at_most(14))


@settings(max_examples=100, deadline=None)
@given(grid=_GRID_TEXT)
def test_metric_numeric_flags_fuzz(tmp_path_factory, grid):
    out = tmp_path_factory.getbasetemp() / "fuzz-grid.csv"
    out.unlink(missing_ok=True)
    code, _, err = _run_quietly(["metric", "--group", "A4", "--construction", "conjugate",
                                 f"--grid={grid}", "--out", str(out)])
    assert code in (0, 2)
    if code == 0:
        assert err == "" and "nan" not in out.read_text()
        return
    if not err.startswith("usage: "):  # main's own errors: one line
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert _usage_and_one_error(err)
    assert not out.exists()


# Generator files: whole or partial serialized groups (conjugated or not), finite-order
# elements of different groups (which generate infinite groups), bad entries, deep
# nesting, huge and non-finite numbers, and generators of infinite order.

_FUZZ_TAGS = ["C3", "C7", "D2", "D5", "A4", "S4", "A5"]
_NUMBER = (st.integers(min_value=-3, max_value=3) | st.floats(-2.0, 2.0) | st.floats()
           | st.sampled_from([1e300, -1e300, 1e-300, 10**400, 0.0, -0.0]))
_ENTRY = st.lists(st.lists(_NUMBER, min_size=2, max_size=2), min_size=4, max_size=4)


@st.composite
def _group_entries(draw):
    """Generators or all elements of a tagged group, moved by a random conjugator or not."""
    from dessins.finite_groups import conjugate_group, from_type, random_conjugator
    g = from_type(draw(st.sampled_from(_FUZZ_TAGS)))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        g = conjugate_group(g, random_conjugator(rng, draw(st.floats(1.1, 1e4))))
    stack = g.stack if draw(st.booleans()) else g.generators
    return [MoebiusTransform.from_normalized(m).to_entries() for m in stack]


@st.composite
def generator_files(draw):
    """(kind, file text) of a --generators file."""
    kind = draw(st.sampled_from(["group", "mixed", "entries", "shape", "nested", "text"]))
    if kind == "group":
        entries = draw(_group_entries())
    elif kind == "mixed":  # the generators of two groups, each finite
        entries = draw(_group_entries()) + draw(_group_entries())
        entries = draw(st.permutations(entries))[:draw(st.integers(1, 4))]
    elif kind == "entries":
        entries = draw(st.lists(_ENTRY | _JSONISH, max_size=4))
    elif kind == "shape":
        entries = draw(_JSONISH)
    elif kind == "nested":
        depth = draw(st.integers(1, 3000))
        inner = json.dumps(draw(_group_entries()) if draw(st.booleans()) else [])
        return kind, "[" * depth + inner + "]" * depth
    else:
        return kind, draw(st.text(max_size=30))
    if draw(st.booleans()):
        data = {"type": draw(st.sampled_from(_FUZZ_TAGS) | st.text(max_size=3)),
                "elements": entries}
        if draw(st.booleans()):
            del data[draw(st.sampled_from(["type", "elements"]))]
        entries = data
    return kind, json.dumps(entries)


@settings(max_examples=300, deadline=None)
@given(generator_files(), st.sampled_from(["average", "conjugate", "hermitian", "orbit"]))
def test_metric_generator_file_fuzz(tmp_path_factory, case, construction):
    kind, text = case
    path = tmp_path_factory.getbasetemp() / "fuzz-generators.json"
    path.write_text(text, encoding="utf-8")
    out = tmp_path_factory.getbasetemp() / "fuzz-generators.csv"
    out.unlink(missing_ok=True)
    code, stdout, err = _run_quietly(["metric", "--generators", str(path), "--construction",
                                      construction, "--grid", "4", "--out", str(out)])
    assert code in (0, 2, 3), (code, err)
    if code == 0:
        assert err == "" and json.loads(stdout)["grid"]["rows"] == 8  # 4 points in each chart
        assert out.exists()
    else:
        assert stdout == "" and not out.exists()
        assert err.startswith("error: ") and err.count("\n") == 1
