"""Command-line interface, driven in-process through main(argv).

Exit-code contract: 0 success, 2 invalid spec/arguments (message names
the offending field), 3 oracle mismatch above tolerance.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectral_walk.cli
from spectral_walk import (build_from_spec, classical_transition, dynamics, oracle_expm,
                           series_csv)
from spectral_walk.chain_families import _STEPS_CAP
from spectral_walk.cli import build_parser, main

TWO_STATE = '{"family": "custom", "lambdas": [1.0], "mus": [0.0, 2.0]}'
THREE_STATE = '{"family": "custom", "lambdas": [1.0, 0.5], "mus": [0.0, 2.0, 1.0]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_families_listing(capsys):
    code, out, _ = run(capsys, "families")
    assert code == 0
    for name in ("custom", "meixner", "sc-c", "sc-d", "uniform", "pst-demo"):
        assert name in out


def test_families_json(capsys):
    code, out, _ = run(capsys, "families", "--json")
    assert code == 0
    schemas = json.loads(out)
    assert "meixner" in schemas
    assert schemas["meixner"]["params"]["beta"]["required"] is True


def test_simulate_writes_series_and_manifest(tmp_path, capsys):
    code, out, _ = run(capsys, "simulate", "--spec", TWO_STATE,
                       "--classical", "--i", "0", "--j", "0", "--j", "1",
                       "--tmin", "0", "--tmax", "2", "--steps", "9",
                       "--output", str(tmp_path))
    assert code == 0
    for name in ("p_0_0.csv", "p_0_1.csv", "manifest.json"):
        assert (tmp_path / name).exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["mode"] == "classical"
    assert manifest["files"] == ["p_0_0.csv", "p_0_1.csv"]
    lines = (tmp_path / "p_0_0.csv").read_text().strip().split("\n")
    assert lines[0] == "t,p"
    assert len(lines) == 10
    t, p = (float(v) for v in lines[-1].split(","))
    assert t == 2.0
    assert p == pytest.approx((2 + np.exp(-6)) / 3, abs=1e-12)


def test_simulate_many_targets_writes_the_files_of_single_runs(tmp_path, capsys):
    # all --j targets share one pass over a grid of many blocks; each file
    # must be the one a run for that target alone writes
    grid = ["--family", "uniform", "--quad-order", "256", "--tmax", "50", "--steps", "2001",
            "--verify"]
    code, _, _ = run(capsys, "simulate", *grid, "--j", "0", "--j", "3", "--j", "7",
                     "--output", str(tmp_path / "all"))
    assert code == 0
    worst = []
    for j in ("0", "3", "7"):
        code, _, _ = run(capsys, "simulate", *grid, "--j", j, "--output", str(tmp_path / j))
        assert code == 0
        name = f"f_0_{j}.csv"
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / j / name).read_bytes()
        worst.append(json.loads((tmp_path / j / "manifest.json").read_text())["verify"])
    combined = json.loads((tmp_path / "all" / "manifest.json").read_text())["verify"]
    assert combined["max_abs_diff"] == max(w["max_abs_diff"] for w in worst)
    assert combined["times"] == worst[0]["times"]


def test_back_to_back_runs_write_only_their_own_targets(tmp_path, capsys):
    # the process builds one parser; an "append" default must not carry one
    # run's --j list into the next
    assert spectral_walk.cli.build_parser() is spectral_walk.cli.build_parser()
    for name, js in (("a", ["1", "2"]), ("b", ["3"]), ("c", [])):
        out = tmp_path / name
        argv = [a for j in js for a in ("--j", j)]
        code, _, _ = run(capsys, "simulate", "--family", "uniform", "--n", "6", "--steps", "5",
                         *argv, "--output", str(out))
        assert code == 0
        want = [f"f_0_{j}.csv" for j in js or ["0"]]
        assert sorted(p.name for p in out.iterdir()) == sorted(want + ["manifest.json"])
        assert json.loads((out / "manifest.json").read_text())["files"] == want


def test_simulate_verify_passes(tmp_path, capsys):
    code, out, _ = run(capsys, "simulate", "--spec", TWO_STATE,
                       "--classical", "--verify", "--j", "0", "--j", "1",
                       "--output", str(tmp_path))
    assert code == 0
    assert "oracle cross-check" in out
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["verify"]["max_abs_diff"] <= 1e-10


def test_simulate_verify_exit_3_when_tolerance_unmeetable(tmp_path, capsys):
    # any nonzero spectral-vs-dense rounding gap breaches a 1e-30 bar;
    # exercises the mismatch exit path without breaking the library
    code, _, err = run(capsys, "simulate", "--family", "pst-demo", "--n", "8",
                       "--verify", "--verify-tol", "1e-30",
                       "--output", str(tmp_path))
    assert code == 3
    assert "FAILED" in err


def test_numeric_error_exits_3_and_writes_no_series(tmp_path, capsys, monkeypatch):
    # site 159 of this build is past its certified Lanczos rows (the
    # forward recurrence lost it, |f_159,159(0)| read 2e11 where the exact
    # value is 1, and the truncated-operator oracle passed it): a result
    # that failed a check exits 3, invalid usage 2, and neither makes the
    # output directory
    output = tmp_path / "out"
    argv = ["simulate", "--family", "meixner", "--beta", "1", "--c", "0.5", "--verify",
            "--output", str(output)]
    code, out, err = run(capsys, *argv, "--i", "159", "--j", "159")
    assert code == 3
    assert "site 159: certificate" in err and out == ""
    assert not output.exists()
    code, _, err = run(capsys, *argv, "--i", "160")
    assert code == 2
    assert "outside the chain's 160 sites" in err
    # a probability series that fails the NaN/band check
    monkeypatch.setattr(spectral_walk.cli, "_rows", nan_rows(True))
    code, out, err = run(capsys, "simulate", "--spec", TWO_STATE, "--classical", "--j", "1",
                         "--output", str(output))
    assert code == 3
    assert "holds NaN" in err and out == ""
    assert not output.exists()


def nan_rows(classical):
    """The row path with NaN values for one kind: classical (a call with
    pi) or quantum (without)."""
    real = spectral_walk.cli._rows

    def rows(measure, sources, targets, times, pi=None):
        values = real(measure, sources, targets, times, pi)
        return np.full_like(values, np.nan) if (pi is not None) == classical else values
    return rows


@pytest.mark.parametrize("stub, argv", [
    (nan_rows(False), ["simulate", "--family", "pst-demo", "--n", "8",
                       "--verify", "--j", "0", "--j", "3"]),
    (nan_rows(False), ["verify", "--spec", TWO_STATE, "--j", "1"]),
    (nan_rows(True), ["verify", "--spec", TWO_STATE, "--j", "1"]),
], ids=["simulate-quantum", "verify-quantum", "verify-classical"])
def test_nan_values_fail_verification(tmp_path, capsys, monkeypatch, stub, argv):
    # NaN compares false with the tolerance and max() drops it; either way
    # it must count as a mismatch, not as a deviation of 0
    monkeypatch.setattr(spectral_walk.cli, "_rows", stub)
    code, _, err = run(capsys, *argv, "--output", str(tmp_path))
    assert code == 3
    assert "FAILED: nan" in err


@pytest.mark.parametrize("sites, steps", [(6, 5), (12, 201)])
def test_classical_targets_take_one_kernel_pass(tmp_path, capsys, monkeypatch, sites, steps):
    # chains on each side of the n S T <= 2**14 switch of per-entry calls:
    # all --j targets come from one kernel call, and each file is the one
    # classical_transition's series for that target gives
    rng = np.random.default_rng(sites)
    spec = {"family": "custom", "lambdas": rng.uniform(0.2, 2.0, sites - 1).tolist(),
            "mus": [0.0, *rng.uniform(0.2, 2.0, sites - 1).tolist()]}
    calls = []
    kernel = dynamics._spectral_sum

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(dynamics, "_spectral_sum", counting)
    code, _, _ = run(capsys, "simulate", "--spec", json.dumps(spec), "--classical", "--i", "2",
                     "--j", "0", "--j", "5", "--j", "3", "--tmax", "4", "--steps", str(steps),
                     "--output", str(tmp_path))
    assert code == 0
    assert len(calls) == 1
    monkeypatch.undo()
    build = build_from_spec(spec)
    times = np.linspace(0.0, 4.0, steps)
    for j in (0, 5, 3):
        want = series_csv(classical_transition(build.measure, build.rates, 2, j, times))
        assert (tmp_path / f"p_2_{j}.csv").read_bytes() == want.encode()


def test_simulate_spec_from_file(tmp_path, capsys):
    spec_path = tmp_path / "chain.json"
    spec_path.write_text(TWO_STATE)
    code, out, _ = run(capsys, "simulate", "--spec", str(spec_path),
                       "--output", str(tmp_path))
    assert code == 0
    assert (tmp_path / "f_0_0.csv").exists()


def test_simulate_quantum_csv_header(tmp_path, capsys):
    code, _, _ = run(capsys, "simulate", "--family", "uniform",
                     "--tmax", "5", "--steps", "11", "--output", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "f_0_0.csv").read_text().strip().split("\n")
    assert lines[0] == "t,re,im,abs"


def test_single_point_grid(tmp_path, capsys):
    code, _, _ = run(capsys, "simulate", "--spec", TWO_STATE,
                     "--tmin", "1.5", "--tmax", "1.5", "--steps", "100",
                     "--output", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "f_0_0.csv").read_text().strip().split("\n")
    assert len(lines) == 2


def test_exit_2_names_missing_field(capsys):
    code, _, err = run(capsys, "simulate", "--spec",
                       '{"family": "meixner", "c": 0.25}')
    assert code == 2
    assert "beta" in err


def test_exit_2_for_classical_on_rateless_family(capsys):
    code, _, err = run(capsys, "simulate", "--family", "sc-c", "--k", "0.5",
                       "--classical")
    assert code == 2
    assert "classical" in err or "rates" in err


def test_exit_2_for_bad_grid(capsys):
    code, _, err = run(capsys, "simulate", "--spec", TWO_STATE,
                       "--tmin", "2", "--tmax", "1")
    assert code == 2
    assert "tmax" in err


@pytest.mark.parametrize("command", ["simulate", "return"])
@pytest.mark.parametrize("flag, value", [("--tmax", "nan"), ("--tmax", "inf"),
                                         ("--tmin", "nan")])
def test_exit_2_for_non_finite_grid_bound(tmp_path, capsys, command, flag, value):
    code, _, err = run(capsys, command, "--family", "pst-demo", "--n", "4",
                       "--steps", "3", flag, value, "--output", str(tmp_path))
    assert code == 2
    assert f"'{flag[2:]}'" in err and "finite" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("lambdas, mus, site", [
    ("[1.0]", "[NaN, 2.0]", "mu[0]"),
    ("[Infinity]", "[0.0, 2.0]", "lambda[0]"),
    ("[1.0]", "[0.0, Infinity]", "mu[1]"),
])
def test_exit_2_for_non_finite_rates(capsys, lambdas, mus, site):
    spec = f'{{"family": "custom", "lambdas": {lambdas}, "mus": {mus}}}'
    code, _, err = run(capsys, "simulate", "--spec", spec)
    assert code == 2
    assert "'lambdas'/'mus'" in err and site in err


def test_exit_2_for_site_out_of_range(capsys):
    code, _, err = run(capsys, "simulate", "--spec", TWO_STATE, "--i", "7")
    assert code == 2
    assert "'i'" in err


def test_exit_2_names_field_i_for_return_site_out_of_range(capsys):
    spec = '{"family": "custom", "lambdas": [1.0, 1.0, 1.0], "mus": [0.0, 1.0, 1.0, 1.0]}'
    code, _, err = run(capsys, "return", "--spec", spec, "--i", "9")
    assert code == 2
    assert "field 'i'" in err


def test_exit_2_for_negative_classical_time(capsys):
    code, _, err = run(capsys, "simulate", "--spec", TWO_STATE,
                       "--classical", "--tmin", "-1", "--tmax", "1")
    assert code == 2
    assert "tmin" in err


def test_exit_2_for_malformed_spec_json(capsys):
    code, _, err = run(capsys, "simulate", "--spec", "{not json")
    assert code == 2
    assert "--spec" in err


def test_exit_2_for_a_spec_path_that_is_a_directory(tmp_path, capsys):
    # reading it raised IsADirectoryError: exit 1 with a traceback
    code, out, err = run(capsys, "simulate", "--spec", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: --spec") and "Is a directory" in err


@pytest.mark.parametrize("command", [["simulate"], ["return", "--scan"]])
def test_exit_2_for_an_output_path_that_is_a_file(tmp_path, capsys, command):
    # os.makedirs raised FileExistsError: exit 1 with a traceback
    path = tmp_path / "out"
    path.write_bytes(b"kept\n")
    code, out, err = run(capsys, *command, "--family", "pst-demo", "--n", "4",
                         "--steps", "3", "--output", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: --output") and "File exists" in err
    assert path.read_bytes() == b"kept\n"


@pytest.mark.parametrize("command", [["simulate"], ["return", "--scan"]])
def test_exit_2_for_an_output_file_path_that_is_a_directory(tmp_path, capsys, command):
    # writing the series raised IsADirectoryError: exit 1 with a traceback
    (tmp_path / "f_0_0.csv").mkdir()
    code, out, err = run(capsys, *command, "--family", "pst-demo", "--n", "4",
                         "--steps", "3", "--output", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: --output") and "Is a directory" in err
    assert (tmp_path / "f_0_0.csv").is_dir()


@pytest.mark.parametrize("command, names", [(["simulate"], ["f_0_0.csv", "manifest.json"]),
                                            (["return", "--scan"], ["f_0_0.csv"])])
def test_an_output_is_replaced_not_written_through(tmp_path, capsys, command, names):
    # each output file is unlinked and made anew: a second name hard-linked
    # to an output path keeps its old bytes, where a rewrite in place
    # changed them too
    argv = [*command, "--family", "pst-demo", "--n", "4", "--steps", "3"]
    assert run(capsys, *argv, "--output", str(tmp_path / "fresh"))[0] == 0
    out = tmp_path / "out"
    out.mkdir()
    for name in names:
        (tmp_path / name).write_bytes(b"old\n")
        os.link(tmp_path / name, out / name)
    assert run(capsys, *argv, "--output", str(out))[0] == 0
    for name in names:
        assert (tmp_path / name).read_bytes() == b"old\n"
        assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


@pytest.mark.parametrize("spec, field", [
    ('{"family": "meixner", "beta": "abc", "c": 0.5}', "'beta' is 'abc'"),
    ('{"family": "meixner", "beta": null, "c": 0.5}', "'beta' is None"),
    ('{"family": "meixner", "beta": true, "c": 0.5}', "'beta' is True"),
    ('{"family": "custom", "lambdas": "ab", "mus": [0.0, 1.0]}', "'lambdas' is 'ab'"),
    ('{"family": "custom", "lambdas": [1.0], "mus": [0.0, "1"]}', "'mus'"),
    ('{"family": "uniform", "quad_order": "x"}', "'quad_order' is 'x'"),
    ('{"family": "pst-demo", "n": [3]}', "'n' is [3]"),
    ('{"family": "pst-demo", "n": 2.7}', "'n' is 2.7"),
    ('{"family": "sc-d", "k": 0.5, "s_max": NaN}', "'s_max' is nan"),
])
def test_exit_2_for_spec_field_of_wrong_type(tmp_path, capsys, spec, field):
    code, _, err = run(capsys, "simulate", "--spec", spec, "--output", str(tmp_path))
    assert code == 2
    assert f"field {field}" in err and "expected" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, field", [
    (["--spec", '{"family": "pst-demo", "n": 100000}'], "'n' is 100000"),
    (["--spec", '{"family": "uniform", "n": 1e308}'], "'n' is 1e+308"),
    (["--spec", '{"family": "uniform", "quad_order": Infinity}'], "'quad_order' is inf"),
    (["--spec", '{"family": "sc-d", "k": 0.5, "s_max": 4097}'], "'s_max' is 4097"),
    (["--family", "meixner", "--beta", "1", "--c", "0.5", "--n", "10000"], "'n' is 10000"),
])
def test_exit_2_for_spec_count_above_cap(tmp_path, capsys, argv, field):
    # refused before any table is allocated: the first spec would ask for
    # a 74.5 GiB eigenvector table, the second for more than numpy allows
    code, _, err = run(capsys, "return", *argv, "--output", str(tmp_path))
    assert code == 2
    assert f"field {field}, above the cap 4096" in err
    assert list(tmp_path.iterdir()) == []


def test_exit_2_for_infinite_meixner_beta(capsys):
    spec = '{"family": "meixner", "beta": Infinity, "c": 0.5}'
    code, _, err = run(capsys, "return", "--spec", spec)
    assert code == 2
    assert "beta = inf is not positive and finite" in err


@pytest.mark.parametrize("family", ["sc-c", "sc-d"])
def test_exit_2_names_a_modulus_too_small_for_the_truncation(tmp_path, capsys, family):
    # the masses sites 0-10 need underflow, and the probe recurrence
    # overflows on the way (sc-c): one error line names k, no warning
    code, out, err = run(capsys, "return", "--family", family, "--k", "1e-150",
                         "--output", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == ("error: field 'k' is 1e-150, too small a modulus: site-weighted tail "
                   "still above 1e-10 at size 6144; cap 10000 reached\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--lambdas", "--mus"])
def test_exit_2_for_malformed_rate_flag_json(capsys, flag):
    rates = {"--lambdas": "[1.0]", "--mus": "[0.0, 2.0]"} | {flag: "[1,"}
    code, _, err = run(capsys, "simulate", "--family", "custom",
                       "--lambdas", rates["--lambdas"], "--mus", rates["--mus"])
    assert code == 2
    assert f"{flag} is not valid JSON" in err


@pytest.mark.parametrize("tmax, message", [("nan", "must be finite"),
                                           ("-1", "below tmin")])
def test_exit_2_for_bad_verify_grid(capsys, tmax, message):
    code, _, err = run(capsys, "verify", "--family", "pst-demo", "--n", "4",
                       "--tmax", tmax)
    assert code == 2
    assert "'tmax'" in err and message in err


@pytest.mark.parametrize("command", [["simulate"], ["return", "--scan"], ["verify"],
                                     ["simulate", "--tmax", "0"],
                                     ["return", "--scan", "--tmax", "0"],
                                     ["verify", "--tmax", "0"], ["return"]])
def test_exit_2_for_steps_above_the_cap(tmp_path, capsys, command):
    # 2**62 steps: numpy refuses so large a grid, and no command gets to
    # make it; a one-point grid (--tmax 0) does not need it, but is refused too
    code, _, err = run(capsys, *command, "--family", "pst-demo", "--n", "4",
                       "--steps", str(2 ** 62), "--output", str(tmp_path))
    assert code == 2
    assert "'steps'" in err and "above the cap" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_exit_2_for_a_repeated_target(tmp_path, capsys, command):
    # a repeated --j wrote its file twice, listed it twice in the
    # manifest and was compared twice by the oracle
    code, out, err = run(capsys, command, "--spec", THREE_STATE, "--j", "1", "--j", "2",
                         "--j", "1", "--output", str(tmp_path))
    assert (code, out, err) == (2, "", "error: field 'j' repeats 1\n")
    assert list(tmp_path.iterdir()) == []


def test_steps_at_the_cap_make_a_grid():
    args = build_parser().parse_args(["simulate", "--family", "pst-demo", "--tmax", "1",
                                      "--steps", str(_STEPS_CAP)])
    times = spectral_walk.cli._time_grid(args)
    assert times.size == _STEPS_CAP and times[-1] == 1.0


@pytest.mark.parametrize("spec", [TWO_STATE, '{"family": "pst-demo", "n": 9}'])
def test_verify_decomposes_the_dense_operator_once(capsys, monkeypatch, spec):
    # one dense eigendecomposition of J serves all five check times, and
    # each evolution is the array a decomposition per time gives
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda mat: calls.append(mat.shape) or eigh(mat))
    code, out, _ = run(capsys, "verify", "--spec", spec, "--j", "1")
    assert code == 0
    assert len(calls) == 1
    monkeypatch.undo()
    build = build_from_spec(json.loads(spec))
    j_op = build.measure.jacobi
    times = [0.1, 0.5, 1.0, 2.0, 5.0]
    for t, dense in zip(times, dynamics._oracle_evolutions(j_op, times)):
        vals, vecs = np.linalg.eigh(j_op.dense())
        assert dense.tobytes() == ((vecs * np.exp(-1j * vals * t)) @ vecs.T).tobytes()
        assert dense.tobytes() == oracle_expm(j_op, t).tobytes()


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("value", ["nan", "-1e-10", "-inf"])
def test_exit_2_for_bad_verify_tol(tmp_path, capsys, command, value):
    # a NaN bar fails every deviation and a negative one every finite one;
    # either is a bad flag, not an oracle mismatch
    code, _, err = run(capsys, command, "--spec", TWO_STATE, f"--verify-tol={value}",
                       "--output", str(tmp_path))
    assert code == 2
    assert f"--verify-tol is {float(value)}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
@pytest.mark.parametrize("family", [["--family", "meixner", "--beta", "1", "--c", "0.5"],
                                    ["--family", "uniform"]])
def test_exit_2_for_bad_lattice_tol(capsys, family, value):
    # at --tol -1 the Meixner chain read AlmostPerfect, exit 0; its
    # verdict is Perfect at 2 pi
    code, out, err = run(capsys, "return", *family, "--tol", value)
    assert code == 2
    assert out == "" and "tol is" in err


def test_return_meixner_verdict(capsys):
    code, out, _ = run(capsys, "return", "--family", "meixner",
                       "--beta", "1.0", "--c", "0.25")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "Perfect"
    assert payload["t0"] == pytest.approx(2 * np.pi, abs=1e-9)
    assert payload["xi"] == pytest.approx(0.0, abs=1e-9)
    assert "family_info" in payload["evidence"]


def test_return_uniform_no_return(capsys):
    code, out, _ = run(capsys, "return", "--family", "uniform")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "NoReturn"
    assert "t0" not in payload


def test_return_custom_almost_perfect(capsys):
    code, out, _ = run(capsys, "return", "--spec",
                       '{"family": "custom", "lambdas": [0.9, 1.4, 0.6],'
                       ' "mus": [0.0, 1.1, 0.8, 1.3]}')
    assert code == 0
    assert json.loads(out)["class"] == "AlmostPerfect"


def test_return_from_excited_site(capsys):
    code, out, _ = run(capsys, "return", "--family", "sc-d", "--k", "0.4",
                       "--i", "2")
    assert code == 0
    assert json.loads(out)["class"] == "Perfect"


def test_return_scan_writes_series(tmp_path, capsys):
    code, out, _ = run(capsys, "return", "--family", "sc-d", "--k", "0.5",
                       "--scan", "--tmax", "20", "--steps", "2001",
                       "--output", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert (tmp_path / "f_0_0.csv").exists()
    maxima = payload["scan"]["top_maxima"]
    assert maxima and maxima[0][1] > 0.99


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "--spec", TWO_STATE, "--j", "0", "--j", "1")
    assert code == 0
    assert "quantum" in out and "classical" in out and "ok" in out


def test_verify_subcommand_skips_classical_without_rates(capsys):
    code, out, _ = run(capsys, "verify", "--family", "uniform", "--n", "30")
    assert code == 0
    assert "skipped" in out


def test_verify_checks_the_uniform_closed_form_at_the_oracle_cap(capsys):
    # 512 sites, the dense oracle's cap: the closed-form table against eigh
    code, out, _ = run(capsys, "verify", "--family", "uniform", "--n", "511")
    assert code == 0
    assert "ok" in out



@pytest.mark.parametrize("argv, calls, code", [
    (["verify", "--spec", TWO_STATE, "--j", "0", "--j", "1"], 0, 0),
    (["verify", "--family", "pst-demo", "--n", "6", "--j", "5"], 0, 0),
    (["simulate", "--spec", TWO_STATE, "--classical", "--verify", "--j", "1"], 0, 0),
    (["verify", "--family", "meixner", "--beta", "1", "--c", "0.25"], 1, 0),
    (["simulate", "--family", "sc-d", "--k", "0.5", "--verify", "--tmax", "1"], 1, 0),
    (["verify", "--family", "meixner", "--beta", "1.3", "--c", "0.9"], 0, 2),
    (["simulate", "--classical", "--verify", "--family", "meixner", "--beta", "1.3",
      "--c", "0.9"], 0, 2),
    (["simulate", "--verify", "--family", "meixner", "--beta", "1", "--c", "0.25"], 1, 0),
    (["return", "--family", "meixner", "--beta", "1", "--c", "0.5", "--i", "30"], 0, 3),
    (["simulate", "--verify", "--family", "sc-c", "--k", "0.5", "--i", "32"], 0, 3),
], ids=["verify-custom", "verify-pst-demo", "simulate-custom", "verify-meixner",
        "simulate-sc-d", "verify-above-cap", "simulate-above-cap", "simulate-meixner",
        "return-meixner-past-certified-rows", "simulate-sc-c-past-certified-rows"])
def test_verify_decomposes_at_most_once_and_only_below_the_cap(
        tmp_path, capsys, monkeypatch, argv, calls, code):
    # a measure with its own eigenvector table is checked as it is; any
    # other is eigendecomposed once per command, both modes sharing it,
    # and an operator above the oracle's cap is refused before that, as
    # is a site past the measure's certified rows (exit 3, no verdict)
    seen = []
    real = spectral_walk.cli.eigendecompose
    monkeypatch.setattr(spectral_walk.cli, "eigendecompose",
                        lambda j_op: seen.append(j_op.size) or real(j_op))
    got, out, err = run(capsys, *argv, "--output", str(tmp_path))
    assert (got, len(seen)) == (code, calls)
    if code == 2:
        assert "oracle size 1092 above cap 512" in err
    if code == 3:
        assert out == "" and f"site {argv[-1]}: certificate" in err
        assert list(tmp_path.iterdir()) == []


# -- the command-line surface ----------------------------------------------------------

FAMILIES = ["custom", "meixner", "sc-c", "sc-d", "uniform", "pst-demo"]
SPEC_OPTIONS = {
    ("--spec",): ("spec", None, None, None),
    ("--family",): ("family", None, None, FAMILIES),
    ("--beta",): ("beta", float, None, None),
    ("--c",): ("c", float, None, None),
    ("--k",): ("k", float, None, None),
    ("--n",): ("n", int, None, None),
    ("--s-max",): ("s_max", int, None, None),
    ("--quad-order",): ("quad_order", int, None, None),
    ("--lambdas",): ("lambdas", None, None, None),
    ("--mus",): ("mus", None, None, None),
    ("--output",): ("output", None, ".", None),
    ("--tmin",): ("tmin", float, 0.0, None),
    ("--tmax",): ("tmax", float, 10.0, None),
    ("--steps",): ("steps", int, 201, None),
    ("--i",): ("i", int, 0, None),
}
HELP = {("-h", "--help"): ("help", None, "==SUPPRESS==", None)}
CLI_SURFACE = {
    "simulate": HELP | SPEC_OPTIONS | {
        ("--j",): ("j", int, None, None),
        ("--classical",): ("classical", None, False, None),
        ("--quantum",): ("quantum", None, False, None),
        ("--verify",): ("verify", None, False, None),
        ("--verify-tol",): ("verify_tol", float, 1e-10, None),
    },
    "return": HELP | SPEC_OPTIONS | {
        ("--tol",): ("tol", float, 1e-9, None),
        ("--scan",): ("scan", None, False, None),
    },
    "families": HELP | {("--json",): ("json", None, False, None)},
    "verify": HELP | SPEC_OPTIONS | {
        ("--j",): ("j", int, None, None),
        ("--verify-tol",): ("verify_tol", float, 1e-10, None),
    },
}


def test_cli_surface_is_pinned():
    # each subcommand's option strings with their dest, type, default and
    # choices; help text is free to change
    parser = spectral_walk.cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    got = {name: {tuple(a.option_strings): (a.dest, a.type, a.default,
                                            None if a.choices is None else list(a.choices))
                  for a in sub._actions}
           for name, sub in commands.items()}
    assert got == CLI_SURFACE


def loads_scipy_special(code: str) -> bool:
    """Whether a fresh interpreter that runs ``code`` ends with
    scipy.special imported."""
    env = dict(os.environ)
    src = str(Path(spectral_walk.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = f"import sys\n{code}\nprint('scipy.special' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True)
    return proc.stdout.splitlines()[-1] == "True"


def test_cli_commands_do_not_import_scipy_special():
    # bessel_j1 and jacobi_cn_dn import it on first call; importing it at
    # start-up would slow every command, and no command calls them
    cli_run = ("import spectral_walk.cli\n"
               "assert spectral_walk.cli.main(['families']) == 0\n"
               "assert spectral_walk.cli.main(['return', '--family', 'sc-d', '--k', '0.7']) == 0")
    assert loads_scipy_special(cli_run) == loads_scipy_special("import scipy.linalg")
