import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncorlicz
from ncorlicz.cli import main
from ncorlicz.serialize import loads


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def files(tmp_path):
    alg = tmp_path / "alg.json"
    alg.write_text('{"blocks":[{"dim":2,"weight":1.0},{"dim":1,"weight":0.5}]}')
    elem = tmp_path / "elem.json"
    elem.write_text('{"blocks":[[[[1,0],[0,0]],[[0,0],[3,0]]],[[[2,0]]]]}')
    m2 = tmp_path / "m2.json"
    m2.write_text('{"blocks":[{"dim":2,"weight":1.0}]}')
    phi = tmp_path / "phi.json"
    phi.write_text('{"blocks":[[[[0.3,0],[0,0]],[[0,0],[0.7,0]]]]}')
    omega = tmp_path / "omega.json"
    omega.write_text('{"blocks":[[[[0.5,0],[0,0]],[[0,0],[0.5,0]]]]}')
    core = tmp_path / "core.json"
    core.write_text(json.dumps({"pieces": [
        {"interval": [0.0, "inf"],
         "element": {"blocks": [[[[3, 0], [0, 0]], [[0, 0], [4, 0]]]]}}]}))
    iso = tmp_path / "iso.json"
    eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    iso.write_text(json.dumps({"permutation": [1, 0], "unitaries": [eye, eye]}))
    m2m2 = tmp_path / "m2m2.json"
    m2m2.write_text('{"blocks":[{"dim":2,"weight":1.0},{"dim":2,"weight":1.0}]}')
    return tmp_path


def test_norm_diag_shorthand(capsys):
    code, out, _ = run_cli(capsys, "norm", "--phi", "power2", "--element", "diag(3,4)")
    assert code == 0
    rep = loads(out)
    assert rep["norm"] == pytest.approx(5.0, rel=1e-11)
    assert rep["modularValueAtNorm"] <= 1.0


def test_norm_linf(capsys):
    code, out, _ = run_cli(capsys, "norm", "--phi", "linf", "--element", "diag(3,4)")
    assert code == 0
    assert loads(out)["norm"] == pytest.approx(4.0, rel=1e-12)


def test_norm_from_files(capsys, files):
    code, out, _ = run_cli(capsys, "norm", "--algebra", str(files / "alg.json"),
                           "--element", str(files / "elem.json"), "--phi", "power1")
    assert code == 0
    assert loads(out)["norm"] == pytest.approx(5.0, rel=1e-11)


def test_core_norm(capsys, files):
    code, out, _ = run_cli(capsys, "core-norm", "--algebra", str(files / "m2.json"),
                           "--core", str(files / "core.json"), "--phi", "power2")
    assert code == 0
    assert loads(out)["norm"] == pytest.approx(5.0, rel=1e-11)


def test_core_norm_mass_overflow_is_input_error(capsys, files):
    core = files / "core_far.json"
    core.write_text(json.dumps({"pieces": [
        {"interval": [-1000, 0], "element": {"blocks": [[[[3, 0], [0, 0]], [[0, 0], [4, 0]]]]}}]}))
    code, out, err = run_cli(capsys, "core-norm", "--algebra", str(files / "m2.json"),
                             "--core", str(core), "--phi", "power2")
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "[-1000, 0)" in err and "Traceback" not in err


def test_rearr_with_csv(capsys, files):
    csv_path = files / "steps.csv"
    code, out, _ = run_cli(capsys, "rearr", "--algebra", str(files / "alg.json"),
                           "--element", str(files / "elem.json"), "--csv", str(csv_path))
    assert code == 0
    rep = loads(out)
    assert [(s["start"], s["end"], s["value"]) for s in rep["steps"]] == \
        [(0.0, 1.0, 3.0), (1.0, 1.5, 2.0), (1.5, 2.5, 1.0)]
    text = csv_path.read_text()
    assert text.splitlines()[0] == "t_start,t_end,value"
    assert "\r" not in text


def test_conjugate_closed_form(capsys):
    code, out, _ = run_cli(capsys, "conjugate", "--phi", "linf")
    assert code == 0
    assert loads(out) == {"family": "power", "p": 1.0}


def test_conjugate_tabulated(capsys):
    code, out, _ = run_cli(capsys, "conjugate", "--phi", "cosh1")
    assert code == 0
    rep = loads(out)
    assert rep["family"] == "table"
    s, v = rep["points"][-1]
    assert v == pytest.approx(s * math.asinh(s) - math.hypot(1, s) + 1, rel=1e-9)


def test_cocycle_t_zero_identity(capsys, files):
    code, out, _ = run_cli(capsys, "cocycle", "--algebra", str(files / "m2.json"),
                           "--functional", str(files / "phi.json"),
                           "--functional", str(files / "omega.json"), "--t", "0")
    assert code == 0
    blocks = loads(out)["blocks"]
    assert np.allclose(np.array(blocks[0])[..., 0], np.eye(2), atol=1e-12)


@pytest.mark.parametrize("t, power", [("inf", "infj"), ("nan", "nanj")])
def test_cocycle_non_finite_t_names_the_exponent(capsys, files, t, power):
    code, out, err = run_cli(capsys, "cocycle", "--algebra", str(files / "m2.json"),
                             "--functional", str(files / "phi.json"),
                             "--functional", str(files / "omega.json"), "--t", t)
    assert (code, out) == (2, "")
    assert f"to the power {power} has exponent" in err
    assert "non-finite entries" not in err


def test_cocycle_phase_without_correct_digits_is_an_input_error(capsys, files):
    code, out, err = run_cli(capsys, "cocycle", "--algebra", str(files / "m2.json"),
                             "--functional", str(files / "phi.json"),
                             "--functional", str(files / "omega.json"), "--t", "1e16")
    assert (code, out) == (2, "")
    assert "has a phase whose rounding bound" in err


def test_gns_report(capsys, files):
    code, out, _ = run_cli(capsys, "gns", "--algebra", str(files / "m2.json"),
                           "--functional", str(files / "phi.json"))
    assert code == 0
    rep = loads(out)
    assert rep["dimension"] == 4
    assert rep["stateIdentityResidual"] <= 1e-10


@pytest.mark.parametrize("target", ["missing/steps.csv", "."], ids=["no-such-dir", "a-dir"])
def test_rearr_unwritable_csv_is_input_error(capsys, tmp_path, target):
    path = tmp_path / target
    code, out, err = run_cli(capsys, "rearr", "--element", "diag(3,4)", "--csv", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"input error: cannot write {path}") and "Traceback" not in err


# The options each subcommand reads, 22 in all.
READS = {
    "norm": {"algebra", "element", "phi", "tol"},
    "core-norm": {"algebra", "core", "phi", "tol"},
    "rearr": {"algebra", "element", "csv"},
    "conjugate": {"phi"},
    "cocycle": {"algebra", "functional", "t"},
    "gns": {"algebra", "functional"},
    "suite": {"seed", "samples", "iso", "algebra", "phi"},
}
OPTIONS = {"algebra", "element", "functional", "phi", "core", "iso", "tol", "seed", "csv",
           "samples", "t"}


def test_each_subcommand_accepts_only_the_options_it_reads(capsys):
    from ncorlicz.cli import _parse_args

    accepted = {}
    for command in READS:
        accepted[command] = set()
        for opt in OPTIONS:
            try:
                _parse_args([command, f"--{opt}", "1"])
            except SystemExit as exc:
                assert exc.code == 2
            else:
                accepted[command].add(opt)
    capsys.readouterr()
    assert accepted == READS
    assert sum(map(len, accepted.values())) == 22


@pytest.mark.parametrize("argv", [
    ["norm", "--element", "diag(1,2)", "--phi", "power2", "--csv", "out.csv"],
    ["norm", "--element", "diag(1,2)", "--phi", "power2", "--core", "core.json"],
    ["norm", "--element", "diag(1,2)", "--phi", "power2", "--t", "0.5"],
    ["core-norm", "--algebra", "m2.json", "--core", "core.json", "--phi", "power2",
     "--element", "diag(1,2)"],
    ["rearr", "--element", "diag(1,2)", "--phi", "power2"],
    ["conjugate", "--phi", "power2", "--tol", "1e-6"],
    ["cocycle", "--algebra", "m2.json", "--functional", "phi.json",
     "--functional", "omega.json", "--csv", "out.csv"],
    ["gns", "--algebra", "m2.json", "--functional", "phi.json", "--t", "1"],
    ["suite", "--samples", "10", "--tol", "0.5"],
    ["suite", "--samples", "10", "--element", "diag(1,2)"],
    ["suite", "--samples", "10", "--phi", "power3"],
    ["suite", "--samples", "10", "--algebra", "m2.json"],
], ids=["norm-csv", "norm-core", "norm-t-is-not-tol", "core-norm-element", "rearr-phi",
        "conjugate-tol", "cocycle-csv", "gns-t", "suite-tol", "suite-element",
        "suite-phi-without-iso", "suite-algebra-without-iso"])
def test_an_option_the_command_does_not_read_exits_2(capsys, files, argv):
    argv = [str(files / a) if a.endswith((".json", ".csv")) else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert not (files / "out.csv").exists()


@pytest.mark.parametrize("tol", ["1", "1.5", "inf"])
def test_tolerance_outside_the_unit_interval_is_input_error(capsys, tol):
    code, out, err = run_cli(capsys, "norm", "--element", "diag(1,2)", "--phi", "power2",
                             "--tol", tol)
    assert code == 2 and out == ""
    assert "tolerance must lie in (0, 1)" in err


def test_missing_flag_is_input_error(capsys):
    code, _, err = run_cli(capsys, "norm", "--phi", "power2")
    assert code == 2
    assert "element" in err


def test_malformed_json_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"blocks": [')
    code, _, err = run_cli(capsys, "norm", "--algebra", str(bad),
                           "--element", str(bad), "--phi", "power2")
    assert code == 2
    assert "line" in err


def test_non_list_blocks_exit_2(capsys, tmp_path):
    bad = tmp_path / "alg.json"
    bad.write_text('{"blocks": 5}')
    code, out, err = run_cli(capsys, "norm", "--algebra", str(bad),
                             "--element", "diag(1)", "--phi", "power2")
    assert code == 2 and out == ""
    assert "input error" in err and "Traceback" not in err


def test_unknown_phi_exit_2(capsys):
    code, _, _ = run_cli(capsys, "norm", "--phi", "mystery9", "--element", "diag(1)")
    assert code == 2


@pytest.mark.parametrize("text, match", [
    ('{"family":"scaled-power","p":0}', "p >= 1"),
    ('{"family":"table","points":[1,2]}', "pair"),
    ('{"family":"table","points":[[1]]}', "pair"),
    ('{"family":"table","points":[[0,0]]}', "t > 0"),
    ("[1,2]", "family")], ids=["p0", "flat-points", "short-point", "one-knot", "no-family"])
def test_malformed_phi_file_reports_its_own_error(capsys, tmp_path, text, match):
    phi = tmp_path / "phi.json"
    phi.write_text(text)
    code, out, err = run_cli(capsys, "norm", "--element", "diag(1,2)", "--phi", str(phi))
    assert code == 2 and out == ""
    assert match in err and "Traceback" not in err and "unknown Orlicz function name" not in err


def test_phi_naming_a_directory_is_unreadable(capsys, tmp_path):
    code, out, err = run_cli(capsys, "norm", "--element", "diag(1,2)", "--phi", str(tmp_path))
    assert code == 2 and out == ""
    assert "cannot read" in err and "unknown Orlicz function name" not in err


# abs() of a complex calls the C library's hypot, so the suite's digest is
# pinned where it was taken: glibc on x86-64.
GLIBC_X86_64 = (platform.machine() in ("x86_64", "AMD64")
                and platform.libc_ver()[0] == "glibc")


def test_suite_green_and_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "suite", "--seed", "0", "--samples", "10")
    assert code == 0
    code, out2, _ = run_cli(capsys, "suite", "--seed", "0", "--samples", "10")
    assert code == 0
    assert out1 == out2  # byte-identical report for a fixed seed
    if GLIBC_X86_64:  # and byte-identical across changes that claim to keep every bit
        assert hashlib.sha256(out1.encode()).hexdigest() == (
            "dcfba881a74bea9a5138327999ecd4f6e87a43e33ec22b7e2844c62ef67178f7")
    rep = loads(out1)
    assert rep["pass"] is True
    assert rep["tol"] == 1e-12  # the tolerance every suite norm runs at
    ids = [c["id"] for c in rep["cases"]]
    assert ids == sorted(ids)
    assert len(ids) >= 39


def test_suite_seed_changes_digest(capsys):
    _, out1, _ = run_cli(capsys, "suite", "--seed", "0", "--samples", "10")
    _, out2, _ = run_cli(capsys, "suite", "--seed", "1", "--samples", "10")
    assert loads(out1)["inputsDigest"] != loads(out2)["inputsDigest"]


def test_suite_with_iso_file(capsys, files):
    code, out, _ = run_cli(capsys, "suite", "--seed", "0", "--samples", "10",
                           "--algebra", str(files / "m2m2.json"),
                           "--iso", str(files / "iso.json"))
    assert code == 0
    ids = [c["id"] for c in loads(out)["cases"]]
    assert "functorial.file_isometry" in ids
    code, out, _ = run_cli(capsys, "suite", "--seed", "0", "--samples", "10",
                           "--algebra", str(files / "m2m2.json"),
                           "--iso", str(files / "iso.json"), "--phi", "cosh1")
    assert code == 0 and loads(out)["pass"] is True


# Runs cli.main quietly in a fresh interpreter and prints the ncorlicz
# submodules it loaded.
_COLD_CALL = """
import contextlib, io, json, sys
from ncorlicz.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("ncorlicz."))]))
"""


@pytest.mark.parametrize("argv,allowed", [
    (["norm", "--phi", "power2", "--element", "diag(3,4)"], set()),
    (["core-norm", "--algebra", "m2.json", "--core", "core.json", "--phi", "power2"],
     {"core_model"}),
    (["rearr", "--element", "diag(3,4,4)"], set()),
    (["cocycle", "--algebra", "m2.json", "--functional", "phi.json",
      "--functional", "omega.json", "--t", "0.5"], {"modular"}),
    (["gns", "--algebra", "m2.json", "--functional", "phi.json"], {"modular"}),
])
def test_cold_call_loads_only_what_its_command_runs(files, argv, allowed):
    argv = [str(files / a) if a.endswith(".json") else a for a in argv]
    env = {**os.environ, "PYTHONPATH": str(Path(ncorlicz.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _COLD_CALL, *argv], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    never = {"suite", "sampling", "functorial", "core_model", "modular"} - allowed
    if argv[0] in ("cocycle", "gns"):
        never.add("orliczfn")  # neither evaluates a Young function
    assert not {f"ncorlicz.{m}" for m in never} & set(loaded)
    assert {f"ncorlicz.{m}" for m in allowed} <= set(loaded)
