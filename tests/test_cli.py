import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qillum
from qillum import __version__, bounds, cli
from qillum.bounds import illumination_bhattacharyya
from qillum.cli import main
from qillum.states import IlluminationScenario, illuminate, illumination_probe

FLOAT12 = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(text: str):
    """Parse JSON as the standard reads it: NaN, Infinity and -Infinity are refused."""
    return json.loads(text, parse_constant=_refuse_constant)


def _fresh_python(*argv: str) -> subprocess.CompletedProcess:
    """A new interpreter with warnings as errors and this checkout's src first on its path."""
    src = str(Path(qillum.__file__).resolve().parents[1])
    # an unset PYTHONPATH adds no empty entry: that would put the working directory on sys.path
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-W", "error", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_crossover_text(capsys):
    code, out, err = run(capsys, "crossover")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("crossover_n_s: 0.295355")
    residual = float(lines[1].split(":")[1])
    assert abs(residual) < 1e-10
    # python -m qillum.cli prints the same, with warnings as errors
    proc = _fresh_python("-m", "qillum.cli", "crossover")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


def test_crossover_json_schema(capsys):
    code, out, _ = run(capsys, "crossover", "--format", "json")
    assert code == 0
    report = strict_json(out)
    assert report["schema"] == 1
    assert report["version"] == __version__
    assert "config" in report and "rows" in report
    assert 0.290 < report["rows"][0]["crossover_n_s"] < 0.300


def test_bounds_text_fields(capsys):
    code, out, _ = run(
        capsys, "bounds", "--ns", "0.01", "--nb", "100", "--kappa", "0.01",
        "--copies", "1000000",
    )
    assert code == 0
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    assert fields["model"] == "three-mode"
    qb = float(fields["bhattacharyya_bound"])
    qc = float(fields["chernoff_bound"])
    assert 0.0 < qc <= qb < 0.5
    assert FLOAT12.match(fields["bhattacharyya_bound"])


def test_bounds_reports_no_williamson_path(capsys):
    # Every model takes the one numeric Williamson decomposition, so there is
    # no path to report.
    for model in ("three-mode", "two-mode", "coherent"):
        code, out, _ = run(capsys, "bounds", "--model", model)
        assert code == 0 and "analytic_domain" not in out
        assert out.splitlines()[-1].startswith("asymptotic_exponent_per_copy: ")
        code, out, _ = run(capsys, "bounds", "--model", model, "--format", "json")
        assert code == 0
        report = strict_json(out)
        assert "analytic_domain_ok" not in report["rows"][0]
        assert report["diagnostics"] == {}


def test_bounds_printed_chernoff_never_exceeds_bhattacharyya(capsys):
    # Log-uniform draws over the box, every second one from the dim-signal,
    # bright-background corner where the two bounds agree to many digits.
    rng = random.Random(4)

    def draw(lo, hi):
        return f"{math.exp(rng.uniform(math.log(lo), math.log(hi))):.6g}"

    for j in range(16):
        corner = j % 2 == 0
        argv = [
            "bounds",
            "--ns", draw(1e-4, 1e-2 if corner else 1.0),
            "--nb", draw(1e3 if corner else 1e-2, 1e8),
            "--kappa", draw(1e-4, 1e-2 if corner else 0.5),
            "--copies", str(round(float(draw(1.0, 1e9)))),
        ]
        for model in ("three-mode", "two-mode", "coherent"):
            code, out, err = run(capsys, *argv, "--model", model)
            if code != 0:  # an unphysical three-mode draw is refused, not printed
                assert model == "three-mode" and "below one" in err
                continue
            fields = dict(line.split(": ", 1) for line in out.splitlines())
            assert float(fields["chernoff_bound"]) <= float(fields["bhattacharyya_bound"])
            code, out, _ = run(capsys, *argv, "--model", model, "--format", "json")
            row = strict_json(out)["rows"][0]
            assert row["chernoff_bound"] <= row["bhattacharyya_bound"]
            assert row["exponent_per_copy_qc"] >= row["exponent_per_copy_qb"]
            # the printed Bhattacharyya bound is the library's, bit for bit
            scn = IlluminationScenario(
                n_signal=float(argv[2]), n_background=float(argv[4]),
                reflectivity=float(argv[6]), copies=int(argv[8]),
            )
            assert row["bhattacharyya_bound"] == illumination_bhattacharyya(scn, model).value


def test_bounds_blind_target_is_coin_toss(capsys):
    for model in ("two-mode", "three-mode", "coherent"):
        code, out, _ = run(capsys, "bounds", "--kappa", "0", "--model", model)
        assert code == 0
        fields = dict(line.split(": ", 1) for line in out.splitlines())
        assert float(fields["bhattacharyya_bound"]) == pytest.approx(0.5, abs=1e-8)


def test_bounds_invalid_input_exit_2(capsys):
    code, out, err = run(capsys, "bounds", "--kappa", "2")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error:")


def test_bounds_rejects_csv_format(capsys):
    code, _, err = run(capsys, "bounds", "--format", "csv")
    assert code == 2 and "format" in err


def test_sweep_csv_contract(capsys):
    code, out, _ = run(capsys, "sweep", "--count", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n_s,gamma2,gamma3,ratio"
    assert len(lines) == 11
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 4
        assert all(FLOAT12.match(cell) for cell in cells)
    first = lines[1].split(",")
    assert float(first[3]) > 1.0  # quantum advantage at weak signal


def test_sweep_extras_canonical_order(tmp_path, capsys):
    code, out, _ = run(
        capsys, "sweep", "--count", "3", "--extras", "chernoff3,qb2", "--nb", "30"
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header == "n_s,gamma2,gamma3,ratio,qb2,chernoff3"
    plot = tmp_path / "r.svg"
    code, out, err = run(capsys, "sweep", "--count", "5", "--extras", "qb2,qb3,chernoff3",
                         "--plot", str(plot))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "n_s,gamma2,gamma3,ratio,qb2,qb3,chernoff3"
    assert plot.read_text(encoding="utf-8").startswith("<svg")


def test_sweep_three_mode_columns_share_one_evaluation(capsys, monkeypatch):
    # qb3 is read off the Chernoff evaluation: one pair per row.
    built = []
    original = bounds._closed_form_pair

    def counting(scenario, model):
        built.append(model)
        return original(scenario, model)

    monkeypatch.setattr(bounds, "_closed_form_pair", counting)
    code, out, _ = run(
        capsys, "sweep", "--param", "nS", "--start", "0.001", "--stop", "0.1",
        "--count", "3", "--nb", "0.01", "--kappa", "0.1", "--copies", "1",
        "--extras", "qb3,chernoff3", "--format", "json",
    )
    assert code == 0
    assert built == ["three-mode"] * 3
    report = strict_json(out)
    assert report["diagnostics"] == {"rows": 3}
    monkeypatch.setattr(bounds, "_closed_form_pair", original)
    for row in report["rows"]:
        scn = IlluminationScenario(n_signal=row["n_s"], n_background=0.01, reflectivity=0.1)
        assert row["qb3"] == illumination_bhattacharyya(scn, "three-mode").value
        assert row["chernoff3"] <= row["qb3"]


def test_sweep_validation_exit_codes(capsys):
    assert run(capsys, "sweep", "--count", "1")[0] == 2
    assert run(capsys, "sweep", "--start", "1.0", "--stop", "0.5")[0] == 2
    assert run(capsys, "sweep", "--start", "0", "--spacing", "log")[0] == 2
    assert run(capsys, "sweep", "--extras", "nope")[0] == 2
    # the count cap refuses before the grid is allocated
    for spacing in ("linear", "log"):
        assert run(capsys, "sweep", "--count", "100000000000", "--spacing", spacing) == (
            4, "", "error: sweep count 100000000000 > cap 100000\n"
        )


def test_sweep_files_deterministic(tmp_path, capsys):
    outputs = []
    for tag in ("a", "b"):
        csv_path = tmp_path / f"{tag}.csv"
        svg_path = tmp_path / f"{tag}.svg"
        args = ["sweep", "--count", "12", "--out", str(csv_path), "--plot", str(svg_path)]
        assert main(args) == 0
        capsys.readouterr()
        outputs.append((csv_path.read_bytes(), svg_path.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    svg = outputs[0][1].decode("utf-8")
    assert svg.startswith("<svg")
    assert 'viewBox="0 0 800 600"' in svg
    assert "<polyline" in svg
    assert svg.count("stroke-dasharray") == 2  # unity guide and crossover guide
    assert b"\r" not in outputs[0][0]


def test_sweep_json_report(capsys):
    code, out, _ = run(capsys, "sweep", "--count", "4", "--format", "json")
    assert code == 0
    report = strict_json(out)
    assert report["schema"] == 1
    assert report["diagnostics"]["rows"] == 4
    assert len(report["rows"]) == 4
    assert report["config"]["spacing"] == "log"


def test_sweep_other_parameter(capsys):
    code, out, _ = run(
        capsys, "sweep", "--param", "nB", "--start", "10", "--stop", "1000",
        "--count", "3", "--ns", "0.05",
    )
    assert code == 0
    lines = out.splitlines()
    values = {line.split(",")[1] for line in lines[1:]}
    assert len(values) == 1  # n_s column stays fixed while nB sweeps


@pytest.mark.parametrize(
    "param,start,stop", [("nB", "10", "1000"), ("kappa", "0.1", "0.2"), ("M", "1", "100")]
)
def test_sweep_csv_leads_with_the_swept_value(param, start, stop, capsys):
    argv = ["sweep", "--param", param, "--start", start, "--stop", stop, "--count", "3"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == f"{param},n_s,gamma2,gamma3,ratio"
    code, report, _ = run(capsys, *argv, "--format", "json")
    swept = [row["sweep_value"] for row in strict_json(report)["rows"]]
    assert len(set(swept)) == 3
    assert [float(line.split(",")[0]) for line in lines[1:]] == pytest.approx(swept, rel=1e-11)


def test_unwritable_output_exit_3(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "x.csv"
    code, _, err = run(capsys, "sweep", "--count", "3", "--out", str(target))
    assert code == 3 and err.startswith("error:")


def test_config_precedence(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nns=0.5\nnb=50\n", encoding="utf-8")

    code, out, _ = run(capsys, "bounds", "--config", str(cfg))
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    assert float(fields["n_signal"]) == 0.5
    assert float(fields["n_background"]) == 50.0

    monkeypatch.setenv("QI_NS", "0.3")
    code, out, _ = run(capsys, "bounds", "--config", str(cfg))
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    assert float(fields["n_signal"]) == 0.3  # env beats config

    code, out, _ = run(capsys, "bounds", "--config", str(cfg), "--ns", "0.2")
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    assert float(fields["n_signal"]) == 0.2  # flag beats env


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("volume=11\n", encoding="utf-8")
    assert run(capsys, "bounds", "--config", str(bad))[0] == 2
    assert run(capsys, "bounds", "--config", str(tmp_path / "absent.cfg"))[0] == 3


def test_env_validation(monkeypatch, capsys):
    monkeypatch.setenv("QI_NS", "many")
    assert run(capsys, "bounds")[0] == 2
    monkeypatch.delenv("QI_NS")


def test_state_info_absent_state(capsys):
    code, out, _ = run(capsys, "state-info", "--ns", "0.2", "--nb", "5", "--state", "rho")
    assert code == 0
    fields = dict(
        line.split(": ", 1) for line in out.splitlines() if ": " in line and not line.startswith(" ")
    )
    assert fields["modes"] == "3"
    assert fields["physical"] == "yes"
    assert float(fields["log_negativity_mode0_vs_rest"]) == 0.0
    assert float(fields["log_negativity_mode1_vs_rest"]) == pytest.approx(
        0.36492207949367494, abs=1e-9
    )


def test_state_info_probe_at_max_correlation_is_not_pure(capsys):
    for argv in (["--ns", "0.2"], []):
        code, out, _ = run(capsys, "state-info", *argv, "--state", "initial3")
        assert code == 0
        fields = dict(
            line.split(": ", 1) for line in out.splitlines()
            if ": " in line and not line.startswith(" ")
        )
        # the maximally correlated probe sits outside the physical cone
        assert fields["pure"] == "no"
        assert fields["physical"] == "no"


def test_state_info_json(capsys):
    code, out, _ = run(
        capsys, "state-info", "--ns", "0.1", "--nb", "20", "--state", "sigma",
        "--format", "json",
    )
    assert code == 0
    row = strict_json(out)["rows"][0]
    assert row["modes"] == 3
    assert len(row["covariance"]) == 6
    assert len(row["symplectic_eigenvalues"]) == 3
    # and at the defaults, sigma as text and rho as JSON
    code, out, err = run(capsys, "state-info", "--state", "sigma")
    assert (code, err) == (0, "") and "physical: yes" in out
    code, out, _ = run(capsys, "state-info", "--state", "rho", "--format", "json")
    assert code == 0 and strict_json(out)["rows"][0]["modes"] == 3


@pytest.mark.parametrize("state", ["rho", "sigma"])
@pytest.mark.parametrize("argv", [["--ns", "0.1", "--nb", "20", "--kappa", "0.3"],
                                  ["--ns", "1e-4", "--nb", "1e8", "--kappa", "1e-4"]])
def test_state_info_hypotheses_are_the_channel_output(state, argv, capsys):
    # rho (kappa = 0) and sigma are the three-mode probe through illuminate, bit for bit.
    code, out, _ = run(capsys, "state-info", *argv, "--state", state, "--format", "json")
    assert code == 0
    scn = IlluminationScenario(float(argv[1]), float(argv[3]), float(argv[5]))
    kappa = 0.0 if state == "rho" else scn.reflectivity
    cov = illuminate(illumination_probe(scn, "three-mode"), scn, kappa).cov
    printed = strict_json(out)["rows"][0]["covariance"]
    assert json.dumps(printed) == json.dumps(cov.matrix.tolist())  # repr: exact, signs of 0 too


def test_oracle_check_table(capsys):
    code, out, _ = run(
        capsys, "oracle-check", "--ns", "0.1", "--nb", "0.3", "--kappa", "0.1",
        "--cutoff", "20",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == [
        "s", "gaussian_qs", "oracle_qs", "relative_gap", "tail_budget", "flag"
    ]
    assert len(lines) == 5
    assert all(line.endswith("ok") for line in lines[1:4])
    assert lines[4] == "flagged: 0"
    code, out, err = run(capsys, "oracle-check", "--ns", "0.1", "--nb", "0.3", "--cutoff", "24")
    assert (code, err) == (0, "") and out.splitlines()[-1] == "flagged: 0"


def test_oracle_check_json_flags_are_bools(capsys):
    # at cutoff 20 the rounding floor sets the tail budget
    code, out, _ = run(
        capsys, "oracle-check", "--ns", "0.1", "--nb", "0.3", "--kappa", "0.1",
        "--cutoff", "20", "--s-grid", "0.3,0.6", "--format", "json",
    )
    assert code == 0
    report = strict_json(out)
    assert [row["s"] for row in report["rows"]] == [0.3, 0.6]
    for row in report["rows"]:
        assert isinstance(row["flagged"], bool)
    assert report["diagnostics"]["flagged"] == 0
    # the smallest beamsplitter chains (B is 1x1 at cutoff 1, 2x1 at cutoff 2),
    # and the largest cutoff the dimension cap admits (64^2 = 4096)
    for argv in (["--ns", "1e-5", "--nb", "1e-5", "--kappa", "0.3", "--cutoff", "1"],
                 ["--ns", "1e-5", "--nb", "1e-5", "--kappa", "0.3", "--cutoff", "2"],
                 ["--ns", "0.1", "--nb", "0.3", "--cutoff", "63"]):
        code, out, err = run(capsys, "oracle-check", *argv, "--format", "json")
        assert (code, err) == (0, ""), argv
        assert all(isinstance(row["flagged"], bool) for row in strict_json(out)["rows"])


def test_oracle_check_blind_target(capsys):
    code, out, _ = run(
        capsys, "oracle-check", "--ns", "0.1", "--nb", "0.3", "--kappa", "0",
        "--cutoff", "15", "--s-grid", "0.5",
    )
    assert code == 0
    cells = out.splitlines()[1].split()
    assert float(cells[1]) == pytest.approx(1.0, abs=1e-9)
    assert float(cells[2]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("argv", [
    ["--ns", "0.3", "--nb", "0", "--kappa", "0.5"],
    ["--ns", "1", "--nb", "0", "--kappa", "0.99", "--cutoff", "63", "--s-grid", "0.5"],
])
def test_oracle_check_pure_mode_is_not_flagged(capsys, argv):
    # An exactly pure mode (n_b = 0): a numeric eigensolve puts its nu at
    # 1 + O(eps), and r^(1 - s) turns that into a gap of order eps^(1 - s)
    # (5.2e-10 and 8.6e-6 at s = 0.5 and 0.75 in the first case); the
    # closed form takes nu = 1 exactly.
    code, out, err = run(capsys, "oracle-check", *argv)
    assert (code, err) == (0, "") and out.splitlines()[-1] == "flagged: 0"


def test_oracle_check_gaussian_column_is_the_closed_form(capsys, monkeypatch):
    from qillum import symplectic

    def refuse(*args, **kwargs):
        raise AssertionError("oracle-check reached the Williamson engine")

    monkeypatch.setattr(bounds, "_PairEngine", refuse)
    monkeypatch.setattr(symplectic, "williamson_decompose", refuse)
    code, out, err = run(capsys, "oracle-check", "--ns", "0.1", "--nb", "0.3", "--kappa", "0.1",
                         "--cutoff", "20", "--s-grid", "0.1,0.5,0.9", "--format", "json")
    assert (code, err) == (0, "")
    pair = bounds._closed_form_pair(IlluminationScenario(0.1, 0.3, 0.1), "two-mode")
    rows = strict_json(out)["rows"]
    assert [row["gaussian_qs"] for row in rows] == [pair(s).value for s in (0.1, 0.5, 0.9)]


def test_oracle_check_refuses_reflectivity_one(capsys):
    # n_b / (1 - kappa) has no finite thermal input at kappa = 1, so the
    # oracle cannot build the state the Gaussian side describes.
    code, out, err = run(
        capsys, "oracle-check", "--ns", "0.1", "--nb", "0.3", "--kappa", "1",
        "--cutoff", "20", "--s-grid", "0.5",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "kappa" in err
    assert len(err.strip().splitlines()) == 1


def test_oracle_check_cap_exit_4(capsys):
    code, _, err = run(
        capsys, "oracle-check", "--ns", "0.1", "--nb", "0.3", "--cutoff", "70"
    )
    assert code == 4 and "cap" in err
    # the first cutoff the cap refuses, and one refused before any allocation
    for cutoff, dim in (("64", "4225"), ("100000", "10000200001")):
        assert run(capsys, "oracle-check", "--cutoff", cutoff) == (
            4, "", f"error: 2-mode cutoff {cutoff} needs dimension {dim} > cap 4096\n"
        )


def test_oracle_check_bad_s_grid(capsys):
    assert run(capsys, "oracle-check", "--s-grid", "0,0.5")[0] == 2
    assert run(capsys, "oracle-check", "--s-grid", "x")[0] == 2


def test_argparse_errors_keep_exit_2(capsys):
    assert main(["bounds", "--copies", "lots"]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_parser_is_reused_and_environment_read_per_call(capsys, monkeypatch):
    outputs = []
    for ns in ("0.02", "0.3"):
        monkeypatch.setenv("QI_NS", ns)
        code, out, _ = run(capsys, "bounds", "--model", "two-mode")
        assert code == 0 and f"n_signal: {float(ns):.11e}" in out
        outputs.append(out)
    assert outputs[0] != outputs[1]
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"qillum {__version__}\n"
    assert main(["bounds", "--kappa", "half"]) == 2
    assert "--kappa" in capsys.readouterr().err


# A run parses with its command's parser alone; these are the full tree's messages.
TOP_USAGE = ("usage: qillum [-h] [--version]\n"
             "              {bounds,sweep,crossover,state-info,oracle-check} ...\n")
BOUNDS_USAGE = ("usage: qillum bounds [-h] [--ns NS] [--nb NB] [--kappa KAPPA]\n"
                "                     [--copies COPIES] [--c C]\n"
                "                     [--model {two-mode,three-mode,coherent}] [--format FMT]\n"
                "                     [--out OUT] [--config CONFIG]\n")
COMMAND_CHOICES = "(choose from 'bounds', 'sweep', 'crossover', 'state-info', 'oracle-check')"
PARSE_ERRORS = [
    ([], "qillum: error: the following arguments are required: command"),
    (["nope"], f"qillum: error: argument command: invalid choice: 'nope' {COMMAND_CHOICES}"),
    (["bounds", "--bogus"], "qillum: error: unrecognized arguments: --bogus"),
    (["bounds", "extra"], "qillum: error: unrecognized arguments: extra"),
    (["bounds", "--", "x"], "qillum: error: unrecognized arguments: -- x"),
    (["bounds", "--ns"], "qillum bounds: error: argument --ns: expected one argument"),
    (["bounds", "--ns", "x"], "qillum bounds: error: argument --ns: invalid float value: 'x'"),
    (["bounds", "--model", "four"], "qillum bounds: error: argument --model: invalid choice: "
                                    "'four' (choose from 'two-mode', 'three-mode', 'coherent')"),
    (["--", "bounds", "--ns", "0.1"],
     f"qillum: error: argument command: invalid choice: '--' {COMMAND_CHOICES}"),
]


@pytest.mark.parametrize("argv,message", PARSE_ERRORS)
def test_parse_errors_print_the_full_tree_messages(argv, message, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    usage = BOUNDS_USAGE if message.startswith("qillum bounds:") else TOP_USAGE
    assert run(capsys, *argv) == (2, "", f"{usage}{message}\n")


def test_abbreviated_flag_runs(capsys):
    code, out, err = run(capsys, "bounds", "--mod", "two-mode")
    assert (code, err) == (0, "")
    assert out == run(capsys, "bounds", "--model", "two-mode")[1]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_command_help_names_the_command(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, command, "-h")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: qillum {command} [-h] [--ns NS] ")


# `python -m qillum.cli crossover`, counting the argparse parsers it constructs.
COUNT_PARSERS = """
import argparse, runpy, sys
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
sys.argv = ["qillum", "crossover"]
try:
    runpy.run_module("qillum.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
print(len(built), built)
"""


def test_a_run_builds_only_its_command_parser():
    proc = _fresh_python("-c", COUNT_PARSERS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith("crossover_n_s: ")
    assert proc.stdout.splitlines()[-1] == "1 ['qillum crossover']"


@pytest.mark.parametrize("command", ["sweep", "oracle-check"])
def test_commands_without_correlation_refuse_c(command, capsys, monkeypatch):
    argv = [command, "--count", "2"] if command == "sweep" else [command, "--cutoff", "15"]
    code, out, err = run(capsys, *argv, "--c", "0.05")
    assert code == 2 and out == ""
    assert err == f"error: {command} does not take c (set by flag)\n"
    monkeypatch.setenv("QI_C", "0.05")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {command} does not take c (set by env)\n"


# c on sweep and oracle-check: test_commands_without_correlation_refuse_c.
UNREAD_KEYS = [
    ("sweep", "model", "two-mode"),
    *(
        ("crossover", key, value)
        for key, value in (("ns", "0.1"), ("nb", "5"), ("kappa", "0.2"),
                           ("copies", "7"), ("c", "0.05"), ("model", "two-mode"))
    ),
    ("state-info", "copies", "7"),
    ("state-info", "model", "two-mode"),
    ("oracle-check", "copies", "7"),
]


@pytest.mark.parametrize("command,key,value", UNREAD_KEYS)
def test_commands_refuse_keys_they_do_not_read(command, key, value, tmp_path, capsys,
                                               monkeypatch):
    expected = f"error: {command} does not take {key} (set by {{}})\n"
    assert run(capsys, command, f"--{key}", value) == (2, "", expected.format("flag"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n", encoding="utf-8")
    assert run(capsys, command, "--config", str(cfg)) == (2, "", expected.format("config"))
    monkeypatch.setenv("QI_" + key.upper(), value)
    assert run(capsys, command) == (2, "", expected.format("env"))


def test_oracle_check_runs_the_two_mode_pair_only(capsys, monkeypatch):
    argv = ["oracle-check", "--ns", "0.1", "--nb", "0.3", "--cutoff", "15", "--format", "json"]
    code, out, err = run(capsys, *argv, "--model", "three-mode")
    assert (code, out) == (2, "")
    assert err == "error: oracle-check runs model two-mode only (three-mode set by flag)\n"
    code, unset, _ = run(capsys, *argv)
    assert code == 0
    config = strict_json(unset)["config"]
    assert (config["model"], config["sources"]["model"]) == ("two-mode", "default")
    code, named, _ = run(capsys, *argv, "--model", "two-mode")
    assert code == 0
    assert strict_json(named)["rows"] == strict_json(unset)["rows"]
    monkeypatch.setenv("QI_MODEL", "coherent")
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == "error: oracle-check runs model two-mode only (coherent set by env)\n"


def test_runs_load_no_scipy():
    """A fresh interpreter runs numeric Williamson and the Fock oracle on numpy alone."""
    script = """
import contextlib, io, sys
import qillum.cli
assert qillum.cli._build_parser.cache_info().currsize == 0, "parser built at import"
assert qillum.cli._command_parser.cache_info().currsize == 0, "parser built at import"
for argv in (["bounds", "--model", "two-mode"],
             ["bounds", "--model", "three-mode", "--nb", "1e8"],
             ["oracle-check", "--ns", "0.1", "--nb", "0.3", "--cutoff", "15"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert qillum.cli.main(argv) == 0, argv
    print(out.getvalue().splitlines()[-1])
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].startswith("asymptotic_exponent_per_copy: ")
    assert lines[2] == "flagged: 0"
    assert lines[-1] == "[]"


@pytest.mark.parametrize("module", ["symplectic", "states", "bounds", "fock", "cli"])
def test_import_loads_no_numpy(module):
    """numpy's import is most of a spawned run; each module defers it to its first matrix."""
    proc = _fresh_python("-c", f"import sys, qillum.{module}\n"
                               "assert 'numpy' not in sys.modules, sorted(sys.modules)")
    assert proc.returncode == 0, proc.stderr


SCALAR_RUNS_WITHOUT_NUMPY = """
import contextlib, io, itertools, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from qillum.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
    assert main(["crossover"]) == 0
    assert main(["crossover", "--format", "json"]) == 0
    assert main(["--version"]) == 0
    assert main(["--help"]) == 0
    assert main(["crossover", "--ns", "0.1"]) == 2
    assert main(["bounds", "--kappa", "2"]) == 2
    assert main(["bounds", "--ns", "x"]) == 2
    # every model's bounds are closed forms admitted by a scalar check
    assert main(["bounds"]) == 0
    assert main(["bounds", "--model", "two-mode"]) == 0
    assert main(["bounds", "--model", "coherent"]) == 0
    for model, fmt, nb, ns, kappa in itertools.product(
        ("three-mode", "two-mode", "coherent"), ("text", "json"), ("1e-2", "1e8"), ("1e-4", "1"),
        ("1e-4", "1"),
    ):
        argv = ["bounds", "--model", model, "--format", fmt, "--nb", nb, "--ns", ns]
        # the paper's three-mode probe leaves a present eigenvalue below one at
        # the dim, fully reflecting corner, and the scalar path refuses it too
        refused = (model, nb, kappa) == ("three-mode", "1e-2", "1")
        assert main([*argv, "--kappa", kappa]) == (2 if refused else 0), argv
    # and a coherent return whose variance 2 n_b + 1 overflows is refused by it
    assert main(["bounds", "--model", "coherent", "--nb", "1.7e308"]) == 2
    # so is a sweep's grid, and every probe's Bhattacharyya and Chernoff extras
    assert main(["sweep"]) == 0
    assert main(["sweep", "--spacing", "linear"]) == 0
    assert main(["sweep", "--extras", "qb2,qb_coherent"]) == 0
    assert main(["sweep", "--extras", "qb3,chernoff3"]) == 0
print(out.getvalue().splitlines()[0])
"""

MATRIX_RUNS_LOAD_NUMPY = """
import contextlib, io, sys
import qillum.states
from qillum.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["state-info"]) == 0
    # the stand-in has made way for numpy itself
    assert qillum.states.np is sys.modules["numpy"]
    assert "qillum.fock" not in sys.modules, "state-info imported the oracle"
    assert main(["oracle-check", "--ns", "0.1", "--nb", "0.3", "--cutoff", "15"]) == 0
    assert "qillum.fock" in sys.modules
"""


def test_scalar_commands_run_without_numpy():
    proc = _fresh_python("-c", SCALAR_RUNS_WITHOUT_NUMPY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("crossover_n_s: 0.295355\n")


def test_matrix_commands_load_numpy_and_only_oracle_check_loads_fock():
    proc = _fresh_python("-c", MATRIX_RUNS_LOAD_NUMPY)
    assert proc.returncode == 0, proc.stderr


NO_NUMPY_MA = """
import contextlib, io, sys
from qillum.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for model in ("three-mode", "two-mode", "coherent"):
        assert main(["bounds", "--model", model]) == 0, model
    # optimal_s 0.504: the search leaves s = 1/2 and steps on the slope
    assert main(["bounds", "--ns", "0.1", "--nb", "1", "--kappa", "0.1"]) == 0
    assert main(["sweep", "--count", "5", "--extras", "chernoff3"]) == 0
assert "numpy.ma" not in sys.modules, "numpy.ma imported"
"""


def test_chernoff_runs_load_no_numpy_ma():
    """Chernoff runs load no numpy.ma, a further import that helpers such as np.unique bring in."""
    proc = _fresh_python("-c", NO_NUMPY_MA)
    assert proc.returncode == 0, proc.stderr


def test_bounds_print_log10_where_the_bound_underflows(capsys):
    # At 1e6 copies both bounds underflow to 0; their log10 stays finite and
    # is (copies * log q - ln 2) / ln 10 of the printed exponents.
    argv = ["bounds", "--ns", "0.1", "--nb", "1", "--kappa", "0.1"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    assert fields["bhattacharyya_bound"] == fields["chernoff_bound"] == "0.00000000000e+00"
    assert FLOAT12.match(fields["log10_bhattacharyya_bound"])
    code, out, _ = run(capsys, *argv, "--format", "json")
    (row,) = strict_json(out)["rows"]
    for name, suffix in (("bhattacharyya", "qb"), ("chernoff", "qc")):
        expected = -(row["copies"] * row[f"exponent_per_copy_{suffix}"] + math.log(2.0))
        expected /= math.log(10.0)
        assert row[f"log10_{name}_bound"] == pytest.approx(expected, rel=1e-14)
        assert float(fields[f"log10_{name}_bound"]) == pytest.approx(expected, rel=1e-11)
    assert -1681.0 < row["log10_chernoff_bound"] <= row["log10_bhattacharyya_bound"] < -1680.0
    # Where the bound does not underflow, it is the log10 of the printed
    # value, 1/2 exp(copies log q), from the same copies log q.
    code, out, _ = run(capsys, "bounds", "--format", "json")
    (row,) = strict_json(out)["rows"]
    for name in ("bhattacharyya", "chernoff"):
        printed = math.log10(row[f"{name}_bound"])
        assert row[f"log10_{name}_bound"] == pytest.approx(printed, rel=1e-14)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["crossover"], "crossover.txt"),
        (["crossover", "--format", "json"], "crossover.json"),
        (["sweep", "--count", "5"], "sweep5.csv"),
        (["sweep", "--count", "5", "--format", "json"], "sweep5.json"),
    ],
)
def test_outputs_match_recorded_bytes(argv, golden, capsys):
    # Python float math only, so these bytes are the same on every machine.
    assert run(capsys, *argv) == (0, (GOLDEN / golden).read_text(encoding="utf-8"), "")


NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[+-]\d+)?")


@pytest.mark.parametrize("model", ["three-mode", "two-mode", "coherent"])
@pytest.mark.parametrize("fmt,ext", [("text", "txt"), ("json", "json")])
def test_bounds_outputs_match_recorded_values(model, fmt, ext, capsys):
    # bounds is Python float math on the C library's exp, log1p and expm1,
    # whose last bits may differ between platforms, and its Chernoff search
    # amplifies them in optimal_s. So everything but the numbers must match
    # exactly, text numbers keep their printed shape, and the values agree
    # within tolerance.
    # (In the dim-signal, bright-background corner the exponents sit at the
    # rounding floor and move by percents, so no recorded value pins them.)
    code, out, err = run(capsys, "bounds", "--model", model, "--format", fmt)
    golden = (GOLDEN / f"bounds_{model}.{ext}").read_text(encoding="utf-8")
    assert (code, err) == (0, "")
    assert NUMBER.split(out) == NUMBER.split(golden)
    for before, got, want in zip(NUMBER.split(golden), NUMBER.findall(out), NUMBER.findall(golden)):
        rel_tol = 1e-3 if before.rstrip('": ').endswith("optimal_s") else 1e-10
        assert math.isclose(float(got), float(want), rel_tol=rel_tol), (before, got, want)
        if fmt == "text":
            assert re.sub(r"\d", "0", got) == re.sub(r"\d", "0", want)


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--model", "coherent", "--ns", "0"],
        ["bounds", "--model", "two-mode", "--ns", "0", "--c", "0"],
        ["bounds", "--kappa", "0"],
    ],
)
def test_equal_hypotheses_print_one_half(argv, capsys):
    # Both hypotheses are the same state, so the error probability is 1/2
    # exactly and no rounding residue may pass for an exponent.
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    lines = out.splitlines()
    for line in (
        "bhattacharyya_bound: 5.00000000000e-01",
        "chernoff_bound: 5.00000000000e-01",
        "optimal_s: 0.5000000000",
        "exponent_per_copy_qb: 0.00000000000e+00",
        "exponent_per_copy_qc: 0.00000000000e+00",
    ):
        assert line in lines


@pytest.mark.parametrize("model", ["three-mode", "two-mode", "coherent"])
@pytest.mark.parametrize("kappa", ["1e-16", "1e-14"])
def test_near_equal_hypotheses_keep_the_bhattacharyya_point(model, kappa, capsys):
    # The hypotheses differ in their last bits, so log q is flat to rounding:
    # the tangent at s = 1/2 certifies the start within rounding of the
    # minimum, and the search stops there instead of taking rounding residue
    # elsewhere for an exponent.
    code, out, err = run(capsys, "bounds", "--model", model, "--kappa", kappa)
    assert (code, err) == (0, "")
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    assert fields["optimal_s"] == "0.5000000000"
    assert fields["chernoff_bound"] == fields["bhattacharyya_bound"]
    assert fields["exponent_per_copy_qc"] == fields["exponent_per_copy_qb"]


def test_sweep_plot_matches_recorded_bytes(tmp_path, capsys):
    plot = tmp_path / "ratio.svg"
    assert run(capsys, "sweep", "--count", "5", "--plot", str(plot))[0] == 0
    assert plot.read_bytes() == (GOLDEN / "sweep5.svg").read_bytes()


def test_sweep_plot_marks_the_ends_of_a_sweep_inside_one_decade(tmp_path, capsys):
    # 0.2 to 0.5 holds no power of ten to mark, so the x axis is marked and
    # labelled at the sweep's ends, the frame's left and right edges.
    plot = tmp_path / "ratio.svg"
    argv = ["--start", "0.2", "--stop", "0.5", "--count", "5", "--plot", str(plot)]
    assert run(capsys, "sweep", *argv)[0] == 0
    svg = plot.read_text(encoding="utf-8")
    ticks = re.findall(r'<line x1="([\d.]+)" y1="545.00" x2="\1" y2="551.00"', svg)
    labels = re.findall(r'<text x="([\d.]+)" y="567.00" font-size="14" '
                        r'text-anchor="middle">([^<]*)</text>', svg)
    assert ticks == ["70.00", "775.00"]
    assert labels == [("70.00", "0.2"), ("775.00", "0.5")]


@pytest.mark.parametrize(
    "argv",
    [
        ["--spacing", "linear", "--start", "0", "--stop", "1", "--count", "5"],
        ["--param", "nB", "--ns", "0", "--start", "1", "--stop", "10", "--count", "3"],
        ["--param", "kappa", "--ns", "0", "--start", "0.1", "--stop", "0.2", "--count", "2"],
    ],
)
def test_sweep_plot_leaves_out_undefined_ratios(argv, tmp_path, capsys):
    # n_s = 0 has no ratio: its nan is neither a polyline point nor part of
    # the y range, so every tick and point of the plot is a number.
    plot = tmp_path / "ratio.svg"
    code, out, err = run(capsys, "sweep", *argv, "--plot", str(plot))
    assert (code, err) == (0, "")
    svg = plot.read_text(encoding="utf-8")
    assert "nan" not in svg
    finite = [line for line in out.splitlines()[1:] if not line.endswith(",nan")]
    (points,) = re.findall(r'<polyline points="([^"]*)"', svg)
    assert len(points.split()) == len(finite)


EXTRAS = "('qb2', 'qb3', 'qb_coherent', 'chernoff3')"
MODELS = "('two-mode', 'three-mode', 'coherent')"
REFUSALS = [
    (["bounds", "--format", "csv"], {},
     "format 'csv' not supported by bounds; use one of ('text', 'json')"),
    (["sweep", "--format", "text"], {},
     "format 'text' not supported by sweep; use one of ('csv', 'json')"),
    (["crossover", "--format", ""], {},
     "format '' not supported by crossover; use one of ('text', 'json')"),
    (["sweep", "--count", "1"], {}, "sweep needs at least 2 grid points"),
    (["sweep", "--start", "1", "--stop", "0.5"], {}, "sweep start must be below stop"),
    (["sweep", "--start", "1", "--stop", "1"], {}, "sweep start must be below stop"),
    (["sweep", "--start", "0"], {}, "log spacing requires a positive start"),
    (["sweep", "--param", "M", "--start", "0.5", "--stop", "9", "--spacing", "linear"], {},
     "copy-count sweeps must start at 1 or above"),
    (["sweep", "--extras", "qb2,nope,zz"], {}, f"unknown extras ['nope', 'zz']; choose from {EXTRAS}"),
    (["oracle-check", "--s-grid", "x"], {}, "bad s grid 'x'"),
    (["oracle-check", "--s-grid", "0,0.5"], {}, "s grid values must lie strictly inside (0, 1)"),
    (["oracle-check", "--s-grid", ","], {}, "s grid values must lie strictly inside (0, 1)"),
    (["bounds"], {"QI_NS": "many"}, "invalid value for ns: 'many'"),
    (["bounds"], {"QI_COPIES": "1.5"}, "invalid value for copies: '1.5'"),
    (["bounds"], {"QI_MODEL": "bogus"}, f"unknown model 'bogus'; expected one of {MODELS}"),
    (["bounds", "--kappa", "2"], {}, "reflectivity must lie in [0, 1]"),
    (["bounds", "--model", "coherent", "--c", "0.05"], {}, "bounds does not take c (set by flag)"),
    (["bounds"], {"QI_MODEL": "coherent", "QI_C": "0.05"}, "bounds does not take c (set by env)"),
    (["oracle-check", "--cutoff", "-3", "--ns", "1e-6", "--nb", "1e-6", "--kappa", "0.1"], {},
     "cutoff must be at least 1"),
    (["oracle-check", "--cutoff", "0"], {}, "cutoff must be at least 1"),
    (["sweep", "--extras", "qbCoherent"], {}, f"unknown extras ['qbCoherent']; choose from {EXTRAS}"),
    # a pair admitted by illuminate or the scalar check is refused at its
    # first symplectic eigenvalue below one, absent first, from the closed form
    (["bounds", "--model", "three-mode", "--nb", "0.01", "--kappa", "0.99"], {},
     "symplectic eigenvalue 0.984870077232 below one"),
    (["bounds", "--nb", "1e16"], {}, "covariance matrix is not positive definite"),
    # box draw box_scenarios(2, 60)[29], refused the same way
    (["bounds", "--ns", "0.14963102869663833", "--nb", "0.03367607234027932", "--kappa",
      "0.4097784296620206"], {}, "symplectic eigenvalue 0.950979573932 below one"),
    # the coherent photon term 2 kappa n_s overflows, which would print an infinite exponent
    (["bounds", "--model", "coherent", "--ns", "1.7e308", "--nb", "0", "--kappa", "0.99"], {},
     "n_signal 1.7e+308 overflows the coherent displacement"),
]


@pytest.mark.parametrize("argv,env,message", REFUSALS)
def test_refusals_print_one_exact_line(argv, env, message, capsys, monkeypatch):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_copies_past_the_float_range_are_refused_from_every_source(tmp_path, capsys,
                                                                   monkeypatch):
    # The bounds take copies * log q in floats: a copy count float() cannot
    # convert exits 2 by name, not 1 with an OverflowError traceback.
    huge = "1" + "0" * 400
    refused = (2, "", "error: copies must be at most the largest float, about 1.8e308\n")
    assert run(capsys, "bounds", "--copies", huge) == refused
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"copies={huge}\n", encoding="utf-8")
    assert run(capsys, "bounds", "--config", str(cfg)) == refused
    monkeypatch.setenv("QI_COPIES", huge)
    assert run(capsys, "sweep", "--count", "2", "--extras", "qb2") == refused
    # 1e308 still converts, and prints
    code, out, err = run(capsys, "bounds", "--copies", "1" + "0" * 308)
    assert (code, err) == (0, "") and "bhattacharyya_bound: 0.00000000000e+00" in out


def test_file_refusals_print_one_exact_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for text, message in (
        ("volume=11\n", f"{cfg}:1: unknown key 'volume'"),
        ("# ns\n\nns\n", f"{cfg}:3: expected key=value, got 'ns'"),
        ("model=four\n", f"unknown model 'four'; expected one of {MODELS}"),
    ):
        cfg.write_text(text, encoding="utf-8")
        assert run(capsys, "bounds", "--config", str(cfg)) == (2, "", f"error: {message}\n")
    cfg.write_bytes(b"\xff")
    assert run(capsys, "bounds", "--config", str(cfg)) == (2, "", (
        f"error: cannot read config {cfg}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    ))
    absent = tmp_path / "absent.cfg"
    assert run(capsys, "bounds", "--config", str(absent)) == (
        3, "", f"error: cannot read config {absent}: No such file or directory\n"
    )
    missing = tmp_path / "missing" / "x.csv"
    for argv in (["--out", str(missing)], ["--plot", str(missing)]):
        assert run(capsys, "sweep", "--count", "3", *argv) == (
            3, "", f"error: cannot write {missing}: No such file or directory\n"
        )


def test_sweep_row_ratio():
    resolved = {key: default for key, (_, default, _) in cli.KEYS.items()}
    row = cli._sweep_row(resolved, "nS", [], 0.05)
    assert row["gamma2"] == bounds.error_exponent_two_mode(0.05)
    assert row["gamma3"] == bounds.error_exponent_three_mode(0.05)
    assert row["ratio"] == row["gamma3"] / row["gamma2"]
    # no signal, no exponent: the ratio is undefined
    row = cli._sweep_row(resolved, "nS", [], 0.0)
    assert row["gamma2"] == row["gamma3"] == 0.0 and math.isnan(row["ratio"])


@pytest.mark.parametrize(
    "argv,code",
    [
        (["--model", "two-mode", "--ns", "0"], 0),  # equal hypotheses
        (["--model", "two-mode", "--nb", "0", "--kappa", "1"], 0),  # vacuum return, pure present
        (["--model", "coherent", "--kappa", "1"], 0),
        (["--model", "two-mode", "--ns", "1e154", "--kappa", "0"], 2),
        # equal, undisplaced covariances: the engine's pieces and slope are exactly 0
        (["--model", "three-mode", "--ns", "1e200", "--nb", "0", "--kappa", "0"], 0),
        # lambda^2 would overflow in the slope: (lambda - 1)(lambda + 1) does not
        (["--model", "coherent", "--nb", "1e200"], 0),
        # nor in the three-mode engine's, before the exponent coefficient refuses n_signal
        (["--model", "three-mode", "--ns", "1e154", "--nb", "1e154", "--kappa", "0.5"], 2),
    ],
)
def test_closed_form_special_points_run_with_warnings_as_errors(argv, code):
    # Under python -W error a numpy warning is an uncaught traceback, exit 1.
    argv = ["bounds", *argv]
    script = f"import sys; from qillum.cli import main; sys.exit(main({argv!r}))"
    proc = _fresh_python("-c", script)
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr == "error: n_signal 1e+154 overflows the exponent coefficient\n"
    else:
        assert proc.stderr == "" and "exponent_per_copy_qc: " in proc.stdout


@pytest.mark.filterwarnings("error")
def test_signal_far_above_the_box_is_refused_or_printed_without_a_traceback(capsys):
    # The det V = 1 correlation has no power of S to overflow: bounds refuses
    # states whose entries are out of range (exit 2, for both entangled
    # models), and the sweep's coefficients keep their limits n_s / 4 and n_s / 6.
    # Once 4 n_s (1 + n_s) overflows (n_s ~ 6.7e153) the exponent coefficients
    # refuse n_signal by name, and so does the two-mode correlation once
    # n_s (1 + n_s) does (n_s ~ 1.3e154).
    for argv in (
        ["--ns", "1e52"],
        ["--ns", "1e52", "--model", "two-mode"],
        ["--ns", "1e160"],
        ["--ns", "1e160", "--model", "two-mode"],
    ):
        code, out, err = run(capsys, "bounds", *argv)
        assert code == 2 and out == "" and "Traceback" not in err, (argv, err)
    for argv in (
        ["--start", "1e150", "--stop", "1e300", "--count", "4"],
        ["--param", "nB", "--ns", "1e160", "--start", "1", "--stop", "10", "--count", "2"],
    ):
        code, out, err = run(capsys, "sweep", *argv)
        assert (code, out) == (2, ""), (argv, err)
        assert err.startswith("error: n_signal ") and "overflows" in err, (argv, err)
    code, out, err = run(capsys, "sweep", "--start", "1e60", "--stop", "1e100", "--count", "5")
    assert (code, err) == (0, "")
    rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
    assert [row[0] for row in rows] == pytest.approx([1e60, 1e70, 1e80, 1e90, 1e100], rel=1e-11)
    for ns, gamma2, gamma3, ratio in rows:
        assert gamma2 == pytest.approx(ns / 4.0, rel=1e-11)
        assert gamma3 == pytest.approx(ns / 6.0, rel=1e-11)
        assert ratio == pytest.approx(2.0 / 3.0, rel=1e-11)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["bounds", "--ns", "nan"], "n_signal must be finite, got nan"),
        (["bounds", "--nb", "inf"], "n_background must be finite, got inf"),
        (["bounds", "--c", "nan"], "correlation must be finite, got nan"),
        (["state-info", "--ns", "nan"], "n_signal must be finite, got nan"),
        (["state-info", "--c", "inf"], "correlation must be finite, got inf"),
        (["oracle-check", "--ns", "nan"], "n_signal must be finite, got nan"),
        (["oracle-check", "--nb=-inf"], "n_background must be finite, got -inf"),
        (["sweep", "--count", "3", "--ns", "nan", "--param", "nB", "--start", "1", "--stop", "10"],
         "n_signal must be finite, got nan"),
        (["sweep", "--count", "3", "--stop", "inf"], "sweep start and stop must be finite"),
        (["sweep", "--count", "3", "--start", "nan"], "sweep start and stop must be finite"),
    ],
)
def test_non_finite_inputs_are_refused(argv, message, capsys):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("model", ["three-mode", "two-mode"])
@pytest.mark.parametrize("ns", [1e-3, 0.01, 0.1])
def test_bounds_asymptote_is_taken_at_the_probe_correlation(model, ns, capsys):
    # At half the maximal correlation and n_b = 1e6 the printed exponent sits
    # on the asymptote of that probe, not of the maximally correlated one.
    cmax = {"three-mode": qillum.states.max_three_mode_correlation,
            "two-mode": qillum.states.tmsv_correlation}
    argv = ["bounds", "--model", model, "--ns", repr(ns), "--nb", "1e6", "--kappa", "0.1",
            "--format", "json"]
    code, out, _ = run(capsys, *argv, "--c", repr(0.5 * cmax[model](ns)))
    assert code == 0
    row = strict_json(out)["rows"][0]
    assert row["exponent_per_copy_qb"] / row["asymptotic_exponent_per_copy"] == pytest.approx(
        1.0, abs=5e-4
    )
    # the default probe keeps the maximal-correlation asymptote
    code, out, _ = run(capsys, *argv)
    row = strict_json(out)["rows"][0]
    assert row["exponent_per_copy_qb"] / row["asymptotic_exponent_per_copy"] == pytest.approx(
        1.0, abs=5e-4
    )


@pytest.mark.parametrize(
    "argv,field,printed",
    [
        (["bounds", "--nb", "0", "--model", "two-mode"], "asymptotic_exponent_per_copy",
         "\nasymptotic_exponent_per_copy: inf\n"),
        (["sweep", "--param", "kappa", "--ns", "0", "--start", "0.1", "--stop", "0.2",
          "--count", "2"], "ratio", ",nan\n"),
    ],
)
def test_json_writes_non_finite_values_as_null(argv, field, printed, capsys):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    rows = strict_json(out)["rows"]
    assert [row[field] for row in rows] == [None] * len(rows)
    # text and CSV keep printing the value itself
    code, out, _ = run(capsys, *argv)
    assert code == 0 and printed in out


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--model", "three-mode"],
        ["bounds", "--model", "two-mode"],
        ["bounds", "--model", "coherent"],
        ["sweep", "--count", "3", "--extras", "qb2,qb3,qb_coherent,chernoff3"],
        ["crossover"],
        ["state-info", "--state", "rho"],
        ["state-info", "--state", "sigma"],
        ["state-info", "--state", "initial3"],
        ["oracle-check", "--ns", "0.1", "--nb", "0.3", "--kappa", "0.1", "--cutoff", "20"],
        # n_s = 0: every row's ratio is null
        ["sweep", "--param", "kappa", "--ns", "0", "--start", "0.1", "--stop", "0.2",
         "--count", "2"],
    ],
)
def test_json_report_is_json_dumps_indent_2(argv, capsys):
    # The printed report is byte for byte what json.dumps(indent=2) prints for it.
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(strict_json(out), indent=2) + "\n"


@pytest.mark.parametrize(
    "argv",
    [["--model", "coherent", "--ns", "0"], ["--model", "two-mode", "--ns", "0", "--c", "0"]],
)
def test_zero_exponent_prints_without_sign(argv, capsys):
    code, out, _ = run(capsys, "bounds", *argv)
    assert code == 0
    assert "exponent_per_copy_qb: 0.00000000000e+00\n" in out
    code, out, _ = run(capsys, "bounds", *argv, "--format", "json")
    row = strict_json(out)["rows"][0]
    assert math.copysign(1.0, row["exponent_per_copy_qb"]) == 1.0
