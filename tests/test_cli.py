import os

import numpy as np
import pytest

import palflow
from palflow.cli import (ConfigError, build_problem, main, parse_config,
                         svg_line_plot)


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# -- config parsing ----------------------------------------------------------

def test_parse_key_values_and_matrices(tmp_path):
    path = write(tmp_path, """
# comment
problem = custom
mu = 0.5        # trailing comment
[matrix H]
2 0
0 2
[matrix E]
1 1
""")
    keys, mats = parse_config(path)
    assert keys["problem"] == "custom"
    assert keys["mu"] == "0.5"
    assert np.allclose(mats["H"], 2 * np.eye(2))
    assert mats["E"].shape == (1, 2)


def test_parse_errors_name_offender(tmp_path):
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(write(tmp_path, "just some words\n"))
    with pytest.raises(ConfigError, match="bad section"):
        parse_config(write(tmp_path, "[matrices H]\n1\n"))
    with pytest.raises(ConfigError, match="empty"):
        parse_config(write(tmp_path, "[matrix H]\n"))
    with pytest.raises(ConfigError, match="bad matrix row"):
        parse_config(write(tmp_path, "[matrix H]\n1 x\n"))
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "missing.cfg"))


def test_build_problem_validates(tmp_path):
    keys, mats = parse_config(write(tmp_path, "problem = nosuch\n"))
    with pytest.raises(ConfigError, match="nosuch"):
        build_problem(keys, mats)
    keys, mats = parse_config(write(tmp_path, "problem = custom\n"))
    with pytest.raises(ConfigError, match="matrix"):
        build_problem(keys, mats)
    keys, mats = parse_config(write(
        tmp_path, "problem = lasso_network\nagents = x\n"))
    with pytest.raises(ConfigError, match="agents"):
        build_problem(keys, mats)


def test_build_custom_problem(tmp_path):
    keys, mats = parse_config(write(tmp_path, """
problem = custom
mu = 2.0
l1_weight = 0.7
[matrix H]
1 0
0 1
[matrix E]
1 0
0 1
[matrix F]
-1 0
0 -1
[matrix q]
1
2
"""))
    prob, s0, ref, extras = build_problem(keys, mats)
    assert prob.m == 2 and prob.n == 2 and prob.p == 2
    assert prob.mu == pytest.approx(2.0)
    assert np.allclose(prob.q, [1.0, 2.0])


# -- solve -------------------------------------------------------------------

def test_solve_malformed_config_exit_1(tmp_path, capsys):
    cfg = write(tmp_path, "problem = lasso_network\nagents = notanint\n")
    assert main(["solve", "--config", cfg]) == 1
    assert "agents" in capsys.readouterr().err


def test_solve_counterexample_emits_exit_row(tmp_path):
    cfg = write(tmp_path, "problem = counterexample\nbeta = 5\nt_end = 20\n")
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out, "--svg"]) == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,n1,n2"
    assert lines[-1].startswith("# region exit at t = ")
    t_star = float(lines[-1].rsplit("=", 1)[1])
    assert t_star == pytest.approx(5.0, abs=1e-6)
    svg = (tmp_path / "out" / "measurements.svg").read_text()
    assert svg.startswith("<svg")
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "seed = 0" in manifest
    assert "config.beta = 5" in manifest


def test_solve_custom_quadratic(tmp_path):
    cfg = write(tmp_path, """
problem = custom
t_end = 60
stop_kkt = 1e-9
[matrix H]
1 0
0 1
[matrix E]
1 1
[matrix q]
2
""")
    out = str(tmp_path / "q_out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    lines = (tmp_path / "q_out" / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("t,kkt_residual,field_norm")
    last = [float(v) for v in lines[-1].split(",")]
    assert last[1] < 1e-8      # stopped on the residual threshold


VECTOR_CFG = """
problem = custom
t_end = 2
[matrix H]
2 0
0 1
[matrix E]
1 0
1 1
{c}{q}"""


def test_solve_custom_row_and_column_vectors_agree(tmp_path):
    rows = {"c": "[matrix c]\n1 2\n", "q": "[matrix q]\n1 -1\n"}
    cols = {"c": "[matrix c]\n1\n2\n", "q": "[matrix q]\n1\n-1\n"}
    for name, vecs in (("row", rows), ("col", cols)):
        cfg = write(tmp_path, VECTOR_CFG.format(**vecs), name=f"{name}.cfg")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / name)]) == 0
    row = (tmp_path / "row" / "trajectory.csv").read_text()
    assert row == (tmp_path / "col" / "trajectory.csv").read_text()
    keys, mats = parse_config(str(tmp_path / "row.cfg"))
    prob = build_problem(keys, mats)[0]
    assert np.allclose(prob.f_grad([np.zeros(2)])[0], [1.0, 2.0])
    assert np.allclose(prob.q, [1.0, -1.0])


def test_solve_custom_wrong_length_vector_exit_1(tmp_path, capsys):
    for bad in ("[matrix c]\n1 2 3\n", "[matrix c]\n1 2\n3 4\n",
                "[matrix q]\n1\n"):
        cfg = write(tmp_path, VECTOR_CFG.format(c=bad, q=""))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "must be a row or a column" in capsys.readouterr().err


def test_solve_custom_nonsymmetric_hessian_exit_1(tmp_path, capsys):
    cfg = write(tmp_path, "problem = custom\n[matrix H]\n1 2\n0 1\n"
                          "[matrix E]\n1 1\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "symmetric" in capsys.readouterr().err


def test_manifest_records_package_version(tmp_path):
    cfg = write(tmp_path, VECTOR_CFG.format(c="", q=""))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    manifest = (tmp_path / "o" / "manifest.txt").read_text().splitlines()
    assert f"palflow_version = {palflow.__version__}" in manifest


def test_solve_lasso_reaches_oracle(tmp_path):
    cfg = write(tmp_path,
                "problem = lasso_network\nagents = 3\ndim = 8\nmeas = 3\n"
                "seed = 1\nt_end = 400\n")
    out = str(tmp_path / "l_out")
    assert main(["solve", "--config", cfg, "--out", out, "--svg"]) == 0
    lines = (tmp_path / "l_out" / "trajectory.csv").read_text().splitlines()
    cols = lines[0].split(",")
    assert "rel_function_error" in cols
    final = dict(zip(cols, [float(v) for v in lines[-1].split(",")]))
    assert final["rel_function_error"] < 1e-6
    assert (tmp_path / "l_out" / "function_error.svg").exists()


def test_cli_overrides_apply(tmp_path):
    cfg = write(tmp_path, "problem = counterexample\nbeta = 4\nt_end = 20\n")
    out = str(tmp_path / "o_out")
    # doubling the dual time constant halves the escape time
    assert main(["solve", "--config", cfg, "--out", out, "--alpha", "2.0"]) == 0
    tail = (tmp_path / "o_out" / "trajectory.csv").read_text().splitlines()[-1]
    assert float(tail.rsplit("=", 1)[1]) == pytest.approx(2.0, abs=1e-6)


# -- certify -----------------------------------------------------------------

def test_certify_strongly_convex_passes(tmp_path, capsys):
    cfg = write(tmp_path, """
problem = custom
[matrix H]
2 0
0 2
[matrix E]
1 1
[matrix q]
1
""")
    assert main(["certify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "rho2" in out and "alpha_bar" in out


def test_certify_missing_curvature_exit_1(tmp_path, capsys):
    cfg = write(tmp_path, """
problem = custom
[matrix H]
0 0
0 0
[matrix E]
1 0
0 1
[matrix q]
1
0
""")
    assert main(["certify", "--config", cfg]) == 1
    assert "Lipschitz" in capsys.readouterr().err


# -- bench -------------------------------------------------------------------

def test_bench_unknown_suite_exit_1(capsys):
    assert main(["bench", "nosuchsuite"]) == 1
    assert "nosuchsuite" in capsys.readouterr().err


def test_bench_invariants(capsys):
    assert main(["bench", "invariants"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_threads_env_caps_pools(tmp_path, monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("PALFLOW_THREADS", "1")
    cfg = write(tmp_path, "problem = counterexample\nbeta = 1\nt_end = 5\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "t_out")]) == 0
    assert os.environ["OMP_NUM_THREADS"] == "1"


def test_svg_emitter_handles_degenerate_data(tmp_path):
    path = str(tmp_path / "p.svg")
    svg_line_plot(path, [0.0], [0.0], title="x")
    text = open(path).read()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
