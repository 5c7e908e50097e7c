import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import palflow
from palflow import cli, distributed, examples
from palflow.cli import (ConfigError, build_problem, main, parse_config,
                         svg_line_plot)

from conftest import src_env


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


def test_solve_zero_record_stride_exit_1(tmp_path, capsys):
    cfg = write(tmp_path, "problem = counterexample\nrecord_stride = 0\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "config error" in capsys.readouterr().err


def test_solve_nan_rel_tol_is_a_config_error(tmp_path):
    """A NaN tolerance once started the adaptive stepper from a NaN step,
    whose rejection loop never ended; it is now refused before any step."""
    cfg = write(tmp_path, "problem = lasso_network\nrel_tol = nan\n")
    argv = ["solve", "--config", cfg, "--out", str(tmp_path / "o")]
    out = subprocess.run([sys.executable, "-c", "import sys; from palflow.cli import main; "
                          f"sys.exit(main({argv!r}))"],
                         env=src_env(), capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert "config error" in out.stderr and "rel_tol" in out.stderr


def _readme_block(heading, info):
    """The first fenced block with this info string under the README heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split(f"## {heading}\n", 1)[1]
    return next(body for tag, body in re.findall(r"```(\w*)\n(.*?)```", section, re.S)
                if tag == info)


def test_readme_command_lines_run(tmp_path, capsys):
    # The README's own config, shortened so the solve stays quick.
    cfg = write(tmp_path, _readme_block("Command line", "").replace(
        "t_end = 50.0", "t_end = 5.0"))
    out = tmp_path / "outdir"
    ran = set()
    for line in _readme_block("Command line", "sh").splitlines():
        argv = shlex.split(line.split("#", 1)[0])
        assert argv[0] == "palflow"
        if argv[1:3] == ["bench", "examples"]:
            continue            # runs the four full-size examples
        argv = [str(out) + "/" if a == "outdir/" else cfg if a == "config.txt" else a
                for a in argv[1:]]
        assert main(argv) == 0, line
        ran.add(argv[0] + (" --svg" if "--svg" in argv else ""))
    assert ran == {"solve", "solve --svg", "certify", "bench"}
    assert (out / "trajectory.csv").exists() and (out / "manifest.txt").exists()
    assert (out / "kkt.svg").read_text().startswith("<svg")
    assert "PASS" in capsys.readouterr().out


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
    assert "termination = region_exit" in manifest
    run = dict(line.split(" = ", 1) for line in manifest.splitlines())
    assert int(run["n_evals"]) > int(run["steps"]) > 0
    assert int(run["rejected"]) >= 0


def test_solve_counterexample_obeys_record_stride(tmp_path):
    rows = {}
    for stride in (1, 5):
        cfg = write(tmp_path, "problem = counterexample\nbeta = 5\nt_end = 20\n"
                              f"record_stride = {stride}\n")
        out = tmp_path / f"s{stride}"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        rows[stride] = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows[5]) < len(rows[1])
    # the same exit sample and the same exit time
    assert rows[5][-2:] == rows[1][-2:]


def test_solve_counterexample_rejects_fixed_step(tmp_path, capsys):
    cfg = write(tmp_path, "problem = counterexample\nbeta = 5\nt_end = 20\nh = 0.01\n")
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out, "--method", "euler"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solve failed:") and "rk45" in err


def test_solve_counterexample_rejects_stop_kkt(tmp_path, capsys):
    cfg = write(tmp_path, "problem = counterexample\nbeta = 5\nt_end = 20\n")
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out, "--stop-kkt", "1e-3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solve failed:") and "stop_kkt" in err
    assert not os.path.exists(os.path.join(out, "manifest.txt"))


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


def test_solve_custom_negative_l1_weight_exit_1(tmp_path, capsys):
    cfg = write(tmp_path, "problem = custom\nl1_weight = -1\n[matrix H]\n1 0\n0 1\n"
                          "[matrix E]\n1 0\n0 1\n[matrix F]\n-1 0\n0 -1\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "weight" in err


def test_manifest_records_package_version(tmp_path):
    cfg = write(tmp_path, VECTOR_CFG.format(c="", q=""))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    manifest = (tmp_path / "o" / "manifest.txt").read_text().splitlines()
    assert f"palflow_version = {palflow.__version__}" in manifest
    assert f"numpy_version = {np.__version__}" in manifest
    assert f"scipy_version = {scipy.__version__}" in manifest
    run = dict(line.split(" = ", 1) for line in manifest)
    assert run["termination"] in ("t_end", "stop_kkt")
    assert int(run["n_evals"]) > int(run["steps"]) > 0
    assert int(run["rejected"]) >= int(run["kink_cuts"]) >= 0
    assert int(run["kink_caps"]) >= 0
    assert int(run["threads"]) >= 1
    assert float(run["peak_rss_mb"]) > 0


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
    # the lasso's l1 kinks cap some of its steps and cut some of its
    # rejected ones
    manifest = (tmp_path / "l_out" / "manifest.txt").read_text().splitlines()
    run = dict(line.split(" = ", 1) for line in manifest)
    assert 0 < int(run["kink_cuts"]) <= int(run["rejected"])
    assert int(run["kink_caps"]) > 0


def test_solve_two_agent_lasso(tmp_path):
    cfg = write(tmp_path, "problem = lasso_network\nagents = 2\ndim = 4\nt_end = 5\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "trajectory.csv").exists()


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


def test_certify_applies_seed_override(tmp_path, monkeypatch):
    seen = {}
    real = cli.build_problem

    def capture(keys, mats):
        seen.update(keys)
        return real(keys, mats)

    monkeypatch.setattr(cli, "build_problem", capture)
    cfg = write(tmp_path, "problem = custom\n[matrix H]\n2 0\n0 2\n"
                          "[matrix E]\n1 1\n[matrix q]\n1\n")
    assert main(["certify", "--config", cfg, "--seed", "7", "--alpha", "0.5"]) == 0
    assert seen["seed"] == "7" and seen["alpha"] == "0.5"


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

# the generator calls each ``bench examples`` row made before it was built
# from config keys
BENCH_GENERATORS = {
    "lasso_network": lambda: distributed.assemble_consensus(
        examples.gen_lasso_network(5, 20, 3, seed=1)[0]),
    "sparse_group_lasso": lambda: examples.gen_sparse_group_lasso(10, 40, 4, seed=2,
                                                                  alpha=3.0)[0],
    "pcp": lambda: examples.gen_pcp(20, 2, seed=3)[0],
    "covariance_completion": lambda: examples.gen_covariance_completion(4, seed=4),
}


@pytest.mark.parametrize("row", range(len(cli._BENCH_EXAMPLES)))
def test_bench_example_rows_build_the_generators_instances(row):
    keys, t_end = cli._BENCH_EXAMPLES[row]
    prob, s0, _, _ = build_problem(keys, {})
    want = BENCH_GENERATORS[keys["problem"]]()
    want, want_s0 = want if isinstance(want, tuple) else (want, want.zero_state())
    assert prob.name == want.name and t_end > 0
    assert np.array_equal(prob.q, want.q)
    assert prob.x_shapes == want.x_shapes and prob.z_shapes == want.z_shapes
    assert (prob.mu, prob.alpha) == (want.mu, want.alpha)
    for a, b in zip(prob.E.blocks + prob.F.blocks, want.E.blocks + want.F.blocks):
        assert np.array_equal(a.dense(), b.dense())
    assert np.array_equal(prob.pack(s0), want.pack(want_s0))


def test_bench_examples_writes_a_row_per_example(tmp_path, monkeypatch, capsys):
    """Two tiny rows and one that fails to build: the failure is a row of
    ``error`` and a line on stderr, not the end of the run."""
    rows = (({"problem": "sparse_group_lasso", "meas": "4", "dim": "8", "groups": "2",
              "seed": "2"}, 2.0),
            ({"problem": "lasso_network", "agents": "3", "dim": "2", "meas": "2",
              "seed": "1"}, 2.0),
            ({"problem": "nosuchproblem"}, 1.0))
    monkeypatch.setattr(cli, "_BENCH_EXAMPLES", rows)
    assert main(["bench", "examples", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert lines[0] == "example,rate,r2,final_kkt,wall_s"
    table = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in table] == ["sparse_group_lasso", "lasso_network", "nosuchproblem"]
    for r in table[:2]:
        rate, r2, kkt, wall = map(float, r[1:])
        assert rate > 0 and 0 < r2 <= 1 and kkt > 0 and wall >= 0
    assert table[2][1:4] == ["error"] * 3 and float(table[2][4]) >= 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["nosuchproblem failed: unknown problem kind 'nosuchproblem'"]
    # every row failing is exit code 2
    monkeypatch.setattr(cli, "_BENCH_EXAMPLES", rows[2:])
    assert main(["bench", "examples", "--out", str(tmp_path)]) == 2
    assert (tmp_path / "bench.csv").read_text().splitlines()[1].startswith(
        "nosuchproblem,error,")


def test_bench_unknown_suite_exit_1(capsys):
    assert main(["bench", "nosuchsuite"]) == 1
    assert "nosuchsuite" in capsys.readouterr().err


def test_bench_invariants(capsys):
    assert main(["bench", "invariants"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


# Runs in a fresh interpreter: imports palflow first, as the ``palflow``
# command does, runs a CLI suite, then asks OpenBLAS for its pool size.
THREAD_PROBE = """
import ctypes, glob, os, sys
from palflow.cli import main
import numpy as np
assert main(["bench", "invariants"]) == 0
print("omp", os.environ.get("OMP_NUM_THREADS"))
for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
    handle = ctypes.CDLL(lib)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if hasattr(handle, sym):
            print("threads", getattr(handle, sym)())
            sys.exit(0)
print("no openblas")
"""


def test_threads_env_caps_pools():
    env = {k: v for k, v in src_env().items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PALFLOW_THREADS"] = "1"
    out = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "omp 1" in out.stdout.splitlines()
    last = out.stdout.splitlines()[-1]
    if last == "no openblas":
        pytest.skip("numpy is not linked against OpenBLAS")
    assert last == "threads 1"


def test_svg_emitter_handles_degenerate_data(tmp_path):
    path = str(tmp_path / "p.svg")
    svg_line_plot(path, [0.0], [0.0], title="x")
    text = open(path).read()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
