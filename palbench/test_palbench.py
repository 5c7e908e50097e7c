"""Fast self-test of the benchmark at tiny sizes.

    python3 -m pytest -q palbench
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace, seed=1):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace), "--tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_checks_and_traced_agreement(capsys, workload):
    run.load_palflow()
    import spans
    originals = [(o, a, obj) for o, a, obj, _ in spans.patch_targets()]
    alarm = signal.getsignal(signal.SIGALRM)
    code0, rec0, res0 = _run(capsys, workload, 0)
    code1, rec1, res1 = _run(capsys, workload, 1)
    for code, res, kind in ((code0, res0, "end_to_end"), (code1, res1, "per_layer")):
        assert code == 0
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert ([(k, v["unit"]) for k, v in res["metrics"].items()]
                == [(m["name"], m["unit"]) for m in SPEC[kind]])
    assert all(v["value"] > 0 for v in res0["metrics"].values())
    # the traced solve reproduced the untraced one bit for bit
    assert rec1["checks"]["counts"] == rec0["checks"]["counts"]
    assert rec1["checks"]["fingerprint"] == rec0["checks"]["fingerprint"]
    # and every wrapper is gone afterwards, as is the host clock's timer
    assert [(a, obj) for o, a, obj in originals if getattr(o, a) is not obj] == []
    assert signal.getsignal(signal.SIGALRM) is alarm
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # the untraced times were scaled by the host speed measured around them
    assert rec0["kernel_s_median"] > 0
    assert len(rec0["solve_s"]) == len(rec0["wall_solve_s"]) >= run.MIN_SOLVES


def test_seed_fixes_the_inputs(capsys):
    a = _run(capsys, "sgl", 0, seed=3)[1]["checks"]
    b = _run(capsys, "sgl", 0, seed=3)[1]["checks"]
    c = _run(capsys, "sgl", 0, seed=4)[1]["checks"]
    assert (a["counts"], a["fingerprint"]) == (b["counts"], b["fingerprint"])
    assert c["fingerprint"] != a["fingerprint"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "palbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "palbench/run.py", "--workload", "sgl",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
