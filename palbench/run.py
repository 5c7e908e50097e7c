"""palflow benchmark: run one workload and print its metrics.

    python3 palbench/run.py --workload sgl --seed 1 --seconds 25 --trace 0

Run from the root of a palflow checkout; the package is imported from its
``src/`` tree. With ``--trace 0`` the run times set-up and the solve with no
instrumentation and prints the end-to-end metrics. With ``--trace 1`` it
alternates untraced and traced solves of the same instance and prints the
per-layer metrics; the spans of the last traced solve are written to
``.palbench/``. Untraced times are scaled to a reference host speed (see
``hostclock``). Every solve is checked; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` and the line before it a
record of the environment, the counts and the checks. The exit code is 0
only when every check held.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy is first imported.
# (PALFLOW_THREADS only takes effect through palflow's CLI.)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from hostclock import HostClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".palbench"
BENCHMARK = ROOT / "BENCHMARK.json"

# A run reports the median of its set-ups and of its solves, each timed in
# reference-host seconds.
MIN_SOLVES = 3          # untraced solves per run, at least
SETUP_BATCH_S = 0.05    # set-up time per round with a set-up, at least
SETUP_SHARE = 0.5       # set-up wall time kept to this share of solve time

# prox metric suffix -> the prox function whose calls it times
PROX_KINDS = {"nuclear": "prox.prox_nuclear", "l1": "prox.prox_l1",
              "group_lasso": "prox.prox_group_lasso",
              "masked_ball": "prox.prox_frobenius_ball_masked"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sgl", "pcp", "lasso_kkt", "lasso_dec"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="millisecond-sized instances, for the self-test")
    return ap.parse_args(argv)


def load_palflow():
    """Import palflow from this checkout's ``src/``; never an installed copy."""
    if not (SRC / "palflow" / "__init__.py").is_file():
        raise SystemExit(f"palbench: no palflow sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import palflow
    if not Path(palflow.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"palbench: palflow imported from {palflow.__file__}, "
                         f"not from {SRC}")
    return palflow


def environment(palflow) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "palflow": palflow.__version__}


class Checks:
    """Failure accounting: each set-up and solve is one attempt; it fails
    when a check on it fails or it does not repeat the first one exactly."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self._first: dict = {}

    def record(self, what: str, fails) -> None:
        self.attempted += 1
        self.failed += bool(fails)
        self.failures += [f"{what}: {f}" for f in fails]

    def repeat(self, what: str, key) -> list:
        """Empty if ``key`` equals the first key seen for ``what``."""
        first = self._first.setdefault(what, key)
        return [] if key == first else [f"differs from the first {what}: {key} != {first}"]


def timed_setup(W, sp, seed, checks, clock):
    """One set-up; returns ``(wall_s, scaled_s, instance)``."""
    wall, dt, inst = clock.time(W.setup, sp, seed)
    key = {"oracle_iters": inst.oracle_iters,
           "start": hashlib.sha256(inst.prob.pack(inst.s0).tobytes()).hexdigest(),
           "optimal_value": None if inst.ref is None else inst.ref.optimal_value}
    checks.record("setup", checks.repeat("setup", key))
    return wall, dt, inst


def timed_solve(W, sp, inst, checks, verified: dict, clock):
    """One timed solve, checked; returns ``(wall_s, scaled_s, trajectory)``.
    The first solve is verified in full (its record lands in ``verified``);
    later ones must reproduce its counts and states bit for bit."""
    wall, dt, traj = clock.time(W.solve, sp, inst)
    counts, fingerprint = W.counts(sp, traj), W.fingerprint(traj)
    fails = checks.repeat("solve", (counts, fingerprint))
    if not verified:
        v0 = time.perf_counter()
        vf, rec = W.verify(sp, inst, traj)
        verified.update(rec, verify_s=time.perf_counter() - v0, counts=counts,
                        fingerprint=fingerprint)
        fails += vf
    checks.record("solve", fails)
    return wall, dt, traj


def _median(xs) -> float:
    return float(statistics.median(xs)) if len(xs) else 0.0


def layer_metrics(spans, traj) -> dict:
    """Per-layer metrics of one traced solve."""
    import numpy as np
    P, L = "problem.SaddleProblem.", "linops.BlockOperator."
    field = spans.durations("flow.FlowField.__call__") * 1e6
    dfield = spans.durations("distributed.decentralized_field") * 1e6
    accepted = spans.calls("scipy.OdeSolver.step")
    attempted = spans.calls("scipy.rk_step")
    m = {
        "problem.unpack_s": spans.total(P + "unpack"),
        "problem.unpack_calls": spans.calls(P + "unpack"),
        "problem.pack_s": spans.total(P + "pack"),
        "problem.f_grad_s": spans.total(P + "f_grad"),
        "problem.kkt_residual_s": spans.total("problem.kkt_residual"),
        "linops.apply_s": spans.total(L + "apply"),
        "linops.adjoint_s": spans.total(L + "adjoint"),
        "linops.calls": spans.calls(L + "apply") + spans.calls(L + "adjoint"),
        "prox.prox_g_s": spans.total(P + "prox_g"),
        "flow.field_calls": len(field),
        "flow.field_us_p50": float(np.percentile(field, 50)) if len(field) else 0.0,
        "flow.field_us_p99": float(np.percentile(field, 99)) if len(field) else 0.0,
        "flow.field_self_us": _median(spans.self_durations("flow.FlowField.__call__") * 1e6),
        "flow.steps_accepted": accepted,
        "flow.steps_attempted": attempted,
        "flow.step_accept_ratio": accepted / attempted if attempted else 0.0,
        "flow.event_calls": spans.calls("flow.solve_ivp.event"),
        "flow.event_s": spans.total("flow.solve_ivp.event"),
        "flow.integrator_self_s": (spans.total("flow.solve_ivp")
                                   - spans.total("flow.solve_ivp.fun")
                                   - spans.total("flow.solve_ivp.event")),
        "flow.posthoc_s": (spans.total("flow.integrate")
                           + spans.total("distributed.simulate")
                           - spans.total("flow.solve_ivp")),
        "flow.solver_states_mb": sum(spans.solver_bytes) / 1e6,
        "flow.kept_states_mb": traj.states.nbytes / 1e6,
        "distributed.field_us": _median(dfield),
        "distributed.rounds": int(traj.meta.get("rounds", 0)),
        "distributed.messages": int(traj.meta.get("messages_total", 0)),
        "distributed.pack_s": (spans.total("distributed.pack_agents")
                               + spans.total("distributed.unpack_agents")),
    }
    for kind, fn in PROX_KINDS.items():
        m[f"prox.{kind}_s"] = spans.total(fn)
        m[f"prox.{kind}_calls"] = spans.calls(fn)
    return m


def setup_metrics(spans, inst) -> dict:
    """Per-layer metrics of one traced set-up."""
    return {"examples.oracle_s": spans.total("examples.proximal_gradient"),
            "examples.oracle_iters": inst.oracle_iters,
            "examples.generate_s": sum(spans.total(n) for n in spans.names
                                       if n.startswith("examples.gen_"))}


def run_untraced(W, sp, args, checks, rec):
    """Run rounds while a whole one still fits in ``--seconds``. A round
    solves once; it first sets up anew while set-ups have taken at most
    ``SETUP_SHARE`` of the solves' time, so that both sample the whole run
    and a costly set-up leaves time for solves. A cheap set-up repeats for
    ``SETUP_BATCH_S``."""
    clock = HostClock()
    setups, solves, wall_setups, wall_solves, verified = [], [], [], [], {}
    n_evals, inst, rss_mb = 0, None, []
    t_start = time.perf_counter()
    last_round = 0.0
    while (len(solves) < MIN_SOLVES
           or time.perf_counter() - t_start + last_round < args.seconds):
        t_round = time.perf_counter()
        if inst is None or sum(wall_setups) <= SETUP_SHARE * sum(wall_solves):
            inst = None     # so that two instances are never held at once
            while True:
                wall, dt, inst = timed_setup(W, sp, args.seed, checks, clock)
                setups.append(dt)
                wall_setups.append(wall)
                if time.perf_counter() - t_round >= SETUP_BATCH_S:
                    break
        wall, dt, traj = timed_solve(W, sp, inst, checks, verified, clock)
        solves.append(dt)
        wall_solves.append(wall)
        n_evals = W.evals(sp, traj)
        del traj
        # Peak RSS after each round. Every round adds a few MB the allocator
        # keeps, so the metric is the first round's: one set-up and one solve.
        rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
        last_round = time.perf_counter() - t_round
    rec.update(setup_s=setups, solve_s=solves, wall_setup_s=wall_setups,
               wall_solve_s=wall_solves, peak_rss_mb=rss_mb, checks=verified,
               kernel_s_median=_median(clock.kernel_s))
    solve_s = _median(solves)
    return {"setup_s": _median(setups), "solve_s": solve_s,
            "evals_per_s": n_evals / solve_s, "peak_rss_mb": rss_mb[0]}


def run_traced(W, S, sp, args, checks, rec):
    """Trace one set-up, then alternate untraced and traced solves of the same
    instance while another pair still fits in ``--seconds``; returns the
    per-layer metrics."""
    clock = HostClock(ticking=False)
    _, _, inst = timed_setup(W, sp, args.seed, checks, clock)
    saved = [(owner, attr, obj) for owner, attr, obj, _ in S.patch_targets()]
    tracer = S.Tracer()
    with tracer:
        timed_setup(W, sp, args.seed, checks, clock)
        setup_spans = tracer.take()
    untraced, traced, per_solve, verified = [], [], [], {}
    t_start = time.perf_counter()
    last_pair = 0.0
    while not traced or time.perf_counter() - t_start + last_pair < args.seconds:
        t_pair = time.perf_counter()
        dt, _, traj = timed_solve(W, sp, inst, checks, verified, clock)
        untraced.append(dt)
        del traj
        with tracer:
            dt, _, traj = timed_solve(W, sp, inst, checks, verified, clock)
            spans = tracer.take()
        traced.append(dt)
        per_solve.append(layer_metrics(spans, traj))
        fails = checks.repeat("traced steps", (spans.calls("scipy.OdeSolver.step"),
                                               spans.calls("scipy.rk_step")))
        if not sp.decentralized and spans.calls("flow.FlowField.__call__") != W.evals(sp, traj):
            fails.append("traced field calls differ from the trajectory's n_evals")
        checks.record("traced counts", fails)
        del traj
        last_pair = time.perf_counter() - t_pair
    left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, obj in saved
            if getattr(o, a) is not obj]
    checks.record("tracer removal", [f"wrappers left installed: {left}"] if left else [])
    OUT_DIR.mkdir(exist_ok=True)
    spans.save(OUT_DIR / f"spans-{args.workload}.npz")
    setup_spans.save(OUT_DIR / f"spans-{args.workload}-setup.npz")

    metrics = {k: statistics.median_low([m[k] for m in per_solve]) for k in per_solve[0]}
    metrics.update(setup_metrics(setup_spans, inst))
    metrics["diagnostics.verify_s"] = verified.get("verify_s", 0.0)
    metrics["trace.overhead_s"] = min(traced) - min(untraced)
    rec.update(untraced_solve_s=untraced, traced_solve_s=traced, checks=verified,
               spans=str((OUT_DIR / f"spans-{args.workload}.npz").relative_to(ROOT)))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    palflow = load_palflow()
    import spans as S
    import workloads as W

    sp = W.SPECS[(args.workload, args.tiny)]
    rec = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "tiny": args.tiny, "start_scale": W.START_SCALE,
           "t_end": sp.cfg.t_end, "stop_kkt": sp.cfg.stop_kkt,
           "record_stride": sp.cfg.record_stride,
           "environment": environment(palflow)}
    spec = json.loads(BENCHMARK.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    checks = Checks()
    if args.trace:
        values = run_traced(W, S, sp, args, checks, rec)
    else:
        values = run_untraced(W, sp, args, checks, rec)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are not "
                           f"both computed and declared in {BENCHMARK.name}")
    rec["failures"] = checks.failures
    print(json.dumps({"record": rec}))
    correct = not checks.failures
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": {k: {"value": values[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
