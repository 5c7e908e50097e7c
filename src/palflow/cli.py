"""Command-line front-end: solve problems, print certificates, run benches.

Config files are line-oriented ``key = value`` text with optional
``[matrix NAME]`` sections holding whitespace-separated rows. Problems either
reference a built-in generator or describe a custom quadratic-plus-l1
instance through inline matrices.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, Tuple

import numpy as np

from . import __version__, distributed, examples, flow, prox
from .diagnostics import fit_exponential_rate
from .linops import BlockOperator, LinearOperator
from .problem import (AssumptionError, NonsmoothBlock, SaddleProblem,
                      SmoothBlock, check_assumption4, check_assumption5,
                      ges_certificate, kkt_residual)


class ConfigError(ValueError):
    pass


def parse_config(path: str) -> Tuple[Dict[str, str], Dict[str, np.ndarray]]:
    """Read ``key = value`` lines and ``[matrix NAME]`` sections."""
    keys: Dict[str, str] = {}
    mats: Dict[str, np.ndarray] = {}
    cur_name = None
    cur_rows = []

    def flush():
        nonlocal cur_name, cur_rows
        if cur_name is not None:
            if not cur_rows:
                raise ConfigError(f"matrix section '{cur_name}' is empty")
            mats[cur_name] = np.array(cur_rows, dtype=float)
        cur_name, cur_rows = None, []

    try:
        lines = open(path).read().splitlines()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            flush()
            parts = line[1:-1].split()
            if len(parts) != 2 or parts[0] != "matrix":
                raise ConfigError(f"line {ln}: bad section header {line!r}")
            cur_name = parts[1]
            continue
        if cur_name is not None and "=" not in line:
            try:
                cur_rows.append([float(v) for v in line.split()])
            except ValueError:
                raise ConfigError(f"line {ln}: bad matrix row in '{cur_name}'")
            continue
        flush()
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {line!r}")
        k, v = line.split("=", 1)
        keys[k.strip()] = v.strip()
    flush()
    return keys, mats


def _get(keys, name, cast, default=None, required=False):
    if name not in keys:
        if required:
            raise ConfigError(f"missing required key '{name}'")
        return default
    try:
        return cast(keys[name])
    except ValueError:
        raise ConfigError(f"key '{name}' has invalid value {keys[name]!r}")


def _vector(mats, name, n):
    """Matrix section ``name`` given as one row or one column of ``n``
    entries, as a flat vector; zeros when the section is absent."""
    if name not in mats:
        return np.zeros(n)
    v = mats[name]
    if min(v.shape) != 1 or v.size != n:
        raise ConfigError(f"matrix '{name}' must be a row or a column of {n} "
                          f"entries, got shape {v.shape}")
    return v.ravel()


def build_problem(keys: Dict[str, str], mats: Dict[str, np.ndarray]):
    """Return ``(problem, s0, reference, extras)`` from a parsed config."""
    kind = _get(keys, "problem", str, required=True)
    seed = _get(keys, "seed", int, 0)
    mu = _get(keys, "mu", float, 1.0)
    alpha = _get(keys, "alpha", float, 1.0)
    if kind == "lasso_network":
        net, ref = examples.gen_lasso_network(_get(keys, "agents", int, 5),
                                              _get(keys, "dim", int, 20),
                                              _get(keys, "meas", int, 3), seed)
        prob = distributed.assemble_consensus(net, mu=mu, alpha=alpha)
        return prob, prob.zero_state(), ref, {"network": net}
    if kind == "sparse_group_lasso":
        prob, ref = examples.gen_sparse_group_lasso(
            _get(keys, "meas", int, 20), _get(keys, "dim", int, 200),
            _get(keys, "groups", int, 10), seed, mu=mu, alpha=alpha)
        return prob, prob.zero_state(), ref, {}
    if kind == "pcp":
        prob, ref = examples.gen_pcp(_get(keys, "n", int, 40),
                                     _get(keys, "rank", int, 3), seed,
                                     mu=_get(keys, "mu", float, 1.75), alpha=alpha)
        return prob, prob.zero_state(), ref, {}
    if kind == "covariance_completion":
        prob, s0 = examples.gen_covariance_completion(
            _get(keys, "masses", int, 6), _get(keys, "gamma", float, 1.0),
            seed, mu=mu, alpha=alpha)
        return prob, s0, None, {}
    if kind == "counterexample":
        beta = _get(keys, "beta", float, 5.0)
        prob = examples.counterexample_problem(mu=mu, alpha=alpha)
        return prob, None, None, {"beta": beta}
    if kind == "custom":
        if "H" not in mats or "E" not in mats:
            raise ConfigError("custom problems need [matrix H] and [matrix E]")
        H = mats["H"]
        E = mats["E"]
        smooth = [SmoothBlock.quadratic(H, _vector(mats, "c", H.shape[0]))]
        Eb = BlockOperator([LinearOperator.from_matrix(E)])
        p = E.shape[0]
        q = _vector(mats, "q", p)
        if "F" in mats:
            F = mats["F"]
            w = _get(keys, "l1_weight", float, 1.0)
            nonsmooth = [NonsmoothBlock(prox.l1(w), (F.shape[1],))]
            Fb = BlockOperator([LinearOperator.from_matrix(F)])
        else:
            nonsmooth = []
            Fb = BlockOperator([], p=p)
        prob = SaddleProblem(smooth, nonsmooth, Eb, Fb, q, mu=mu, alpha=alpha,
                             name="custom")
        return prob, prob.zero_state(), None, {}
    raise ConfigError(f"unknown problem kind {kind!r}")


def integrator_from(keys, args) -> flow.IntegratorConfig:
    method = args.method or _get(keys, "method", str, "rk45")
    t_end = args.t_end if args.t_end is not None else _get(keys, "t_end", float, 10.0)
    stop_kkt = args.stop_kkt if args.stop_kkt is not None else _get(keys, "stop_kkt", float, None)
    h = _get(keys, "h", float, None)
    return flow.IntegratorConfig(method=method, h=h, t_end=t_end, stop_kkt=stop_kkt,
                                 rel_tol=_get(keys, "rel_tol", float, 1e-9),
                                 abs_tol=_get(keys, "abs_tol", float, 1e-12),
                                 record_stride=_get(keys, "record_stride", int, 1))


def write_manifest(path, config_path, keys, cfg, seed, out_dir):
    with open(path, "w") as fh:
        fh.write(f"palflow_version = {__version__}\n")
        fh.write(f"config = {os.path.abspath(config_path)}\n")
        fh.write(f"out = {os.path.abspath(out_dir)}\n")
        fh.write(f"seed = {seed}\n")
        fh.write(f"method = {cfg.method}\n")
        fh.write(f"t_end = {cfg.t_end!r}\n")
        fh.write(f"stop_kkt = {cfg.stop_kkt!r}\n")
        for k, v in sorted(keys.items()):
            fh.write(f"config.{k} = {v}\n")


def svg_line_plot(path, xs, ys, title="", log_y=True):
    """Minimal polyline chart; the y axis is log10 when requested."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = np.isfinite(ys) & ((ys > 0) if log_y else np.isfinite(ys))
    xs, ys = xs[keep], ys[keep]
    if len(xs) < 2:
        xs, ys = np.array([0.0, 1.0]), np.array([1.0, 1.0])
    yv = np.log10(ys) if log_y else ys
    W, H, pad = 640, 420, 50
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(yv.min()), float(yv.max())
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1

    def sx(v):
        return pad + (v - x0) / (x1 - x0) * (W - 2 * pad)

    def sy(v):
        return H - pad - (v - y0) / (y1 - y0) * (H - 2 * pad)

    pts = " ".join(f"{sx(a):.1f},{sy(b):.1f}" for a, b in zip(xs, yv))
    ylab = "log10" if log_y else "value"
    with open(path, "w") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">\n')
        fh.write(f'<rect width="{W}" height="{H}" fill="white"/>\n')
        fh.write(f'<text x="{W//2}" y="20" text-anchor="middle">{title}</text>\n')
        fh.write(f'<line x1="{pad}" y1="{H-pad}" x2="{W-pad}" y2="{H-pad}" stroke="black"/>\n')
        fh.write(f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{H-pad}" stroke="black"/>\n')
        fh.write(f'<text x="{pad}" y="{H-20}">t={x0:.3g}</text>\n')
        fh.write(f'<text x="{W-pad}" y="{H-20}" text-anchor="end">t={x1:.3g}</text>\n')
        fh.write(f'<text x="{pad}" y="{pad-8}">{ylab} max={y1:.3g}</text>\n')
        fh.write(f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" points="{pts}"/>\n')
        fh.write('</svg>\n')


def _load_config(args, integrator: bool = False):
    """Parse ``--config``, apply the ``--alpha``, ``--mu`` and ``--seed``
    overrides and build the problem. Returns the keys, ``build_problem``'s
    tuple and, if asked, the integrator config; or ``None`` after printing
    the config error."""
    try:
        keys, mats = parse_config(args.config)
        for name in ("alpha", "mu", "seed"):
            if getattr(args, name) is not None:
                keys[name] = str(getattr(args, name))
        built = build_problem(keys, mats)
        return keys, built, integrator_from(keys, args) if integrator else None
    except ValueError as e:     # ConfigError, or a constructor rejecting the data
        print(f"config error: {e}", file=sys.stderr)
        return None


def cmd_solve(args) -> int:
    loaded = _load_config(args, integrator=True)
    if loaded is None:
        return 1
    keys, (prob, s0, ref, extras), cfg = loaded

    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    seed = _get(keys, "seed", int, 0)
    try:
        if "beta" in extras:
            t_star, traj = examples.counterexample_run(
                extras["beta"], mu=prob.mu, alpha=prob.alpha, cfg=cfg)
            n = np.array([examples.region_measurements(s, prob.mu) for s in traj.states])
            traj.diagnostics = {"n1": n[:, 0], "n2": n[:, 1]}
            traj.to_csv(os.path.join(out, "trajectory.csv"))
            with open(os.path.join(out, "trajectory.csv"), "a") as fh:
                fh.write(f"# region exit at t = {t_star:.12g}\n")
            print(f"region exit time: {t_star:.9f}")
            if args.svg:
                svg_line_plot(os.path.join(out, "measurements.svg"),
                              traj.times, np.maximum(n.min(axis=1), 1e-16),
                              title="smallest region measurement", log_y=False)
        else:
            traj = flow.integrate(prob, s0, cfg)
            extra = {}
            if ref is not None and ref.optimal_value is not None:
                objs = np.array([prob.objective(traj.state(i).x, traj.state(i).z)
                                 for i in range(len(traj.times))])
                denom = max(abs(ref.optimal_value), 1e-30)
                extra["rel_function_error"] = np.abs(objs - ref.optimal_value) / denom
            traj.to_csv(os.path.join(out, "trajectory.csv"), extra_columns=extra)
            last_kkt = traj.diagnostics["kkt_residual"][-1]
            print(f"termination: {traj.termination}  t_final: {traj.times[-1]:.6g}  "
                  f"kkt: {last_kkt:.3e}")
            if "rel_function_error" in extra:
                print(f"final relative function error: {extra['rel_function_error'][-1]:.3e}")
            if args.svg:
                svg_line_plot(os.path.join(out, "kkt.svg"), traj.times,
                              traj.diagnostics["kkt_residual"],
                              title="first-order residual")
                if "rel_function_error" in extra:
                    svg_line_plot(os.path.join(out, "function_error.svg"),
                                  traj.times, extra["rel_function_error"],
                                  title="relative function error")
        write_manifest(os.path.join(out, "manifest.txt"), args.config, keys,
                       cfg, seed, out)
        return 0
    except (flow.FlowError, AssumptionError, ValueError) as e:
        print(f"solve failed: {e}", file=sys.stderr)
        return 2


def cmd_certify(args) -> int:
    loaded = _load_config(args)
    if loaded is None:
        return 1
    prob = loaded[1][0]

    a4 = check_assumption4(prob)
    a5 = check_assumption5(prob)
    print(f"rank condition ([E_I F_J] full column rank): {'PASS' if a4.holds else 'FAIL'}"
          f"  (I={list(a4.I)}, J={list(a4.J)})")
    print(f"range condition (R(F) within R(E)):          {'PASS' if a5 else 'FAIL'}")
    try:
        cert = ges_certificate(prob)
    except AssumptionError as e:
        if "L_f" in str(e):
            print(f"error: {e}; declare the Lipschitz constant on the smooth blocks",
                  file=sys.stderr)
            return 1
        print(f"certificate unavailable: {e}", file=sys.stderr)
        return 2
    print(f"m_xz      = {cert.m_xz:.6g}")
    print(f"alpha_bar = {cert.alpha_bar2:.6g}")
    print(f"M2        = {cert.M2:.6g}")
    print(f"rho2      = {cert.rho2:.6g}")
    print(f"c1, c2, c3 = {cert.c1:.6g}, {cert.c2:.6g}, {cert.c3:.6g}")
    inside = 0.0 < prob.alpha < cert.alpha_bar2
    print(f"configured alpha {prob.alpha:.6g} "
          f"{'inside' if inside else 'outside'} (0, alpha_bar)")
    return 0


_BENCH_EXAMPLES = ("lasso_network", "sparse_group_lasso", "pcp", "covariance_completion")


def cmd_bench(args) -> int:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    if args.suite == "examples":
        rows = []
        for name in _BENCH_EXAMPLES:
            t0 = time.time()
            try:
                if name == "lasso_network":
                    net, ref = examples.gen_lasso_network(5, 20, 3, seed=1)
                    probm = distributed.assemble_consensus(net)
                    s0 = probm.zero_state()
                    cfg = flow.IntegratorConfig(t_end=60.0, record_stride=5)
                elif name == "sparse_group_lasso":
                    probm, ref = examples.gen_sparse_group_lasso(10, 40, 4, seed=2, alpha=3.0)
                    s0 = probm.zero_state()
                    cfg = flow.IntegratorConfig(t_end=60.0, record_stride=5)
                elif name == "pcp":
                    probm, ref = examples.gen_pcp(20, 2, seed=3)
                    s0 = probm.zero_state()
                    cfg = flow.IntegratorConfig(t_end=40.0, record_stride=5)
                else:
                    probm, s0 = examples.gen_covariance_completion(4, seed=4)
                    cfg = flow.IntegratorConfig(t_end=120.0, record_stride=5)
                traj = flow.integrate(probm, s0, cfg)
                kkt = traj.diagnostics["kkt_residual"]
                fit = fit_exponential_rate(traj.times, kkt ** 2, tail_fraction=0.5)
                rows.append((name, f"{fit.rate / 2:.4g}", f"{fit.r_squared:.4f}",
                             f"{kkt[-1]:.3e}", f"{time.time() - t0:.2f}"))
            except Exception as e:  # per-row failures are recorded, not fatal
                rows.append((name, "error", "error", "error", f"{time.time() - t0:.2f}"))
                print(f"{name} failed: {e}", file=sys.stderr)
        path = os.path.join(out, "bench.csv")
        with open(path, "w") as fh:
            fh.write("example,rate,r2,final_kkt,wall_s\n")
            for r in rows:
                fh.write(",".join(r) + "\n")
        for r in rows:
            print("  ".join(r))
        return 0 if any(r[1] != "error" for r in rows) else 2
    if args.suite == "invariants":
        rng = np.random.default_rng(0)
        results = []
        probm, _ = examples.gen_sparse_group_lasso(6, 12, 3, seed=0)
        ok = True
        for _ in range(20):
            s = probm.random_state(rng)
            v1 = probm.pack(flow.vector_field(probm, s))
            v2 = probm.pack(flow.blockwise_field(probm, s))
            scale = max(1.0, float(np.max(np.abs(v1))))
            ok &= bool(np.max(np.abs(v1 - v2)) <= 1e-14 * scale)
        results.append(("blockwise_equals_monolithic", ok))
        g = prox.l1(0.7)
        ok = True
        for _ in range(200):
            u, v = rng.standard_normal(6), rng.standard_normal(6)
            pu, pv = g.prox(1.0, u), g.prox(1.0, v)
            ok &= bool(np.sum((pu - pv) ** 2) <= (u - v) @ (pu - pv) + 1e-12)
        results.append(("prox_firmly_nonexpansive", ok))
        for name, passed in results:
            print(f"{name}: {'PASS' if passed else 'FAIL'}")
        return 0 if all(p for _, p in results) else 2
    print(f"unknown suite {args.suite!r}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="palflow")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--out")
        p.add_argument("--seed", type=int)
        p.add_argument("--alpha", type=float)
        p.add_argument("--mu", type=float)

    ps = sub.add_parser("solve", help="integrate the flow on a configured problem")
    common(ps)
    ps.add_argument("--method", choices=["euler", "rk4", "rk45"])
    ps.add_argument("--t-end", type=float, dest="t_end")
    ps.add_argument("--stop-kkt", type=float, dest="stop_kkt")
    ps.add_argument("--svg", action="store_true")
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("certify", help="print stability certificate constants")
    common(pc)
    pc.set_defaults(func=cmd_certify)

    pb = sub.add_parser("bench", help="run a bench suite")
    pb.add_argument("suite", nargs="?", default="examples")
    pb.add_argument("--out")
    pb.set_defaults(func=cmd_bench)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
