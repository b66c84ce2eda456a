"""Command-line front door: run, verify, sweep, probe, lift.

Configs are versioned JSON documents validated before any computation;
unknown keys are rejected with the offending field path.  All outputs are
written atomically (temp file plus rename) so failures leave no partial
artifacts.  Exit codes: 0 success, 2 config or data schema violation,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

# module attributes, not `from .x import name`: the package loads its modules
# lazily, and a command executes only the ones it reaches
from . import densities, evolution, experiments, ledger, spaces

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3


class SchemaError(ValueError):
    def __init__(self, path, message):
        super().__init__(f"config error at {path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# config validation


def _require_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}.{key}", "missing required key")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "unknown key")


def _number(obj, path, lo=None, hi=None):
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        raise SchemaError(path, "expected a number")
    v = float(obj)
    if not np.isfinite(v):
        raise SchemaError(path, "must be finite")
    if lo is not None and v < lo:
        raise SchemaError(path, f"must be >= {lo}")
    if hi is not None and v > hi:
        raise SchemaError(path, f"must be <= {hi}")
    return v


def _integer(obj, path, lo=None):
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise SchemaError(path, "expected an integer")
    if lo is not None and obj < lo:
        raise SchemaError(path, f"must be >= {lo}")
    return obj


def _addressable(rows, cols, path):
    """Refuse a size whose (rows, cols) float array numpy could not index."""
    if rows * cols * 8 > np.iinfo(np.intp).max:
        raise SchemaError(path, f"too large: a {rows} x {cols} float array exceeds "
                                "the largest array numpy can index")


def _state_count(obj, path):
    n = _integer(obj, path, lo=2)
    _addressable(n, n, path)
    return n


def build_space(cfg, path="space"):
    _require_keys(cfg, path, ["type"], ["a", "b", "n", "points", "dist", "pi"])
    kind = cfg["type"]
    if kind == "grid":
        _require_keys(cfg, path, ["type", "a", "b", "n"])
        build, args = spaces.build_grid, (_number(cfg["a"], f"{path}.a"),
                                          _number(cfg["b"], f"{path}.b"),
                                          _state_count(cfg["n"], f"{path}.n"))
    elif kind == "torus":
        _require_keys(cfg, path, ["type", "n"])
        build, args = spaces.build_torus, (_state_count(cfg["n"], f"{path}.n"),)
    elif kind == "graph":
        _require_keys(cfg, path, ["type", "points", "dist", "pi"])
        build, args = spaces.build_graph, (cfg["points"], cfg["dist"], cfg["pi"])
    else:
        raise SchemaError(f"{path}.type", f"unknown space type '{kind}'")
    try:
        return build(*args)
    except (TypeError, ValueError) as exc:  # TypeError: a non-number inside a list
        raise SchemaError(path, str(exc))


def build_kernel(cfg, space, path="kernel"):
    """The configured kernel.  The components a punctured mask leaves are the
    coupling's (``Coupling.labels``), which the ledger reads for any kernel."""
    _require_keys(cfg, path, ["type"], ["s", "mask", "cutoff", "rates"])
    kind = cfg["type"]
    if kind == "fractional":
        _require_keys(cfg, path, ["type", "s"], ["mask", "cutoff"])
        s = _number(cfg["s"], f"{path}.s")
        if not (0 < s < 1):
            raise SchemaError(f"{path}.s", "must lie in (0, 1)")
        mask_arr = None
        if "mask" in cfg and cfg["mask"] is not None:
            mcfg = cfg["mask"]
            _require_keys(mcfg, f"{path}.mask", ["type"], ["split"])
            if mcfg["type"] == "punctured":
                split = _number(mcfg.get("split", 0.0), f"{path}.mask.split")
                try:
                    mask_arr = spaces.punctured_mask(space, split)
                except ValueError as exc:
                    raise SchemaError(f"{path}.mask.split", str(exc))
            elif mcfg["type"] != "none":
                raise SchemaError(f"{path}.mask.type", f"unknown mask type '{mcfg['type']}'")
        kernel = spaces.fractional_kernel(space, s, mask=mask_arr)
    elif kind == "matrix":
        _require_keys(cfg, path, ["type", "rates"], ["cutoff"])
        try:
            kernel = spaces.matrix_kernel(cfg["rates"])
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}.rates", str(exc))
        if kernel.n != space.n:
            raise SchemaError(f"{path}.rates", "rate matrix size does not match the space")
    else:
        raise SchemaError(f"{path}.type", f"unknown kernel type '{kind}'")
    if "cutoff" in cfg and cfg["cutoff"] is not None:
        eps = _number(cfg["cutoff"], f"{path}.cutoff")
        if eps <= 0:
            raise SchemaError(f"{path}.cutoff", "must be positive")
        kernel = spaces.cutoff(kernel, space, eps)
    return kernel


def build_initial(cfg, space, path="initial"):
    _require_keys(cfg, path, ["type"], ["value", "left", "right", "split", "values", "path"])
    kind = cfg["type"]
    if kind == "constant":
        _require_keys(cfg, path, ["type", "value"])
        return np.full(space.n, _number(cfg["value"], f"{path}.value", lo=0.0))
    if kind == "step":
        _require_keys(cfg, path, ["type", "left", "right"], ["split"])
        split = _number(cfg.get("split", 0.0), f"{path}.split")
        left = _number(cfg["left"], f"{path}.left", lo=0.0)
        right = _number(cfg["right"], f"{path}.right", lo=0.0)
        return np.where(space.points < split, left, right)
    if kind in ("vector", "file"):
        key = "values" if kind == "vector" else "path"
        _require_keys(cfg, path, ["type", key])
        try:
            vals = (np.asarray(cfg["values"], dtype=float) if kind == "vector"
                    else np.loadtxt(cfg["path"], delimiter=",", ndmin=1))
        except (OSError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}.{key}", str(exc))
        if vals.shape != (space.n,):
            raise SchemaError(f"{path}.{key}", "length does not match the space")
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise SchemaError(f"{path}.{key}", "must be finite and nonnegative")
        return vals
    raise SchemaError(f"{path}.type", f"unknown initial type '{kind}'")


def build_integrator(cfg, path="integrator"):
    if cfg is None:
        return evolution.IntegratorConfig()
    _require_keys(cfg, path, [], ["method", "checkpoints", "dt", "graded_start"])
    method = cfg.get("method", "expm")
    aliases = {"explicit_euler": "euler", "matrix_exponential": "expm"}
    method = aliases.get(method, method) if isinstance(method, str) else None
    if method not in ("expm", "euler"):
        raise SchemaError(f"{path}.method", "must be 'expm' or 'euler' "
                          "(aliases: explicit_euler, matrix_exponential)")
    kwargs = {"method": method}
    if "checkpoints" in cfg and cfg["checkpoints"] is not None:
        kwargs["checkpoints"] = _integer(cfg["checkpoints"], f"{path}.checkpoints", lo=1)
    if "dt" in cfg and cfg["dt"] is not None:
        kwargs["dt"] = _number(cfg["dt"], f"{path}.dt")
        if kwargs["dt"] <= 0:
            raise SchemaError(f"{path}.dt", "must be positive")
    if "graded_start" in cfg:
        if not isinstance(cfg["graded_start"], bool):
            raise SchemaError(f"{path}.graded_start", "expected a boolean")
        kwargs["graded_start"] = cfg["graded_start"]
    try:
        return evolution.IntegratorConfig(**kwargs)
    except ValueError as exc:
        raise SchemaError(path, str(exc))


def parse_run_config(cfg):
    _require_keys(cfg, "config", ["schema", "space", "kernel", "triple", "initial", "T"],
                  ["integrator", "seed", "export_flux", "sweep", "tol_rel"])
    if cfg["schema"] != 1:
        raise SchemaError("config.schema", "unsupported schema version")
    space = build_space(cfg["space"])
    kernel = build_kernel(cfg["kernel"], space)
    if cfg["triple"] not in ("cosh", "quadratic"):
        raise SchemaError("config.triple", "must be 'cosh' or 'quadratic'")
    triple = densities.canonical_triple(cfg["triple"])
    u0 = build_initial(cfg["initial"], space)
    # the time quadrature cubes widths and multiplies times (down to 1e-12 T): past
    # this range they overflow or underflow
    T = _number(cfg["T"], "config.T", 1e-100, 1e100)
    config = build_integrator(cfg.get("integrator"))
    if config.checkpoints is not None:
        _addressable(config.checkpoints + 1, space.n, "integrator.checkpoints")
    seed = _integer(cfg.get("seed", 0), "config.seed", lo=0)
    tol_rel = None
    if "tol_rel" in cfg and cfg["tol_rel"] is not None:
        tol_rel = _number(cfg["tol_rel"], "config.tol_rel")
        if tol_rel <= 0:
            raise SchemaError("config.tol_rel", "must be positive")
    export_flux = cfg.get("export_flux", False)
    if not isinstance(export_flux, bool):
        raise SchemaError("config.export_flux", "expected a boolean")
    if tol_rel is None:
        tol_rel = ledger.default_tolerance((cfg["kernel"] or {}).get("cutoff"))
    return {
        "space": space, "kernel": kernel, "triple": triple,
        "u0": u0, "T": T, "integrator": config, "seed": seed, "export_flux": export_flux,
        "tol_rel": tol_rel,
    }


def load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError("config", f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError("config", f"invalid JSON: {exc}")


# ---------------------------------------------------------------------------
# output


def _json_value(v):
    """The JSON value of v at any depth: dicts, lists, tuples and numpy arrays
    walked, numpy scalars made Python ones, and a non-finite float written as
    the string 'nan', 'inf' or '-inf' (JSON has no NaN or infinity)."""
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_json_value(x) for x in v]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    return v


def json_text(obj, indent: int = 2) -> str:
    """The JSON encoding of every report: sorted keys, and `_json_value` applied
    at every depth, so no bare NaN or inf."""
    return json.dumps(_json_value(obj), indent=indent, sort_keys=True, allow_nan=False)


def atomic_write(path, chunks):
    """Write the strings of ``chunks`` (any iterable, consumed once) to ``path``
    through a temp file and a rename; on any failure, a chunk generator raising
    mid-write included, neither the file nor the temp file is left."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        umask = os.umask(0)  # mkstemp made the file 0600; give it the mode open() would
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path, obj):
    atomic_write(path, [json_text(obj) + "\n"])


def _write_csv_json(out, stem, lines, obj):
    """Write stem.csv (``lines``, newline-terminated) and stem.json, then print the
    JSON.  It is rendered before the first write, so a failure leaves no lone CSV."""
    payload = json_text(obj)
    atomic_write(os.path.join(out, stem + ".csv"), ["\n".join(lines + [""])])
    atomic_write(os.path.join(out, stem + ".json"), [payload + "\n"])
    print(payload)


# ---------------------------------------------------------------------------
# commands


def _ledger_for(parsed, traj, coup):
    return ledger.full_report(traj, parsed["triple"], parsed["space"], coup,
                              tol_rel=parsed["tol_rel"], seed=parsed["seed"])


def cmd_run(args):
    parsed = parse_run_config(load_config(args.config))
    overrides = {"method": args.method, "checkpoints": args.checkpoints}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if "checkpoints" in overrides:  # the bounds of build_integrator and parse_run_config
        _integer(args.checkpoints, "checkpoints", lo=1)
        _addressable(args.checkpoints + 1, parsed["space"].n, "checkpoints")
    if overrides:
        parsed["integrator"] = dataclasses.replace(parsed["integrator"], **overrides)
    if args.seed is not None:
        parsed["seed"] = _integer(args.seed, "seed", lo=0)
    coup = spaces.coupling(parsed["space"], parsed["kernel"])
    traj = evolution.evolve(coup, parsed["triple"], parsed["u0"], parsed["T"],
                            parsed["integrator"], tol_rel=parsed["tol_rel"])
    report = _ledger_for(parsed, traj, coup)
    out = args.out
    os.makedirs(out, exist_ok=True)
    atomic_write(os.path.join(out, "trajectory.csv"), evolution.trajectory_csv_text(traj))
    if parsed["export_flux"]:
        atomic_write(os.path.join(out, "flux.csv"), evolution.flux_csv_text(traj, coup))
    _write_json(os.path.join(out, "ledger.json"), report.to_dict())
    print(ledger.render_table(report))
    return EXIT_OK


def cmd_verify(args):
    parsed = parse_run_config(load_config(args.config))
    try:
        traj = evolution.trajectory_from_csv(args.trajectory)
    except (OSError, ValueError) as exc:
        raise SchemaError("trajectory", str(exc))
    if traj.n != parsed["space"].n:
        raise SchemaError("trajectory", "state dimension does not match the config space")
    if traj.times[0] != 0.0 or traj.T != parsed["T"]:
        raise SchemaError("trajectory", f"times must run from 0 to the config's T = "
                          f"{parsed['T']:.17g}, not from {traj.times[0]:.17g} to {traj.T:.17g}")
    coup = spaces.coupling(parsed["space"], parsed["kernel"])
    if args.flux is not None:
        try:  # a linear file holds the flux that verify assumes without --flux: no store
            if not evolution.flux_csv_is_linear(args.flux, traj, coup):
                traj = evolution.flux_from_csv(args.flux, traj, coup)
        except (OSError, ValueError) as exc:
            raise SchemaError("flux", str(exc))
    report = _ledger_for(parsed, traj, coup)
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "ledger.json"), report.to_dict())
    print(ledger.render_table(report))
    return EXIT_OK


def cmd_sweep(args):
    cfg = load_config(args.config)
    # robustness_sweep takes no tolerance and writes no flux, and each eps is the
    # kernel's cutoff: those keys would change nothing, so they are refused
    _require_keys(cfg, "config", ["schema", "space", "kernel", "triple", "initial", "T", "sweep"],
                  ["integrator", "seed"])
    if isinstance(cfg["kernel"], dict) and "cutoff" in cfg["kernel"]:
        raise SchemaError("config.kernel.cutoff", "unknown key: sweep.eps_list sets the cutoffs")
    sweep_cfg = cfg["sweep"]
    _require_keys(sweep_cfg, "config.sweep", ["eps_list"])
    eps_list = sweep_cfg["eps_list"]
    if not isinstance(eps_list, list) or len(eps_list) < 2:
        raise SchemaError("config.sweep.eps_list", "expected a list of at least two numbers")
    eps_list = [_number(e, "config.sweep.eps_list") for e in eps_list]
    if eps_list[-1] <= 0 or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise SchemaError("config.sweep.eps_list", "must be positive and strictly decreasing")
    base_cfg = dict(cfg)
    del base_cfg["sweep"]
    parsed = parse_run_config(base_cfg)
    result = experiments.robustness_sweep(parsed["space"], parsed["kernel"], parsed["triple"],
                                          eps_list, parsed["u0"], parsed["T"],
                                          parsed["integrator"])
    stem = f"sweep_n{parsed['space'].n}"
    lines = ["eps,l1_gap_to_next,edb_residual_rel"]
    gaps = list(result.gaps) + [float("nan")]
    for eps, gap, res in zip(result.eps_list, gaps, result.edb_residuals):
        gap_s = "" if not np.isfinite(gap) else format(gap, ".17g")
        lines.append(f"{format(eps, '.17g')},{gap_s},{format(res, '.17g')}")
    _write_csv_json(args.out, stem, lines, result.to_dict())
    return EXIT_OK


def cmd_probe(args):
    deltas = None
    if args.deltas:
        try:
            deltas = [float(tok) for tok in args.deltas.split(",")]
        except ValueError:
            raise SchemaError("deltas", "expected a comma-separated list of numbers")
    try:
        result = experiments.density_gap_probe(args.s, deltas=deltas, n=args.n)
    except ValueError as exc:
        name = str(exc).split(" ", 1)[0]  # the probe names the rejected argument first
        raise SchemaError(name if name in ("s", "deltas", "n") else "probe", str(exc))
    stem = f"probe_s{args.s}_n{args.n}"
    lines = ["delta,seminorm"]
    for d, v in zip(result.deltas, result.seminorms):
        lines.append(f"{format(d, '.17g')},{format(v, '.17g')}")
    _write_csv_json(args.out, stem, lines, result.to_dict())
    return EXIT_OK


def cmd_lift(args):
    if args.m < 2 or args.m > 6 or args.N < 1 or args.N > 5:
        raise SchemaError("lift", "need 2 <= m <= 6 and 1 <= N <= 5")
    base = spaces.build_grid(0.0, 1.0, args.m)
    try:
        kernel = spaces.fractional_kernel(base, args.s)
    except ValueError as exc:
        raise SchemaError("s", str(exc))
    lifted = experiments.build_lift(base, kernel, args.N)
    verdict = experiments.key_estimate_check(lifted)
    stem = f"lift_m{args.m}_N{args.N}"
    lines = ["from_config,to_config,w2_squared,jump_bound"]
    for k, z, y, j in experiments.one_particle_jumps(lifted.configs, lifted.index):
        lines.append('"%s","%s",%s,%s' % (
            lifted.configs[k], lifted.configs[j],
            format(lifted.space.dist[k, j] ** 2, ".17g"),
            format(base.dist[z, y] ** 2 / args.N, ".17g")))
    _write_csv_json(args.out, stem, lines, {
        "schema": 1,
        "m": args.m,
        "N": args.N,
        "configs": lifted.n_configs,
        "pi_total": float(lifted.space.pi.sum()),
        "verdict": verdict,
    })
    return EXIT_OK if verdict["ok"] else EXIT_NUMERICAL


def main(argv=None):
    parser = argparse.ArgumentParser(prog="jumpflow",
                                     description="jump-process gradient-flow toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configured evolution and write the ledger")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--checkpoints", type=int, default=None)
    p_run.add_argument("--method", choices=["euler", "expm"], default=None)
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="re-run the ledger on a stored trajectory")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--trajectory", required=True)
    p_ver.add_argument("--flux", default=None)
    p_ver.add_argument("--out", required=True)
    p_ver.set_defaults(func=cmd_verify)

    p_sw = sub.add_parser("sweep", help="cutoff robustness sweep")
    p_sw.add_argument("--config", required=True)
    p_sw.add_argument("--out", required=True)
    p_sw.set_defaults(func=cmd_sweep)

    p_pr = sub.add_parser("probe", help="density-gap ramp probe")
    p_pr.add_argument("--s", type=float, required=True)
    p_pr.add_argument("--deltas", default=None)
    p_pr.add_argument("--n", type=int, default=4096)
    p_pr.add_argument("--out", required=True)
    p_pr.set_defaults(func=cmd_probe)

    p_li = sub.add_parser("lift", help="configuration-space lift and key estimate")
    p_li.add_argument("--m", type=int, required=True)
    p_li.add_argument("--N", type=int, required=True)
    p_li.add_argument("--s", type=float, default=0.6)
    p_li.add_argument("--out", required=True)
    p_li.set_defaults(func=cmd_lift)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SCHEMA
    except evolution.StepLimitError as exc:  # the count follows from the integrator config
        print(str(SchemaError("config.integrator", str(exc))), file=sys.stderr)
        return EXIT_SCHEMA
    except (FloatingPointError, RuntimeError) as exc:  # NumericalError is a RuntimeError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
