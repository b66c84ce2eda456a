"""jumpflow benchmark: time to a certified ledger, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads are defined in ``workloads.py``; every CLI command is a
fresh ``python -m jumpflow`` process, one at a time (closed loop, one
client), with the BLAS and OpenMP pools pinned to one thread.  Every
command's outputs are checked; a non-zero exit or a failed check counts the
command as a failed operation.

``--trace 0`` measures set-up time (median of fresh set-up processes), then
repeats whole workload iterations until the next one would end after
``--seconds``, at least one, and reports medians.  ``--trace 1`` runs one
untraced iteration, one traced iteration (``tracer.py``, spans around the
library's public calls) and one memory iteration (``tracer.py --mode mem``),
and reports the per-layer metrics.

The last line of standard output is the result object; a readable summary
goes to standard error.  Full results, the machine record and the spans are
written under ``.bench_work/results/``.  Without ``src/jumpflow`` the script
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

RUN_BUDGET_S = 170.0     # every run ends well inside the 180 s limit
SETUP_REPEATS = 3        # set-up processes per run; the median is reported
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                               "NUMEXPR_NUM_THREADS")}
MIB = float(1 << 20)
COMMANDS = ("run", "verify", "sweep", "probe", "lift")

# per-layer timing metric -> spans summed (inclusive time)
LAYER_TIMES = {
    "cli.parse_s": ["cli.load_config", "cli.parse_run_config"],
    "cli.write_s": ["cli.atomic_write"],
    "spaces.assemble_s": ["spaces.build_grid", "spaces.build_torus", "spaces.build_graph",
                          "spaces.punctured_mask", "spaces.fractional_kernel",
                          "spaces.matrix_kernel", "spaces.cutoff", "spaces.coupling"],
    "evolution.evolve_s": ["evolution.evolve"],
    "evolution.generator_s": ["evolution.generator"],
    "evolution.trajectory_csv_write_s": ["evolution.trajectory_csv_text"],
    "evolution.trajectory_csv_read_s": ["evolution.trajectory_from_csv"],
    "evolution.flux_csv_write_s": ["evolution.flux_csv_text"],
    "evolution.flux_csv_read_s": ["evolution.flux_from_csv"],
    "functionals.trajectory_L_s": ["functionals.trajectory_L"],
    "quadrature.simpson_s": ["quadrature.cumulative_simpson_nonuniform",
                             "quadrature.simpson_nonuniform"],
    "ledger.edb_report_s": ["ledger.edb_report"],
    "ledger.chain_rule_s": ["ledger.chain_rule_residual"],
    "ledger.pointwise_edb_s": ["ledger.pointwise_edb"],
    "ledger.rce_battery_s": ["ledger.rce_battery"],
    "ledger.full_report_s": ["ledger.full_report"],
    "experiments.robustness_sweep_s": ["experiments.robustness_sweep"],
    "experiments.density_gap_probe_s": ["experiments.density_gap_probe"],
    "experiments.build_lift_s": ["experiments.build_lift"],
    "experiments.key_estimate_check_s": ["experiments.key_estimate_check"],
}
# spans whose self time (duration minus direct children) is reported
SELF_TIMES = ["cli.main", "evolution.evolve", "evolution.continuity_residual",
              "functionals.trajectory_L", "ledger.edb_report", "ledger.chain_rule_residual",
              "ledger.full_report", "experiments.robustness_sweep"]
# per-layer count metric -> span counted
SPAN_COUNTS = {"evolution.evolve_calls": "evolution.evolve",
               "ledger.rce_tests": "evolution.continuity_residual"}
CALL_COUNTS = ["functionals.integrand_evals", "experiments.lift_lps"]
# exact sizes observed on call results: metric -> (unit, combine across processes)
VALUES = {"evolution.checkpoints": ("count", max), "evolution.state_mb": ("MiB", max),
          "evolution.flux_store_mb": ("MiB", max), "spaces.n": ("count", max),
          "experiments.probe_pair_terms": ("count", sum)}
# stage peak resident set, from the memory pass only
PEAKS = {"evolution.evolve.peak_mb": "evolution.evolve",
         "ledger.full_report.peak_mb": "ledger.full_report",
         "evolution.flux_csv_write.peak_mb": "evolution.flux_csv_text",
         "evolution.flux_csv_read.peak_mb": "evolution.flux_from_csv",
         "experiments.density_gap_probe.peak_mb": "experiments.density_gap_probe",
         "experiments.build_lift.peak_mb": "experiments.build_lift"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (as opposed to a failed operation)."""


@dataclass
class Child:
    wall: float              # spawn to exit, seconds
    returncode: int
    maxrss_mb: float         # this child's own peak resident set


@dataclass
class Iteration:
    ops: list
    children: list
    errors: list             # failure messages per operation
    digests: list            # output hash per operation
    output_bytes: int

    @property
    def wall(self):
        return sum(c.wall for c in self.children)

    def check_digests(self, reference):
        """An operation whose outputs differ from the reference pass fails."""
        for k, (mine, ref) in enumerate(zip(self.digests, reference.digests)):
            if mine != ref:
                self.errors[k].append(f"output hash {mine} differs from {ref} in the "
                                      "first pass of this seed")


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"    # same set and dict layout in every child
    return env


def spawn(argv, log_path, deadline):
    """Run one child to completion, timed from spawn to exit; killed at the deadline."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                env=child_env())
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0)


def _conclude(plan, ops, children):
    """Apply the output checks and hash what each operation wrote."""
    errors = plan.check(ops, [c.returncode for c in children])
    present = [os.path.isdir(op.out) for op in ops]
    digests = [workloads.output_digest(op.out) if ok else None for op, ok in zip(ops, present)]
    size = sum(workloads.output_bytes(op.out) for op, ok in zip(ops, present) if ok)
    return Iteration(ops, children, errors, digests, size)


def jumpflow_argv(op):
    return [sys.executable, "-m", "jumpflow", *op.argv]


def run_iteration(plan, inputs, iter_dir, deadline):
    """One untraced pass over the workload's commands, then its output checks."""
    os.makedirs(iter_dir)
    ops = plan.ops(inputs, iter_dir)
    children = [spawn(jumpflow_argv(op), os.path.join(iter_dir, f"op{k}.log"), deadline)
                for k, op in enumerate(ops)]
    return _conclude(plan, ops, children)


def report_failures(it, iter_dir):
    for k, (op, errs) in enumerate(zip(it.ops, it.errors)):
        if not errs:
            continue
        print(f"FAILED {op.command} {' '.join(op.argv)}", file=sys.stderr)
        for e in errs:
            print(f"  {e}", file=sys.stderr)
        try:
            with open(os.path.join(iter_dir, f"op{k}.log"), errors="replace") as fh:
                tail = fh.read()[-2000:]
        except OSError:
            tail = ""
        if tail.strip():
            print("  output tail:\n    " + tail.strip().replace("\n", "\n    "),
                  file=sys.stderr)


def finish_iteration(it, iter_dir, reference):
    if reference is not None:
        it.check_digests(reference)
    report_failures(it, iter_dir)
    shutil.rmtree(iter_dir, ignore_errors=True)
    return it


def write_setup_spec(plan, inputs, run_dir):
    path = os.path.join(run_dir, "setup.json")
    with open(path, "w") as fh:
        json.dump(dict(plan.setup, configs=[inputs[c] for c in plan.setup.get("configs", [])]),
                  fh)
    return path


def setup_child(spec_path, run_dir, deadline):
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), spec_path,
            os.path.join(run_dir, "machine.json")]
    child = spawn(argv, os.path.join(run_dir, "setup.log"), deadline)
    if child.returncode != 0:
        with open(os.path.join(run_dir, "setup.log"), errors="replace") as fh:
            raise BenchError(f"set-up probe failed (exit {child.returncode}):\n{fh.read()[-2000:]}")
    return child


def machine_record(run_dir):
    with open(os.path.join(run_dir, "machine.json")) as fh:
        record = json.load(fh)
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "jumpflow")
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    record.update({"git_commit": commit, "source_sha256": digest.hexdigest(),
                   "child_threads": THREAD_ENV})
    return record


# ---------------------------------------------------------------------------
# end-to-end pass


def measure(plan, inputs, run_dir, seconds, deadline):
    spec = write_setup_spec(plan, inputs, run_dir)
    setups = [setup_child(spec, run_dir, deadline).wall for _ in range(SETUP_REPEATS)]

    iterations = []
    start = time.monotonic()
    while True:
        iter_dir = os.path.join(run_dir, f"iter{len(iterations)}")
        it = run_iteration(plan, inputs, iter_dir, deadline)
        iterations.append(finish_iteration(it, iter_dir, iterations[0] if iterations else None))
        per_iteration = statistics.median(i.wall for i in iterations)
        now = time.monotonic()
        if now + per_iteration > min(start + seconds, deadline - 5.0):
            break

    metrics = {
        "wall_s": (statistics.median(i.wall for i in iterations), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(max(c.maxrss_mb for c in i.children)
                                          for i in iterations), "MiB"),
        "output_mb": (statistics.median(i.output_bytes for i in iterations) / MIB, "MiB"),
    }
    samples = {"setup_s": setups,
               "iterations": [{"wall_s": i.wall, "output_bytes": i.output_bytes,
                               "commands": [{"command": op.command, "wall_s": c.wall,
                                             "maxrss_mb": c.maxrss_mb,
                                             "returncode": c.returncode}
                                            for op, c in zip(i.ops, i.children)]}
                              for i in iterations]}
    return iterations, metrics, samples


# ---------------------------------------------------------------------------
# traced pass


def _load_spans(iter_dir, ops):
    docs = []
    for k in range(len(ops)):
        try:
            with open(os.path.join(iter_dir, f"spans{k}.json")) as fh:
                docs.append(json.load(fh))
        except (OSError, ValueError):
            docs.append(None)
    return docs


def layer_metrics(plain, timed, timed_docs, mem_docs):
    """Aggregate the traced children into the per-layer metrics."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    count = defaultdict(int)
    calls = defaultdict(int)
    values = {}
    import_s = 0.0
    for doc in filter(None, timed_docs):
        import_s += doc["import_s"]
        covered = defaultdict(float)
        for s in doc["spans"]:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        for s in doc["spans"]:
            dur = s["end"] - s["start"]
            total[s["name"]] += dur
            self_time[s["name"]] += dur - covered[s["id"]]
            count[s["name"]] += 1
        for key, v in doc["counts"].items():
            calls[key] += v
        for key, v in doc["values"].items():
            combine = VALUES[key][1]
            values[key] = combine([values[key], v]) if key in values else v
    peaks = defaultdict(float)
    for doc in filter(None, mem_docs):
        for s in doc["spans"]:
            peaks[s["name"]] = max(peaks[s["name"]], s["peak_mb"])

    m = {}
    for name, spans in LAYER_TIMES.items():
        m[name] = (sum(total[s] for s in spans), "s")
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = (self_time[name], "s")
    for name, span in SPAN_COUNTS.items():
        m[name] = (count[span], "count")
    for name in CALL_COUNTS:
        m[name] = (calls[name], "count")
    for name, (unit, _) in VALUES.items():
        m[name] = (values.get(name, 0), unit)
    for name, span in PEAKS.items():
        m[name] = (peaks[span], "MiB")
    for command in COMMANDS:
        m[f"cli.{command}_s"] = (sum(c.wall for op, c in zip(plain.ops, plain.children)
                                     if op.command == command), "s")
    m["trace.untraced_wall_s"] = (plain.wall, "s")
    m["trace.traced_wall_s"] = (timed.wall, "s")
    m["trace.overhead_s"] = (timed.wall - plain.wall, "s")
    m["trace.import_s"] = (import_s, "s")
    m["trace.spans"] = (sum(count.values()), "count")
    return m, {"total_s": dict(total), "self_s": dict(self_time), "calls": dict(count)}


def trace(plan, inputs, run_dir, deadline):
    setup_child(write_setup_spec(plan, inputs, run_dir), run_dir, deadline)  # machine record

    def argv(mode, iteration, iter_dir, k, op):
        if mode is None:
            return jumpflow_argv(op)
        return [sys.executable, os.path.join(HERE, "tracer.py"), "--mode", mode,
                "--spans", os.path.join(iter_dir, f"spans{k}.json"),
                "--workload", plan.name, "--iteration", str(iteration), "--", *op.argv]

    # the untraced, timed and memory passes alternate command by command, so
    # drift in machine speed shifts them alike; each keeps its own directory
    modes = (None, "time", "mem")
    dirs = [os.path.join(run_dir, f"iter{i}") for i in range(len(modes))]
    ops = []
    for d in dirs:
        os.makedirs(d)
        ops.append(plan.ops(inputs, d))
    children = [[] for _ in modes]
    for k in range(len(ops[0])):
        for i, (mode, d) in enumerate(zip(modes, dirs)):
            children[i].append(spawn(argv(mode, i, d, k, ops[i][k]),
                                     os.path.join(d, f"op{k}.log"), deadline))
    passes, docs = [], []
    for i, d in enumerate(dirs):
        it = _conclude(plan, ops[i], children[i])
        docs.append(_load_spans(d, it.ops) if modes[i] else None)
        for k, doc in enumerate(docs[-1] or []):
            if doc is None:
                it.errors[k].append("traced child wrote no spans")
        passes.append(finish_iteration(it, d, passes[0] if passes else None))
    plain, timed, _ = passes
    metrics, table = layer_metrics(plain, timed, docs[1], docs[2])
    spans = [s for doc in filter(None, docs[1]) for s in doc["spans"]]
    return passes, metrics, {"spans": spans, "span_table": table}


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description="jumpflow benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every input (self-tests only)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "jumpflow", "cli.py")):
        print(f"no jumpflow sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    plan = workloads.plan(args.workload, args.seed, args.scale)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-")
    try:
        inputs = plan.write_inputs(run_dir)
        if args.trace:
            iterations, metrics, extra = trace(plan, inputs, run_dir, deadline)
        else:
            iterations, metrics, extra = measure(plan, inputs, run_dir, args.seconds, deadline)
        machine = machine_record(run_dir)
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(i.ops) for i in iterations)
    failed = sum(1 for i in iterations for errs in i.errors if errs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, scale=args.scale, machine=machine, **extra)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(WORK, "results", stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"{args.workload} seed={args.seed} ops {attempted - failed}/{attempted} ok, "
          f"commit {machine['git_commit'] or 'unknown'}", file=sys.stderr)
    print(f"  machine: {machine['nproc']} x {machine['cpu_model']}, Python {machine['python']}, "
          f"numpy {machine['numpy']}, scipy {machine['scipy']}, BLAS {machine['blas']}, "
          "one BLAS/OpenMP thread per child", file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"  {k:42s} {v:14.6g} {u}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
