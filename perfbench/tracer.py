"""Traced child: one jumpflow CLI command run in-process, with a span
recorded around every public call into the library's modules.

    python3 perfbench/tracer.py --mode time|mem --spans OUT.json \
        --workload NAME --iteration K -- <jumpflow arguments>

The wrappers are installed from here, by rebinding each traced function in
every ``jumpflow`` module that refers to it; the library itself is not
changed.  A span records its name, start, end, parent span, workload and
iteration.  Spans stay in memory and are written to OUT.json when the
command returns.  ``--mode mem`` also samples the process's resident set
every millisecond and gives each span the peak it saw (see
``RssSampler.peak``); that perturbs timing, so stage memory and stage time
come from separate runs of this script.
The exit code is the command's.
"""

import argparse
import bisect
import functools
import inspect
import json
import os
import resource
import sys
import threading
import time

# span name -> (module, function); the span name is the public call it wraps
SPANS = [
    ("cli.load_config", "cli", "load_config"),
    ("cli.parse_run_config", "cli", "parse_run_config"),
    ("cli.atomic_write", "cli", "atomic_write"),
    ("spaces.build_grid", "spaces", "build_grid"),
    ("spaces.build_torus", "spaces", "build_torus"),
    ("spaces.build_graph", "spaces", "build_graph"),
    ("spaces.punctured_mask", "spaces", "punctured_mask"),
    ("spaces.fractional_kernel", "spaces", "fractional_kernel"),
    ("spaces.matrix_kernel", "spaces", "matrix_kernel"),
    ("spaces.cutoff", "spaces", "cutoff"),
    ("spaces.coupling", "spaces", "coupling"),
    ("evolution.evolve", "evolution", "evolve"),
    ("evolution.generator", "evolution", "generator"),
    ("evolution.continuity_residual", "evolution", "continuity_residual"),
    ("evolution.trajectory_csv_text", "evolution", "trajectory_csv_text"),
    ("evolution.trajectory_from_csv", "evolution", "trajectory_from_csv"),
    ("evolution.flux_csv_text", "evolution", "flux_csv_text"),
    ("evolution.flux_from_csv", "evolution", "flux_from_csv"),
    ("functionals.trajectory_L", "functionals", "trajectory_L"),
    ("quadrature.cumulative_simpson_nonuniform", "quadrature", "cumulative_simpson_nonuniform"),
    ("quadrature.simpson_nonuniform", "quadrature", "simpson_nonuniform"),
    ("ledger.edb_report", "ledger", "edb_report"),
    ("ledger.chain_rule_residual", "ledger", "chain_rule_residual"),
    ("ledger.pointwise_edb", "ledger", "pointwise_edb"),
    ("ledger.rce_battery", "ledger", "rce_battery"),
    ("ledger.full_report", "ledger", "full_report"),
    ("experiments.robustness_sweep", "experiments", "robustness_sweep"),
    ("experiments.density_gap_probe", "experiments", "density_gap_probe"),
    ("experiments.build_lift", "experiments", "build_lift"),
    ("experiments.key_estimate_check", "experiments", "key_estimate_check"),
]

# called once per checkpoint or per transport problem: counted, not spanned
COUNTED = [
    ("functionals.integrand_evals", "functionals", "edb_integrand"),
    ("experiments.lift_lps", "experiments", "w2_exact"),
]

MIB = float(1 << 20)


def _probe_terms(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments["n"] ** 2 * len(result.deltas)


# span name -> [(value name, how to combine, function of (fn, args, kwargs, result))]
OBSERVE = {
    "evolution.evolve": [
        ("evolution.checkpoints", max, lambda f, a, k, r: r.times.size),
        ("evolution.state_mb", max, lambda f, a, k, r: r.densities.nbytes / MIB)],
    "evolution.trajectory_from_csv": [
        ("evolution.checkpoints", max, lambda f, a, k, r: r.times.size),
        ("evolution.state_mb", max, lambda f, a, k, r: r.densities.nbytes / MIB)],
    "evolution.flux_from_csv": [
        ("evolution.flux_store_mb", max, lambda f, a, k, r: r.flux_store.nbytes / MIB)],
    "spaces.build_grid": [("spaces.n", max, lambda f, a, k, r: r.n)],
    "spaces.build_torus": [("spaces.n", max, lambda f, a, k, r: r.n)],
    "spaces.build_graph": [("spaces.n", max, lambda f, a, k, r: r.n)],
    "experiments.density_gap_probe": [
        ("experiments.probe_pair_terms", lambda x, y: x + y, _probe_terms)],
}


class RssSampler(threading.Thread):
    """Samples this process's resident set size at a fixed interval."""

    def __init__(self, interval=0.001):
        super().__init__(daemon=True)
        self.interval = interval
        self.page = os.sysconf("SC_PAGE_SIZE")
        self.fd = os.open("/proc/self/statm", os.O_RDONLY)
        self.times, self.rss = [], []
        self.done = threading.Event()

    def read(self):
        return int(os.pread(self.fd, 128, 0).split()[1]) * self.page

    @staticmethod
    def high_water():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    def run(self):
        while not self.done.is_set():
            self.rss.append(self.read())
            self.times.append(time.perf_counter())
            time.sleep(self.interval)

    def stop(self):
        self.done.set()
        self.join()
        os.close(self.fd)

    def peak(self, rec):
        """Largest resident set seen inside the span.  The sampler cannot run
        while a call holds the interpreter lock, so a span that raised the
        process's high-water mark is credited with the new mark."""
        lo = bisect.bisect_left(self.times, rec["start"])
        hi = bisect.bisect_right(self.times, rec["end"])
        seen = self.rss[lo:hi] + [rec["rss_start"], rec["rss_end"]]
        if rec["hw_end"] > rec["hw_start"]:
            seen.append(rec["hw_end"])
        return max(seen)


class Recorder:
    """In-memory span store with the wrappers that fill it."""

    def __init__(self, workload, iteration, sampler=None):
        self.workload = workload
        self.iteration = iteration
        self.sampler = sampler
        self.spans = []
        self.stack = []
        self.counts = {}
        self.values = {}

    def span(self, name, fn, *args, **kwargs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self.stack[-1] if self.stack else None,
               "workload": self.workload, "iteration": self.iteration, "pid": os.getpid()}
        self.spans.append(rec)
        self.stack.append(rec["id"])
        if self.sampler:
            rec["rss_start"], rec["hw_start"] = self.sampler.read(), self.sampler.high_water()
        rec["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            if self.sampler:
                rec["rss_end"], rec["hw_end"] = self.sampler.read(), self.sampler.high_water()
            self.stack.pop()

    def traced(self, name, fn):
        observers = OBSERVE.get(name, [])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            for key, combine, get in observers:
                value = get(fn, args, kwargs, result)
                self.values[key] = combine(self.values[key], value) \
                    if key in self.values else value
            return result

        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Rebind every traced function wherever a jumpflow module names it."""
        modules = [m for k, m in sys.modules.items()
                   if k == "jumpflow" or k.startswith("jumpflow.")]
        for make, table in ((self.traced, SPANS), (self.counted, COUNTED)):
            for name, module, attr in table:
                original = getattr(sys.modules[f"jumpflow.{module}"], attr)
                wrapper = make(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def finish(self):
        if self.sampler:
            self.sampler.stop()
            for rec in self.spans:
                rec["peak_mb"] = self.sampler.peak(rec) / MIB


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=["time", "mem"], required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--iteration", type=int, required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    sampler = RssSampler() if args.mode == "mem" else None
    if sampler:
        sampler.start()
    t0 = time.perf_counter()
    import jumpflow.cli
    t_import = time.perf_counter() - t0
    rec = Recorder(args.workload, args.iteration, sampler)
    rec.install()
    code = 1
    try:
        code = rec.span("cli.main", jumpflow.cli.main, command)
    finally:
        rec.finish()
        with open(args.spans, "w") as fh:
            json.dump({"spans": rec.spans, "counts": rec.counts, "values": rec.values,
                       "import_s": t_import, "returncode": code,
                       "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0},
                      fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
