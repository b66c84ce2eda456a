"""Set-up probe: the fixed cost every jumpflow command pays before it
propagates or probes, run as a fresh process and timed from outside.

It imports jumpflow, validates the workload's configs and assembles space,
kernel and coupling (one coupling per cutoff for a sweep).  For probe-lift
it checks the probe widths and assembles the lift's base space, kernel and
coupling.

    python3 perfbench/setup_probe.py SPEC.json MACHINE.json

SPEC.json is written by run.py.  The probe also writes MACHINE.json, the
interpreter, libraries and BLAS build it ran with (a fraction of a
millisecond).
"""

import json
import os
import sys


def assemble(spec):
    from jumpflow import cli, experiments, spaces

    for path in spec.get("configs", []):
        cfg = cli.load_config(path)
        if spec.get("sweep"):
            # as ``jumpflow sweep``: the cutoffs apply to the raw kernel
            eps_list = cfg.pop("sweep")["eps_list"]
            cfg["kernel"] = dict(cfg["kernel"])
            cfg["kernel"].pop("cutoff", None)
            parsed = cli.parse_run_config(cfg)
            for eps in eps_list:
                spaces.coupling(parsed["space"],
                                spaces.cutoff(parsed["kernel"], parsed["space"], eps))
        else:
            parsed = cli.parse_run_config(cfg)
            spaces.coupling(parsed["space"], parsed["kernel"])
    for s in spec.get("probe", []):
        experiments.default_probe_deltas(s)
    if "lift" in spec:
        base = spaces.build_grid(0.0, 1.0, spec["lift"]["m"])
        spaces.coupling(base, spaces.fractional_kernel(base, spec["lift"]["s"]))


def machine_record():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
        if info.get("openblas configuration"):
            blas += f" ({info['openblas configuration'].strip()})"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    threads = {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": threads,
    }


def main(argv):
    with open(argv[0]) as fh:
        spec = json.load(fh)
    assemble(spec)
    with open(argv[1], "w") as fh:
        json.dump(machine_record(), fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
