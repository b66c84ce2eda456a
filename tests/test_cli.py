"""CLI contract: schemas, exit codes, determinism, verify round trip."""

import contextlib
import hashlib
import io
import json
import os
import re
import stat
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jumpflow.cli import main
from jumpflow.quadrature import checkpoint_grid

TWO_POINT = {
    "schema": 1,
    "space": {"type": "graph", "points": [0.0, 1.0],
              "dist": [[0.0, 1.0], [1.0, 0.0]], "pi": [0.5, 0.5]},
    "kernel": {"type": "matrix", "rates": [[0.0, 1.0], [1.0, 0.0]]},
    "triple": "cosh",
    "initial": {"type": "vector", "values": [2.0, 0.0]},
    "T": 2.0,
    "integrator": {"method": "expm", "checkpoints": 256},
    "seed": 0,
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_run_two_point(tmp_path, capsys):
    cfg = write_config(tmp_path, TWO_POINT)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()
    ledger = json.loads((out / "ledger.json").read_text())
    assert ledger["schema"] == 1
    assert ledger["verdict"] == "Balanced/Reflecting"
    assert "verdict" in capsys.readouterr().out

    # closed-form golden: u_a(t) = 1 + e^(-2t)
    rows = (out / "trajectory.csv").read_text().strip().splitlines()[1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    oracle = 1.0 + np.exp(-2.0 * data[:, 0])
    assert np.max(np.abs(data[:, 1] - oracle)) <= 1e-8


def test_run_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, TWO_POINT)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "ledger.json").read_bytes() == (out2 / "ledger.json").read_bytes()


def test_verify_round_trip_byte_identical(tmp_path):
    cfg = write_config(tmp_path, TWO_POINT)
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    vout = tmp_path / "vout"
    assert main(["verify", "--config", cfg, "--trajectory", str(out / "trajectory.csv"),
                 "--out", str(vout)]) == 0
    assert (out / "ledger.json").read_bytes() == (vout / "ledger.json").read_bytes()


PUNCTURED_GRID = {
    "schema": 1,
    "space": {"type": "grid", "a": -1.0, "b": 1.0, "n": 12},
    "kernel": {"type": "fractional", "s": 0.75,
               "mask": {"type": "punctured", "split": 0.0}},
    "triple": "quadratic",
    "initial": {"type": "step", "left": 2.0, "right": 0.5, "split": -0.5},
    "T": 0.3,
    "integrator": {"checkpoints": 64},
    "seed": 3,
}


def test_seed_drives_nothing(tmp_path):
    # the config's seed and run --seed are accepted and checked, but the ledger
    # certifies the whole continuity class and draws nothing
    ledgers = []
    for k, (seed, argv) in enumerate([(0, []), (5, []), (0, ["--seed", "3"])]):
        cfg = write_config(tmp_path, dict(PUNCTURED_GRID, seed=seed), name=f"config{k}.json")
        out = tmp_path / f"out{k}"
        assert main(["run", "--config", cfg, "--out", str(out), *argv]) == 0
        ledgers.append((out / "ledger.json").read_bytes())
    assert ledgers[0] == ledgers[1] == ledgers[2]
    assert b"component_step" in ledgers[0]


# trajectory.csv of TWO_POINT on the explicit graded grid of 256 uniform intervals,
# as the fixed default grid of earlier versions wrote it
TWO_POINT_GRADED_SHA256 = "fae7a44fd74eee2459b01241ad97603e3b808bdf3a8dca93f502f3d72ca9dc51"


@pytest.mark.parametrize("how", ["config", "flag"])
def test_explicit_checkpoints_write_the_graded_grid(tmp_path, how):
    cfg = dict(TWO_POINT)
    argv = []
    if how == "flag":
        del cfg["integrator"]
        argv = ["--checkpoints", "256"]
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)] + argv) == 0
    text = (out / "trajectory.csv").read_bytes()
    assert hashlib.sha256(text).hexdigest() == TWO_POINT_GRADED_SHA256
    times = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)[:, 0]
    assert np.array_equal(times, checkpoint_grid(2.0, 256))


DEFAULT_GRID = {
    "vacuum": dict(TWO_POINT, integrator=None),
    "punctured": dict(PUNCTURED_GRID, integrator=None),
    "uncut": {"schema": 1, "space": {"type": "grid", "a": -1.0, "b": 1.0, "n": 10},
              "kernel": {"type": "fractional", "s": 0.75}, "triple": "cosh",
              "initial": {"type": "step", "left": 1.8, "right": 0.3, "split": -0.5},
              "T": 0.5, "seed": 2},
}


@pytest.mark.parametrize("name", list(DEFAULT_GRID))
def test_default_grid_run_is_deterministic_and_verified_byte_for_byte(tmp_path, name):
    cfg = write_config(tmp_path, dict(DEFAULT_GRID[name], export_flux=True))
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (runs[0] / "trajectory.csv").read_bytes() == (runs[1] / "trajectory.csv").read_bytes()
    traj = ["--trajectory", str(runs[0] / "trajectory.csv")]
    for extra in ([], ["--flux", str(runs[0] / "flux.csv")]):
        vout = tmp_path / f"verify{len(extra)}"
        assert main(["verify", "--config", cfg, *traj, *extra, "--out", str(vout)]) == 0
        assert (vout / "ledger.json").read_bytes() == (runs[0] / "ledger.json").read_bytes()
    ledger = json.loads((runs[0] / "ledger.json").read_text())
    assert ledger["verdict"] == "Balanced/Reflecting" and ledger["n_checkpoints"] < 1000


GRID_CERTIFY = {"schema": 1, "space": {"type": "grid", "a": -1.0, "b": 1.0, "n": 200},
                "kernel": {"type": "fractional", "s": 0.6, "cutoff": 1e-3}, "triple": "cosh",
                "initial": {"type": "step", "left": 2.0, "right": 0.0, "split": 0.0},
                "T": 0.5, "seed": 7}


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_an_infinite_grid_error_is_named_on_stderr(tmp_path, capsys, command):
    # the two-point vacuum start at T = 1e-5: its dissipation is infinite at
    # the first checkpoint after 0 too (ROADMAP defect 9), so the grid bounds
    # nothing for it; one line per series and run names it and the config
    vacuum = dict(TWO_POINT, integrator=None, T=1e-5)
    if command == "sweep":
        vacuum["sweep"] = {"eps_list": [0.5, 0.25]}
    cfg = write_config(tmp_path, vacuum)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == (2 if command == "sweep" else 1)
    for line in lines:
        assert cfg in line and "dissipation" in line and "grid_error.edb_rel" in line
    cfg = write_config(tmp_path, GRID_CERTIFY, "certify.json")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "certify")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("base", [TWO_POINT, PUNCTURED_GRID], ids=["two_point", "punctured"])
def test_verify_flux_round_trip_byte_identical(tmp_path, base):
    cfg = write_config(tmp_path, dict(base, export_flux=True))
    out, vout = tmp_path / "out", tmp_path / "vout"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["verify", "--config", cfg, "--trajectory", str(out / "trajectory.csv"),
                 "--flux", str(out / "flux.csv"), "--out", str(vout)]) == 0
    assert (out / "ledger.json").read_bytes() == (vout / "ledger.json").read_bytes()


def coupling_of(cfg):
    """The coupling of a config dict, as `run` and `verify` build it."""
    from jumpflow import spaces
    from jumpflow.cli import parse_run_config

    parsed = parse_run_config(cfg)
    return spaces.coupling(parsed["space"], parsed["kernel"])


def test_punctured_run_writes_flux_on_the_coupling_edges_only(tmp_path):
    from jumpflow.evolution import flux_from_csv, trajectory_from_csv

    cfg = write_config(tmp_path, dict(PUNCTURED_GRID, export_flux=True))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    coup = coupling_of(PUNCTURED_GRID)
    rows, cols, _ = coup.edges
    edges = list(zip(rows.tolist(), cols.tolist()))
    header, *lines = (out / "flux.csv").read_text().splitlines()
    columns = header.split(",")
    assert columns[0] == "t" and all(c.startswith("w_") for c in columns[1:])
    listed = [tuple(int(x) for x in c.split("_")[1:]) for c in columns[1:]]
    assert listed == edges  # every coupling edge, once, in coup.edges order
    # states 0-5 lie left of the split, 6-11 right of it: no column joins the two
    assert all((i < 6) == (j < 6) for i, j in listed)
    assert lines and all(r.count(",") == len(edges) for r in lines)
    traj = trajectory_from_csv(out / "trajectory.csv")
    store = flux_from_csv(out / "flux.csv", traj, coup).flux_store
    assert store.nbytes == traj.times.size * len(edges) * 8


def with_column(rows, m, values):
    """CSV rows with one value inserted before field m of each row."""
    return [",".join(r.split(",")[:m] + [v] + r.split(",")[m:]) for r, v in zip(rows, values)]


@pytest.mark.parametrize("edit", ["cross_component", "reversed_half"])
def test_verify_flux_rejects_a_line_off_the_coupling_edges(tmp_path, capsys, flux_read_error,
                                                          edit):
    from jumpflow.evolution import trajectory_from_csv

    cfg = write_config(tmp_path, dict(PUNCTURED_GRID, export_flux=True))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    header, *rows = (out / "flux.csv").read_text().splitlines()
    columns = header.split(",")
    m = len(columns) // 2
    i, j = columns[m].split("_")[1:]
    if edit == "cross_component":  # states 0 and 11 lie on either side of the split
        columns.insert(m, "w_0_11")
        rows = with_column(rows, m, ["0.5"] * len(rows))
    else:  # the same flux, listed as its j > i half
        columns[m] = f"w_{j}_{i}"
        rows = with_column([",".join(r.split(",")[:m] + r.split(",")[m + 1:]) for r in rows], m,
                           [repr(-float(r.split(",")[m])) for r in rows])
    epath = tmp_path / "flux_edited.csv"
    epath.write_text("\n".join([",".join(columns)] + rows) + "\n")
    capsys.readouterr()
    assert main(["verify", "--config", cfg, "--trajectory", str(out / "trajectory.csv"),
                 "--flux", str(epath), "--out", str(tmp_path / "vout")]) == 2
    err = capsys.readouterr().err
    # header column m + 1 names the edge (i, j) of the coupling, whatever else is listed
    message = (f"flux CSV header column {m + 1} must be 'w_{i}_{j}', for "
               f"coupling edge ({i}, {j}); it is '{columns[m]}'")
    assert f"config error at flux: {message}" in err
    assert not (tmp_path / "vout").exists()
    assert flux_read_error(epath, trajectory_from_csv(out / "trajectory.csv"),
                           coupling_of(PUNCTURED_GRID)) == message


def test_verify_flux_one_ulp_off_takes_the_per_edge_pass(tmp_path):
    from jumpflow.evolution import flux_from_csv, trajectory_from_csv

    cfg = write_config(tmp_path, dict(TWO_POINT, export_flux=True))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    header, *rows = (out / "flux.csv").read_text().splitlines()
    # edge {0, 1} is one column, listed once (i < j), and a middle checkpoint's
    # value goes one ulp up; the store holds w_01 alone, so it stays antisymmetric
    assert header == "t,w_0_1"
    m = len(rows) // 2
    t, w = rows[m].split(",")
    assert float(w) != 0.0
    rows[m] = f"{t},{float(np.nextafter(float(w), np.inf))!r}"
    epath = tmp_path / "flux_edited.csv"
    epath.write_text("\n".join([header] + rows) + "\n")
    traj = flux_from_csv(epath, trajectory_from_csv(out / "trajectory.csv"),
                         coupling_of(TWO_POINT))
    assert not traj.linear_flux
    vout = tmp_path / "vout"
    assert main(["verify", "--config", cfg, "--trajectory", str(out / "trajectory.csv"),
                 "--flux", str(epath), "--out", str(vout)]) == 0
    ledger = json.loads((vout / "ledger.json").read_text())
    assert ledger["verdict"] == "Balanced/Reflecting"
    assert ledger["chain_ok"] and ledger["edb_ok"]


def test_verify_rejects_truncated_csv(tmp_path):
    cfg = write_config(tmp_path, TWO_POINT)
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    text = (out / "trajectory.csv").read_text().splitlines()
    broken = tmp_path / "broken.csv"
    broken.write_text("\n".join([text[0]] + [r.rsplit(",", 1)[0] for r in text[1:5]]) + "\n")
    assert main(["verify", "--config", cfg, "--trajectory", str(broken),
                 "--out", str(tmp_path / "x")]) == 2


def test_verify_edited_flux_degrades_verdict(tmp_path):
    cfg_dict = dict(TWO_POINT)
    cfg_dict["export_flux"] = True
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    flux_lines = (out / "flux.csv").read_text().strip().splitlines()
    # zero out every flux entry, keeping each row's t
    edited = [flux_lines[0]] + [r.split(",")[0] + ",0" * r.count(",") for r in flux_lines[1:]]
    epath = tmp_path / "flux_edited.csv"
    epath.write_text("\n".join(edited) + "\n")
    vout = tmp_path / "vout"
    assert main(["verify", "--config", cfg, "--trajectory", str(out / "trajectory.csv"),
                 "--flux", str(epath), "--out", str(vout)]) == 0
    verdict = json.loads((vout / "ledger.json").read_text())["verdict"]
    assert verdict == "Neither"


@pytest.mark.parametrize("edit", ["index_too_large", "negative_index", "diagonal",
                                  "duplicate", "time_off_grid", "not_antisymmetric",
                                  "nan_value", "infinite_pair", "not_a_number",
                                  "non_linear_then_not_a_number"])
def test_verify_rejects_malformed_flux_csv(tmp_path, capsys, monkeypatch, flux_read_error, edit):
    from jumpflow import evolution
    from jumpflow.evolution import flux_csv_is_linear, flux_from_csv, trajectory_from_csv

    cfg_dict = dict(TWO_POINT, export_flux=True, integrator={"checkpoints": 16})
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    header, *rows = (out / "flux.csv").read_text().splitlines()
    assert header == "t,w_0_1"  # the one coupling edge
    (t0, w0), (t1, w1), (tk, _) = (r.split(",") for r in rows[:2] + rows[-1:])
    ws = [r.split(",")[1] for r in rows]
    last = "flux CSV header must end after column 2, t and the E = 1 coupling edges; column 3 is"
    header, rows, message = {
        # a column on a pair that is not a coupling edge, or not once as i < j
        "index_too_large": ("t,w_0_1,w_0_2", with_column(rows, 2, ["1.0"] * len(rows)),
                            f"{last} 'w_0_2'"),
        "negative_index": ("t,w_-1_0,w_0_1", with_column(rows, 1, ["1.0"] * len(rows)),
                           "column 2 must be 'w_0_1', for coupling edge (0, 1); it is 'w_-1_0'"),
        "diagonal": ("t,w_1_1,w_0_1", with_column(rows, 1, ["0.5"] * len(rows)),
                     "column 2 must be 'w_0_1', for coupling edge (0, 1); it is 'w_1_1'"),
        "duplicate": ("t,w_0_1,w_0_1", with_column(rows, 2, ws), f"{last} 'w_0_1'"),
        # a second half that is not the exact negative of the listed one
        "not_antisymmetric": ("t,w_0_1,w_1_0",
                              with_column(rows, 2, [repr(2.0 * float(w)) for w in ws]),
                              f"{last} 'w_1_0'"),
        "time_off_grid": (header, [rows[0], f"0.123456789,{w1}"] + rows[2:],
                          f"line 3 (expected t={t1}) has t=0.123456789"),
        "nan_value": (header, [f"{t0},nan"] + rows[1:],
                      "line 2 (expected t=0): value nan in column 2 is not finite"),
        # two infinite cells, of opposite sign: the values are checked before the t
        "infinite_pair": (header, [f"{t0},inf", f"{t1},-inf"] + rows[2:],
                          "line 2 (expected t=0): value inf in column 2 is not finite"),
        "not_a_number": (header, [rows[0], f"{t1},abc"] + rows[2:],
                         f"line 3 (expected t={t1}): could not convert string to float: 'abc'"),
        # the linearity check stops at the first row (w = 2 at t = 0) when it is a
        # block of its own; the store, read from row 0, reaches the last one
        "non_linear_then_not_a_number": (
            header, [f"{t0},1.5"] + rows[1:-1] + [f"{tk},abc"],
            f"line {len(rows) + 1} (expected t={tk}): could not convert string to float: 'abc'"),
    }[edit]
    epath = tmp_path / "flux_edited.csv"
    epath.write_text("\n".join([header] + rows) + "\n")
    capsys.readouterr()
    assert main(["verify", "--config", cfg, "--trajectory", str(out / "trajectory.csv"),
                 "--flux", str(epath), "--out", str(tmp_path / "vout")]) == 2
    err = capsys.readouterr().err
    assert "config error at flux" in err and message in err
    assert ("not finite" in err) == (edit in ("nan_value", "infinite_pair"))
    assert not (tmp_path / "vout").exists()
    traj, coup = trajectory_from_csv(out / "trajectory.csv"), coupling_of(cfg_dict)
    if edit != "non_linear_then_not_a_number":
        assert message in flux_read_error(epath, traj, coup)
        return
    monkeypatch.setattr(evolution, "CSV_BLOCK_LINES", 7)  # 3 rows a block
    assert not flux_csv_is_linear(epath, traj, coup)
    with pytest.raises(ValueError) as info:
        flux_from_csv(epath, traj, coup)
    assert message in str(info.value)


@pytest.mark.parametrize("edit", ["out_of_time_order", "duplicate_across_blocks"])
def test_verify_rejects_flux_csv_read_across_blocks(tmp_path, capsys, monkeypatch, edit):
    from jumpflow import evolution

    cfg = write_config(tmp_path, dict(PUNCTURED_GRID, export_flux=True))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    header, *rows = (out / "flux.csv").read_text().splitlines()
    monkeypatch.setattr(evolution, "CSV_BLOCK_LINES", 4 * (header.count(",") + 1))  # 4 rows
    times = [r.split(",")[0] for r in rows]
    if edit == "out_of_time_order":  # the last checkpoint moved to the front
        at, t, found = 2, times[0], times[-1]
        rows = rows[-1:] + rows[:-1]
    else:  # row 3 repeated as row 4, the first of the second block
        at, t, found = 6, times[4], times[3]
        rows = rows[:4] + rows[3:]
    epath = tmp_path / "flux_edited.csv"
    epath.write_text("\n".join([header] + rows) + "\n")
    capsys.readouterr()
    assert main(["verify", "--config", cfg, "--trajectory", str(out / "trajectory.csv"),
                 "--flux", str(epath), "--out", str(tmp_path / "vout")]) == 2
    err = capsys.readouterr().err
    assert "config error at flux" in err
    assert f"flux CSV line {at} (expected t={t}) has t={found}" in err
    assert not (tmp_path / "vout").exists()


@pytest.mark.parametrize("edit", ["middle_line_deleted", "last_checkpoint_deleted",
                                  "last_column_deleted"])
def test_verify_flux_rejects_an_incomplete_file(tmp_path, capsys, edit):
    # a missing value is not zero flux: the file must hold every coupling edge
    # at every checkpoint
    cfg = write_config(tmp_path, dict(PUNCTURED_GRID, export_flux=True))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    header, *rows = (out / "flux.csv").read_text().splitlines()
    n_edges = coupling_of(PUNCTURED_GRID).edges[0].size
    n_times = len((out / "trajectory.csv").read_text().splitlines()) - 1
    assert len(rows) == n_times
    if edit == "middle_line_deleted":  # one cell of the middle row
        m = len(rows) // 2
        fields = rows[m].split(",")
        expected = (f"flux CSV line {m + 2} (expected t={fields[0]}) has {n_edges} fields, "
                    f"not E+1 = {n_edges + 1}")
        rows[m] = ",".join(fields[:n_edges // 2] + fields[n_edges // 2 + 1:])
    elif edit == "last_checkpoint_deleted":
        expected = f"K+1 = {n_times} rows after its header; it has {n_times - 1}"
        rows = rows[:-1]
    else:  # every row one value short: each parsed block has the one, wrong width
        expected = f"flux CSV line 2 (expected t=0) has {n_edges} fields, not E+1 = {n_edges + 1}"
        rows = [r.rsplit(",", 1)[0] for r in rows]
    epath = tmp_path / "flux_edited.csv"
    epath.write_text("\n".join([header] + rows) + "\n")
    capsys.readouterr()
    assert main(["verify", "--config", cfg, "--trajectory", str(out / "trajectory.csv"),
                 "--flux", str(epath), "--out", str(tmp_path / "vout")]) == 2
    err = capsys.readouterr().err
    assert "config error at flux" in err and expected in err
    assert not (tmp_path / "vout").exists()


def test_verify_flux_rejects_the_earlier_line_per_edge_layout(tmp_path, capsys, flux_read_error):
    from jumpflow.evolution import trajectory_from_csv

    # flux.csv of earlier versions: a 't,i,j,w' line per coupling edge per checkpoint
    cfg = write_config(tmp_path, dict(TWO_POINT, export_flux=True))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rows = [r.split(",") for r in (out / "flux.csv").read_text().splitlines()[1:]]
    epath = tmp_path / "flux_old.csv"
    epath.write_text("t,i,j,w\n" + "".join(f"{t},0,1,{w}\n" for t, w in rows))
    capsys.readouterr()
    assert main(["verify", "--config", cfg, "--trajectory", str(out / "trajectory.csv"),
                 "--flux", str(epath), "--out", str(tmp_path / "vout")]) == 2
    err = capsys.readouterr().err
    assert "config error at flux: flux CSV has the 't,i,j,w' layout of earlier versions" in err
    assert "`jumpflow run` with export_flux rewrites it in the current layout" in err
    assert not (tmp_path / "vout").exists()
    message = flux_read_error(epath, trajectory_from_csv(out / "trajectory.csv"),
                              coupling_of(TWO_POINT))
    assert message in err and message.startswith("flux CSV has the 't,i,j,w' layout")


def test_run_and_verify_flux_build_the_coupling_graph_once(tmp_path, monkeypatch):
    # the edges and the component labels belong to the coupling: each is built
    # on first use and then read by evolve, the certificates and the flux I/O
    import functools

    from jumpflow import spaces

    builds = dict.fromkeys(["coupling", "edges", "labels"], 0)
    made = spaces.coupling

    def coupling(*args):
        builds["coupling"] += 1
        return made(*args)

    monkeypatch.setattr(spaces, "coupling", coupling)
    for name in ("edges", "labels"):
        def counted(self, build=getattr(spaces.Coupling, name).func, name=name):
            builds[name] += 1
            return build(self)

        prop = functools.cached_property(counted)
        prop.__set_name__(spaces.Coupling, name)
        monkeypatch.setattr(spaces.Coupling, name, prop)
    cfg = write_config(tmp_path, dict(PUNCTURED_GRID, export_flux=True, integrator=None))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert builds == {"coupling": 1, "edges": 1, "labels": 1}
    assert main(["verify", "--config", cfg, "--trajectory", str(out / "trajectory.csv"),
                 "--flux", str(out / "flux.csv"), "--out", str(tmp_path / "vout")]) == 0
    assert builds == {"coupling": 2, "edges": 2, "labels": 2}


def test_verify_flux_of_a_linear_export_builds_no_store(tmp_path, monkeypatch):
    # a linear flux file is checked block by block and certified as the
    # trajectory alone; flux_from_csv, which builds the (K+1, E) store, is not called
    from jumpflow import evolution

    def no_store(*args):
        raise AssertionError("flux_from_csv called on a linear flux file")

    cfg = write_config(tmp_path, dict(PUNCTURED_GRID, export_flux=True))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    monkeypatch.setattr(evolution, "flux_from_csv", no_store)
    traj = ["--trajectory", str(out / "trajectory.csv")]
    for extra in (["--flux", str(out / "flux.csv")], []):
        vout = tmp_path / f"verify{len(extra)}"
        assert main(["verify", "--config", cfg, *traj, *extra, "--out", str(vout)]) == 0
        assert (vout / "ledger.json").read_bytes() == (out / "ledger.json").read_bytes()


@pytest.fixture(scope="module")
def fuzz_export(tmp_path_factory):
    """A directory with config.json and run/, the config's run with flux export."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = write_config(root, dict(DEFAULT_GRID["vacuum"], export_flux=True))
    assert main(["run", "--config", cfg, "--out", str(root / "run")]) == 0
    return root


# each value replaces one field: no number, non-finite, near the float range,
# subnormal and a negative zero
FUZZ_VALUES = ["abc", "", "0x1p3", "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "-0"]
FUZZ_EDITS = ["empty", "truncated", "short_row", "long_row", "duplicated", "missing", "extra",
              "header_renamed", "header_dropped"] + FUZZ_VALUES


def mutated(text, edit, row, col):
    """``text``, a CSV of a header and rows, with one of FUZZ_EDITS at row
    ``row`` and field ``col`` (each taken modulo the count)."""
    if edit == "empty":
        return ""
    header, *rows = text.splitlines()
    r = row % len(rows)
    fields = rows[r].split(",")
    c = col % len(fields)
    if edit == "truncated":  # the file ends inside row r
        return "\n".join([header] + rows[:r] + [rows[r][:1 + c % (len(rows[r]) - 1)]])
    if edit in ("header_renamed", "header_dropped"):
        names = header.split(",")
        names[c:c + 1] = ["x"] if edit == "header_renamed" else []
        header = ",".join(names)
    elif edit == "duplicated":
        rows.insert(r, rows[r])
    elif edit == "missing":
        del rows[r]
    elif edit == "extra":
        rows.append(rows[r])
    else:
        fields[c:c + 1] = {"short_row": [], "long_row": [fields[c], "0"]}.get(edit, [edit])
        rows[r] = ",".join(fields)
    return "\n".join([header] + rows) + "\n"


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(target=st.sampled_from(["trajectory", "flux"]), edit=st.sampled_from(FUZZ_EDITS),
       row=st.integers(0, 1000), col=st.integers(0, 10), with_flux=st.booleans())
def test_verify_fuzzed_input_files_exit_0_2_or_3(fuzz_export, target, edit, row, col, with_flux):
    # a malformed or extreme trajectory.csv or flux.csv exits 0, 2 or 3 and never
    # raises; exit 2 names the file at fault and writes no ledger.json.  Values
    # near the float range overflow with a RuntimeWarning, as they do in `run`
    with tempfile.TemporaryDirectory(dir=fuzz_export) as d:
        paths = {}
        for name in ("trajectory", "flux"):
            text = (fuzz_export / "run" / f"{name}.csv").read_text()
            paths[name] = os.path.join(d, f"{name}.csv")
            with open(paths[name], "w") as fh:
                fh.write(mutated(text, edit, row, col) if name == target else text)
        argv = ["verify", "--config", str(fuzz_export / "config.json"),
                "--trajectory", paths["trajectory"], "--out", os.path.join(d, "vout")]
        if with_flux or target == "flux":
            argv[-2:-2] = ["--flux", paths["flux"]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (0, 2, 3)
        assert not caught or (edit in ("1e308", "-1e308")
                              and all(w.category is RuntimeWarning for w in caught))
        if code == 2:
            assert re.match("config error at (trajectory|flux): ", err.getvalue())
            assert target == "trajectory" or "at flux" in err.getvalue()
            assert not os.path.exists(os.path.join(d, "vout", "ledger.json"))


def test_edgeless_coupling_writes_and_verifies_a_header_only_flux(tmp_path):
    # E = 0: no edge carries flux, so the file is the t header and each
    # checkpoint's t alone
    cfg = write_config(tmp_path, {
        "schema": 1,
        "space": {"type": "graph", "points": [0.0, 1.0, 2.0],
                  "dist": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
                  "pi": [0.25, 0.5, 0.25]},
        "kernel": {"type": "matrix", "rates": [[0.0] * 3] * 3},
        "triple": "cosh",
        "initial": {"type": "vector", "values": [2.0, 0.5, 1.0]},
        "T": 1.0,
        "integrator": {"checkpoints": 8},
        "export_flux": True,
    })
    out, vout = tmp_path / "out", tmp_path / "vout"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    times = [r.split(",")[0] for r in (out / "trajectory.csv").read_text().splitlines()[1:]]
    assert (out / "flux.csv").read_text() == "t\n" + "".join(t + "\n" for t in times)
    assert main(["verify", "--config", cfg, "--trajectory", str(out / "trajectory.csv"),
                 "--flux", str(out / "flux.csv"), "--out", str(vout)]) == 0
    assert (vout / "ledger.json").read_bytes() == (out / "ledger.json").read_bytes()


def test_atomic_write_leaves_nothing_when_a_chunk_raises(tmp_path):
    from jumpflow.cli import atomic_write

    def chunks():
        yield "t,u_0\n"
        yield "0,1\n" * 10000
        raise RuntimeError("chunk failed")

    target = tmp_path / "trajectory.csv"
    with pytest.raises(RuntimeError, match="chunk failed"):
        atomic_write(target, chunks())
    assert list(tmp_path.iterdir()) == []
    target.write_text("kept\n")
    with pytest.raises(RuntimeError, match="chunk failed"):
        atomic_write(target, chunks())
    assert [p.name for p in tmp_path.iterdir()] == ["trajectory.csv"]
    assert target.read_text() == "kept\n"


def test_malformed_config_exit_code_and_path(tmp_path, capsys):
    bad = dict(TWO_POINT)
    bad["space"] = {"type": "grid", "a": -1.0, "b": 1.0}  # n missing
    cfg = write_config(tmp_path, bad)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "space.n" in err
    assert not (tmp_path / "o").exists() or not list((tmp_path / "o").iterdir())


@pytest.mark.parametrize("kind,values", [
    ("file", "2.0,abc"),
    ("file", "2.0,-4"),
    ("file", "nan,0.0"),
    ("vector", ["2.0", "abc"]),
])
def test_initial_values_rejected_as_schema_errors(tmp_path, capsys, kind, values):
    if kind == "file":
        data = tmp_path / "u0.csv"
        data.write_text(values + "\n")
        initial, key = {"type": "file", "path": str(data)}, "path"
    else:
        initial, key = {"type": "vector", "values": values}, "values"
    cfg = write_config(tmp_path, dict(TWO_POINT, initial=initial))
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert f"config error at initial.{key}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("column,value", [(1, "nan"), (1, "inf"), (0, "nan")],
                         ids=["nan_density", "inf_density", "nan_time"])
def test_verify_rejects_a_non_finite_trajectory(tmp_path, capsys, column, value):
    cfg = write_config(tmp_path, TWO_POINT)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    header, *rows = (out / "trajectory.csv").read_text().splitlines()
    fields = rows[5].split(",")
    fields[column] = value
    rows[5] = ",".join(fields)
    broken = tmp_path / "broken.csv"
    broken.write_text("\n".join([header] + rows) + "\n")
    capsys.readouterr()
    assert main(["verify", "--config", cfg, "--trajectory", str(broken),
                 "--out", str(tmp_path / "vout")]) == 2
    assert "config error at trajectory" in capsys.readouterr().err
    assert not (tmp_path / "vout").exists()


@pytest.mark.parametrize("shift", ["plus_7", "first_minus_1e308"])
def test_verify_rejects_times_that_do_not_run_from_0_to_T(tmp_path, capsys, shift):
    # each verified Balanced/Reflecting or Neither with exit 0: the times were
    # checked against each other but not against the config
    cfg = write_config(tmp_path, TWO_POINT)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    header, *rows = (out / "trajectory.csv").read_text().splitlines()
    rows = [r.split(",", 1) for r in rows]
    if shift == "plus_7":
        rows = [(repr(float(t) + 7.0), u) for t, u in rows]
    else:
        rows[0][0] = "-1e308"
    broken = tmp_path / "shifted.csv"
    broken.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")
    capsys.readouterr()
    assert main(["verify", "--config", cfg, "--trajectory", str(broken),
                 "--out", str(tmp_path / "vout")]) == 2
    first = "7" if shift == "plus_7" else "-1e+308"
    last = "9" if shift == "plus_7" else "2"
    assert (f"config error at trajectory: times must run from 0 to the config's T = 2, "
            f"not from {first} to {last}") in capsys.readouterr().err
    assert not (tmp_path / "vout").exists()


@pytest.mark.parametrize("T,bound", [(1e308, "<= 1e+100"), (1e-300, ">= 1e-100")])
def test_run_refuses_a_T_the_time_quadrature_cannot_take(tmp_path, capsys, T, bound):
    # 1e308 raised OverflowError in the quadrature's cubes, 1e-300 a ValueError
    # from a time grid whose log-midpoints underflowed to 0: exit 1, a traceback
    out = tmp_path / "o"
    assert main(["run", "--config", write_config(tmp_path, dict(TWO_POINT, T=T, integrator=None)),
                 "--out", str(out)]) == 2
    assert f"config error at config.T: must be {bound}" in capsys.readouterr().err
    assert not out.exists()


OVERFLOW = {
    "schema": 1,
    "space": {"type": "grid", "a": -1.0, "b": 1.0, "n": 4},
    "kernel": {"type": "fractional", "s": 0.6},
    "triple": "cosh",
    "initial": {"type": "step", "left": 1.7e308, "right": 1.0, "split": 0.0},
    "T": 1.0,
}


def assert_neither_with_string_battery(path):
    # JSON has no NaN or infinity: a non-finite continuity entry, nested two
    # deep, is written as a string like the top-level values
    doc = json.loads(path.read_text())
    assert doc["verdict"] == "Neither"
    battery = doc["flags"]["continuity"]
    strings = [v for v in battery.values() if isinstance(v, str)]
    assert strings and set(strings) <= {"nan", "inf", "-inf"}
    assert all(isinstance(v, (str, float)) for v in battery.values())


def test_run_reports_a_non_finite_battery_entry_near_the_float_range(tmp_path):
    cfg = write_config(tmp_path, OVERFLOW)
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["ledger.json", "trajectory.csv"]
    assert_neither_with_string_battery(out / "ledger.json")


def test_verify_reports_a_non_finite_battery_entry_near_the_float_range(tmp_path):
    cfg = write_config(tmp_path, OVERFLOW)
    traj = tmp_path / "trajectory.csv"
    traj.write_text("t,u_0,u_1,u_2,u_3\n"
                    + "".join(f"{t},1.7e308,1.7e308,1.7e308,1.7e308\n" for t in (0.0, 0.5, 1.0)))
    out = tmp_path / "vout"
    with pytest.warns(RuntimeWarning):
        assert main(["verify", "--config", cfg, "--trajectory", str(traj),
                     "--out", str(out)]) == 0
    assert os.listdir(out) == ["ledger.json"]
    assert_neither_with_string_battery(out / "ledger.json")


GRID8 = {
    "schema": 1,
    "space": {"type": "grid", "a": -1.0, "b": 1.0, "n": 8},
    "kernel": {"type": "fractional", "s": 0.6},
    "triple": "cosh",
    "initial": {"type": "constant", "value": 1.0},
    "T": 0.5,
}
HUGE = 10**30  # no n x n or (K+1) x n float array of this size can be indexed


def with_leaf(cfg, keys, value):
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return cfg


@pytest.mark.parametrize("cfg,path", [
    (with_leaf(GRID8, ["space", "b"], -2.0), "space"),
    (with_leaf(GRID8, ["space", "b"], -1.0), "space"),
    (with_leaf(TWO_POINT, ["space", "dist"], [[0.0, {}], [1.0, 0.0]]), "space"),
    (with_leaf(TWO_POINT, ["space", "pi"], [0.5, {}]), "space"),
    (with_leaf(TWO_POINT, ["kernel", "rates"], [[0.0, {}], [1.0, 0.0]]), "kernel.rates"),
    (with_leaf(TWO_POINT, ["space", "points"], float("nan")), "space"),
    (with_leaf(TWO_POINT, ["space", "points"], [0.0, float("nan")]), "space"),
    (with_leaf(GRID8, ["space", "n"], HUGE), "space.n"),
    (with_leaf(GRID8, ["space"], {"type": "torus", "n": HUGE}), "space.n"),
    (with_leaf(GRID8, ["integrator"], {"checkpoints": HUGE}), "integrator.checkpoints"),
], ids=["grid_a_above_b", "grid_a_equals_b", "graph_dist_object", "graph_pi_object",
        "matrix_rates_object", "graph_scalar_points", "graph_nan_point", "grid_n_huge",
        "torus_n_huge",
        "checkpoints_huge"])
def test_malformed_space_kernel_and_sizes_exit_2(tmp_path, capsys, cfg, path):
    # each of these exited 1 with a traceback: build_grid's ValueError, float()'s
    # TypeError, an IndexError on 0-d points, and numpy's "Maximum allowed size";
    # a NaN graph point was taken, and gave a NaN battery member and exit 0
    out = tmp_path / "o"
    assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert f"config error at {path}:" in capsys.readouterr().err
    assert not out.exists()


# a 3-state graph with a matrix kernel, the fuzz test's matrix config on Euler
EULER3 = {"schema": 1,
          "space": {"type": "graph", "points": [0.0, 1.0, 2.0],
                    "dist": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
                    "pi": [0.25, 0.5, 0.25]},
          "kernel": {"type": "matrix", "rates": [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5],
                                                 [0.0, 1.0, 0.0]]},
          "triple": "quadratic", "initial": {"type": "vector", "values": [2.0, 0.5, 1.0]},
          "T": 1.0, "integrator": {"method": "euler"}}


@pytest.mark.parametrize("cfg,count", [
    (with_leaf(EULER3, ["integrator", "dt"], 1e-300), "1e+300"),
    (with_leaf(EULER3, ["T"], 1e30), "1.111e+30"),
    # on a fixed grid: the default grid's eigendecomposition of a 1e308 rate
    # warns before Euler's count is reached, as with method expm
    (with_leaf(with_leaf(EULER3, ["kernel", "rates", 0, 1], 1e308),
               ["integrator", "checkpoints"], 4), "5.556e+307"),
], ids=["dt_1e-300", "T_1e30", "rate_1e308"])
def test_euler_step_count_past_the_cap_exits_2(tmp_path, capsys, cfg, count):
    # defect: each of these ran Euler's step loop for 1e30 steps or more
    out = tmp_path / "o"
    t0 = time.perf_counter()
    assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"config error at config.integrator: explicit Euler would take "
                          f"{count} steps"), err
    assert not out.exists()


@pytest.mark.parametrize("key,cfg", [
    ("config.export_flux", dict(TWO_POINT, export_flux="false")),
    ("integrator.graded_start", dict(TWO_POINT, integrator={"graded_start": "false"})),
], ids=["export_flux", "graded_start"])
def test_config_flags_must_be_json_booleans(tmp_path, capsys, key, cfg):
    out = tmp_path / "o"
    assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert f"config error at {key}: expected a boolean" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,name", [("--checkpoints", "0", "checkpoints"),
                                             ("--checkpoints", "-3", "checkpoints"),
                                             ("--checkpoints", str(HUGE), "checkpoints"),
                                             ("--seed", "-1", "seed")])
def test_run_overrides_rejected_as_schema_errors(tmp_path, capsys, flag, value, name):
    cfg = write_config(tmp_path, TWO_POINT)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out), flag, value]) == 2
    assert f"config error at {name}:" in capsys.readouterr().err
    assert not out.exists()


# small configs of each kind the validator reads: a cut grid, a sweep, a flux
# export, a graph with a matrix kernel.  Each is drawn with either integrator
# method; a huge T or rate makes Euler's step count exceed its cap (exit 2)
FUZZ_CONFIGS = {
    "grid": dict(GRID8, kernel={"type": "fractional", "s": 0.6, "cutoff": 0.1}, seed=1,
                 tol_rel=1e-4),
    "sweep": {"schema": 1, "space": {"type": "grid", "a": -1.0, "b": 1.0, "n": 6},
              "kernel": {"type": "fractional", "s": 0.75,
                         "mask": {"type": "punctured", "split": 0.0}},
              "triple": "cosh", "initial": {"type": "step", "left": 1.5, "right": 0.5},
              "T": 0.1, "integrator": {"method": "expm", "checkpoints": 8},
              "sweep": {"eps_list": [0.1, 0.01]}},
    "flux": dict(PUNCTURED_GRID, space={"type": "grid", "a": -1.0, "b": 1.0, "n": 6},
                 initial={"type": "vector", "values": [2.0, 2.0, 1.0, 0.5, 0.5, 0.0]},
                 integrator={"checkpoints": 8, "graded_start": False}, export_flux=True),
    "matrix": {"schema": 1,
               "space": {"type": "graph", "points": [0.0, 1.0, 2.0],
                         "dist": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
                         "pi": [0.25, 0.5, 0.25]},
               "kernel": {"type": "matrix", "rates": [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5],
                                                      [0.0, 1.0, 0.0]]},
               "triple": "quadratic", "initial": {"type": "vector", "values": [2.0, 0.5, 1.0]},
               "T": 1.0, "integrator": {"method": "expm", "checkpoints": 4}},
}
# a leaf becomes each of these: another type, non-finite, near the float range,
# a negative or unindexably large integer; a list is emptied, shortened or made ragged
FUZZ_LEAVES = ["abc", True, None, {}, [], float("nan"), float("inf"), float("-inf"),
               1e308, -1e308, -3, HUGE]
FUZZ_LISTS = ["empty", "short", "ragged"]


def config_paths(node, path=()):
    """The key paths of every leaf and every list under ``node``."""
    if not isinstance(node, (dict, list)):
        return [path]
    items = node.items() if isinstance(node, dict) else enumerate(node)
    paths = [path] if isinstance(node, list) else []
    return paths + [p for k, v in items for p in config_paths(v, path + (k,))]


def node_at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(sorted(FUZZ_CONFIGS)), method=st.sampled_from(["expm", "euler"]),
       edit=st.sampled_from(FUZZ_LEAVES + FUZZ_LISTS), pick=st.integers(0, 1000))
def test_run_and_sweep_fuzzed_configs_exit_0_2_or_3(tmp_path_factory, name, method, edit, pick):
    # a mutated config exits 0, 2 or 3 and never raises; exit 2 names a config
    # path.  Values near the float range overflow with a RuntimeWarning
    cfg = FUZZ_CONFIGS[name]
    cfg = dict(cfg, integrator=dict(cfg.get("integrator", {}), method=method))
    lists = isinstance(edit, str) and edit in FUZZ_LISTS
    paths = [p for p in config_paths(cfg) if p]
    if lists:  # a config without lists has each leaf made a list of itself
        paths = [p for p in paths if isinstance(node_at(cfg, p), list)] or paths
    path = paths[pick % len(paths)]
    value = edit
    if lists:
        old = node_at(cfg, path)
        old = old if isinstance(old, list) else [old]
        last = old[-1] + [0.0] if isinstance(old[-1], list) else [old[-1]]
        value = {"empty": [], "short": old[:-1], "ragged": old[:-1] + [last]}[edit]
    cfg = with_leaf(cfg, path, value)
    d = tmp_path_factory.mktemp("config_fuzz")
    argv = ["sweep" if name == "sweep" else "run", "--config", write_config(d, cfg),
            "--out", str(d / "out")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 2, 3), (path, value, err.getvalue())
    assert not caught or (edit in (1e308, -1e308)
                          and all(w.category is RuntimeWarning for w in caught)), \
        (path, value, [str(w.message) for w in caught])
    if code == 2:
        assert re.match(r"config error at (config|space|kernel|initial|integrator)\b",
                        err.getvalue()), (path, value, err.getvalue())


def test_unknown_key_rejected(tmp_path, capsys):
    bad = dict(TWO_POINT)
    bad["unexpected"] = 1
    cfg = write_config(tmp_path, bad)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unexpected" in capsys.readouterr().err


def test_run_torus_config(tmp_path):
    cfg = write_config(tmp_path, {
        "schema": 1,
        "space": {"type": "torus", "n": 16},
        "kernel": {"type": "fractional", "s": 0.5, "cutoff": 0.01},
        "triple": "quadratic",
        "initial": {"type": "constant", "value": 1.0},
        "T": 0.25,
        "integrator": {"method": "matrix_exponential", "checkpoints": 64},
    })
    out = tmp_path / "torus"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    verdict = json.loads((out / "ledger.json").read_text())["verdict"]
    assert verdict == "Balanced/Reflecting"


def test_run_certifies_components_of_nonzero_mask_split(tmp_path):
    cfg = write_config(tmp_path, {
        "schema": 1,
        "space": {"type": "grid", "a": -1.0, "b": 1.0, "n": 40},
        "kernel": {"type": "fractional", "s": 0.75,
                   "mask": {"type": "punctured", "split": 0.5}},
        "triple": "cosh",
        "initial": {"type": "step", "left": 2.0, "right": 0.5, "split": 0.0},
        "T": 0.5,
        "integrator": {"checkpoints": 128},
    })
    out = tmp_path / "split"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    invariants = json.loads((out / "ledger.json").read_text())["invariants"]
    assert invariants["component_mass_ok"], invariants


TUNNEL = {
    "schema": 1,
    "space": {"type": "grid", "a": -1.0, "b": 1.0, "n": 200},
    "kernel": {"type": "fractional", "s": 0.75, "mask": {"type": "punctured", "split": 0.0}},
    "triple": "cosh",
    "initial": {"type": "step", "left": 2.0, "right": 0.5, "split": 0.0},
    "T": 0.5,
}


def tunnel_config(n=200):
    return dict(TUNNEL, space=dict(TUNNEL["space"], n=n))


def tunnel_trajectory(path, kappa, n=200):
    """tunnel_config(n)'s start evolved on its punctured coupling plus a tunnel
    of weight kappa on the one edge across the split, (n/2 - 1, n/2), written
    to ``path`` as trajectory.csv."""
    from jumpflow import spaces
    from jumpflow.cli import parse_run_config
    from jumpflow.densities import canonical_triple
    from jumpflow.evolution import evolve, trajectory_csv_text

    cfg = tunnel_config(n)
    parsed = parse_run_config(cfg)
    coup = coupling_of(cfg)
    theta = coup.theta.copy()
    theta[n // 2 - 1, n // 2] = theta[n // 2, n // 2 - 1] = kappa
    tunnel = spaces.Coupling(theta=theta, detailed_balance_residual=0.0, pi=coup.pi,
                             metric=coup.metric)
    traj = evolve(tunnel, canonical_triple("cosh"), parsed["u0"], parsed["T"],
                  tol_rel=parsed["tol_rel"])
    path.write_text("".join(trajectory_csv_text(traj)))
    return traj


def verify_ledger(tmp_path, cfg, tpath):
    """ledger.json of `verify` on the trajectory file ``tpath``, which must exit 0."""
    vout = tmp_path / "vout"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--trajectory", str(tpath),
                 "--out", str(vout)]) == 0
    return json.loads((vout / "ledger.json").read_text())


@pytest.mark.parametrize("kappa,verdict", [(0.0, "Balanced/Reflecting"), (1e-6, "Dissipative"),
                                           (1e-5, "Neither")])
def test_verify_reaches_every_verdict_from_a_tunnelled_trajectory(tmp_path, kappa, verdict):
    # certified against the punctured config, a crossing of the split is seen
    # by the component class (RCE) and by the chain rule; the Lipschitz class
    # sees it only through its O(h) jump, so kappa = 1e-6 stays within the
    # continuity gate (Dissipative), and kappa = 1e-5 does not (Neither)
    tpath = tmp_path / "trajectory.csv"
    assert tunnel_trajectory(tpath, kappa).times.size <= 40
    ledger = verify_ledger(tmp_path, TUNNEL, tpath)
    assert ledger["verdict"] == verdict
    assert ledger["invariants"]["component_mass_ok"] == (kappa == 0.0)


@pytest.mark.parametrize("n", [100, 200, 400])
def test_lipschitz_class_sees_a_crossing_through_its_jump_of_h(tmp_path, n):
    # the step jumps by 1 across the tunnel, a 1-Lipschitz function by at most
    # the spacing h = 2/n: the crossing moves a net mass m across the gap h
    # between the components' paths, which the class value charges 2 h m (2
    # max_t), against the step's spread m, so ce / component_step is 2h.  At
    # kappa = 1e-5 the crossing's defect (ce about 6e-8) stands far above the
    # grid's continuity quadrature error (budget 1e-9 of the mass)
    tpath = tmp_path / "trajectory.csv"
    tunnel_trajectory(tpath, 1e-5, n)
    ledger = verify_ledger(tmp_path, tunnel_config(n), tpath)
    step = ledger["flags"]["continuity"]["component_step"]
    assert ledger["ce_residual"] / step == pytest.approx(2.0 * 2.0 / n, rel=0.05)


def matrix_twin(cfg):
    """``cfg`` with its kernel written out as a `matrix` kernel of the same rates."""
    from jumpflow.cli import parse_run_config

    rates = parse_run_config(cfg)["kernel"].rates
    return dict(cfg, kernel={"type": "matrix", "rates": rates.tolist()})


@pytest.mark.parametrize("kappa,verdict", [(0.0, "Balanced/Reflecting"), (1e-7, "Dissipative"),
                                           (1e-6, "Dissipative")])
def test_matrix_kernel_certifies_the_components_of_its_punctured_twin(tmp_path, kappa, verdict):
    # the step and the component masses come from the coupling, not from the
    # kernel type: the punctured rates written as a matrix give the same ledger.
    # At kappa = 1e-7 only the component class sees the crossing (rce 1.8e-7,
    # ce 1.1e-9), so a ledger without it would read Balanced/Reflecting
    tpath = tmp_path / "trajectory.csv"
    tunnel_trajectory(tpath, kappa)
    texts = []
    for name, cfg in [("punctured", TUNNEL), ("matrix", matrix_twin(TUNNEL))]:
        (tmp_path / name).mkdir()
        ledger = verify_ledger(tmp_path / name, cfg, tpath)
        assert ledger["verdict"] == verdict, name
        assert ledger["invariants"]["component_mass_ok"] == (kappa == 0.0), name
        assert "component_step" in ledger["flags"]["continuity"], name
        texts.append((tmp_path / name / "vout" / "ledger.json").read_bytes())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("n,split,eps", [(200, 0.0, None), (200, 0.0, 1e-4), (40, 0.5, None)])
def test_punctured_components_are_the_sides_of_the_split(n, split, eps):
    # the coupling's labels keep the outputs of the punctured configs: two
    # components, the first exactly the states left of the split
    kernel = {"type": "fractional", "s": 0.75, "mask": {"type": "punctured", "split": split},
              "cutoff": eps}
    coup = coupling_of(dict(tunnel_config(n), kernel=kernel))
    assert coup.labels.max() == 1
    assert np.array_equal(coup.labels == 0, coup.metric[0] < split)


def test_state_on_the_split_is_a_component_of_its_own(tmp_path):
    # at odd n the middle state sits at x = 0: the punctured mask keeps no pair
    # of it, so it is a third component and the ledger reports its step
    n = 41
    coup = coupling_of(tunnel_config(n))
    assert coup.metric[0][n // 2] == 0.0
    assert np.array_equal(np.flatnonzero(coup.labels == 1), [n // 2]) and coup.labels.max() == 2
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dict(tunnel_config(n), integrator={"checkpoints": 64}))
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    ledger = json.loads((out / "ledger.json").read_text())
    assert ledger["verdict"] == "Balanced/Reflecting"
    assert ledger["invariants"]["component_mass_ok"]
    assert {"component_step", "component_step_1"} <= set(ledger["flags"]["continuity"])


def block_rates(blocks, n):
    rates = np.zeros((n, n))
    for block in blocks:
        rates[np.ix_(block, block)] = 1.0
    np.fill_diagonal(rates, 0.0)
    return rates


THREE_BLOCKS = {
    "schema": 1,
    "space": {"type": "graph", "points": list(range(6)),
              "dist": [[abs(i - j) for j in range(6)] for i in range(6)], "pi": [1.0 / 6] * 6},
    "kernel": {"type": "matrix", "rates": block_rates([[0, 1], [2, 3], [4, 5]], 6).tolist()},
    "triple": "cosh",
    "initial": {"type": "vector", "values": [2.0, 0.5, 1.5, 0.2, 0.8, 1.0]},
    "T": 1.0,
}


def test_three_components_need_two_steps(tmp_path):
    # k = 3 components take k - 1 = 2 steps: the first alone cannot see mass
    # moving between the second and the third block
    from jumpflow import spaces
    from jumpflow.densities import canonical_triple
    from jumpflow.evolution import RCE_TOL, evolve, trajectory_csv_text

    cfg = write_config(tmp_path, THREE_BLOCKS)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    ledger = json.loads((out / "ledger.json").read_text())
    assert ledger["verdict"] == "Balanced/Reflecting"
    assert ledger["invariants"]["component_mass_ok"]
    steps = {k for k in ledger["flags"]["continuity"] if k.startswith("component_step")}
    assert steps == {"component_step", "component_step_1"}

    coup = coupling_of(THREE_BLOCKS)
    theta = coup.theta.copy()
    theta[3, 4] = theta[4, 3] = 0.05
    leaky = spaces.Coupling(theta=theta, detailed_balance_residual=0.0, pi=coup.pi)
    traj = evolve(leaky, canonical_triple("cosh"), np.array(THREE_BLOCKS["initial"]["values"]),
                  THREE_BLOCKS["T"])
    tpath = tmp_path / "trajectory.csv"
    tpath.write_text("".join(trajectory_csv_text(traj)))
    ledger = verify_ledger(tmp_path, THREE_BLOCKS, tpath)
    continuity = ledger["flags"]["continuity"]
    assert continuity["component_step"] <= RCE_TOL < continuity["component_step_1"]
    assert not ledger["invariants"]["component_mass_ok"]
    assert not ledger["rce_ok"]


def test_time_reversed_trajectory_fails_the_edi(tmp_path):
    # the tunnelled n = 200, kappa = 1e-6 solution run backwards: its entropy
    # increases, so the inequality fails (its linear flux now runs against the
    # motion, so the continuity equation too) and the verdict is Neither, exit 0
    from jumpflow.evolution import Trajectory, trajectory_csv_text

    traj = tunnel_trajectory(tmp_path / "forward.csv", 1e-6)
    back = Trajectory(times=traj.T - traj.times[::-1], densities=traj.densities[::-1])
    assert back.times[0] == 0.0 and back.times[-1] == traj.T
    tpath = tmp_path / "trajectory.csv"
    tpath.write_text("".join(trajectory_csv_text(back)))
    ledger = verify_ledger(tmp_path, TUNNEL, tpath)
    assert ledger["verdict"] == "Neither"
    assert not ledger["edi_ok"] and not ledger["invariants"]["entropy_monotone_ok"]


@pytest.mark.parametrize("base", [DEFAULT_GRID["vacuum"], DEFAULT_GRID["uncut"]],
                         ids=["vacuum", "uncut"])
def test_split_path_chain_spread_is_the_edb_spread(tmp_path, base):
    # on the linear flux of a canonical triple the chain rule integrates the
    # ledger's own integrand: the two spreads are one number, also through
    # verify --flux
    cfg = write_config(tmp_path, dict(base, export_flux=True))
    out, vout = tmp_path / "out", tmp_path / "vout"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["verify", "--config", cfg, "--trajectory", str(out / "trajectory.csv"),
                 "--flux", str(out / "flux.csv"), "--out", str(vout)]) == 0
    for d in (out, vout):
        ledger = json.loads((d / "ledger.json").read_text())
        assert ledger["flags"]["chain_spread"] == ledger["max_edb_residual"] > 0.0


def test_cli_csv_outputs_end_in_one_newline(tmp_path):
    out = tmp_path / "probe"
    assert main(["probe", "--s", "0.75", "--deltas", "0.2,0.1", "--n", "64",
                 "--out", str(out)]) == 0
    text = (out / "probe_s0.75_n64.csv").read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")


def test_sweep_command(tmp_path):
    cfg_dict = {
        "schema": 1,
        "space": {"type": "grid", "a": -1.0, "b": 1.0, "n": 16},
        "kernel": {"type": "fractional", "s": 0.75,
                   "mask": {"type": "punctured", "split": 0.0}},
        "triple": "cosh",
        "initial": {"type": "step", "left": 1.5, "right": 0.5, "split": -0.5},
        "T": 0.3,
        "integrator": {"checkpoints": 64},
        "sweep": {"eps_list": [1e-1, 1e-2, 1e-3]},
    }
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "sweep_n16.json").read_text())
    assert payload["strictly_decreasing"]
    csv = (out / "sweep_n16.csv").read_text().splitlines()
    assert csv[0] == "eps,l1_gap_to_next,edb_residual_rel"
    assert len(csv) == 4


@pytest.mark.parametrize("eps_list", [[0.001, 0.1], [0.1, float("nan")],
                                      [float("inf"), 0.1]])
def test_sweep_rejects_bad_eps_list(tmp_path, capsys, eps_list):
    cfg = write_config(tmp_path, {
        "schema": 1,
        "space": {"type": "grid", "a": -1.0, "b": 1.0, "n": 8},
        "kernel": {"type": "fractional", "s": 0.75},
        "triple": "cosh",
        "initial": {"type": "step", "left": 1.5, "right": 0.5, "split": 0.0},
        "T": 0.1,
        "integrator": {"checkpoints": 16},
        "sweep": {"eps_list": eps_list},
    })
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert "config error at config.sweep.eps_list:" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("path,edit", [
    ("config.tol_rel", {"tol_rel": 1e-12}),
    ("config.export_flux", {"export_flux": True}),
    ("config.kernel.cutoff", {"kernel": {"type": "fractional", "s": 0.75, "cutoff": 0.5}}),
], ids=["tol_rel", "export_flux", "cutoff"])
def test_sweep_refuses_the_keys_it_would_drop(tmp_path, capsys, path, edit):
    # the sweep sets each cutoff from eps_list, and robustness_sweep takes no
    # tolerance and writes no flux: these keys would change nothing
    cfg = {
        "schema": 1,
        "space": {"type": "grid", "a": -1.0, "b": 1.0, "n": 8},
        "kernel": {"type": "fractional", "s": 0.75},
        "triple": "cosh",
        "initial": {"type": "step", "left": 1.5, "right": 0.5, "split": 0.0},
        "T": 0.1,
        "integrator": {"checkpoints": 16},
        "seed": 4,
        "sweep": {"eps_list": [1e-1, 1e-2]},
    }
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    out = tmp_path / "refused"
    assert main(["sweep", "--config", write_config(tmp_path, dict(cfg, **edit)),
                 "--out", str(out)]) == 2
    assert f"config error at {path}:" in capsys.readouterr().err
    assert not out.exists()


def test_outputs_have_the_umask_mode(tmp_path):
    # open() would create the files 0644 under umask 022; atomic_write must too
    cfg = write_config(tmp_path, dict(TWO_POINT, export_flux=True))
    out = tmp_path / "out"
    old = os.umask(0o022)
    try:
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    for name in ("trajectory.csv", "flux.csv", "ledger.json"):
        assert stat.S_IMODE((out / name).stat().st_mode) == 0o644, name


def test_probe_command(tmp_path):
    out = tmp_path / "probe"
    assert main(["probe", "--s", "0.75", "--deltas", "0.2,0.1,0.05", "--n", "256",
                 "--out", str(out)]) == 0
    payload = json.loads((out / "probe_s0.75_n256.json").read_text())
    assert payload["slope"] < 0


def test_lift_command(tmp_path):
    out = tmp_path / "lift"
    assert main(["lift", "--m", "2", "--N", "2", "--out", str(out)]) == 0
    payload = json.loads((out / "lift_m2_N2.json").read_text())
    assert payload["verdict"]["ok"]
    assert payload["configs"] == 3


@pytest.mark.parametrize("argv,name", [
    (["probe", "--s", "0.75", "--n", "0"], "n"),
    (["probe", "--s", "0.75", "--n", "-4"], "n"),
    (["probe", "--s", "1.5", "--n", "64"], "s"),
    (["probe", "--s", "0.75", "--n", "64", "--deltas", "0.2,nan"], "deltas"),
    (["probe", "--s", "0.75", "--n", "64", "--deltas", "0.2,-0.1"], "deltas"),
    (["probe", "--s", "0.25", "--n", "64", "--deltas", "0.2"], "deltas"),
    (["probe", "--s", "0.75", "--n", "64", "--deltas", "0.2,0.2"], "deltas"),
    (["probe", "--s", "0.75", "--n", "8", "--deltas", "0.2,0.1"], "deltas"),
    (["lift", "--m", "3", "--N", "2", "--s", "1.5"], "s"),
    (["lift", "--m", "3", "--N", "2", "--s", "-1"], "s"),
    (["lift", "--m", "1", "--N", "2"], "lift"),
])
def test_probe_and_lift_reject_bad_arguments(tmp_path, capsys, argv, name):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert f"config error at {name}:" in capsys.readouterr().err
    assert not out.exists()


def test_probe_rejects_equal_widths(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["probe", "--s", "0.6", "--deltas", "0.1,0.1", "--out", str(out)]) == 2
    assert ("config error at deltas: deltas must hold at least two distinct"
            in capsys.readouterr().err)
    assert not out.exists()


def test_numerical_failure_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    from jumpflow import evolution

    def fail(*args, **kwargs):
        raise evolution.NumericalError("propagation produced NaN")

    monkeypatch.setattr(evolution, "evolve", fail)
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, TWO_POINT), "--out", str(out)]) == 3
    assert "numerical failure: propagation produced NaN" in capsys.readouterr().err
    assert not out.exists()


# the jumpflow modules each command may execute, and those it must not: the
# package loads its modules lazily, so a command pays only for what it runs
EXECUTES = {
    "run": (None, {"experiments", "measures"}),
    "verify": (None, {"experiments", "measures"}),
    "sweep": (None, {"measures"}),
    "probe": ({"cli", "experiments", "spaces"}, set()),
    "lift": ({"cli", "experiments", "spaces"}, set()),
}


# numpy.ma is what np.unique would import; numpy.random loads OpenSSL's libcrypto
# through secrets -> hmac -> hashlib -> _hashlib
UNUSED_IMPORTS = ("numpy.ma", "numpy.random", "_hashlib")


@pytest.mark.parametrize("command", sorted(EXECUTES))
def test_each_command_executes_only_the_modules_it_uses(tmp_path, command):
    # a lazily registered module is a LazyLoader subclass of ModuleType until
    # its body runs
    import subprocess
    import sys

    import jumpflow

    cfg = write_config(tmp_path, dict(PUNCTURED_GRID, export_flux=True))
    run = tmp_path / "run"
    if command == "verify":
        assert main(["run", "--config", cfg, "--out", str(run)]) == 0
    argv = {
        "run": ["run", "--config", cfg],
        "verify": ["verify", "--config", cfg, "--trajectory", str(run / "trajectory.csv"),
                   "--flux", str(run / "flux.csv")],
        "sweep": ["sweep", "--config", write_config(tmp_path, dict(
            PUNCTURED_GRID, integrator={"checkpoints": 16}, sweep={"eps_list": [1e-1, 1e-2]}))],
        "probe": ["probe", "--s", "0.75"],
        "lift": ["lift", "--m", "4", "--N", "4"],
    }[command] + ["--out", str(tmp_path / "out")]
    script = (
        "import contextlib, io, json, sys, types\n"
        "from jumpflow.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(json.dumps([[k.split('.')[1] for k, m in sys.modules.items()\n"
        "                   if k.startswith('jumpflow.') and type(m) is types.ModuleType],\n"
        f"                  [m for m in {UNUSED_IMPORTS!r} if m in sys.modules]]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(jumpflow.__file__)))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    executed, imported = json.loads(done.stdout)
    only, never = EXECUTES[command]
    assert "cli" in executed and set(executed) <= (only or set(executed)), executed
    assert set(executed).isdisjoint(never), executed
    assert imported == [], imported


def test_cli_commands_do_not_import_scipy(tmp_path):
    # scipy is only for the transport LP on non-line lift bases, and run,
    # verify and sweep load neither numpy.polynomial nor numpy.random either
    # (the quadrature's Gauss nodes are constants); the tests themselves
    # import them, so the commands run in a fresh interpreter
    import subprocess
    import sys

    import jumpflow

    cfg = write_config(tmp_path, TWO_POINT)
    sweep = write_config(tmp_path, {
        "schema": 1,
        "space": {"type": "grid", "a": -1.0, "b": 1.0, "n": 8},
        "kernel": {"type": "fractional", "s": 0.75},
        "triple": "cosh",
        "initial": {"type": "step", "left": 1.5, "right": 0.5, "split": 0.0},
        "T": 0.1,
        "integrator": {"checkpoints": 16},
        "sweep": {"eps_list": [1e-1, 1e-2]},
    }, name="sweep.json")
    out = str(tmp_path / "out")
    commands = [
        ["run", "--config", cfg, "--out", out],
        ["verify", "--config", cfg, "--trajectory", os.path.join(out, "trajectory.csv"),
         "--out", str(tmp_path / "verify")],
        ["sweep", "--config", sweep, "--out", out],
        ["probe", "--s", "0.75", "--deltas", "0.2,0.1", "--n", "64", "--out", out],
        ["lift", "--m", "3", "--N", "2", "--out", out],
    ]
    script = (
        "import contextlib, io, sys\n"
        "from jumpflow.cli import main\n"
        "def loaded(*roots):\n"
        "    prefixes = tuple(r + '.' for r in roots)\n"
        "    return sorted(m for m in sys.modules if m in roots or m.startswith(prefixes))\n"
        f"for k, argv in enumerate({commands!r}):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    if k == 2:  # after run, verify and sweep\n"
        "        print(loaded('numpy.polynomial', 'numpy.random'))\n"
        "print(loaded('scipy'))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(jumpflow.__file__)))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.split() == ["[]", "[]"], done.stdout
