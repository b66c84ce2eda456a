"""CLI contract: schemas, exit codes, determinism, verify round trip."""

import json
import os
import stat

import numpy as np
import pytest
from jumpflow.cli import main

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


@pytest.mark.parametrize("base", [TWO_POINT, PUNCTURED_GRID], ids=["two_point", "punctured"])
def test_verify_flux_round_trip_byte_identical(tmp_path, base):
    cfg = write_config(tmp_path, dict(base, export_flux=True))
    out, vout = tmp_path / "out", tmp_path / "vout"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["verify", "--config", cfg, "--trajectory", str(out / "trajectory.csv"),
                 "--flux", str(out / "flux.csv"), "--out", str(vout)]) == 0
    assert (out / "ledger.json").read_bytes() == (vout / "ledger.json").read_bytes()


def legacy_flux_csv_text(traj):
    """The both-halves layout written before flux.csv listed each pair once:
    one line per nonzero off-diagonal entry, row-major."""
    lines = ["t,i,j,w"]
    for k, t in enumerate(traj.times):
        w, t_s = traj.flux_at(k), format(float(t), ".17g")
        lines += [f"{t_s},{i},{j},{format(float(w[i, j]), '.17g')}"
                  for i, j in zip(*np.nonzero(w)) if i != j]
    lines.append("")
    return "\n".join(lines)


@pytest.mark.parametrize("base", [TWO_POINT, PUNCTURED_GRID], ids=["two_point", "punctured"])
def test_verify_flux_reads_the_legacy_both_halves_layout(tmp_path, base):
    from jumpflow.evolution import flux_from_csv, trajectory_from_csv

    cfg = write_config(tmp_path, dict(base, export_flux=True))
    out, vout = tmp_path / "out", tmp_path / "vout"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    traj = trajectory_from_csv(out / "trajectory.csv")
    legacy = tmp_path / "flux_legacy.csv"
    legacy.write_text(legacy_flux_csv_text(traj))
    n_pairs = len((out / "flux.csv").read_text().splitlines()) - 1
    assert len(legacy.read_text().splitlines()) == 1 + 2 * n_pairs
    np.testing.assert_array_equal(flux_from_csv(legacy, traj).flux_store,
                                  flux_from_csv(out / "flux.csv", traj).flux_store)
    assert main(["verify", "--config", cfg, "--trajectory", str(out / "trajectory.csv"),
                 "--flux", str(legacy), "--out", str(vout)]) == 0
    assert (out / "ledger.json").read_bytes() == (vout / "ledger.json").read_bytes()


def test_verify_flux_one_ulp_off_takes_the_per_edge_pass(tmp_path):
    from jumpflow.evolution import flux_from_csv, trajectory_from_csv

    cfg = write_config(tmp_path, dict(TWO_POINT, export_flux=True))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "flux.csv").read_text()
    header, *rows = text.splitlines()
    # edge {0, 1} at a middle checkpoint, listed once (i < j), one ulp up; the
    # reader mirrors it, so the store stays antisymmetric
    m = len(rows) // 2
    t, i, j, w = rows[m].split(",")
    assert int(i) < int(j) and f"\n{t},{j},{i}," not in text and float(w) != 0.0
    w = float(np.nextafter(float(w), np.inf))
    rows[m] = f"{t},{i},{j},{w!r}"
    epath = tmp_path / "flux_edited.csv"
    epath.write_text("\n".join([header] + rows) + "\n")
    traj = flux_from_csv(epath, trajectory_from_csv(out / "trajectory.csv"))
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
    # zero out every flux entry
    edited = [flux_lines[0]] + [",".join(r.split(",")[:3]) + ",0" for r in flux_lines[1:]]
    epath = tmp_path / "flux_edited.csv"
    epath.write_text("\n".join(edited) + "\n")
    vout = tmp_path / "vout"
    assert main(["verify", "--config", cfg, "--trajectory", str(out / "trajectory.csv"),
                 "--flux", str(epath), "--out", str(vout)]) == 0
    verdict = json.loads((vout / "ledger.json").read_text())["verdict"]
    assert verdict == "Neither"


@pytest.mark.parametrize("edit", ["index_too_large", "negative_index", "diagonal",
                                  "duplicate", "time_off_grid", "not_antisymmetric",
                                  "nan_value", "infinite_pair"])
def test_verify_rejects_malformed_flux_csv(tmp_path, capsys, edit):
    cfg_dict = dict(TWO_POINT, export_flux=True, integrator={"checkpoints": 16})
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    header, first, *rest = (out / "flux.csv").read_text().splitlines()
    t, i, j, w = first.split(",")
    rows = {
        "index_too_large": [first, f"{t},0,2,1.0"],
        "negative_index": [first, f"{t},-1,0,1.0"],
        "diagonal": [first, f"{t},1,1,0.5"],
        "duplicate": [first, first],
        "time_off_grid": [first, f"0.123456789,{i},{j},{w}"],
        # a second half that is not the exact negative of the listed one
        "not_antisymmetric": [first, f"{t},{j},{i},{2.0 * float(w)!r}"],
        # a nan on the one line of its pair
        "nan_value": [f"{t},{i},{j},nan"],
        # exact negatives, both halves listed (the legacy layout), but not finite
        "infinite_pair": [f"{t},{i},{j},inf", f"{t},{j},{i},-inf"],
    }[edit]
    epath = tmp_path / "flux_edited.csv"
    epath.write_text("\n".join([header] + rows + rest) + "\n")
    capsys.readouterr()
    assert main(["verify", "--config", cfg, "--trajectory", str(out / "trajectory.csv"),
                 "--flux", str(epath), "--out", str(tmp_path / "vout")]) == 2
    err = capsys.readouterr().err
    assert "config error at flux" in err
    assert ("not finite" in err) == (edit in ("nan_value", "infinite_pair"))
    assert not (tmp_path / "vout").exists()


@pytest.mark.parametrize("edit", ["out_of_time_order", "duplicate_across_blocks"])
def test_verify_rejects_flux_csv_read_across_blocks(tmp_path, capsys, monkeypatch, edit):
    from jumpflow import evolution

    cfg = write_config(tmp_path, dict(PUNCTURED_GRID, export_flux=True))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    header, *rows = (out / "flux.csv").read_text().splitlines()
    monkeypatch.setattr(evolution, "CSV_BLOCK_LINES", 50)
    if edit == "out_of_time_order":  # the last checkpoint moved to the front
        t_last = rows[-1].split(",")[0] + ","
        last = [r for r in rows if r.startswith(t_last)]
        rows = last + rows[:-len(last)]
    else:  # line 50 repeated as line 51, the first of the second block
        rows = rows[:50] + rows[49:]
    epath = tmp_path / "flux_edited.csv"
    epath.write_text("\n".join([header] + rows) + "\n")
    capsys.readouterr()
    assert main(["verify", "--config", cfg, "--trajectory", str(out / "trajectory.csv"),
                 "--flux", str(epath), "--out", str(tmp_path / "vout")]) == 2
    err = capsys.readouterr().err
    assert "config error at flux" in err
    assert ("time order" if edit == "out_of_time_order" else "twice") in err
    assert not (tmp_path / "vout").exists()


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


@pytest.mark.parametrize("flag,value,name", [("--checkpoints", "0", "checkpoints"),
                                             ("--checkpoints", "-3", "checkpoints"),
                                             ("--seed", "-1", "seed")])
def test_run_overrides_rejected_as_schema_errors(tmp_path, capsys, flag, value, name):
    cfg = write_config(tmp_path, TWO_POINT)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out), flag, value]) == 2
    assert f"config error at {name}:" in capsys.readouterr().err
    assert not out.exists()


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


def test_cli_commands_do_not_import_scipy(tmp_path):
    # scipy is only for the transport LP on non-line lift bases; the tests
    # themselves import it, so the commands run in a fresh interpreter
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
        ["probe", "--s", "0.75", "--deltas", "0.2,0.1", "--n", "64", "--out", out],
        ["sweep", "--config", sweep, "--out", out],
        ["lift", "--m", "3", "--N", "2", "--out", out],
    ]
    script = (
        "import contextlib, io, sys\n"
        "from jumpflow.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(jumpflow.__file__)))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "[]"
