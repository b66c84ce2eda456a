"""Time integration of the linear jump evolution, its declared flux and the
continuity equation.

Only compatible triples are integrated: for those the flux map reduces to
v - u and the evolution is the linear forward equation du_i/dt =
sum_j (u_j - u_i) theta_ij / pi_i.  The exact exponential is the reference
integrator, applied through one symmetric eigendecomposition per connected
component of the coupling graph; explicit Euler is the cheap cross-check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterator, Optional

import numpy as np

from .densities import DissipationTriple, compat_check
from .quadrature import checkpoint_grid, cumulative_simpson_nonuniform

__all__ = [
    "IncompatibleTripleError", "NumericalError", "IntegratorConfig", "Trajectory",
    "generator", "evolve", "coupling_edges", "continuity_rates",
    "continuity_spreads", "continuity_residual", "concatenate",
    "trajectory_csv_text", "trajectory_from_csv",
    "flux_csv_text", "flux_from_csv",
]

DEFAULT_CHECKPOINT_DENSITY = 512  # checkpoint intervals per unit time


class IncompatibleTripleError(ValueError):
    pass


class NumericalError(RuntimeError):
    pass


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "expm"            # 'expm' or 'euler'
    checkpoints: Optional[int] = None
    dt: Optional[float] = None      # Euler step cap
    cfl_safety: float = 0.9
    graded_start: bool = True

    def __post_init__(self):
        if self.method not in ("expm", "euler"):
            raise ValueError("method must be 'expm' or 'euler'")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")
        if not (0 < self.cfl_safety <= 1):
            raise ValueError("cfl_safety must lie in (0, 1]")

    def n_checkpoints(self, T: float) -> int:
        if self.checkpoints is not None:
            return int(self.checkpoints)
        return max(2, int(round(DEFAULT_CHECKPOINT_DENSITY * T)))


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of the density along a strictly increasing time grid.

    The flux (edge density w of 2j with respect to theta) is declared as
    data: ``flux_store=None`` declares the compatible linear flux
    w_ij = u_i - u_j, the only flux ``evolve`` produces; otherwise the store
    holds one exactly antisymmetric (n, n) snapshot per checkpoint.
    ``linear_flux`` records, once, whether the flux is that linear flux on
    every pair at every checkpoint (exactly; a store one ulp off is not).
    """

    times: np.ndarray               # (K+1,), starts at 0
    densities: np.ndarray           # (K+1, n)
    flux_store: Optional[np.ndarray] = None  # (K+1, n, n) when stored
    meta: dict = field(default_factory=dict)
    linear_flux: bool = field(default=True, init=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        u = np.asarray(self.densities, dtype=float)
        if np.any(np.diff(t) <= 0):
            raise ValueError("checkpoint times must be strictly increasing")
        if u.shape[0] != t.size:
            raise ValueError("one density snapshot per checkpoint required")
        if np.any(u < 0):
            raise ValueError("density snapshots must be nonnegative")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "densities", u)
        # immutable once returned; safe for concurrent readers
        self.times.setflags(write=False)
        self.densities.setflags(write=False)
        if self.flux_store is not None:
            w = np.asarray(self.flux_store, dtype=float)
            if w.shape != (t.size, u.shape[1], u.shape[1]):
                raise ValueError("flux store must hold one (n, n) snapshot per checkpoint")
            linear = True
            for wk, uk in zip(w, u):  # snapshot by snapshot: no second (K+1, n, n) array
                if not np.array_equal(wk, -wk.T):
                    raise ValueError("stored flux snapshots must be exactly antisymmetric")
                linear = linear and np.array_equal(wk, uk[:, None] - uk[None, :])
            object.__setattr__(self, "flux_store", w)
            object.__setattr__(self, "linear_flux", linear)

    @property
    def n(self) -> int:
        return self.densities.shape[1]

    @property
    def T(self) -> float:
        return float(self.times[-1])

    def flux_at(self, k: int) -> np.ndarray:
        """The (n, n) flux snapshot at checkpoint k."""
        return self.edge_flux(k, *np.indices((self.n, self.n)))

    def edge_flux(self, k: int, rows, cols) -> np.ndarray:
        """The flux at checkpoint k on the edges (rows[e], cols[e])."""
        if self.flux_store is not None:
            return self.flux_store[k][rows, cols]
        u = self.densities[k]
        return u[rows] - u[cols]

    def mass(self, pi) -> np.ndarray:
        return self.densities @ np.asarray(pi, dtype=float)


def generator(coup, triple: DissipationTriple, compat_tol: float = 1e-9) -> np.ndarray:
    """Generator matrix of the linear evolution, Q_ij = theta_ij / pi_i.

    Refuses triples that fail the compatibility identity; the nonlinear flux
    map has no solver here.
    """
    if not triple.compatible:
        raise IncompatibleTripleError(f"triple '{triple.name}' is not declared compatible")
    residual = compat_check(triple, samples=256, seed=1)
    if residual > compat_tol:
        raise IncompatibleTripleError(
            f"triple '{triple.name}' fails the compatibility identity (residual {residual:.2e})")
    Q = coup.theta / coup.pi[:, None]
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def _component_labels(adj) -> np.ndarray:
    """Connected components of a symmetric boolean adjacency, numbered in the
    order of their smallest state: a breadth-first search from each state not
    yet reached, so every row of adj is read once."""
    n = adj.shape[0]
    labels = np.full(n, -1)
    c = 0
    for seed in range(n):
        if labels[seed] >= 0:
            continue
        frontier = np.array([seed])
        while frontier.size:
            labels[frontier] = c
            frontier = np.flatnonzero(adj[frontier].any(axis=0) & (labels < 0))
        c += 1
    return labels


def _propagate_spectral(theta, pi, q_diag, u0, times, U) -> None:
    """U[k] = exp(t_k Q) u0 for k >= 1, via eigh of the symmetric S = Pi^(1/2) Q Pi^(-1/2)
    on each coupling component; its top eigenvalue is simple and exactly 0 (Q 1 = 0), so
    it is pinned to 0.  A whole-matrix eigh would mix the components' null eigenvalues."""
    if not np.array_equal(theta, theta.T):
        raise NumericalError("coupling theta is not symmetric (no detailed balance)")
    root, block = np.sqrt(pi), 256  # checkpoint rows per GEMM: temporaries stay O(block n)
    labels = _component_labels(theta > 0)
    for c in range(labels.max() + 1):
        idx = np.flatnonzero(labels == c)
        r = root[idx]
        S = theta[np.ix_(idx, idx)] / np.outer(r, r)
        S[np.diag_indices_from(S)] = q_diag[idx]
        lam, V = np.linalg.eigh(S)
        lam[-1] = 0.0
        coef, back = V.T @ (r * u0[idx]), V.T / r
        for k in range(1, times.size, block):
            U[k:k + block, idx] = (np.exp(times[k:k + block, None] * lam) * coef) @ back


def evolve(coup, triple: DissipationTriple, u0, T: float,
           config: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate the linear evolution from u0 over [0, T].

    'expm' fills every checkpoint from one symmetric eigendecomposition per
    coupling component; 'euler' subdivides every checkpoint interval to
    respect the stability bound dt <= cfl_safety / max_i sum_j theta_ij/pi_i.
    Roundoff negatives are clipped in place; meta['clip_min'] keeps the least.
    """
    u0 = np.asarray(u0, dtype=float)
    if np.any(u0 < 0) or not np.all(np.isfinite(u0)):
        raise NumericalError("initial density must be finite and nonnegative")
    Q = generator(coup, triple)
    times = checkpoint_grid(T, config.n_checkpoints(T), config.graded_start)
    U = np.empty((times.size, u0.size))
    U[0] = u0
    if config.method == "expm":
        _propagate_spectral(coup.theta, coup.pi, np.diag(Q), u0, times, U)
    else:
        rate = float(np.max(-np.diag(Q)))
        dt_max = config.cfl_safety / rate if rate > 0 else np.inf
        if config.dt is not None:
            dt_max = min(dt_max, config.dt)
        for k, dt in enumerate(np.diff(times)):
            steps = max(1, int(np.ceil(dt / dt_max)))
            h = dt / steps
            u = U[k]
            for _ in range(steps):
                u = u + h * (Q @ u)
            U[k + 1] = u
    if not np.all(np.isfinite(U)):
        raise NumericalError("non-finite state encountered during integration")
    clip_min = min(float(U.min()), 0.0)
    np.maximum(U, 0.0, out=U)  # clip roundoff-level negatives
    meta = {"method": config.method, "checkpoints": config.n_checkpoints(T),
            "graded_start": config.graded_start, "triple": triple.name,
            "clip_min": clip_min}
    return Trajectory(times=times, densities=U, meta=meta)


def coupling_edges(theta):
    """The edges i < j with theta_ij > 0 of a symmetric coupling, and their weights."""
    theta = np.asarray(theta, dtype=float)
    if not np.array_equal(theta, theta.T):
        raise ValueError("coupling theta must be symmetric")
    rows, cols = np.nonzero(np.triu(theta > 0, 1))
    return rows, cols, theta[rows, cols]


def continuity_rates(traj: Trajectory, theta, phis) -> np.ndarray:
    """Rate of sum_i phi_i u_i pi_i, (K+1, m) for the columns of ``phis`` (n, m):
    -sum over the edges i < j of w_ij d_ij, d_ij = (phi_i - phi_j) theta_ij, exactly
    zero for a phi constant on each coupling component.  On the linear flux it is
    -u . (L phi), (L phi)_i = sum_j theta_ij (phi_i - phi_j): one GEMM, no flux read."""
    rows, cols, weights = coupling_edges(theta)
    phis = np.asarray(phis, dtype=float)
    d = (phis[rows] - phis[cols]) * weights[:, None]
    if not traj.linear_flux:
        return -np.array([traj.edge_flux(k, rows, cols) @ d for k in range(traj.times.size)])
    lap = np.column_stack([np.bincount(rows, c, traj.n) - np.bincount(cols, c, traj.n)
                           for c in d.T])
    return -(traj.densities @ lap)


def continuity_spreads(traj: Trajectory, theta, phis, pi) -> np.ndarray:
    """Continuity-equation defect spread for each column of ``phis`` (n, m): the
    increment of sum_i phi_i u_i pi_i minus its time-quadratured rate
    (``continuity_rates``) on [s, t], spread over all checkpoint pairs."""
    phis = np.asarray(phis, dtype=float)
    obs = traj.densities @ (phis * np.asarray(pi, dtype=float)[:, None])
    rates = continuity_rates(traj, theta, phis)
    integrals = [cumulative_simpson_nonuniform(traj.times, rate)[0] for rate in rates.T]
    defect = (obs - obs[0]) - np.column_stack(integrals)
    return defect.max(axis=0) - defect.min(axis=0)


def continuity_residual(traj: Trajectory, phi_vals, theta, pi) -> float:
    """Largest continuity-equation defect over all checkpoint pairs [s, t]
    (see ``continuity_spreads``) for one test function."""
    return float(continuity_spreads(traj, theta, np.asarray(phi_vals, dtype=float)[:, None],
                                    pi)[0])


def concatenate(t1: Trajectory, t2: Trajectory) -> Trajectory:
    """Concatenate two trajectories; the joint endpoint densities must match."""
    if t1.n != t2.n:
        raise ValueError("state dimensions differ")
    if not np.array_equal(t1.densities[-1], t2.densities[0]):
        raise ValueError("mismatched endpoint: final density of the first leg "
                         "must equal the initial density of the second")
    times = np.concatenate([t1.times, t1.T + t2.times[1:]])
    densities = np.vstack([t1.densities, t2.densities[1:]])
    store = None
    if t1.flux_store is not None or t2.flux_store is not None:
        store = np.stack([t1.flux_at(k) for k in range(t1.times.size)]
                         + [t2.flux_at(k) for k in range(1, t2.times.size)])
    return Trajectory(times=times, densities=densities, flux_store=store,
                      meta={"concatenated": True})


# ---------------------------------------------------------------------------
# CSV export, 17 significant digits (exact float round trip).  The writers yield
# the text in chunks and the flux reader parses fixed blocks of lines, so the
# CSV never has to sit in memory whole.

CSV_BLOCK_LINES = 1 << 14  # lines per parse of the flux reader, values per trajectory chunk


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def trajectory_csv_text(traj: Trajectory) -> Iterator[str]:
    """The trajectory as a 't,u_0,...' CSV, yielded in chunks of whole rows."""
    yield "t," + ",".join(f"u_{i}" for i in range(traj.n)) + "\n"
    row = ",".join(["%.17g"] * (traj.n + 1)) + "\n"
    rows = max(1, CSV_BLOCK_LINES // (traj.n + 1))
    for s in range(0, traj.times.size, rows):
        block = np.column_stack([traj.times[s:s + rows], traj.densities[s:s + rows]])
        yield (row * block.shape[0]) % tuple(block.ravel().tolist())


def _load_rows(fh, max_rows=None) -> np.ndarray:
    """Up to ``max_rows`` comma-separated rows of an open file as a 2-d float
    array, with no rows (and no loadtxt warning) at the end of the file."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # input contained no data
        return np.loadtxt(fh, delimiter=",", ndmin=2, max_rows=max_rows)


def trajectory_from_csv(path) -> Trajectory:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        n = len(header) - 1
        if n < 1 or header != ["t"] + [f"u_{i}" for i in range(n)]:
            raise ValueError("trajectory CSV must start with a 't,u_0,...' header")
        data = _load_rows(fh)
    if data.shape[0] == 0 or data.shape[1] != n + 1:
        raise ValueError("trajectory CSV needs at least one row of the header's width")
    return Trajectory(times=data[:, 0], densities=data[:, 1:])


def flux_csv_text(traj: Trajectory) -> Iterator[str]:
    """The flux as 't,i,j,w' lines, one per nonzero entry with i < j, yielded one
    checkpoint at a time: the flux is antisymmetric, so `flux_from_csv` restores
    w_ji = -w_ij by mirroring."""
    rows, cols = np.triu_indices(traj.n, 1)
    edges = [f",{i},{j},%.17g\n" for i, j in zip(rows.tolist(), cols.tolist())]
    yield "t,i,j,w\n"
    for k, t in enumerate(traj.times.tolist()):
        w = traj.edge_flux(k, rows, cols)
        nonzero = w != 0
        if nonzero.any():
            t_s = _fmt(t)  # each line is t_s + edge, so t_s joins the edge templates
            template = t_s + t_s.join(compress(edges, nonzero.tolist()))
            yield template % tuple(w[nonzero].tolist())


def _flux_entries(data, times, n):
    """Check parsed 't,i,j,w' rows against the trajectory grid and [0, n); return
    each row's checkpoint, its flat index in the (K+1, n, n) store, the flat
    index of its mirror and its value."""
    t, ij, w = data[:, 0], data[:, 1:3], data[:, 3]
    finite = np.isfinite(w)
    if not np.all(finite):
        raise ValueError(f"flux CSV value {_fmt(w[np.argmin(finite)])} is not finite")
    k = np.minimum(np.searchsorted(times, t), times.size - 1)
    off_grid = times[k] != t
    if np.any(off_grid):
        raise ValueError(f"flux CSV time {_fmt(t[np.argmax(off_grid)])} not on the trajectory grid")
    if not np.all((ij == np.round(ij)) & (ij >= 0) & (ij < n)):
        raise ValueError(f"flux CSV state indices must be integers in [0, {n})")
    i, j = ij.astype(np.intp).T
    if np.any(i == j):
        raise ValueError("flux CSV lists a diagonal entry")
    return k, (k * n + i) * n + j, (k * n + j) * n + i, w


def _scatter_flux(store, entries) -> None:
    """Write (flat, mirror, w) entries of whole checkpoints into the flat store:
    w at flat and -w at its mirror, a listed other half overriding the mirror."""
    flat, mirror, w = (np.concatenate(field) for field in zip(*entries))
    ordered = np.sort(flat)  # np.unique is ~60x slower here (numpy 2.4, 1.5 M entries)
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("flux CSV lists a (t, i, j) entry twice")
    store[mirror] = -w
    store[flat] = w


def flux_from_csv(path, traj: Trajectory) -> Trajectory:
    """Attach the flux of a 't,i,j,w' CSV to ``traj`` as a store.  Each entry
    w_ij also sets its mirror w_ji = -w_ij, so the file may list each pair once
    (as `flux_csv_text` writes it) or both halves (the legacy layout); pairs
    not listed are zero.  The file is parsed in blocks of ``CSV_BLOCK_LINES``
    lines, and a checkpoint goes into the store once all of its lines are read,
    so the checkpoints must come in time order (as `flux_csv_text` writes
    them).  Raises ValueError for checkpoints out of time order, a time off
    the trajectory grid (exact float match), a state index outside [0, n), a
    diagonal entry, a non-finite value, a repeated (t, i, j) entry or two
    listed halves of a pair that are not exact negatives (the store would not
    be antisymmetric)."""
    times, n = traj.times, traj.n
    store = np.zeros(times.size * n * n)
    pending, last = [], 0  # entries of checkpoint `last`, which the next block may continue
    with open(path) as fh:
        if fh.readline().strip() != "t,i,j,w":
            raise ValueError("flux CSV must start with the 't,i,j,w' header")
        while True:
            data = _load_rows(fh, CSV_BLOCK_LINES)
            if data.size and data.shape[1] != 4:
                raise ValueError("flux CSV rows must have the four fields t,i,j,w")
            data, end = data.reshape(-1, 4), data.shape[0] < CSV_BLOCK_LINES
            k, *entries = _flux_entries(data, times, n)
            if k.size and (k[0] < last or np.any(k[1:] < k[:-1])):
                raise ValueError("flux CSV must list checkpoints in time order")
            cut = k.size if end else int(np.searchsorted(k, k[-1]))
            if cut or end:
                _scatter_flux(store, pending + [[e[:cut] for e in entries]])
                pending = []
            if end:
                break
            pending.append([e[cut:] for e in entries])
            last = k[-1]
    return Trajectory(times=times, densities=traj.densities,
                      flux_store=store.reshape(times.size, n, n), meta=dict(traj.meta))
