"""Time integration of the linear jump evolution, its declared flux and the
continuity equation.

Only compatible triples are integrated: for those the flux map reduces to
v - u and the evolution is the linear forward equation du_i/dt =
sum_j (u_j - u_i) theta_ij / pi_i.  The exact exponential is the reference
integrator, applied through one symmetric eigendecomposition per connected
component of the coupling graph; explicit Euler is the cheap cross-check.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .densities import DissipationTriple, compat_check
from .quadrature import checkpoint_grid, cumulative_simpson_nonuniform, error_controlled_grid

__all__ = [
    "IncompatibleTripleError", "NumericalError", "StepLimitError", "IntegratorConfig",
    "Trajectory",
    "generator", "evolve", "continuity_rates",
    "continuity_spreads", "continuity_residual", "concatenate",
    "trajectory_csv_text", "trajectory_from_csv",
    "flux_csv_text", "flux_csv_is_linear", "flux_from_csv",
]

# The gates the default grid is chosen for; the ledger applies the same ones.
EDB_TOL_REL = 1e-6   # relative EDB tolerance when none is given
RCE_TOL = 1e-8       # continuity-equation gate, relative to the mass
COMPAT_TOL = 1e-9    # largest compatibility residual `generator` accepts
CFL_SAFETY = 0.9     # Euler steps stay within this fraction of the stability bound
EULER_MAX_STEPS = 10**7  # most Euler steps one `evolve` takes, over all checkpoint intervals
# The default grid's error targets, as fractions of those gates.  On grid and
# torus spaces the continuity estimate is the W1 norm, per coupling component,
# of the error of the rate vector L u: it bounds the defect of every test
# function that is 1-Lipschitz, or constant, on each component, the whole
# battery.  Elsewhere it is the l1 norm, which bounds every |phi| <= 1.
GRID_EDB_FRACTION = 1e-2
GRID_RCE_FRACTION = 1e-1


class IncompatibleTripleError(ValueError):
    pass


class NumericalError(RuntimeError):
    pass


class StepLimitError(ValueError):
    """The integrator config asks explicit Euler for more than EULER_MAX_STEPS steps."""


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "expm"            # 'expm' or 'euler'
    checkpoints: Optional[int] = None
    dt: Optional[float] = None      # Euler step cap
    graded_start: bool = True

    def __post_init__(self):
        if self.method not in ("expm", "euler"):
            raise ValueError("method must be 'expm' or 'euler'")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of the density along a strictly increasing time grid.

    The flux (edge density w of 2j with respect to theta) is declared as
    data: ``flux_store=None`` declares the compatible linear flux
    w_ij = u_i - u_j, the only flux ``evolve`` produces; otherwise the store
    holds one row of w_ij per checkpoint on the edges i < j ``flux_edges`` =
    (rows, cols), those of a coupling's ``edges``; w_ji = -w_ij, and no other
    pair carries flux.  ``linear_flux`` records, once, whether the flux is that
    linear flux on every edge at every checkpoint (a store one ulp off is not).
    """

    times: np.ndarray               # (K+1,), starts at 0
    densities: np.ndarray           # (K+1, n)
    flux_store: Optional[np.ndarray] = None  # (K+1, E) when stored
    flux_edges: Optional[tuple] = None       # (rows, cols) of the store's E edges
    meta: dict = field(default_factory=dict)
    linear_flux: bool = field(default=True, init=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        u = np.asarray(self.densities, dtype=float)
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(u))):
            raise ValueError("checkpoint times and densities must be finite")
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
            rows, cols = (np.asarray(e, dtype=np.intp) for e in self.flux_edges)
            if w.shape != (t.size, rows.size) or cols.shape != rows.shape:
                raise ValueError("flux store must hold one row of its E edges per checkpoint")
            if not np.all((0 <= rows) & (rows < cols) & (cols < u.shape[1])):
                raise ValueError("flux edges must be pairs of states i < j: antisymmetric flux")
            step = max(1, CSV_BLOCK_LINES // max(rows.size, 1))  # temporaries O(CSV_BLOCK_LINES)
            linear = all(np.array_equal(w[k:k + step], u[k:k + step, rows] - u[k:k + step, cols])
                         for k in range(0, t.size, step))
            object.__setattr__(self, "flux_store", w)
            object.__setattr__(self, "flux_edges", (rows, cols))
            object.__setattr__(self, "linear_flux", linear)

    @property
    def n(self) -> int:
        return self.densities.shape[1]

    @property
    def T(self) -> float:
        return float(self.times[-1])

    def stored_flux(self, edges) -> Optional[np.ndarray]:
        """The (K+1, E) store, which must lie on the edges (rows, cols, ...), such
        as a coupling's ``edges``; None for the linear flux, which is u_i - u_j on
        any edge."""
        if self.flux_store is None:
            return None
        if not all(np.array_equal(a, b) for a, b in zip(self.flux_edges, edges)):
            raise ValueError("the flux store lies on other edges than the coupling's")
        return self.flux_store

    def mass(self, pi) -> np.ndarray:
        return self.densities @ np.asarray(pi, dtype=float)


def generator(coup, triple: DissipationTriple) -> np.ndarray:
    """Generator matrix of the linear evolution, Q_ij = theta_ij / pi_i.

    Refuses triples that fail the compatibility identity; the nonlinear flux
    map has no solver here.
    """
    if not triple.compatible:
        raise IncompatibleTripleError(f"triple '{triple.name}' is not declared compatible")
    residual = compat_check(triple, samples=256)
    if residual > COMPAT_TOL:
        raise IncompatibleTripleError(
            f"triple '{triple.name}' fails the compatibility identity (residual {residual:.2e})")
    Q = coup.theta / coup.pi[:, None]
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def _spectral_parts(coup, q_diag, u0) -> list:
    """One eigh of the symmetric S = Pi^(1/2) Q Pi^(-1/2) per coupling component;
    its top eigenvalue is simple and exactly 0 (Q 1 = 0), so it is pinned to 0.
    A whole-matrix eigh would mix the components' null eigenvalues.  Returns
    (states, eigenvalues, coefficients, back) per component: there
    u(t) = (e^(t lam) coef) @ back and, with the coupling Laplacian
    L = diag(theta 1) - theta = -Pi Q, L u(t) = -pi (lam e^(t lam) coef) @ back."""
    root, labels = np.sqrt(coup.pi), coup.labels
    parts = []
    for c in range(labels.max() + 1):
        idx = np.flatnonzero(labels == c)
        if coup.points is not None:  # the states in metric order, for the grid's W1 sums
            idx = idx[np.argsort(coup.points[idx], kind="stable")]
        r = root[idx]
        S = coup.theta[np.ix_(idx, idx)] / np.outer(r, r)
        S[np.diag_indices_from(S)] = q_diag[idx]
        lam, V = np.linalg.eigh(S)
        lam[-1] = 0.0
        parts.append((idx, lam, V.T @ (r * u0[idx]), V.T / r))
    return parts


def _propagate_spectral(parts, times, U) -> None:
    """U[k] = exp(t_k Q) u0 for k >= 1, 256 checkpoint rows per GEMM (temporaries O(256 n)).
    The tail block is padded with t = 0 to 256 rows: BLAS rounds a row by the
    height of its block, and a checkpoint's bits must not depend on K+1."""
    ts = np.zeros(256)
    for k in range(1, times.size, 256):
        rows = min(256, times.size - k)
        ts[:rows] = times[k:k + rows]
        ts[rows:] = 0.0
        for idx, lam, coef, back in parts:
            U[k:k + rows, idx] = ((np.exp(ts[:, None] * lam) * coef) @ back)[:rows]


def _grid_series(parts, coup, triple, u0, rates: bool):
    """The sampler of the default grid: at times ts, the dissipation
    phi'(u) . (L u) (the chain-rule pairing, which the EDB integrates) and,
    with ``rates``, the continuity series, whose quadrature error the grid
    sums in absolute value.  Each test function's rate is -phi . (L u), and
    L u sums to 0 on each coupling component.  With the coupling's ``points``
    (grid and torus spaces) the series is, per component, the cumulative sums
    C of L u in metric order times the gaps dx to the next state: sum |C| dx
    is the W1 norm, the most any function 1-Lipschitz in the path distance
    pairs with, and a function constant on the component pairs with 0.
    Elsewhere it is L u itself, whose l1 norm bounds every |phi| <= 1.
    At t = 0 it takes u0 itself, so a vacant state next to mass gives the
    dissipation its +inf there."""
    lu0 = coup.theta.sum(axis=1) * u0 - coup.theta @ u0
    gaps = [None if coup.points is None else np.diff(coup.points[idx]) for idx, *_ in parts]
    w1 = rates and coup.points is not None

    def sample(ts):
        U, LU = np.empty((ts.size, u0.size)), np.empty((ts.size, u0.size))
        W = np.empty((ts.size, u0.size - len(parts))) if w1 else LU
        at0, col = ts == 0.0, 0
        for (idx, lam, coef, back), dx in zip(parts, gaps):
            e = np.exp(ts[:, None] * lam) * coef
            U[:, idx] = e @ back
            e *= lam  # in place, here and below: the block holds few temporaries
            e = e @ back
            e *= -coup.pi[idx]  # L u on the component
            e[at0] = lu0[idx]
            LU[:, idx] = e
            if w1:  # the last sum is the component's net rate, 0 up to roundoff: dropped
                sums = W[:, col:col + dx.size]
                np.cumsum(e[:, :-1], axis=1, out=sums)
                sums *= dx
                col += dx.size
        del e
        U[at0] = u0
        lam = triple.entropy.dphi_ext(U)  # phi'(0) at a roundoff negative, as after the clip
        with np.errstate(invalid="ignore"):  # +inf and -inf slopes can meet: NaN
            terms = lam * LU
            if not np.all(np.isfinite(lam)):  # an infinite slope against no flux pairs to 0
                terms[LU == 0.0] = 0.0
            dissipation = terms.sum(axis=1)[:, None]
        return [dissipation, W] if rates else [dissipation]

    return sample


def evolve(coup, triple: DissipationTriple, u0, T: float,
           config: IntegratorConfig = IntegratorConfig(),
           tol_rel: Optional[float] = None, *, continuity_grid: bool = True) -> Trajectory:
    """Integrate the linear evolution from u0 over [0, T].

    Without ``config.checkpoints`` the grid is chosen after the
    eigendecomposition by `quadrature.error_controlled_grid`, so that the
    ledger's quadrature error stays within ``GRID_EDB_FRACTION`` of the EDB
    tolerance ``tol_rel`` (relative to the initial entropy; ``EDB_TOL_REL``,
    the ledger's default, when None) and, with ``continuity_grid``, within
    ``GRID_RCE_FRACTION`` of the continuity gate ``RCE_TOL``: in the W1 norm
    per component when the coupling has ``points`` (grid and torus spaces),
    in the l1 norm otherwise (see `_grid_series`).  Without it the
    grid is sized for the EDB alone: for a caller that computes no continuity
    certificate, such as the cutoff sweep.  The Euler cross-check runs on the
    same grid.  With ``config.checkpoints``, the grid is `checkpoint_grid`
    (``graded_start`` applies there).
    'expm' fills every checkpoint from one symmetric eigendecomposition per
    coupling component; 'euler' subdivides every checkpoint interval to
    respect the stability bound dt <= CFL_SAFETY / max_i sum_j theta_ij/pi_i,
    and raises StepLimitError, before any step, when that takes more than
    EULER_MAX_STEPS steps in all.
    Roundoff negatives are clipped in place; meta['clip_min'] keeps the least.
    meta['checkpoints'] is K+1; on the default grid meta['grid_error'] holds
    the final estimates, relative like the gates: 'edb_rel' and, with
    ``continuity_grid``, 'rce_rel'.
    """
    u0 = np.asarray(u0, dtype=float)
    if np.any(u0 < 0) or not np.all(np.isfinite(u0)):
        raise NumericalError("initial density must be finite and nonnegative")
    Q = generator(coup, triple)
    meta = {"method": config.method, "triple": triple.name}
    parts = None
    if config.method == "expm" or config.checkpoints is None:
        parts = _spectral_parts(coup, np.diag(Q), u0)
    if config.checkpoints is None:
        mass = max(float(u0 @ coup.pi), 1e-300)
        energy = max(float(triple.entropy.phi(u0) @ coup.pi), 1e-12 * (1.0 + mass))
        budgets = [GRID_EDB_FRACTION * energy * (EDB_TOL_REL if tol_rel is None else tol_rel)]
        if continuity_grid:
            budgets.append(GRID_RCE_FRACTION * mass * RCE_TOL)
        rate = max(-float(lam[0]) for _, lam, _, _ in parts)
        times, estimates = error_controlled_grid(
            _grid_series(parts, coup, triple, u0, continuity_grid), T, budgets,
            first_step=1.0 / rate if rate > 0 else T)
        meta["grid_error"] = {key: float(e / scale) for key, e, scale
                              in zip(("edb_rel", "rce_rel"), estimates, (energy, mass))}
    else:
        times = checkpoint_grid(T, config.checkpoints, config.graded_start)
        meta["graded_start"] = config.graded_start
    U = np.empty((times.size, u0.size))
    U[0] = u0
    if config.method == "expm":
        _propagate_spectral(parts, times, U)
    else:
        rate = float(np.max(-np.diag(Q)))
        dt_max = CFL_SAFETY / rate if rate > 0 else np.inf
        if config.dt is not None:
            dt_max = min(dt_max, config.dt)
        dts = np.diff(times)
        with np.errstate(divide="ignore", over="ignore"):  # an infinite rate or a tiny dt: inf
            steps = np.maximum(1.0, np.ceil(dts / dt_max))
        total = float(steps.sum())
        if not total <= EULER_MAX_STEPS:
            raise StepLimitError(
                f"explicit Euler would take {total:.4g} steps over the {times.size - 1} "
                f"checkpoint intervals (T, dt and the largest rate set the count), more than "
                f"EULER_MAX_STEPS = {EULER_MAX_STEPS}; method 'expm' takes no steps")
        for k, (dt, m) in enumerate(zip(dts, steps.astype(np.int64))):
            h = dt / m
            u = U[k]
            for _ in range(m):
                u = u + h * (Q @ u)
            U[k + 1] = u
    if not np.all(np.isfinite(U)):
        raise NumericalError("non-finite state encountered during integration")
    clip_min = min(float(U.min()), 0.0)
    np.maximum(U, 0.0, out=U)  # clip roundoff-level negatives
    meta.update(checkpoints=int(times.size), clip_min=clip_min)
    return Trajectory(times=times, densities=U, meta=meta)


def continuity_rates(traj: Trajectory, coup, phis) -> np.ndarray:
    """Rate of sum_i phi_i u_i pi_i, (K+1, m) for the columns of ``phis`` (n, m):
    -sum over the edges i < j of w_ij d_ij, d_ij = (phi_i - phi_j) theta_ij, exactly
    zero for a phi constant on each coupling component.  On the linear flux it is
    -u . (L phi), (L phi)_i = sum_j theta_ij (phi_i - phi_j): one GEMM, no flux read."""
    (rows, cols, weights), store = coup.edges, traj.stored_flux(coup.edges)
    phis = np.asarray(phis, dtype=float)
    d = (phis[rows] - phis[cols]) * weights[:, None]
    if not traj.linear_flux:
        return -(store @ d)
    lap = np.column_stack([np.bincount(rows, c, traj.n) - np.bincount(cols, c, traj.n)
                           for c in d.T])
    return -(traj.densities @ lap)


def continuity_spreads(traj: Trajectory, coup, phis) -> np.ndarray:
    """Continuity-equation defect spread for each column of ``phis`` (n, m): the
    increment of sum_i phi_i u_i pi_i minus its time-quadratured rate
    (``continuity_rates``) on [s, t], spread over all checkpoint pairs."""
    phis = np.asarray(phis, dtype=float)
    obs = traj.densities @ (phis * coup.pi[:, None])
    rates = continuity_rates(traj, coup, phis)
    integrals, _ = cumulative_simpson_nonuniform(traj.times, rates)
    defect = (obs - obs[0]) - integrals
    return defect.max(axis=0) - defect.min(axis=0)


def continuity_residual(traj: Trajectory, phi_vals, coup) -> float:
    """Largest continuity-equation defect over all checkpoint pairs [s, t]
    (see ``continuity_spreads``) for one test function."""
    return float(continuity_spreads(traj, coup, np.asarray(phi_vals, dtype=float)[:, None])[0])


def concatenate(t1: Trajectory, t2: Trajectory) -> Trajectory:
    """Concatenate two trajectories; the joint endpoint densities must match."""
    if t1.n != t2.n:
        raise ValueError("state dimensions differ")
    if not np.array_equal(t1.densities[-1], t2.densities[0]):
        raise ValueError("mismatched endpoint: final density of the first leg "
                         "must equal the initial density of the second")
    times = np.concatenate([t1.times, t1.T + t2.times[1:]])
    densities = np.vstack([t1.densities, t2.densities[1:]])
    store = edges = None
    if t1.flux_store is not None or t2.flux_store is not None:
        rows, cols = edges = (t1 if t1.flux_store is not None else t2).flux_edges
        w1, w2 = (leg.densities[:, rows] - leg.densities[:, cols] if leg.flux_store is None
                  else leg.stored_flux(edges) for leg in (t1, t2))
        store = np.vstack([w1, w2[1:]])
    return Trajectory(times=times, densities=densities, flux_store=store, flux_edges=edges,
                      meta={"concatenated": True})


# ---------------------------------------------------------------------------
# CSV export, 17 significant digits (exact float round trip).  Both CSVs are a
# header and one 't,...' row per checkpoint; the writers yield the text in blocks
# of whole rows and the flux reader parses blocks of rows, so the CSV never has to
# sit in memory whole.

# Values per block of rows (at least one row): the CSV writers' chunks, the flux
# reader's parses and the blocks of `Trajectory`'s linear-flux check; also the
# columns per part of the flux header.
CSV_BLOCK_LINES = 1 << 12


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv_rows(times, values, width: int) -> Iterator[str]:
    """One 't,v_0,...' row of width + 1 values per checkpoint, yielded in blocks of
    max(1, CSV_BLOCK_LINES // (width + 1)) rows; ``values(s, e)`` is the
    (e - s, width) block of the checkpoints s:e."""
    row = ",".join(["%.17g"] * (width + 1)) + "\n"
    step = max(1, CSV_BLOCK_LINES // (width + 1))
    for s in range(0, times.size, step):
        block = np.column_stack([times[s:s + step], values(s, s + step)])
        yield (row * block.shape[0]) % tuple(block.ravel().tolist())


def trajectory_csv_text(traj: Trajectory) -> Iterator[str]:
    """The trajectory as a 't,u_0,...' CSV, yielded in chunks of whole rows."""
    yield "t," + ",".join(f"u_{i}" for i in range(traj.n)) + "\n"
    yield from _csv_rows(traj.times, lambda s, e: traj.densities[s:e], traj.n)


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


def _flux_header(rows, cols) -> Iterator[str]:
    """The flux CSV header without its newline: 't', then ',w_i_j' for each edge
    (rows, cols), in parts of at most CSV_BLOCK_LINES columns."""
    yield "t"
    for s in range(0, rows.size, CSV_BLOCK_LINES):
        edges = zip(rows[s:s + CSV_BLOCK_LINES].tolist(), cols[s:s + CSV_BLOCK_LINES].tolist())
        yield "".join(f",w_{i}_{j}" for i, j in edges)


def flux_csv_text(traj: Trajectory, coup) -> Iterator[str]:
    """The flux as a 't,w_i_j,...' CSV: one w_i_j column per coupling edge i < j
    (``coup.edges``, row-major) and one row per checkpoint, its
    t and then its row of the (K+1, E) store, yielded in blocks of whole rows.
    w_ji = -w_ij is implied and no other pair carries flux.  The linear flux
    u_i - u_j is formed one block of rows at a time."""
    (rows, cols, _), store, U = coup.edges, traj.stored_flux(coup.edges), traj.densities
    yield from _flux_header(rows, cols)
    yield "\n"
    values = ((lambda s, e: U[s:e, rows] - U[s:e, cols]) if store is None
              else (lambda s, e: store[s:e]))
    yield from _csv_rows(traj.times, values, rows.size)


def _check_flux_header(line, rows, cols) -> None:
    """Refuse a header line other than `_flux_header`'s.  The columns, of the
    line and expected, are listed only to name the first wrong one."""
    expected = "".join(_flux_header(rows, cols))
    if line == expected:
        return
    header, columns = line.split(","), expected.split(",")
    if header == ["t", "i", "j", "w"]:
        raise ValueError("flux CSV has the 't,i,j,w' layout of earlier versions, a line per "
                         "coupling edge per checkpoint; `jumpflow run` with export_flux "
                         "rewrites it in the current layout, a 't,w_i_j,...' row per checkpoint")
    c = next(c for c, (a, b) in enumerate(itertools.zip_longest(header, columns)) if a != b)
    if c == len(columns):
        raise ValueError(f"flux CSV header must end after column {c}, t and the E = {rows.size} "
                         f"coupling edges; column {c + 1} is '{header[c]}'")
    edge = f", for coupling edge ({rows[c - 1]}, {cols[c - 1]})" if c else ""
    found = f"'{header[c]}'" if c < len(header) else "missing"
    raise ValueError(f"flux CSV header column {c + 1} must be '{columns[c]}'{edge}; it is {found}")


def _flux_csv_blocks(path, times, rows, cols) -> Iterator[tuple]:
    """The checked rows of a 't,w_i_j,...' flux CSV on the edges (rows, cols):
    (s, w) for each block of max(1, CSV_BLOCK_LINES // (E + 1)) rows, w the
    (e - s, E) values of the checkpoints s:e of ``times``.  The file must be a
    store as `flux_csv_text` writes it: the header names the edges' columns,
    and row k after it is checkpoint k's t and its E values.  Raises
    ValueError, in this order, for a header other than those columns (naming
    the first wrong column), a row without E + 1 fields, a non-finite value, a
    row whose t is not its checkpoint's (exact float match) and, once the file
    is read to its end, a row count other than K+1; a rejected row is named by
    its file line and the t expected there."""
    width = rows.size + 1
    step = max(1, CSV_BLOCK_LINES // width)

    def line(k):  # file line of row k and the t expected there
        at = (f"expected t={_fmt(times[k])}" if k < times.size
              else f"past the K+1 = {times.size} checkpoints")
        return f"flux CSV line {k + 2} ({at})"

    def unparsed(start, reason):  # the first row from row start on that is not E+1 numbers
        with open(path) as fh:
            for k, text in enumerate(itertools.islice(fh, start + 1, None), start):
                fields = text.rstrip("\n").split(",")
                if len(fields) != width:
                    return ValueError(f"{line(k)} has {len(fields)} fields, not E+1 = {width}")
                try:
                    [float(f) for f in fields]
                except ValueError as exc:
                    return ValueError(f"{line(k)}: {exc}")
        return ValueError(f"flux CSV rows from line {start + 2} on: {reason}")

    read = 0  # rows read after the header
    with open(path) as fh:
        _check_flux_header(fh.readline().strip(), rows, cols)
        while True:
            try:
                data = _load_rows(fh, step)
            except ValueError as exc:  # a row of another width, or a field that is no number
                raise unparsed(read, exc) from None
            if not len(data):
                break
            if data.shape[1] != width:
                raise unparsed(read, f"{data.shape[1]} fields each")
            finite = np.isfinite(data)
            if not np.all(finite):
                b, c = np.unravel_index(np.argmin(finite), data.shape)
                raise ValueError(f"{line(read + b)}: value {_fmt(data[b, c])} in column {c + 1} "
                                 "is not finite")
            fit = data[:max(times.size - read, 0)]  # rows past the last checkpoint fail the count
            wrong = fit[:, 0] != times[read:read + len(fit)]
            if np.any(wrong):
                b = np.argmax(wrong)
                raise ValueError(f"{line(read + b)} has t={_fmt(fit[b, 0])}")
            yield read, fit[:, 1:]
            read += len(data)
    if read != times.size:
        raise ValueError(f"flux CSV must have one row per checkpoint, K+1 = {times.size} rows "
                         f"after its header; it has {read}")


def flux_csv_is_linear(path, traj: Trajectory, coup) -> bool:
    """Whether a 't,w_i_j,...' flux CSV holds the linear flux of ``traj`` on the
    coupling's edges: every value w_ij equal to u_i - u_j exactly.
    The file is checked as `flux_from_csv` checks it, with the same ValueErrors,
    one block of rows at a time and with no store.  It stops at the first block
    that is not linear, so a malformed row after it is refused only by
    `flux_from_csv`."""
    rows, cols, _ = coup.edges
    U = traj.densities
    return all(np.array_equal(w, U[s:s + len(w), rows] - U[s:s + len(w), cols])
               for s, w in _flux_csv_blocks(path, traj.times, rows, cols))


def flux_from_csv(path, traj: Trajectory, coup) -> Trajectory:
    """Attach the flux of a 't,w_i_j,...' CSV to ``traj`` as a store on the
    coupling's edges: the checked blocks of `_flux_csv_blocks`, each copied
    into the (K+1, E) store as it is parsed, with its ValueErrors."""
    rows, cols, _ = coup.edges
    store = np.empty((traj.times.size, rows.size))
    for s, w in _flux_csv_blocks(path, traj.times, rows, cols):
        store[s:s + len(w)] = w
    return Trajectory(times=traj.times, densities=traj.densities, flux_edges=(rows, cols),
                      flux_store=store, meta=dict(traj.meta))
