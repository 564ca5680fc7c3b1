"""Discretized reaction-diffusion solver on the electrode wire network.

Independent oracle for the transcendental eigenmode solver, and a full
nonlinear time evolver (diffusion + recombination + generation +
injection drive) built on scipy's stiff Radau IIA integrator with the
exact Jacobian.  The network is the electrode graph of geometry.edges,
the analytic model's: 1-D segments joined with width-weighted flux
matching, pads as lumped nodes carrying the trapping.  The graph is a
tree, so in reverse Cuthill-McKee order every mesh is banded with
kl = ku = 3, and 2 and 2 once a clamped junction leaves the unknowns.
The order and where each stored entry goes in that order's LAPACK band
storage depend only on a matrix's stored pattern, so `_plan` makes them
once per pattern, and meshes of one shape, whatever their rates, reuse
one plan: packing a matrix is then one scatter (`_Plan.band`).  The slow
mode's inverse iteration factors the area-symmetrised generator
W^1/2 (-G) W^-1/2 once by a banded Cholesky.  Each drive piece of the
evolver packs its generator once: the right-hand side's G y is one
banded BLAS product, Radau takes its Jacobian as that band, a banded LU
factors the integrator's linear systems in O(n), and each solve is one
LAPACK call.

The spatial operator is a conservative finite-volume generator G
(dx/dt = G x): with s0 = P = 0 the area-weighted column sums of G vanish
identically, so total QP number is conserved to round-off; Radau's
collocation steps preserve that linear invariant.  `build` assembles G
from whole arrays, one set per chain of cells, sorts its entries into
compressed-column order with one argsort and hands the CSC arrays to one
sparse constructor call, so its Python-level work grows with the chains,
not the nodes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import (InvalidParameterError, InvalidResolutionError,
                     NonConvergenceError, StepSizeUnderflowError, _log_debug,
                     check_finite, check_time_grid)
from .constants import DEFAULT_T_MIN
from .eigenmode import TransportParams, VortexConfig, small_p_rate
from .geometry import DeviceGeometry, edges

if TYPE_CHECKING:
    import scipy.sparse as sp

# Largest mesh `build` assembles, ~140x the 7061 nodes of resolution 800
# on B1.  Memory grows linearly (build plus slowest_mode peak at ~80 MB for
# 1e5 nodes), so a finer request is refused before anything is allocated.
MAX_NODES = 1_000_000

# Inverse power iterations slowest_mode runs before it gives up.
_MAX_ITER = 10_000

# `_plan` keeps the band plans of the last _PLANS stored patterns that have
# at most _PLAN_SIZE rows plus stored entries.  A plan's arrays take 8
# bytes per row and entry, plus 4 (the pattern's int32 indptr and
# indices, its key; the int32 order; one int32 scatter index), so the
# cache holds at most ~4.2 MB; a res-200 mesh's plan is ~57 kB.  A larger
# pattern gets a fresh plan on every call.
_PLANS = 64
_PLAN_SIZE = 8192


@dataclass(frozen=True)
class Discretization:
    """Finite-volume mesh and generator for one device configuration.

    Nodes come in build order: the lumped pad, cross and junction nodes,
    then each chain's interior nodes, with the capacitor arm end nodes
    just before their chains.  The generator stores each diagonal entry
    and both directions of every edge, nothing else, so its nnz is
    n_nodes + 2 * edges; areas[:, None] * generator is symmetric.

    A lumped node's node_segment entry is its own name ("pad_left", ...);
    a chain's interior nodes sit at node_y = dx, 2 dx, ...  geom, vortices
    and tp are build's inputs.

    Immutable after build; a single instance can be shared by concurrent
    slowest_mode / evolve calls, which only read it.  Each instance owns
    its arrays; meshes of one shape share only the cached, read-only band
    plan of their generator's pattern (`_plan`).
    """

    generator: sp.csc_matrix          # dx/dt = generator @ x
    areas: np.ndarray                 # control area per node, m^2
    node_segment: list[str]           # segment name per node
    node_y: np.ndarray                # coordinate along segment, m
    junction_index: int
    geom: DeviceGeometry = field(repr=False)
    vortices: VortexConfig = field(repr=False)
    tp: TransportParams = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return self.areas.size


def build(geom: DeviceGeometry, vortices: VortexConfig, tp: TransportParams,
          resolution: int = 50) -> Discretization:
    """Discretize the device at `resolution` cells per wire length L.

    `resolution` is a whole number >= 10 that gives at most MAX_NODES
    nodes.  Shorter segments get proportionally fewer cells (at least 2).
    Pads are lumped nodes; the vortex trapping N P enters as a linear sink
    on them, normalized by the pad node's control area.  Nodes are
    numbered in creation order; each chain of cells adds its nodes and
    edges as whole arrays.  Generator rates that overflow float64 raise
    InvalidParameterError.
    """
    import scipy.sparse as sp

    if not (math.isfinite(resolution) and float(resolution).is_integer()
            and resolution >= 10):
        raise InvalidResolutionError(
            "resolution must be a whole number >= 10 cells per wire length, "
            f"got {resolution}")
    resolution = int(resolution)
    seg, ys, own_area, half_cells, links = [], [], [], [], []
    index = {}

    def node(name: str, y: float = 0.0) -> int:
        """A lumped node; its area is the half cells of its chains."""
        seg.append(name)
        ys.append([y])
        own_area.append([0.0])
        index[name] = len(seg) - 1
        return index[name]

    def chain(name: str, a: str, b: str, length: float, width: float):
        """Connect vertex a to vertex b through uniform cells of `width`;
        a new end vertex is numbered first, at y = length."""
        a, b = index[a], index[b] if b in index else node(b, length)
        n_cells = max(2, int(round(resolution * length / geom.l_wire)))
        if len(seg) + n_cells > MAX_NODES:
            raise InvalidResolutionError(
                f"resolution {resolution} needs more than {MAX_NODES} mesh "
                "nodes for this geometry")
        dx = length / n_cells
        path = np.arange(len(seg) - 1, len(seg) + n_cells)
        path[[0, -1]] = a, b
        seg.extend([name] * (n_cells - 1))
        ys.append(np.arange(1, n_cells) * dx)
        own_area.append(np.full(n_cells - 1, width * dx))
        links.append((path[:-1], path[1:], np.full(n_cells,
                                                   tp.d * width / dx)))
        half_cells.append(([a, b], 0.5 * width * dx))

    pad_l, pad_r, _, _, junction = map(node, (
        "pad_left", "pad_right", "cross_left", "cross_right", "junction"))
    for segment in edges(geom):
        chain(*segment)

    areas = np.concatenate(own_area)
    for ends, half in half_cells:
        np.add.at(areas, ends, half)
    areas[[pad_l, pad_r]] += geom.s_pad

    # edge (i, j, flux) puts flux / areas[i] at G[i, j] and flux / areas[j]
    # at G[j, i]; the diagonal takes the outflow, s0 and the pad sinks
    i, j, flux = map(np.concatenate, zip(*links))
    n = areas.size
    p = vortices.trapping_power
    with np.errstate(over="ignore", invalid="ignore"):
        diag = -(np.bincount(i, flux, n) + np.bincount(j, flux, n)) / areas \
            - tp.s0
        diag[pad_l] -= vortices.n_left * p / areas[pad_l]
        diag[pad_r] -= vortices.n_right * p / areas[pad_r]
        rates = np.concatenate((flux / areas[i], flux / areas[j], diag))
    if not np.all(np.isfinite(rates)):
        raise InvalidParameterError(
            f"generator rates overflow float64 at resolution {resolution}: "
            f"d = {tp.d:.6g} m^2/s, s0 = {tp.s0:.6g} 1/s, P = {p:.6g} m^2/s")
    # the entries sorted by column, then row, are the CSC arrays: no
    # entry repeats, so this is the matrix a COO conversion would give
    nodes = np.arange(n)
    rows, cols = np.concatenate((i, j, nodes)), np.concatenate((j, i, nodes))
    csc = np.argsort(cols * n + rows, kind="stable")
    indptr = np.zeros(n + 1, np.int32)
    indptr[1:] = np.cumsum(np.bincount(cols, minlength=n))
    gen = sp.csc_matrix((rates[csc], rows[csc].astype(np.int32), indptr),
                        shape=(n, n))
    return Discretization(
        generator=gen, areas=areas, node_segment=seg,
        node_y=np.concatenate(ys), junction_index=junction, geom=geom,
        vortices=vortices, tp=tp)


def slowest_mode(disc: Discretization) -> tuple[float, np.ndarray]:
    """Smallest decay rate of the generator and its spatial mode.

    Inverse power iteration on S = W^1/2 (-G) W^-1/2, W = diag(areas),
    which is symmetric because W G is.  In reverse Cuthill-McKee order S
    is a symmetric band (kd = 3 on the electrode tree).  No eigenvalue of
    S is below s0, so S - sigma I, sigma = max(0, s0 - 32 eps max|diag G|),
    is positive definite beyond round-off; LAPACK's banded Cholesky ?pbtrf
    factors it once and ?pbtrs solves with it, and the iteration converges
    at (lambda1 - sigma) / (lambda2 - sigma) however large s0 is.  ?sbmv on
    the unshifted band gives the Rayleigh quotient, the residual and the
    round-off floor.  The iterate is u = W^1/2 v for the node-order mode
    v, so S's 2-norm is the area-weighted norm of -G.  Once the quotient
    has settled, the iteration stops when the residual meets its bar
    1e-10 lambda + 32 eps max|diag G|, or when it is no smaller than at
    the previous settled iterate: it has stalled at the round-off of the
    solve.  The returned mode is the (strictly positive) slow mode v
    normalized to 1 at the junction node, with round-off noise clipped at
    zero.  Once logging is imported, each converged call logs one DEBUG
    record on the qpdyn.pde_sim logger with the solves, kd, the rate, the
    residual, its bar, whether it stalled and plan_reused, whether an
    earlier call made the generator's band plan (`_plan_of`); its args are
    a dict.  A call that makes its plan says False, and so do both of two
    threads that plan one pattern at once; a call that finds its plan
    while another thread makes one may say False too.

    Raises NonConvergenceError before anything is factored when the
    weak-trapping limit small_p_rate, s = (N_L + N_R) P / A_total + s0, is
    at most 32 eps max|diag G|: the trapping sink is below round-off of
    the diffusion operator, and the message names s.  A failed Cholesky
    factorization, an iterate whose norm leaves the float64 range,
    10 000 iterations without convergence (the message names the last
    residual and its bar) and a converged rate not above the rounding
    error of its Rayleigh quotient raise it too; the last three carry v
    as best_params.
    """
    tp = disc.tp
    total_trapping = disc.vortices.trapping_power * (
        disc.vortices.n_left + disc.vortices.n_right)
    n = disc.n_nodes
    if total_trapping == 0:
        return tp.s0, np.ones(n)
    from scipy.linalg.blas import dsbmv
    from scipy.linalg.lapack import dpbtrf, dpbtrs

    plan, reused = _plan_of(disc.generator)
    order, kd = plan.order, plan.ku
    g_band = plan.band(disc.generator)
    # round-off floors: Rayleigh quotient and residual carry noise of order
    # eps * ||S||, which dwarfs 1e-13 * lambda for a stiff mesh operator
    a_scale = float(np.abs(g_band[kd]).max())
    eps = float(np.finfo(float).eps)
    noise = 32.0 * eps * a_scale
    s_weak = small_p_rate(disc.geom, disc.vortices, tp)
    if s_weak <= noise:
        raise NonConvergenceError(
            "the trapping sink is below round-off of the diffusion "
            f"operator; the weak-trapping limit s = {s_weak:.6g} 1/s applies")

    # S's upper band is G's rows 0..kd, where row k, column j holds
    # G[j - kd + k, j], scaled by root_w[j - kd + k] / root_w[j]; the
    # first kd - k columns are off the matrix and stay -0.  Fortran order,
    # which ?pbtrf and ?sbmv take without a copy.
    root_w = np.sqrt(disc.areas)[order]
    s_band = np.negative(g_band[:kd + 1], order="F")
    for k in range(kd + 1):
        s_band[k, kd - k:] *= root_w[:n - kd + k]
    s_band /= root_w
    shifted = s_band.copy(order="F")
    shifted[kd] -= max(0.0, tp.s0 - noise)  # the diagonal
    factor, info = dpbtrf(shifted)
    # ?pbtrf passes NaN and inf through, as ?gbtrf does
    if info != 0 or not np.isfinite(factor).all():
        raise NonConvergenceError(
            "Cholesky factorization of the symmetrised generator failed: "
            "its banded factor is not positive definite or not finite")

    def mode(u):
        """The node-order mode v = W^-1/2 u of the band-order iterate u."""
        v = np.empty(n)
        v[order] = u / root_w
        return v

    def residual(s_u, u, lam):
        """The residual ||S u - lam u|| / ||u||, which is the weighted
        residual of (lam, v), and the bar it must meet."""
        resid = s_u - lam * u
        return (math.sqrt(float(resid @ resid) / float(u @ u)),
                1e-10 * abs(lam) + noise)

    w_sum = float(disc.areas.sum())
    u = root_w  # v = 1
    lam_prev = r_prev = math.inf
    for solves in range(1, _MAX_ITER + 1):
        u = dpbtrs(factor, u)[0]
        with np.errstate(over="ignore"):  # checked just below
            norm = math.sqrt(float(u @ u) / w_sum)
        if not 0.0 < norm < math.inf:
            raise NonConvergenceError(
                f"inverse power iteration: the iterate's norm ({norm}) left "
                "the float64 range", best_params=mode(u))
        u /= norm
        s_u = dsbmv(kd, 1.0, s_band, u)
        lam = float(u @ s_u) / float(u @ u)
        if abs(lam - lam_prev) <= 1e-13 * abs(lam) + 4.0 * eps * a_scale:
            rnorm, bar = residual(s_u, u, lam)
            if rnorm <= bar or rnorm >= r_prev:  # met, or stalled at round-off
                break
            r_prev = rnorm
        lam_prev = lam
    else:
        rnorm, bar = residual(s_u, u, lam)
        raise NonConvergenceError(
            f"inverse power iteration did not converge in {_MAX_ITER} "
            f"iterations: the last weighted residual {rnorm:.6g} 1/s is "
            f"above its bar 1e-10 lambda + 32 eps max|diag G| = {bar:.6g} "
            "1/s", best_params=mode(u), best_cost=lam)
    _log_debug(
        __name__, "slowest mode: %(solves)d solves, kd = %(kd)d; rate "
        "%(rate).6g 1/s, residual %(residual).6g 1/s, bar %(bar).6g 1/s, "
        "stalled %(stalled)s",
        lambda: {"solves": solves, "kd": kd, "rate": lam, "residual": rnorm,
                 "bar": bar, "stalled": rnorm > bar, "plan_reused": reused})
    # rounding error of the Rayleigh quotient: 32 eps (|u|, |S| |u|) / (u, u)
    floor = 32.0 * eps * float(
        abs(u) @ dsbmv(kd, 1.0, abs(s_band), abs(u))) / float(u @ u)
    v = mode(u)
    if not lam > floor:
        raise NonConvergenceError(
            f"slowest rate {lam:.6g} 1/s is not above the round-off floor "
            f"{floor:.6g} 1/s of its Rayleigh quotient",
            best_params=v, best_cost=lam)
    if v[disc.junction_index] < 0:
        v = -v
    v = np.where(np.abs(v) < 1e-14 * np.max(np.abs(v)), 0.0, v)
    return lam, v / v[disc.junction_index]


@dataclass(frozen=True)
class EvolveSpec:
    """Time-evolution request for the full nonlinear system.

    r, g            : recombination and generation rates of the local
                      dynamics, applied at every node
    t_grid          : strictly increasing output times, starting at >= 0
    x_init          : initial density, scalar (uniform) or per-node array
    injection_rate  : constant density source (1/s) on the junction node
                      while t < t_inj
    injection_density : if set, the junction node is instead clamped to
                      this density while t < t_inj (fixed-density drive)
    t_inj           : injection pulse length, s

    A spec has at most one drive, a nonzero injection_rate or an
    injection_density, and a drive needs t_inj > 0.
    """

    r: float
    g: float
    t_grid: tuple
    x_init: object = 0.0
    injection_rate: float = 0.0
    injection_density: float | None = None
    t_inj: float = 0.0

    def __post_init__(self):
        for name in ("r", "g", "x_init", "injection_rate",
                     "injection_density", "t_inj"):
            v = getattr(self, name)
            if v is not None:
                check_finite(name, v, ">=")
        clamp = self.injection_density is not None
        if self.injection_rate and clamp:
            raise InvalidParameterError(
                "injection_rate and injection_density are two drives; "
                "give one")
        if (self.injection_rate or clamp) and not self.t_inj:
            raise InvalidParameterError("a drive needs t_inj > 0")
        check_time_grid("t_grid", self.t_grid, from_zero=True)


class _Plan(NamedTuple):
    """The band plan of one stored pattern: its reverse Cuthill-McKee
    order (Cuthill & McKee 1969), where each stored entry goes in that
    order's LAPACK band storage (a flat index into the band's Fortran
    order, int32, read-only like the order) and the band widths kl, ku.
    On the electrode tree kl = ku = 3, and 2 and 2 once a clamped junction
    leaves the unknowns."""

    order: np.ndarray
    index: np.ndarray
    kl: int
    ku: int

    def band(self, a: sp.csc_matrix) -> np.ndarray:
        """a, which has this plan's pattern, in LAPACK band storage in the
        plan's order: entry (i, j) of a[order][:, order] sits at row
        ku + i - j, column j, of kl + ku + 1 rows in Fortran order, and
        unstored entries hold 0.  Rows 0..ku hold the upper triangle, row
        ku the diagonal: for a symmetric pattern (kd = ku) they are
        ?pbtrf's and ?sbmv's upper band."""
        out = np.zeros((a.shape[1], self.kl + self.ku + 1))
        out.reshape(-1)[self.index] = a.data
        return out.T


def _new_plan(indptr: np.ndarray, indices: np.ndarray) -> _Plan:
    """The `_Plan` of the square CSC pattern (indptr, indices)."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    n = indptr.size - 1
    order = reverse_cuthill_mckee(sp.csc_matrix(
        (np.ones(indices.size), indices, indptr), shape=(n, n)),
        symmetric_mode=True)
    rank = np.argsort(order)  # node order[k] goes to position k
    row = rank[indices]
    col = rank[np.repeat(np.arange(n), np.diff(indptr))]
    offset = row - col
    kl, ku = int(max(offset.max(), 0)), int(max(-offset.min(), 0))
    index = (col * (kl + ku + 1) + ku + offset).astype(np.int32)
    order.flags.writeable = index.flags.writeable = False
    return _Plan(order, index, kl, ku)


@functools.lru_cache(maxsize=_PLANS)
def _plan(shape: tuple, dtypes: str, indptr: bytes, indices: bytes) -> _Plan:
    """The cached plan of one CSC pattern, keyed on its shape, index dtypes
    and index bytes: equal keys are equal patterns."""
    return _new_plan(np.frombuffer(indptr, dtypes[:3]),
                     np.frombuffer(indices, dtypes[3:]))


def _plan_of(a: sp.csc_matrix) -> tuple[_Plan, bool]:
    """The band plan of a's stored pattern, and whether an earlier call
    made it (`_plan`'s miss count stood still): `_plan`'s for at most
    _PLAN_SIZE rows plus stored entries, else a fresh one."""
    if a.shape[0] + a.nnz > _PLAN_SIZE:
        return _new_plan(a.indptr, a.indices), False
    misses = _plan.cache_info().misses
    plan = _plan(a.shape, a.indptr.dtype.str + a.indices.dtype.str,
                 a.indptr.tobytes(), a.indices.tobytes())
    return plan, _plan.cache_info().misses == misses


@functools.cache
def _banded_radau():
    """scipy's Radau IIA with its linear algebra in LAPACK band storage.

    The class is made on first use, so that importing pde_sim loads no
    scipy.integrate.  Radau keeps its step control, Newton iteration and
    the caller's exact Jacobian; only the matrices change form.  The
    solver takes the band widths kl and ku as options, and `jac(t, y)`
    returns the Jacobian as ?gbtrf takes it, `_Plan.band`'s storage below
    kl fill-in rows (`_solve_piece` hands over all three).
    `_validate_jac` takes that band past Radau's (n, n) check; the first
    one reaches Radau's `__init__` as a sparse view, so Radau makes an O(n)
    sparse identity, never its dense n x n one.  Radau's own
    `MU / h * I - J` then forms the band matrix that ?gbtrf factors, and
    each solve is one ?gbtrs call on the right-hand side in place: every
    caller of `solve_lu` in Radau passes a temporary.
    """
    import scipy.sparse as sp
    from scipy.integrate import Radau

    class BandedRadau(Radau):
        def __init__(self, fun, t0, y0, t_bound, kl, ku, **options):
            from scipy.linalg.lapack import dgbtrf, dgbtrs, zgbtrf, zgbtrs

            self.kl, self.ku = kl, ku
            super().__init__(fun, t0, y0, t_bound, **options)
            self.J = self.J.data  # the band under the sparse view

            def lu(a):
                self.nlu += 1
                trf, trs = (zgbtrf, zgbtrs) if np.iscomplexobj(a) else \
                    (dgbtrf, dgbtrs)
                factor, piv, info = trf(a, kl, ku, overwrite_ab=True)
                # ?gbtrf passes NaN and inf through where SuperLU stops
                if info != 0 or not np.isfinite(factor).all():
                    raise RuntimeError(
                        "banded LU factor is singular or not finite")
                return trs, factor, piv

            def solve_lu(lu, b):
                trs, factor, piv = lu
                return trs(factor, kl, ku, b, piv, overwrite_b=True)[0]

            self.I = np.zeros_like(self.J)
            self.I[kl + ku] = 1.0
            self.lu, self.solve_lu = lu, solve_lu

        def _validate_jac(self, jac, sparsity):
            """The band Jacobian jac(t, y), counted as Radau counts it,
            and its first value as a dia_matrix view of the band."""
            def banded(t, y, _=None):
                self.njev += 1
                return jac(t, y)

            band = banded(self.t, self.y)
            offsets = self.kl + self.ku - np.arange(band.shape[0])
            return banded, sp.dia_matrix((band, offsets),
                                         shape=(self.n, self.n))

    return BandedRadau


def _solve_piece(disc: Discretization, spec: EvolveSpec, x: np.ndarray,
                 t0: float, t_eval: np.ndarray, tol: float, scale: float,
                 driven: bool) -> np.ndarray:
    """Radau IIA solve of one drive piece, from state x at t0 to t_eval[-1].

    dy/dt = G y - r y^2 + g, plus the junction drive when `driven`; the
    absolute tolerance is 1e-3 * tol * scale.  The piece's generator (the
    full one, or the clamped one without the junction) is packed once, in
    its plan's order (`_plan_of`): the unknowns enter the integrator in
    that order, G y is one BLAS ?gbmv on the band, Radau's Jacobian is
    that band below ?gbtrf's kl fill-in rows, minus 2 r y on its diagonal
    row, and the states come back in node order.  Returns the
    (n_nodes, n_times) states at t_eval, clipped at zero, and logs one
    DEBUG record on the qpdyn.pde_sim logger with the interval, the
    unknowns, the band widths, Radau's counts and plan_reused, whether an
    earlier call made the band plan of the piece's generator; its args are
    a dict.  A call that makes its plan says False, and so do both of two
    threads that plan one pattern at once; a call that finds its plan
    while another thread makes one may say False too.
    Float overflow is not left to numpy's warnings: the failed solve it
    causes raises StepSizeUnderflowError naming the piece, r and the
    density scale.
    """
    from scipy.integrate import solve_ivp
    from scipy.linalg.blas import dgbmv

    gen, jj, r = disc.generator, disc.junction_index, spec.r
    src = np.full(x.size, spec.g)
    clamp = driven and spec.injection_density is not None
    keep = np.arange(x.size)
    overflow = []
    with np.errstate(over="call", invalid="ignore", divide="ignore",
                     call=lambda err, flag: overflow.append(err)):
        if clamp:  # the clamped junction leaves the unknowns
            keep = keep[keep != jj]
            src[keep] += spec.injection_density \
                * gen[keep, jj].toarray().ravel()
            gen = gen[keep][:, keep]
        elif driven:
            src[jj] += spec.injection_rate
        plan, reused = _plan_of(gen)
        order, kl, ku = keep[plan.order], plan.kl, plan.ku
        src, n = src[order], order.size
        gen_band = plan.band(gen)
        # the Jacobian's band: gen_band below ?gbtrf's kl fill-in rows
        padded = np.zeros((2 * kl + ku + 1, n), order="F")
        padded[kl:] = gen_band

        def fun(t, y):
            return dgbmv(n, n, kl, ku, 1.0, gen_band, y) - r * y * y + src

        def jac(t, y):  # G - 2 r diag(y)
            out = padded.copy(order="F")
            out[kl + ku] -= 2.0 * r * y
            return out

        try:
            sol = solve_ivp(fun, (t0, t_eval[-1]), x[order],
                            method=_banded_radau(), t_eval=t_eval, jac=jac,
                            kl=kl, ku=ku, rtol=tol,
                            atol=1e-3 * tol * scale or np.finfo(float).tiny)
            _log_debug(
                __name__, "piece [%(t0).6g, %(t1).6g] s: %(unknowns)d "
                "unknowns, kl = %(kl)d, ku = %(ku)d; Radau nfev %(nfev)d, "
                "njev %(njev)d, nlu %(nlu)d, status %(status)d",
                lambda: {"t0": t0, "t1": float(t_eval[-1]), "unknowns": n,
                         "kl": kl, "ku": ku, "nfev": sol.nfev,
                         "njev": sol.njev, "nlu": sol.nlu,
                         "status": sol.status, "plan_reused": reused})
            why = None if sol.success else sol.message
        except RuntimeError as exc:  # banded LU: singular or not finite
            why = str(exc)
    if why is not None:
        if overflow:
            why = (f"float64 overflow with r = {r:.6g} 1/s, density scale "
                   f"{scale:.6g} and generator rates up to "
                   f"{abs(gen.diagonal()).max():.6g} 1/s")
        raise StepSizeUnderflowError(
            f"stiff integrator failed on the {'' if driven else 'un'}driven "
            f"piece [{t0:.6g}, {t_eval[-1]:.6g}] s: {why}")
    ys = np.empty((x.size, t_eval.size))
    ys[order] = np.maximum(sol.y, 0.0)
    if clamp:
        ys[jj] = spec.injection_density
    return ys


def evolve(disc: Discretization, spec: EvolveSpec, tol: float = 1e-8):
    """Integrate the full nonlinear system; return junction density at t_grid.

    dx/dt = G x - r x^2 + g (+ the junction drive) is integrated by scipy's
    Radau IIA with the exact Jacobian G - 2 r diag(x), one solve per drive
    piece, [0, t_inj] and [t_inj, t_end].  Each piece runs in its
    generator's reverse Cuthill-McKee order and LAPACK band storage: G y is
    a banded BLAS ?gbmv, Radau takes its Jacobian as a band, and its linear
    systems are solved by a banded LU (LAPACK ?gbtrf / ?gbtrs).  A clamped
    junction is a Dirichlet node: it leaves the unknowns, narrowing the
    band, and feeds its neighbours through G[:, junction] *
    injection_density.  `tol` is the
    relative tolerance; the absolute tolerance is 1e-3 * tol times the
    largest density scale of the inputs (x_init, injection_density,
    injection_rate * t_inj, or g * t_end), so decaying tails keep relative
    accuracy over three decades.  Densities are clipped at zero.
    """
    return _evolve_states(disc, spec, tol)[:, disc.junction_index].copy()


def _evolve_states(disc: Discretization, spec: EvolveSpec,
                   tol: float) -> np.ndarray:
    """The (n_times, n_nodes) states of evolve at spec.t_grid, in node
    order; evolve returns their junction column."""
    t_grid = np.asarray(spec.t_grid, dtype=float)
    n = disc.n_nodes
    x = np.full(n, float(spec.x_init)) if np.isscalar(spec.x_init) \
        else np.asarray(spec.x_init, dtype=float).copy()
    if x.shape != (n,):
        raise InvalidParameterError(
            f"x_init must be scalar or length-{n} array")
    if not (0 < tol < 1):
        raise InvalidParameterError(f"tol must lie in (0, 1), got {tol}")

    jj = disc.junction_index
    if spec.injection_density is not None:
        x[jj] = spec.injection_density
    t_end = float(t_grid[-1])
    scale = max(float(x.max()), spec.injection_rate * spec.t_inj,
                spec.g * t_end)

    out = np.empty((t_grid.size, n))
    k0 = int(t_grid[0] == 0.0)
    out[:k0] = x
    t0 = 0.0
    for t1 in sorted({min(spec.t_inj, t_end), t_end} - {0.0}):
        k1 = int(np.searchsorted(t_grid, t1, side="right"))
        t_eval = np.union1d(t_grid[k0:k1], t1)
        ys = _solve_piece(disc, spec, x, t0, t_eval, tol, scale,
                          driven=t1 <= spec.t_inj)
        out[k0:k1] = ys[:, :k1 - k0].T
        x = ys[:, -1]
        k0, t0 = k1, t1
    return out


@dataclass(frozen=True)
class FactorizationReport:
    """Deviation of the full PDE from the factorized 0-D reduction."""

    max_rel_deviation: float
    mode_rate: float          # eigenmode decay rate s used in the 0-D model
    regime_ratio: float       # r * x_init / s; the reduction assumes <~ 10
    within_validity: bool
    t_window: tuple[float, float]


def factorized_dynamics_check(disc: Discretization, r: float, g: float,
                              x_init_amp: float,
                              t_window_start: float = DEFAULT_T_MIN,
                              t_end: float | None = None,
                              n_points: int = 120) -> FactorizationReport:
    """Compare full nonlinear PDE junction decay against the 0-D model.

    The PDE starts from x_init_amp times the slowest spatial mode; the 0-D
    model uses dx/dt = -r x^2 - s x + g with s the eigenmode decay rate and
    the same junction starting density.  Reports the maximum relative
    deviation of the junction trace for t >= t_window_start, on n_points
    (an integer >= 2) times from 0 to t_end; a t_end at or below
    t_window_start leaves the window empty and is refused, and so is
    x_init_amp = 0 with g = 0, whose traces both stay at 0.  The PDE is
    integrated a decade tighter than the default so solver error stays far
    below the model deviation being measured.
    """
    from .dynamics import RateParams, integrate_ode, steady_state

    for name, value in (("r", r), ("g", g), ("x_init_amp", x_init_amp),
                        ("t_window_start", t_window_start)):
        check_finite(name, value, ">=")
    if not (isinstance(n_points, (int, np.integer)) and n_points >= 2):
        raise InvalidParameterError(
            f"n_points must be an integer >= 2, got {n_points}")
    if t_end is not None and not t_window_start < t_end < math.inf:
        raise InvalidParameterError(
            "t_end must be finite and above t_window_start = "
            f"{t_window_start}, so that the window holds a point; got {t_end}")
    if x_init_amp == 0 and g == 0:
        raise InvalidParameterError(
            "x_init_amp = 0 with g = 0 holds both junction traces at 0, so "
            "there is no deviation to measure")
    s_mode, mode = slowest_mode(disc)
    rp = RateParams(r=r, s=s_mode, g=g)
    if t_end is None:
        tau = steady_state(rp).tau_ss
        t_end = t_window_start * 2 + 4.0 * tau
    t_grid = np.linspace(0.0, t_end, n_points)
    pde_jj = evolve(disc, EvolveSpec(r=r, g=g, t_grid=tuple(t_grid),
                                     x_init=x_init_amp * mode), tol=1e-9)
    ode_jj = integrate_ode(rp, x_init_amp, t_grid)
    sel = t_grid >= t_window_start
    dev = float(np.max(np.abs(pde_jj[sel] - ode_jj[sel]) / ode_jj[sel]))
    ratio = r * x_init_amp / s_mode if s_mode > 0 else math.inf
    return FactorizationReport(
        max_rel_deviation=dev, mode_rate=s_mode, regime_ratio=ratio,
        within_validity=ratio <= 10.0,
        t_window=(t_window_start, float(t_end)))
