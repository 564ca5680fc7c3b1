"""Discretized reaction-diffusion solver on the electrode wire network.

Independent oracle for the transcendental eigenmode solver, and a full
nonlinear time evolver (diffusion + recombination + generation +
injection drive) built on a linearly implicit Rosenbrock method (RODAS,
`_rodas`) with the exact Jacobian.  The network is the electrode graph of
geometry.edges, the analytic model's: 1-D segments joined with
width-weighted flux matching, pads as lumped nodes carrying the trapping.
What depends only on a matrix's stored pattern is planned once per
pattern (`_plan`), and meshes of one shape, whatever their rates, reuse
one plan.  The graph is a tree, so in reverse Cuthill-McKee order every
mesh is banded with kl = ku = 3 (2 and 2 once a clamped junction leaves
the unknowns), and the plan says where each stored entry goes in that
order's LAPACK band storage: each drive piece of the evolver packs its
generator once by one scatter (`_Plan.band`), the right-hand side's G y
is one banded BLAS product, each step factors its one matrix
1/(h gamma) I - J from that band by a banded LU in O(n), and each stage
is one LAPACK solve.  With its branch nodes (the border) taken out, the
tree falls apart into paths, which the plan also orders one after
another: the slow mode's inverse iteration factors the area-symmetrised
generator W^1/2 (-G) W^-1/2 as one symmetric positive definite
tridiagonal over the paths (LAPACK ?pttrf, a plain loop) and the
border's small Schur complement.

The spatial operator is a conservative finite-volume generator G
(dx/dt = G x): with s0 = P = 0 the area-weighted column sums of G vanish
identically, so total QP number is conserved to round-off; each
Rosenbrock stage solves with fac I - G, which keeps that linear
invariant.  `build` takes what depends only on the mesh's shape (its node
layout and the generator's compressed-column arrays) from a per-shape
template and computes the values from whole arrays, so its Python-level
work grows with the chains, not the nodes.
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

# The lumped nodes every mesh starts with, in node order.
_LUMPED = ("pad_left", "pad_right", "cross_left", "cross_right", "junction")

# Inverse power iterations slowest_mode runs before it gives up.
_MAX_ITER = 10_000

# `_plan` keeps the plans of the last _PLANS stored patterns that have at
# most _PLAN_SIZE rows plus stored entries, and `_template` the templates
# of as many mesh shapes of that size.  A plan holds its key (the int32
# indptr and indices), the int32 band order and scatter index, and the
# int32 split (the chains order, 2 n - 1 slots and 12 bytes per border
# coupling): 20 bytes per row and 8 per entry, plus 12 per border
# coupling, at most 20 per row and entry; ~10.5 MB for the cache, and
# ~78 kB for a res-200 mesh.  A template holds 16 bytes per row (two
# int32 arrays and a tuple of shared names) and 12 per entry (the int32
# links, CSC permutation and indices), plus a few per chain; ~92 kB for a
# res-200 mesh.  A larger pattern or shape is planned afresh each time.
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
    its arrays; meshes of one shape share only the cached, read-only
    template of their shape (`_template`) and plan of their generator's
    pattern (`_plan`).
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
    nodes, which is checked before anything is allocated.  Shorter
    segments get proportionally fewer cells (at least 2).  Pads are lumped
    nodes; the vortex trapping N P enters as a linear sink on them,
    normalized by the pad node's control area.  Everything that depends
    only on the mesh's shape, its chains and their cell counts, comes from
    that shape's `_Template`: the node layout and names, the link and
    half-cell ends, and the generator's compressed-column permutation,
    indices and indptr.  `build` computes only the values: the cell widths,
    the areas, the link fluxes and the generator's rates.  Generator rates
    that overflow float64 raise InvalidParameterError.
    """
    import scipy.sparse as sp

    if not (math.isfinite(resolution) and float(resolution).is_integer()
            and resolution >= 10):
        raise InvalidResolutionError(
            "resolution must be a whole number >= 10 cells per wire length, "
            f"got {resolution}")
    resolution = int(resolution)
    shape, lengths, widths, n = _shape(geom, resolution)
    # rows plus entries: n rows, n diagonal entries and two per cell
    t = _template(shape) if 2 * n + 2 * sum(c[3] for c in shape) \
        <= _PLAN_SIZE else _new_template(shape)

    dx = lengths / t.cells
    zeros = np.zeros(len(shape) + 1)
    # a lumped node's own area is 0, and its chains' half cells add to it
    areas = np.concatenate((widths * dx, zeros)).take(t.src) + np.bincount(
        t.ends, np.repeat(0.5 * widths * dx, 2), n)
    areas[:2] += geom.s_pad  # pad_left, pad_right

    # edge (i, j, flux) puts flux / areas[i] at G[i, j] and flux / areas[j]
    # at G[j, i]; the diagonal takes the outflow, s0 and the pad sinks
    i, j = t.links
    flux = np.repeat(tp.d * widths / dx, t.cells)
    p = vortices.trapping_power
    with np.errstate(over="ignore", invalid="ignore"):
        diag = -(np.bincount(i, flux, n) + np.bincount(j, flux, n)) / areas \
            - tp.s0
        diag[0] -= vortices.n_left * p / areas[0]
        diag[1] -= vortices.n_right * p / areas[1]
        rates = np.concatenate((flux / areas.take(i), flux / areas.take(j),
                                diag))
    if not np.all(np.isfinite(rates)):
        raise InvalidParameterError(
            f"generator rates overflow float64 at resolution {resolution}: "
            f"d = {tp.d:.6g} m^2/s, s0 = {tp.s0:.6g} 1/s, P = {p:.6g} m^2/s")
    gen = sp.csc_matrix((rates.take(t.csc), t.indices.copy(),
                         t.indptr.copy()), shape=(n, n))
    return Discretization(
        generator=gen, areas=areas, node_segment=list(t.segment),
        node_y=t.step * np.concatenate((dx, lengths, zeros)).take(t.src),
        junction_index=_LUMPED.index("junction"), geom=geom,
        vortices=vortices, tp=tp)


def _shape(geom: DeviceGeometry, resolution: int) -> tuple:
    """The mesh's shape, its chains (name, a, b, cells) in `edges` order,
    each segment's length and width, and the node count.  A segment of
    length l gets max(2, round(resolution l / L)) cells; past MAX_NODES
    nodes InvalidResolutionError is raised, before the later segments are
    counted."""
    shape, lengths, widths = [], [], []
    n, ends = len(_LUMPED), set(_LUMPED)
    for name, a, b, length, width in edges(geom):
        cells = max(2, int(round(resolution * length / geom.l_wire)))
        n += cells - 1 + (b not in ends)
        if n > MAX_NODES:
            raise InvalidResolutionError(
                f"resolution {resolution} needs more than {MAX_NODES} mesh "
                "nodes for this geometry")
        ends.add(b)
        shape.append((name, a, b, cells))
        lengths.append(length)
        widths.append(width)
    return tuple(shape), np.array(lengths), np.array(widths), n


class _Template(NamedTuple):
    """What `build` makes of one mesh shape, its chains (name, a, b, cells)
    in `edges` order.  Nodes are numbered in creation order: the lumped
    nodes of _LUMPED, then chain after chain a new end vertex (if any) and
    the interior nodes.  A node's y and own area are step * x[src] for x
    the chains' (dx, length, 0) and (width dx, 0, 0): an interior node
    sits at k dx, a new end vertex at its chain's length and a first
    lumped node at 0.  `ends` holds each chain's two end vertices (they
    take its half cells), `links` each cell's two nodes, and csc, indices
    and indptr put the rates (the links' i -> j and j -> i entries, then
    the diagonal) in compressed-column order.  The arrays are int32 and
    read-only, like `_Plan`'s."""

    segment: tuple
    src: np.ndarray
    step: np.ndarray
    cells: np.ndarray
    ends: np.ndarray
    links: np.ndarray
    csc: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def _new_template(shape: tuple) -> _Template:
    """The `_Template` of the chains `shape`."""
    n_chains = len(shape)
    index = {name: k for k, name in enumerate(_LUMPED)}
    segment = list(_LUMPED)
    src, step = [np.full(len(_LUMPED), 2 * n_chains)], [np.zeros(len(_LUMPED))]
    ends, links = [], []
    for k, (name, a, b, cells) in enumerate(shape):
        if b not in index:  # a new end vertex, at y = length
            index[b] = len(segment)
            segment.append(b)
            src.append([n_chains + k])
            step.append([1])
        n = len(segment)
        path = np.arange(n - 1, n + cells)
        path[[0, -1]] = index[a], index[b]
        segment.extend([name] * (cells - 1))
        src.append(np.full(cells - 1, k))
        step.append(np.arange(1, cells))
        ends.append(path[[0, -1]])
        links.append((path[:-1], path[1:]))
    # the entries sorted by column, then row, are the CSC arrays: no
    # entry repeats, so this is the matrix a COO conversion would give
    n = len(segment)
    i, j = map(np.concatenate, zip(*links))
    nodes = np.arange(n)
    rows, cols = np.concatenate((i, j, nodes)), np.concatenate((j, i, nodes))
    csc = np.argsort(cols * n + rows, kind="stable")
    indptr = np.zeros(n + 1, np.int32)
    indptr[1:] = np.cumsum(np.bincount(cols, minlength=n))
    arrays = [np.asarray(x, np.int32) for x in (
        np.concatenate(src), np.concatenate(step), [c[3] for c in shape],
        np.concatenate(ends), (i, j), csc, rows[csc], indptr)]
    for x in arrays:
        x.flags.writeable = False
    return _Template(tuple(segment), *arrays)


@functools.lru_cache(maxsize=_PLANS)
def _template(shape: tuple) -> _Template:
    """The cached `_Template` of the chains `shape`."""
    return _new_template(shape)


def slowest_mode(disc: Discretization) -> tuple[float, np.ndarray]:
    """Smallest decay rate of the generator and its spatial mode.

    Inverse power iteration on S = W^1/2 (-G) W^-1/2, W = diag(areas),
    which is symmetric because W G is.  The generator's plan (`_plan_of`)
    orders the nodes as the mesh's paths, one after another, then its
    border, the nodes of degree >= 3 (the two cross points of Type B).  In
    that order S is one symmetric tridiagonal T over the paths, couplings
    K from the paths to the border and the border's block S_bb, which
    `_Plan.symmetrised` reads off G's stored upper triangle.  No
    eigenvalue of S is below s0, so S - sigma I, sigma = max(0, s0 - 32 eps
    max|diag G|), is positive definite beyond round-off: LAPACK's ?pttrf
    factors T - sigma I once, Z = (T - sigma I)^-1 K and the Cholesky
    factor (?potrf) of the border's Schur complement
    C = S_bb - sigma I - K^T Z are formed once, and each solve is one
    ?pttrs plus the border's B x B solve.  The iteration converges at
    (lambda1 - sigma) / (lambda2 - sigma) however large s0 is.  S u, the
    tridiagonal product plus the border couplings, gives the Rayleigh
    quotient, the residual and the round-off floor.  The iterate is
    u = W^1/2 v for the node-order mode v, so S's 2-norm is the
    area-weighted norm of -G.  Once the quotient has settled, the
    iteration stops when the residual meets its bar 1e-10 lambda +
    32 eps max|diag G|, or when it is no smaller than at the previous
    settled iterate: it has stalled at the round-off of the solve.  The
    returned mode is the (strictly positive) slow mode v normalized to 1 at
    the junction node, with round-off noise clipped at zero.  Once logging
    is imported, each converged call logs one DEBUG record on the
    qpdyn.pde_sim logger with the solves, the border size, terms (the most
    products any row of S u sums), the rate, the residual, its bar,
    whether it stalled and plan_reused, whether an earlier call made the
    generator's plan (`_plan_of`); its args are a dict.  A call that makes
    its plan says False, and so do both of two threads that plan one
    pattern at once; a call that finds its plan while another thread makes
    one may say False too.

    Raises NonConvergenceError before anything is factored when the
    weak-trapping limit small_p_rate, s = (N_L + N_R) P / A_total + s0, is
    at most 32 eps max|diag G|: the trapping sink is below round-off of
    the diffusion operator, and the message names s.  A failed or not
    finite factor (the tridiagonal's or the border's), an iterate whose
    norm leaves the float64 range, 10 000 iterations without convergence
    (the message names the last residual and its bar) and a converged rate
    not above the rounding error of its Rayleigh quotient raise it too;
    the last three carry v as best_params.
    """
    tp = disc.tp
    total_trapping = disc.vortices.trapping_power * (
        disc.vortices.n_left + disc.vortices.n_right)
    n = disc.n_nodes
    if total_trapping == 0:
        return tp.s0, np.ones(n)
    from scipy.linalg.lapack import dpotrf, dpotrs, dpttrf, dpttrs

    plan, reused = _plan_of(disc.generator)
    order, m = plan.chains, plan.n_path
    root_w = np.sqrt(disc.areas).take(order)
    tri, x, g_diag = plan.symmetrised(disc.generator, root_w)
    # round-off floors: Rayleigh quotient and residual carry noise of order
    # eps * ||S||, which dwarfs 1e-13 * lambda for a stiff mesh operator
    a_scale = float(np.abs(g_diag).max())
    eps = float(np.finfo(float).eps)
    noise = 32.0 * eps * a_scale
    s_weak = small_p_rate(disc.geom, disc.vortices, tp)
    if s_weak <= noise:
        raise NonConvergenceError(
            "the trapping sink is below round-off of the diffusion "
            f"operator; the weak-trapping limit s = {s_weak:.6g} 1/s applies")

    def failed():
        return NonConvergenceError(
            "Cholesky factorization of the symmetrised generator failed: "
            "its factor is not positive definite or not finite")

    # T - sigma I over the paths and the identity over the border (tri's
    # couplings between them are 0), so a solve leaves border rows as they
    # are.  ?pttrf and ?potrf pass NaN and inf through.
    sigma = max(0.0, tp.s0 - noise)
    t_diag = tri[1] - sigma
    t_diag[m:] = 1.0
    t_diag, t_off, info = dpttrf(t_diag, tri[2, :-1])
    if info != 0 or not (np.isfinite(t_diag).all()
                         and np.isfinite(t_off).all()):
        raise failed()
    # the border by block elimination.  With y = (T - sigma I)^-1 b on the
    # paths and b on the border, the solution is y_paths - Z b' on the
    # paths and b' = C^-1 (b_border - K^T y_paths) on the border, for
    # Z = (T - sigma I)^-1 K: it is y - (lift @ y) @ drop, where
    # lift = (C^-1 (-K^T, I), pick) gives (b', b_border) and
    # drop = ((Z^T, -I), pick).  pick's rows pick the border's nodes.
    pick = np.eye(n - m, n, m)
    lift = drop = np.zeros((0, n))
    if m < n:
        # z's border columns are x's, as the solve leaves them, so
        # q @ z^T is S_bb above its diagonal - K^T Z; x's add S_bb below
        z = dpttrs(t_diag, t_off, x.T)[0].T
        q = pick - x
        q[:, m:] = pick[:, m:]
        c = q @ z.T + x[:, m:]
        c.flat[::n - m + 1] += tri[1, m:] - sigma
        c_factor, info = dpotrf(c)
        if info != 0 or not np.isfinite(c_factor).all():
            raise failed()
        z[:, m:] = -pick[:, m:]
        lift = np.concatenate((dpotrs(c_factor, pick[:, m:])[0] @ q, pick))
        drop = np.concatenate((z, pick))
    # S u: the tridiagonal rows on u's neighbourhood, then the border's
    # couplings x^T u_border and, on the border's rows, x u
    spread, gather = np.concatenate((x, pick)), np.concatenate((pick, x))

    def product(tri, spread, gather, padded):
        """S u, for u = padded[1:-1] and S's parts as they are or, for
        |S| |u|, as their absolute values."""
        near = np.ndarray((3, n), buffer=padded, strides=(8, 8))
        return (tri * near).sum(axis=0) + (gather @ near[1]) @ spread

    def mode(u):
        """The node-order mode v = W^-1/2 u of the plan-order iterate u."""
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
    padded = np.zeros(n + 2)  # the iterate u, with a zero at each end
    u = padded[1:-1]
    u[:] = root_w  # v = 1
    lam_prev = r_prev = math.inf
    for solves in range(1, _MAX_ITER + 1):
        y = dpttrs(t_diag, t_off, u)[0]
        np.subtract(y, (lift @ y) @ drop, out=u)
        norm = math.sqrt(float(np.vdot(u, u)) / w_sum)  # vdot: no warning
        if not 0.0 < norm < math.inf:
            with np.errstate(over="ignore"):
                v = mode(u)
            raise NonConvergenceError(
                f"inverse power iteration: the iterate's norm ({norm}) left "
                "the float64 range", best_params=v)
        u /= norm
        s_u = product(tri, spread, gather, padded)
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
        __name__, "slowest mode: %(solves)d solves, border %(border)d, "
        "%(terms)d terms a row; rate %(rate).6g 1/s, residual "
        "%(residual).6g 1/s, bar %(bar).6g 1/s, stalled %(stalled)s",
        lambda: {"solves": solves, "border": n - m, "terms": plan.terms,
                 "rate": lam, "residual": rnorm, "bar": bar,
                 "stalled": rnorm > bar, "plan_reused": reused})
    # rounding error of the Rayleigh quotient: 32 eps (|u|, |S| |u|) / (u, u)
    floor = 32.0 * eps * float(abs(u) @ product(
        abs(tri), abs(spread), abs(gather), abs(padded))) / float(u @ u)
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
    """What depends only on one stored pattern, made in one go.

    For `evolve`'s band: the reverse Cuthill-McKee order (Cuthill & McKee
    1969), where each stored entry goes in that order's LAPACK band
    storage (a flat index into the band's Fortran order) and the band
    widths kl, ku.  On the electrode tree kl = ku = 3, and 2 and 2 once a
    clamped junction leaves the unknowns.  Each drive piece packs its
    generator G once (`band`); ?gbmv takes that band for G y, and each
    Rosenbrock step's 1/(h gamma) I - J for ?gbtrf is -G's band with its
    diagonal row replaced.

    For `slowest_mode`'s split: `chains`, the pattern's paths one after
    another (n_path nodes), then its border.  With the border removed a
    tree falls apart into paths, each one run of a depth-first preorder
    from a leaf (George & Liu 1981: a tree's chains eliminate without
    fill).  The border is every node of degree >= 3, the nodes the search
    does not reach and, so that any pattern is solved correctly, one end
    of each coupling between path nodes that are not neighbours in the
    order (a cycle, say).  In that order `at` indexes the pattern's
    stored entries, with nnz for an unstored one: the n diagonal entries,
    the n - 1 entries (k, k + 1) the tridiagonal holds (unstored where a
    path ends) and then each coupling of the border above the diagonal,
    at row and column `couplings[:, k]`.  terms is the most products any
    row of S u sums.  All arrays are int32 and read-only."""

    order: np.ndarray
    index: np.ndarray
    kl: int
    ku: int
    chains: np.ndarray
    n_path: int
    at: np.ndarray
    couplings: np.ndarray
    terms: int

    def band(self, a: sp.csc_matrix) -> np.ndarray:
        """a, which has this plan's pattern, in LAPACK band storage in the
        plan's order: entry (i, j) of a[order][:, order] sits at row
        ku + i - j, column j, of kl + ku + 1 rows in Fortran order, and
        unstored entries hold 0."""
        out = np.zeros((a.shape[1], self.kl + self.ku + 1))
        out.reshape(-1)[self.index] = a.data
        return out.T

    def symmetrised(self, a: sp.csc_matrix, root_w: np.ndarray) -> tuple:
        """S = W^1/2 (-a) W^-1/2 in `chains` order, for root_w = W^1/2 in
        that order, as (tri, x), and a's diagonal in that order.  Row k of
        the tridiagonal part is tri[:, k] = (S[k, k - 1], S[k, k],
        S[k, k + 1]), 0 off the ends and where a path ends; row j of the
        (border, n) array x holds S[:, n_path + j] above the diagonal.
        Each entry is (-a[i, j] root_w[i]) / root_w[j] for its stored
        upper entry a[i, j] (the lower ones of tri copy them); unstored
        ones are 0."""
        n, m = root_w.size, self.n_path
        g = np.append(a.data, 0.0).take(self.at)
        s = np.negative(g)
        tri = np.zeros((3, n))
        tri[1] = s[:n] * root_w / root_w
        tri[0, 1:] = tri[2, :-1] = s[n:2 * n - 1] * root_w[:-1] / root_w[1:]
        row, col = self.couplings
        x = np.zeros((n - m, n))
        x[col - m, row] = s[2 * n - 1:] * root_w.take(row) / root_w.take(col)
        return tri, x, g[:n]


def _split(indptr: np.ndarray, indices: np.ndarray, cols: np.ndarray):
    """`_Plan`'s chains, n_path, at, couplings and terms of the square,
    symmetric CSC pattern (indptr, indices), whose entry k is in column
    cols[k]."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import depth_first_order

    n, nnz = indptr.size - 1, indices.size
    diag = np.flatnonzero(indices == cols)
    degree = np.diff(indptr) - np.bincount(cols.take(diag), minlength=n)
    start = int(np.argmin(degree))  # a leaf of a tree
    walk = depth_first_order(sp.csr_matrix((np.ones(nnz), indices, indptr),
                                           shape=(n, n)),
                             start, return_predecessors=False)
    border = np.ones(n, bool)  # and so are the nodes the search misses
    border[walk] = degree.take(walk) >= 3
    border[start] = False  # so the tridiagonal is never empty
    walk = walk[~border.take(walk)]
    # a coupling of two path nodes that are not neighbours in the walk
    # moves its later end into the border (a border node's rank is NaN)
    rank = np.full(n, np.nan)
    rank[walk] = np.arange(walk.size)
    row, col = rank.take(indices), rank.take(cols)
    cut = np.abs(row - col) > 1
    border[walk.take(np.maximum(row, col)[cut].astype(np.intp))] = True
    chains = np.concatenate((walk[~border.take(walk)], np.flatnonzero(border)))
    m = n - int(border.sum())
    rank = np.empty(n, np.intp)
    rank[chains] = np.arange(n)
    row, col = rank.take(indices), rank.take(cols)
    # slot k < n holds the diagonal, n + k the coupling (k, k + 1) of a
    # path; the border's couplings above the diagonal follow
    held = (col == row + 1) & (col < m)
    rest = np.flatnonzero((row < col) & ~held)
    held = np.flatnonzero(held)
    at = np.full(2 * n - 1, nnz)
    at[row.take(diag)] = diag
    at[n + row.take(held)] = held
    couplings = np.array([row.take(rest), col.take(rest)], np.int32)
    at = np.concatenate((at, rest)).astype(np.int32)
    chains = chains.astype(np.int32)
    for x in (chains, at, couplings):
        x.flags.writeable = False
    # a row of S u sums its stored diagonal and each of its couplings once
    return chains, m, at, couplings, int(np.diff(indptr).max())


def _new_plan(indptr: np.ndarray, indices: np.ndarray) -> _Plan:
    """The `_Plan` of the square CSC pattern (indptr, indices)."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    n = indptr.size - 1
    order = reverse_cuthill_mckee(sp.csc_matrix(
        (np.ones(indices.size), indices, indptr), shape=(n, n)),
        symmetric_mode=True)
    rank = np.argsort(order)  # node order[k] goes to position k
    cols = np.repeat(np.arange(n), np.diff(indptr))
    row, col = rank.take(indices), rank.take(cols)
    offset = row - col
    kl, ku = int(max(offset.max(), 0)), int(max(-offset.min(), 0))
    index = (col * (kl + ku + 1) + ku + offset).astype(np.int32)
    order.flags.writeable = index.flags.writeable = False
    return _Plan(order, index, kl, ku, *_split(indptr, indices, cols))


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


def _solve_piece(disc: Discretization, spec: EvolveSpec, x: np.ndarray,
                 t0: float, t_eval: np.ndarray, tol: float, scale: float,
                 driven: bool) -> np.ndarray:
    """Rosenbrock solve of one drive piece, from state x at t0 to t_eval[-1].

    dy/dt = G y - r y^2 + g, plus the junction drive when `driven`, by
    `_rodas.integrate` (RODAS, order 4) with rtol = tol and the absolute
    tolerance 1e-3 * tol * scale.  The piece is autonomous: its drive is
    constant.  The piece's generator (the full one, or the clamped one
    without the junction) is packed once, in its plan's order (`_plan_of`):
    the unknowns enter the integrator in that order, G y is one BLAS ?gbmv
    on the band, each step's 1/(h gamma) I - (G - 2 r diag(y)) is -G's
    band below ?gbtrf's kl fill-in rows with its diagonal row replaced,
    and the states come back in node order.  Elimination keeps the slow
    modes only while a row's margin, 1/(h gamma) plus its decay rate (the
    row sum of -G, at least s0), exceeds the factor's round-off
    32 eps max|G_ii|, so no step is longer than that allows.  Returns the
    (n_nodes, n_times) states at t_eval, clipped at zero, and logs one
    DEBUG record on the qpdyn.pde_sim logger with the interval, the
    unknowns, the band widths, the integrator's steps, rejected steps,
    nfev and nlu, and plan_reused, whether an earlier call made the band
    plan of the piece's generator; its args are a dict.  A call that makes
    its plan says False, and so do both of two threads that plan one
    pattern at once; a call that finds its plan while another thread makes
    one may say False too.  A failed solve (a singular or not finite
    factor, a not finite error estimate, a step below 10 ulp of t, or
    more than 100 000 steps) raises StepSizeUnderflowError naming the
    piece; float overflow is not left to numpy's warnings, and when it
    caused the failure the message names r, the density scale and the
    largest generator rate.
    """
    from scipy.linalg.blas import dgbmv

    from ._rodas import GAMMA, integrate

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
        g_diag = gen_band[ku].copy()
        # -G's band below ?gbtrf's kl fill-in rows
        negated = np.zeros((2 * kl + ku + 1, n), order="F")
        negated[kl:] = -gen_band

        def fun(y):  # G y + src by ?gbmv, then - r y^2
            out = dgbmv(n, n, kl, ku, 1.0, gen_band, y, beta=1.0, y=src)
            out -= r * y * y
            return out

        def shifted(fac, y):  # fac I - (G - 2 r diag(y))
            out = negated.copy(order="F")
            out[kl + ku] = fac - (g_diag - 2.0 * r * y)
            return out

        # the round-off cap on h: past 1/(gamma (noise - decay)) the
        # factor's rounding swamps the slowest rows' margin
        noise = 32.0 * np.finfo(float).eps * float(np.abs(g_diag).max())
        decay = -float(dgbmv(n, n, kl, ku, 1.0, gen_band, np.ones(n)).max())
        h_max = 1.0 / (GAMMA * (noise - decay)) if noise > decay else math.inf
        try:
            states, counts = integrate(
                fun, shifted, x[order], t0, t_eval, tol,
                1e-3 * tol * scale or np.finfo(float).tiny, kl, ku, h_max)
            _log_debug(
                __name__, "piece [%(t0).6g, %(t1).6g] s: %(unknowns)d "
                "unknowns, kl = %(kl)d, ku = %(ku)d; %(steps)d steps, "
                "%(rejected)d rejected, nfev %(nfev)d, nlu %(nlu)d",
                lambda: {"t0": t0, "t1": float(t_eval[-1]), "unknowns": n,
                         "kl": kl, "ku": ku, **counts,
                         "plan_reused": reused})
            why = None
        except ArithmeticError as exc:
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
    ys[order] = np.maximum(states, 0.0)
    if clamp:
        ys[jj] = spec.injection_density
    return ys


def evolve(disc: Discretization, spec: EvolveSpec, tol: float = 1e-8):
    """Integrate the full nonlinear system; return junction density at t_grid.

    dx/dt = G x - r x^2 + g (+ the junction drive) is integrated by
    Hairer & Wanner's RODAS (`_rodas`), a linearly implicit Rosenbrock
    method of order 4 on the exact Jacobian G - 2 r diag(x), one solve per
    drive piece, [0, t_inj] and [t_inj, t_end]; each piece's drive is
    constant, so the system is autonomous and needs no time derivative.
    Each piece runs in its generator's reverse Cuthill-McKee order and
    LAPACK band storage: G y is a banded BLAS ?gbmv, and each step makes
    one banded LU of 1/(h gamma) I - J (LAPACK ?gbtrf) and one ?gbtrs per
    stage, with no Newton iteration.  Steps land on every output time;
    nothing is interpolated.  A clamped junction is a Dirichlet node: it
    leaves the unknowns, narrowing the band, and feeds its neighbours
    through G[:, junction] * injection_density.  `tol` is the relative
    tolerance; the absolute tolerance is 1e-3 * tol times the largest
    density scale of the inputs (x_init, injection_density,
    injection_rate * t_inj, or g * t_end), so decaying tails keep relative
    accuracy over three decades.  A step is accepted when the RMS over the
    unknowns of err_i / (atol + rtol max(|y_i|, |y1_i|)) is at most 1.
    Densities are clipped at zero.
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
