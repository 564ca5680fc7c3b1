"""Discretized reaction-diffusion solver on the electrode wire network.

Independent oracle for the transcendental eigenmode solver, and a full
nonlinear time evolver (diffusion + recombination + generation +
injection drive) built on a linearly implicit Rosenbrock method (RODAS,
`_rodas`) with the exact Jacobian.  The network is the electrode graph of
geometry.edges, the analytic model's: 1-D segments joined with
width-weighted flux matching, pads as lumped nodes carrying the trapping.
What depends only on a mesh's shape, its chain table, is one record per
shape (`_Template`) that `build` attaches to the mesh: the node layout and
the generator's compressed-column arrays; the band order (kl = ku = 3 on
the tree) and band layout, so a drive piece packs its generator by one
scatter and a Rosenbrock step makes one banded LU; and the paths, then
the branch vertices, so the slow mode's inverse iteration factors the
area-symmetrised generator as one positive definite tridiagonal (LAPACK
?pttrf) and a small Schur complement.

The spatial operator is a conservative finite-volume generator G
(dx/dt = G x): with s0 = P = 0 the area-weighted column sums of G vanish
identically, so total QP number is conserved to round-off; each
Rosenbrock stage solves with fac I - G, which keeps that linear
invariant.
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

# `_template` keeps the records of the last _SHAPES shapes of at most
# _SHAPE_SIZE rows plus stored entries.  A record holds 36 bytes per row
# (shared names and seven int32 values), 12 per entry (three int32
# indices), 8 per cell (its link) and 12 per chain and border coupling:
# at most 36 per row and entry, ~18.9 MB in all, ~140 kB at res 200.
_SHAPES = 64
_SHAPE_SIZE = 8192


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
    its arrays.  build attaches the shared, read-only record of its shape
    (`_Template`) as a private attribute that is no field (not in the
    constructor, repr or equality); slowest_mode and evolve need it.
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
    that shape's record (`_Template`), which build attaches to the mesh.
    `build` computes only the values: the cell widths, the areas, the link
    fluxes and the generator's rates.  Generator rates that overflow
    float64 raise InvalidParameterError.
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
        <= _SHAPE_SIZE else _new_template(shape)

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
    disc = Discretization(
        generator=gen, areas=areas, node_segment=list(t.segment),
        node_y=t.step * np.concatenate((dx, lengths, zeros)).take(t.src),
        junction_index=_LUMPED.index("junction"), geom=geom,
        vortices=vortices, tp=tp)
    object.__setattr__(disc, "_mesh", t)
    return disc


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
    """What depends only on one mesh shape, its chains (name, a, b, cells)
    in `edges` order, made from that chain table; arrays are int32 and
    read-only.  For `build`: nodes are numbered in creation order (the
    lumped nodes, then chain after chain a new end vertex, if any, and the
    interior nodes); a node's y and own area are step * x[src] for x the
    chains' (dx, length, 0) and (width dx, 0, 0); `ends` holds each
    chain's two end vertices, `links` each cell's two nodes, and csc,
    indices and indptr put the rates (the links' i -> j and j -> i, then
    the diagonal) in compressed-column order.  For `evolve`: `order`, the
    nodes by cell distance from pad_left and lane (Cuthill & McKee 1969's
    rule: a chain through a vertex of degree 2 keeps its lane, and the
    chains leaving a branch vertex take sub-lanes in its place, ranked
    lexicographically), reversed as in reverse Cuthill-McKee; `band_at`,
    the flat index of each stored entry in that order's LAPACK band
    storage (Fortran order); and kl = ku, the band's half width.  For
    `slowest_mode`:
    `chains`, the paths (runs of chains through vertices of degree 2,
    which eliminate without fill; George & Liu 1981) one after another,
    n_path nodes, then the border, every vertex where three or more chains
    meet; in that order `at` indexes the stored entries (nnz for none) of
    the diagonal, the tridiagonal's (k, k + 1) and each border coupling
    above the diagonal, at `couplings[:, k]`."""

    segment: tuple
    src: np.ndarray
    step: np.ndarray
    cells: np.ndarray
    ends: np.ndarray
    links: np.ndarray
    csc: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    order: np.ndarray
    band_at: np.ndarray
    kl: int
    chains: np.ndarray
    n_path: int
    at: np.ndarray
    couplings: np.ndarray

    def pack(self, data: np.ndarray) -> np.ndarray:
        """G, of compressed-column values `data`, in LAPACK band storage:
        G[order][:, order][i, j] at row kl + i - j, column j, else 0."""
        n, width = self.order.size, 2 * self.kl + 1
        out = np.zeros(n * width)
        out[self.band_at] = data
        return out.reshape(n, width).T

    def symmetrised(self, data: np.ndarray, root_w: np.ndarray) -> tuple:
        """S = W^1/2 (-G) W^-1/2 in `chains` order as (tri, x), and G's
        diagonal, for G's values `data` and root_w = W^1/2 in that order:
        tri[:, k] = S[k, k - 1:k + 2] (0 where a path ends), row j of x is
        S[:, n_path + j] above the diagonal, and each entry is
        (-G[i, j] root_w[i]) / root_w[j] for its stored upper G[i, j]."""
        n, m = root_w.size, self.n_path
        g = np.append(data, 0.0).take(self.at)
        s = np.negative(g)
        tri = np.zeros((3, n))
        tri[1] = s[:n] * root_w / root_w
        tri[0, 1:] = tri[2, :-1] = s[n:2 * n - 1] * root_w[:-1] / root_w[1:]
        row, col = self.couplings
        x = np.zeros((n - m, n))
        x[col - m, row] = s[2 * n - 1:] * root_w.take(row) / root_w.take(col)
        return tri, x, g[:n]


def _new_template(shape: tuple) -> _Template:
    """The `_Template` of the chains `shape`."""
    n_chains = len(shape)
    index = {name: k for k, name in enumerate(_LUMPED)}
    segment = list(_LUMPED)
    src, step = [np.full(len(_LUMPED), 2 * n_chains)], [np.zeros(len(_LUMPED))]
    ends, links, table = [], [], []
    vertices = {k: [] for k in index.values()}  # each vertex's chains
    for k, (name, a, b, cells) in enumerate(shape):
        if b not in index:  # a new end vertex, at y = length
            index[b] = len(segment)
            vertices[index[b]] = []
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
        table.append((index[a], index[b], n, cells))
        vertices[index[a]].append(k)
        vertices[index[b]].append(k)
    # the entries sorted by column, then row, are the CSC arrays: no
    # entry repeats, so this is the matrix a COO conversion would give
    n = len(segment)
    i, j = map(np.concatenate, zip(*links))
    nodes = np.arange(n)
    rows, cols = np.concatenate((i, j, nodes)), np.concatenate((j, i, nodes))
    csc = np.argsort(cols * n + rows, kind="stable")
    indptr = np.zeros(n + 1, np.int32)
    indptr[1:] = np.cumsum(np.bincount(cols, minlength=n))
    links = np.array((i, j))
    order, dist, lane = _walk(table, vertices, n)
    return _Template(
        tuple(segment), *map(_frozen, (
            np.concatenate(src), np.concatenate(step), [c[3] for c in shape],
            np.concatenate(ends), links, csc, rows[csc], indptr)),
        *_band(order, links, csc), *_split(vertices, dist, lane, links, csc))


def _frozen(x) -> np.ndarray:
    """x as a read-only int32 array."""
    x = np.asarray(x, np.int32)
    x.flags.writeable = False
    return x


def _walk(table: list, vertices: dict, n: int) -> tuple:
    """The n nodes in `_Template`'s band order, and each node's cell
    distance and lane rank, from `_new_template`'s chains (a, b, first
    interior node, cells) and each vertex's chains; the mesh is one tree,
    walked from pad_left."""
    # each node's cell distance and lane (an index into lanes)
    dist, lane = np.zeros(n, np.int64), np.zeros(n, int)
    lanes, done, stack = [()], set(), [_LUMPED.index("pad_left")]
    while stack:
        v = stack.pop()
        out = [k for k in vertices[v] if k not in done]
        done.update(out)
        for branch, chain in enumerate(out):
            a, b, first, cells = table[chain]
            lanes.append(lanes[lane[v]] + ((branch,) if out[1:] else ()))
            w, steps = (b, np.arange(1, cells)) if a == v \
                else (a, np.arange(cells - 1, 0, -1))
            inner = slice(first, first + cells - 1)
            lane[inner] = lane[w] = len(lanes) - 1
            dist[inner] = dist[v] + steps
            dist[w] = dist[v] + cells
            stack.append(w)
    rank = np.empty(len(lanes), np.int64)
    rank[sorted(range(len(lanes)), key=lanes.__getitem__)] = range(len(lanes))
    lane = rank.take(lane)
    # one key per node, unique on a tree: a lane holds one node a distance.
    # A chain's nodes are one run of it, which the stable sort merges.
    key = dist * len(lanes) + lane
    return np.argsort(key, kind="stable")[::-1], dist, lane


def _band(order: np.ndarray, links: np.ndarray, csc: np.ndarray) -> tuple:
    """`_Template`'s order, band_at and kl for the band order `order`, the
    cells' `links` and the entries' CSC order `csc`."""
    rank = np.empty(order.size, np.intp)
    rank[order] = np.arange(order.size)
    # the pattern is symmetric, so kl = ku.  Entry (i, j) sits at
    # j width + k + i - j
    i, j = rank.take(links)
    k = int(np.abs(i - j).max())
    width = 2 * k + 1
    index = np.concatenate((j * (width - 1) + i, i * (width - 1) + j,
                            rank * width)) + k
    return _frozen(order), _frozen(index.take(csc)), k


def _split(vertices: dict, dist: np.ndarray, lane: np.ndarray,
           links: np.ndarray, csc: np.ndarray) -> tuple:
    """`_Template`'s chains, n_path, at and couplings, from each vertex's
    chains and `_walk`'s distances and lanes.  A lane runs from its root, a
    leaf (pad_left) or a branch vertex, through vertices of degree 2, so
    its nodes off the border, by distance, are a path."""
    n = dist.size
    border = np.array([v for v, at in vertices.items() if len(at) >= 3], int)
    path = np.ones(n, bool)
    path[border] = False
    path = np.flatnonzero(path)
    chains = np.concatenate((path[np.argsort(
        lane.take(path) * n + dist.take(path), kind="stable")], border))
    m = path.size
    rank = np.empty(n, np.intp)
    rank[chains] = np.arange(n)
    # each entry's position in compressed-column order; a link's upper
    # entry, in the chains order, is its i -> j entry or its j -> i one
    pos = np.empty(csc.size, np.intp)
    pos[csc] = np.arange(csc.size)
    i, j = rank.take(links)
    upper = np.where(i < j, *pos[:-n].reshape(2, -1))
    low, high = np.minimum(i, j), np.maximum(i, j)
    # slot k < n holds the diagonal, n + k the coupling (k, k + 1) of a
    # path; the border's couplings above the diagonal follow
    held = (high == low + 1) & (high < m)
    at = np.full(2 * n - 1, csc.size)
    at[rank] = pos[-n:]
    at[n + low[held]] = upper[held]
    rest = ~held
    return (_frozen(chains), m, _frozen(np.concatenate((at, upper[rest]))),
            _frozen((low[rest], high[rest])))


_template = functools.lru_cache(maxsize=_SHAPES)(_new_template)


def _mesh_of(disc: Discretization) -> _Template:
    """The record build attached to disc; InvalidParameterError if there
    is none or disc's generator is not the compressed-column matrix of its
    indptr and indices."""
    template = getattr(disc, "_mesh", None)
    gen = disc.generator
    if template is None or getattr(gen, "format", None) != "csc" \
            or not np.array_equal(gen.indptr, template.indptr) \
            or not np.array_equal(gen.indices, template.indices):
        raise InvalidParameterError(
            "the discretization's generator does not have the stored "
            "pattern of the mesh build made; use build's, unchanged")
    return template


def slowest_mode(disc: Discretization) -> tuple[float, np.ndarray]:
    """Smallest decay rate of the generator and its spatial mode.

    Inverse power iteration on S = W^1/2 (-G) W^-1/2, W = diag(areas),
    which is symmetric because W G is.  In the record's order, the paths
    then the border (the two cross points of Type B), S is one symmetric
    tridiagonal T over the paths, couplings K to the border and the
    border's block S_bb (`_Template.symmetrised`).  No eigenvalue of S is
    below s0, so S - sigma I, sigma = max(0, s0 - 32 eps max|diag G|), is
    positive definite beyond round-off: LAPACK's ?pttrf factors
    T - sigma I once, Z = (T - sigma I)^-1 K and the Cholesky factor
    (?potrf) of the border's Schur complement C = S_bb - sigma I - K^T Z
    are formed once, and each solve is one ?pttrs plus the border's B x B
    solve, so the iteration converges at (lambda1 - sigma) /
    (lambda2 - sigma) however large s0 is.  S u gives the Rayleigh
    quotient, the residual and the round-off floor; the iterate is
    u = W^1/2 v for the node-order mode v, so S's 2-norm is the
    area-weighted norm of -G.  Once the quotient has settled, the
    iteration stops when the residual meets its bar 1e-10 lambda +
    32 eps max|diag G|, or when it is no smaller than at the previous
    settled iterate (stalled at the round-off of the solve).  The mode is
    the (strictly positive) slow mode v normalized to 1 at the junction
    node, with round-off noise clipped at zero.  Each converged call logs
    one DEBUG record on the qpdyn.pde_sim logger, a dict of the solves,
    the border size, terms (the most products any row of S u sums), the
    rate, the residual, its bar and whether it stalled.

    Raises InvalidParameterError for a mesh `_mesh_of` refuses, and
    NonConvergenceError before anything is factored when the weak-trapping
    limit small_p_rate, s = (N_L + N_R) P / A_total + s0, is at most
    32 eps max|diag G|: the trapping sink is below round-off of the
    diffusion operator, and the message names s.  A failed or not
    finite factor (the tridiagonal's or the border's), an iterate whose
    norm leaves the float64 range, 10 000 iterations without convergence
    (the message names the last residual and its bar) and a converged rate
    not above the rounding error of its Rayleigh quotient raise it too;
    the last three carry v as best_params.
    """
    mesh = _mesh_of(disc)
    tp = disc.tp
    total_trapping = disc.vortices.trapping_power * (
        disc.vortices.n_left + disc.vortices.n_right)
    n = disc.n_nodes
    if total_trapping == 0:
        return tp.s0, np.ones(n)
    from scipy.linalg.lapack import dpotrf, dpotrs, dpttrf, dpttrs

    order, m = mesh.chains, mesh.n_path
    root_w = np.sqrt(disc.areas).take(order)
    tri, x, g_diag = mesh.symmetrised(disc.generator.data, root_w)
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
        """The node-order mode v = W^-1/2 u of the path-order iterate u."""
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
        lambda: {"solves": solves, "border": n - m,
                 "terms": int(np.diff(mesh.indptr).max()),
                 "rate": lam, "residual": rnorm, "bar": bar,
                 "stalled": rnorm > bar})
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


def _solve_piece(disc: Discretization, mesh: _Template, spec: EvolveSpec,
                 x: np.ndarray, t0: float, t_eval: np.ndarray, tol: float,
                 scale: float, driven: bool) -> np.ndarray:
    """Rosenbrock solve of one drive piece, from state x at t0 to t_eval[-1].

    dy/dt = G y - r y^2 + g, plus the junction drive when `driven`, by
    `_rodas.integrate` with rtol = tol and atol = 1e-3 tol scale, in the
    band order of disc's record `mesh`: G is packed once from
    disc.generator.data, G y is one ?gbmv on the band, and each step's
    1/(h gamma) I - (G - 2 r diag(y)) is -G's band below ?gbtrf's kl
    fill-in rows with its diagonal row replaced.  A clamped junction, at
    density d, is a frozen row: its row of G is 0 and its source r d d,
    so its right-hand side is 0 at d.  No step is so long that the
    factor's round-off 32 eps max|G_ii| swamps an evolving row's margin,
    1/(h gamma) plus its decay rate (the row sum of -G).  Returns the
    (n_nodes, n_times) states at t_eval, clipped at zero, and logs one
    DEBUG record on the qpdyn.pde_sim logger, a dict of the interval, the
    unknowns, kl, ku and the integrator's counts.
    A failed solve raises StepSizeUnderflowError naming the piece, and,
    when float overflow caused it, r, the density scale and the largest
    generator rate; overflow is not left to numpy's warnings.
    """
    from scipy.linalg.blas import dgbmv

    from ._rodas import GAMMA, integrate

    data, jj, r = disc.generator.data, disc.junction_index, spec.r
    src = np.full(x.size, spec.g)
    clamp = driven and spec.injection_density is not None
    order, n, kl = mesh.order, x.size, mesh.kl
    ku = kl
    overflow = []
    with np.errstate(over="call", invalid="ignore", divide="ignore",
                     call=lambda err, flag: overflow.append(err)):
        if clamp:  # f's junction row is r d d - r y y: 0 at y = d
            data = np.where(mesh.indices == jj, 0.0, data)
            src[jj] = r * spec.injection_density * spec.injection_density
        elif driven:
            src[jj] += spec.injection_rate
        src = src[order]
        gen_band = mesh.pack(data)
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
        # factor's rounding swamps the slowest evolving rows' margin
        roundoff = np.finfo(float).eps * float(np.abs(g_diag).max())
        noise = 32.0 * roundoff
        sums = dgbmv(n, n, kl, ku, 1.0, gen_band, np.ones(n))
        if clamp:  # the frozen row has no margin to keep
            sums[order == jj] = -math.inf
        decay = -float(sums.max())
        h_max = 1.0 / (GAMMA * (noise - decay)) if noise > decay else math.inf
        try:
            states, counts = integrate(
                fun, shifted, x[order], t0, t_eval, tol,
                1e-3 * tol * scale or np.finfo(float).tiny, kl, ku, h_max,
                roundoff)
            _log_debug(
                __name__, "piece [%(t0).6g, %(t1).6g] s: %(unknowns)d "
                "unknowns, kl = %(kl)d, ku = %(ku)d; %(steps)d steps, "
                "%(rejected)d rejected, nfev %(nfev)d, nlu %(nlu)d",
                lambda: {"t0": t0, "t1": float(t_eval[-1]), "unknowns": n,
                         "kl": kl, "ku": ku, **counts})
            why = None
        except ArithmeticError as exc:
            why = str(exc)
    if why is not None:
        if overflow:
            why = (f"float64 overflow with r = {r:.6g} 1/s, density scale "
                   f"{scale:.6g} and generator rates up to "
                   f"{np.abs(g_diag).max():.6g} 1/s")
        raise StepSizeUnderflowError(
            f"stiff integrator failed on the {'' if driven else 'un'}driven "
            f"piece [{t0:.6g}, {t_eval[-1]:.6g}] s: {why}")
    ys = np.empty((x.size, t_eval.size))
    ys[order] = np.maximum(states, 0.0)
    return ys


def evolve(disc: Discretization, spec: EvolveSpec, tol: float = 1e-8):
    """Integrate the full nonlinear system; return junction density at t_grid.

    dx/dt = G x - r x^2 + g (+ the junction drive) is integrated by
    Hairer & Wanner's RODAS (`_rodas`), a linearly implicit Rosenbrock
    method of order 4 on the exact Jacobian G - 2 r diag(x), one solve per
    drive piece, [0, t_inj] and [t_inj, t_end]; each piece's drive is
    constant, so the system is autonomous and needs no time derivative.
    Each piece runs in the band order of the mesh's record (`_Template`)
    and LAPACK band storage: G y is a banded BLAS ?gbmv, and each step makes
    one banded LU of 1/(h gamma) I - J (LAPACK ?gbtrf) and one ?gbtrs per
    stage, with no Newton iteration.  Steps land on every output time;
    nothing is interpolated.  A clamped junction is a Dirichlet node, a
    frozen unknown: its row of G is zeroed and its right-hand side is 0 at
    injection_density, and its column feeds its neighbours through G x.
    `tol` is the relative
    tolerance; the absolute tolerance is 1e-3 * tol times the largest
    density scale of the inputs (x_init, injection_density,
    injection_rate * t_inj, or g * t_end), so decaying tails keep relative
    accuracy over three decades.  A step is accepted when the RMS over the
    unknowns of err_i / (atol + rtol max(|y_i|, |y1_i|)) is at most 1.
    Densities are clipped at zero.  A mesh `_mesh_of` refuses raises
    InvalidParameterError.
    """
    return _evolve_states(disc, spec, tol)[:, disc.junction_index].copy()


def _evolve_states(disc: Discretization, spec: EvolveSpec,
                   tol: float) -> np.ndarray:
    """The (n_times, n_nodes) states of evolve at spec.t_grid, in node
    order; evolve returns their junction column."""
    mesh = _mesh_of(disc)
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
        ys = _solve_piece(disc, mesh, spec, x, t0, t_eval, tol, scale,
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
    model is dx/dt = -r x^2 - s x + g with s the eigenmode decay rate and
    the same junction starting density, in closed form:
    x0 + x_i decay_shape(t, q / (1 + q), tau_ss) for the steady state x0,
    x_i = x_init_amp - x0 (negative below x0) and q = r tau_ss x_i, or
    xqp_recombination_only when s = g = 0.  Reports the maximum relative
    deviation of the junction trace for t >= t_window_start, on n_points
    (an integer >= 2) times from 0 to t_end (by default
    2 t_window_start + 4 tau_ss); a t_end at or below t_window_start
    leaves the window empty and is refused, and so is x_init_amp = 0 with
    g = 0, whose traces both stay at 0, and a default t_end when
    s = g = 0, where tau_ss is infinite.  r = s = 0 has no steady state
    and raises DegenerateSystemError.  The PDE is integrated a decade
    tighter than the default so solver error stays far below the model
    deviation being measured.
    """
    from .dynamics import (RateParams, decay_shape, steady_state,
                           xqp_recombination_only)

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
    x0, tau = steady_state(RateParams(r=r, s=s_mode, g=g))
    if t_end is None:
        if math.isinf(tau):
            raise InvalidParameterError(
                "s = g = 0 (pure recombination) has no tail time tau_ss to "
                "set the default t_end; give t_end")
        t_end = t_window_start * 2 + 4.0 * tau
    t_grid = np.linspace(0.0, t_end, n_points)
    pde_jj = evolve(disc, EvolveSpec(r=r, g=g, t_grid=tuple(t_grid),
                                     x_init=x_init_amp * mode), tol=1e-9)
    if math.isinf(tau):
        ode_jj = xqp_recombination_only(t_grid, x_init_amp, r)
    else:
        x_i = x_init_amp - x0
        q = r * tau * x_i
        ode_jj = x0 + x_i * decay_shape(t_grid, q / (1.0 + q), tau)
    sel = t_grid >= t_window_start
    dev = float(np.max(np.abs(pde_jj[sel] - ode_jj[sel]) / ode_jj[sel]))
    ratio = r * x_init_amp / s_mode if s_mode > 0 else math.inf
    return FactorizationReport(
        max_rel_deviation=dev, mode_rate=s_mode, regime_ratio=ratio,
        within_validity=ratio <= 10.0,
        t_window=(t_window_start, float(t_end)))
