"""Discretized reaction-diffusion solver on the electrode wire network.

Independent oracle for the transcendental eigenmode solver, and a full
nonlinear time evolver (diffusion + recombination + generation +
injection drive) built on scipy's stiff Radau IIA integrator with the
exact sparse Jacobian.  The network mirrors the analytic model exactly: 1-D
wire segments joined with width-weighted flux matching, pads as lumped
nodes carrying the vortex trapping, up/down capacitor halves combined
into single arms of doubled width.

The spatial operator is a conservative finite-volume generator G
(dx/dt = G x): with s0 = P = 0 the area-weighted column sums of G vanish
identically, so total QP number is conserved to round-off; Radau's
collocation steps preserve that linear invariant.  `build` assembles G
from whole arrays, one set per chain of cells, in one sparse constructor
call, so its Python-level work grows with the chains, not the nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import RateParams, integrate_ode, steady_state
from .errors import (InvalidParameterError, InvalidResolutionError,
                     NonConvergenceError, StepSizeUnderflowError, check_finite,
                     check_time_grid)
from .eigenmode import TransportParams, VortexConfig
from .geometry import DeviceGeometry

if TYPE_CHECKING:
    import scipy.sparse as sp

# Largest mesh `build` assembles, ~140x the 7061 nodes of resolution 800
# on B1.  Memory grows linearly (build plus slowest_mode peak at ~80 MB for
# 1e5 nodes), so a finer request is refused before anything is allocated.
MAX_NODES = 1_000_000


@dataclass(frozen=True)
class Discretization:
    """Finite-volume mesh and generator for one device configuration.

    Nodes come in build order: the lumped pad, cross and junction nodes,
    then each chain's interior nodes, with the capacitor arm end nodes
    just before their chains.  The generator stores each diagonal entry
    and both directions of every edge, nothing else, so its nnz is
    n_nodes + 2 * edges; areas[:, None] * generator is symmetric.

    Immutable after build; a single instance can be shared by concurrent
    slowest_mode / evolve calls, which only read it.
    """

    generator: sp.csc_matrix          # dx/dt = generator @ x
    areas: np.ndarray                 # control area per node, m^2
    node_segment: list[str]           # segment name per node
    node_y: np.ndarray                # coordinate along segment, m
    junction_index: int
    pad_left_index: int
    pad_right_index: int
    dx_by_segment: dict[str, float]
    geom: DeviceGeometry = field(repr=False, default=None)
    vortices: VortexConfig = field(repr=False, default=None)
    tp: TransportParams = field(repr=False, default=None)
    resolution: int = 0

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
    L, W = geom.l_wire, geom.w_wire
    seg, ys, own_area, half_cells, edges = [], [], [], [], []
    dx_by_segment = {}

    def node(name: str, y: float = 0.0) -> int:
        """A lumped node; its area is the half cells of its chains."""
        seg.append(name)
        ys.append([y])
        own_area.append([0.0])
        return len(seg) - 1

    def chain(name: str, a: int, b: int, length: float, width: float):
        """Connect node a to node b through uniform cells of `width`."""
        n_cells = max(2, int(round(resolution * length / L)))
        if len(seg) + n_cells > MAX_NODES:
            raise InvalidResolutionError(
                f"resolution {resolution} needs more than {MAX_NODES} mesh "
                "nodes for this geometry")
        dx = dx_by_segment[name] = length / n_cells
        path = np.arange(len(seg) - 1, len(seg) + n_cells)
        path[[0, -1]] = a, b
        seg.extend([name] * (n_cells - 1))
        ys.append(np.arange(1, n_cells) * dx)
        own_area.append(np.full(n_cells - 1, width * dx))
        edges.append((path[:-1], path[1:], np.full(n_cells,
                                                   tp.d * width / dx)))
        half_cells.append(([a, b], 0.5 * width * dx))

    pad_l, pad_r, cross_l, cross_r, junction = map(node, (
        "pad_left", "pad_right", "cross_left", "cross_right", "junction"))
    chain("wire_left", pad_l, cross_l, L, W)
    chain("wire_right", cross_r, pad_r, L, W)
    chain("center_left", cross_l, junction, geom.l_half_gap, W)
    chain("center_right", junction, cross_r, geom.l_half_gap, W)
    # capacitor plates: up+down halves combined into one arm of twice the width
    for side, cross in (("left", cross_l), ("right", cross_r)):
        thin_end = node(f"arm_{side}_thin_end", geom.h_cap)
        chain(f"arm_{side}_thin", cross, thin_end, geom.h_cap, 2.0 * W)
        if geom.l_cap > 0:
            chain(f"arm_{side}_wide", thin_end,
                  node(f"arm_{side}_wide_end", geom.l_cap), geom.l_cap,
                  2.0 * geom.w_cap)

    areas = np.concatenate(own_area)
    for ends, half in half_cells:
        np.add.at(areas, ends, half)
    areas[[pad_l, pad_r]] += geom.s_pad

    # edge (i, j, flux) puts flux / areas[i] at G[i, j] and flux / areas[j]
    # at G[j, i]; the diagonal takes the outflow, s0 and the pad sinks
    i, j, flux = map(np.concatenate, zip(*edges))
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
    nodes = np.arange(n)
    gen = sp.csc_matrix(
        (rates,
         (np.concatenate((i, j, nodes)), np.concatenate((j, i, nodes)))),
        shape=(n, n))
    return Discretization(
        generator=gen, areas=areas, node_segment=seg,
        node_y=np.concatenate(ys), junction_index=junction,
        pad_left_index=pad_l, pad_right_index=pad_r,
        dx_by_segment=dx_by_segment, geom=geom, vortices=vortices, tp=tp,
        resolution=resolution)


def slowest_mode(disc: Discretization,
                 max_iter: int = 10_000) -> tuple[float, np.ndarray]:
    """Smallest decay rate of the generator and its spatial mode.

    Inverse power iteration on -G with an area-weighted Rayleigh quotient;
    the returned mode is the (strictly positive) slow mode normalized to 1
    at the junction node, with round-off noise clipped at zero.  A failed
    LU factorization, an iterate whose norm leaves the float64 range, and
    a converged rate not above the rounding error of its Rayleigh quotient
    raise NonConvergenceError; when the factorization fails because the
    trapping sink is below round-off of the diffusion operator, the
    message names the weak-trapping limit s = (N_L + N_R) P / A + s0.
    """
    tp = disc.tp
    total_trapping = disc.vortices.trapping_power * (
        disc.vortices.n_left + disc.vortices.n_right)
    n = disc.n_nodes
    if total_trapping == 0:
        return tp.s0, np.ones(n)
    from scipy.sparse.linalg import splu

    a_op = (-disc.generator).tocsc()
    w = disc.areas
    # round-off floors: Rayleigh quotient and residual carry noise of order
    # eps * ||A||, which dwarfs 1e-13 * lambda for a stiff mesh operator
    a_scale = float(np.abs(a_op.diagonal()).max())
    eps = float(np.finfo(float).eps)
    try:
        lu = splu(a_op)
    except RuntimeError as exc:  # e.g. "Factor is exactly singular"
        message = f"LU factorization of the generator failed: {exc}"
        s_weak = total_trapping / float(w.sum()) + tp.s0
        if s_weak <= 32.0 * eps * a_scale:
            message += ("; the trapping sink is below round-off of the "
                        "diffusion operator; the weak-trapping limit "
                        f"s = {s_weak:.6g} 1/s applies")
        raise NonConvergenceError(message) from None
    v = np.ones(n)
    lam_prev = math.inf
    for _ in range(max_iter):
        v = lu.solve(v)
        with np.errstate(over="ignore"):  # checked just below
            norm = math.sqrt(float(w @ (v * v)) / float(w.sum()))
        if not 0.0 < norm < math.inf:
            raise NonConvergenceError(
                f"inverse power iteration: the iterate's norm ({norm}) left "
                "the float64 range", best_params=v)
        v /= norm
        lam = float(w @ (v * (a_op @ v))) / float(w @ (v * v))
        if abs(lam - lam_prev) <= 1e-13 * abs(lam) + 4.0 * eps * a_scale:
            resid = a_op @ v - lam * v
            rnorm = math.sqrt(float(w @ (resid * resid)) / float(w @ (v * v)))
            if rnorm <= 1e-10 * abs(lam) + 32.0 * eps * a_scale:
                break
        lam_prev = lam
    else:
        raise NonConvergenceError(
            f"inverse power iteration did not converge in {max_iter} "
            "iterations", best_params=v, best_cost=lam)
    # rounding error of the Rayleigh quotient: 32 eps (|v|, |A| |v|) / (v, v)
    floor = 32.0 * eps * float(w @ (np.abs(v) * (abs(a_op) @ np.abs(v)))) \
        / float(w @ (v * v))
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
        check_time_grid("t_grid", self.t_grid, from_zero=True)


def _solve_piece(disc: Discretization, spec: EvolveSpec, x: np.ndarray,
                 t0: float, t_eval: np.ndarray, tol: float, scale: float,
                 driven: bool) -> np.ndarray:
    """Radau IIA solve of one drive piece, from state x at t0 to t_eval[-1].

    dy/dt = G y - r y^2 + g, plus the junction drive when `driven`; the
    absolute tolerance is 1e-3 * tol * scale.  Returns the (n_nodes,
    n_times) states at t_eval, clipped at zero.  Float overflow is not
    left to numpy's warnings: the failed solve it causes raises
    StepSizeUnderflowError naming the piece, r and the density scale.
    """
    import scipy.sparse as sp
    from scipy.integrate import solve_ivp

    gen, jj, r = disc.generator, disc.junction_index, spec.r
    src = np.full(x.size, spec.g)
    clamp = driven and spec.injection_density is not None
    free = np.flatnonzero(np.arange(x.size) != jj) if clamp else slice(None)
    overflow = []
    with np.errstate(over="call", invalid="ignore", divide="ignore",
                     call=lambda err, flag: overflow.append(err)):
        if clamp:  # the clamped junction leaves the unknowns
            src = src[free] + spec.injection_density \
                * gen[free, jj].toarray().ravel()
            gen = gen[free][:, free]
        elif driven:
            src[jj] += spec.injection_rate
        try:
            sol = solve_ivp(lambda t, y: gen @ y - r * y * y + src,
                            (t0, t_eval[-1]), x[free], method="Radau",
                            t_eval=t_eval,
                            jac=lambda t, y: gen - sp.diags(2.0 * r * y),
                            rtol=tol,
                            atol=1e-3 * tol * scale or np.finfo(float).tiny)
            why = None if sol.success else sol.message
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            why = str(exc)
    if why is not None:
        if overflow:
            why = (f"float64 overflow with r = {r:.6g} 1/s, density scale "
                   f"{scale:.6g} and generator rates up to "
                   f"{abs(gen.diagonal()).max():.6g} 1/s")
        raise StepSizeUnderflowError(
            f"stiff integrator failed on the {'' if driven else 'un'}driven "
            f"piece [{t0:.6g}, {t_eval[-1]:.6g}] s: {why}")
    ys = np.maximum(sol.y, 0.0)
    return np.insert(ys, jj, spec.injection_density, axis=0) if clamp else ys


def evolve(disc: Discretization, spec: EvolveSpec, tol: float = 1e-8,
           return_full: bool = False):
    """Integrate the full nonlinear system; return junction density at t_grid.

    dx/dt = G x - r x^2 + g (+ the junction drive) is integrated by scipy's
    Radau IIA with the exact sparse Jacobian G - 2 r diag(x), one solve per
    drive piece, [0, t_inj] and [t_inj, t_end].  A clamped junction is a
    Dirichlet node: it leaves the unknowns and feeds its neighbours through
    G[:, junction] * injection_density.  `tol` is the relative tolerance;
    the absolute tolerance is 1e-3 * tol times the largest density scale
    of the inputs (x_init, injection_density, injection_rate * t_inj, or
    g * t_end), so decaying tails keep relative accuracy over three
    decades.  Densities are clipped at zero.

    With return_full=True also returns the (n_times, n_nodes) state matrix.
    """
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
    if spec.injection_density is not None and spec.t_inj > 0:
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
    x_jj = out[:, jj].copy()
    return (x_jj, out) if return_full else x_jj


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
                              t_window_start: float = 200e-6,
                              t_end: float | None = None,
                              n_points: int = 120) -> FactorizationReport:
    """Compare full nonlinear PDE junction decay against the 0-D model.

    The PDE starts from x_init_amp times the slowest spatial mode; the 0-D
    model uses dx/dt = -r x^2 - s x + g with s the eigenmode decay rate and
    the same junction starting density.  Reports the maximum relative
    deviation of the junction trace for t >= t_window_start.  The PDE is
    integrated a decade tighter than the default so solver error stays far
    below the model deviation being measured.
    """
    check_finite("t_window_start", t_window_start, ">=")
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
