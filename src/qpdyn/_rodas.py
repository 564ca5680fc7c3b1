"""Hairer and Wanner's RODAS on a banded Jacobian: a linearly implicit
Rosenbrock method of order 4 with an embedded order-3 estimate.

E. Hairer and G. Wanner, Solving Ordinary Differential Equations II,
2nd ed. (Springer, 1996), Sec. IV.7, and the coefficient set of their
rodas.f for METH = 1.  Each step solves six linear systems with the one
matrix 1/(h gamma) I - J, J the exact Jacobian at the step's start, so it
makes one banded LU (LAPACK ?gbtrf) and one ?gbtrs per stage, and needs no
Newton iteration.  The method is L-stable and stiffly accurate: the new
state is the last stage's argument plus the sixth stage, and the embedded
solution is that argument, so the sixth stage is the error estimate.
"""

from __future__ import annotations

import math

import numpy as np

GAMMA = 0.25
# In the variables u_i of Hairer & Wanner (7.4'), stage i solves
# (1/(h gamma) I - J) u_i = f(y + sum_j A[i, j] u_j) + sum_j C[i, j] / h u_j
# for j < i, and the step ends at y + sum_j A[5, j] u_j + u_6.
A = np.zeros((6, 6))
A[1, 0] = 1.544
A[2, :2] = 0.9466785280815826, 0.2557011698983284
A[3, :3] = 3.314825187068521, 2.896124015972201, 0.9986419139977817
A[4, :4] = (1.221224509226641, 6.019134481288629, 12.53708332932087,
            -0.6878860361058950)
A[5, :5] = *A[4, :4], 1.0
C = np.zeros((6, 6))
C[1, 0] = -5.6688
C[2, :2] = -2.430093356833875, -0.2063599157091915
C[3, :3] = -0.1073529058151375, -9.594562251023355, -20.47028614809616
C[4, :4] = (7.496443313967647, -10.24680431464352, -33.99990352819905,
            11.70890893206160)
C[5, :5] = (8.083246795921522, -7.981132988064893, -31.52159432874371,
            16.31930543123136, -6.058818238834054)
_AC = np.stack((A, C), axis=-1)
for _x in (A, C, _AC):
    _x.flags.writeable = False

# A step's size changes by a factor in [1/5, 6], 0.6 err^-1/4 within it,
# so steps aim at err ~ 0.13.  rodas.f's safety factor is 0.9; at 0.6
# evolve's global error stays at or below that of scipy's Radau IIA at the
# same tolerances (test_matches_radau_with_the_sparse_jacobian), for ~1.5
# times the steps.  A call takes at most _MAX_STEPS steps, accepted or
# not (rodas.f's NMAX), and checks every _CHECK steps whether the factor's
# round-off keeps them too short to finish.  One slow check is no proof:
# where round-off bounds the steps they grow as the state falls toward
# atol (b2, res 50, D = 1e10 cm^2/s: one check's pace needs 1.3 times the
# steps left, and the piece takes 14 000), so it takes three in a row.
_SHRINK, _GROW, _SAFE = 0.2, 6.0, 0.6
_MAX_STEPS = 100_000
_CHECK = 1000


def integrate(fun, shifted, y, t0: float, t_eval: np.ndarray, rtol: float,
              atol: float, kl: int, ku: int,
              h_max: float = math.inf,
              roundoff: float = 0.0) -> tuple[np.ndarray, dict]:
    """The autonomous y' = fun(y) from y at t0, at the times t_eval > t0.

    shifted(fac, y) returns 1/(h gamma) I - J(y) for fac = 1/(h gamma) in
    LAPACK band storage with kl fill-in rows above its kl + ku + 1, as
    ?gbtrf takes it (Fortran order, which it may overwrite).  No dJ/dt or
    df/dt term is needed, as the system does not depend on t.  A step is
    accepted when the RMS over the unknowns of err_i / (atol +
    rtol max(|y_i|, |y1_i|)) is at most 1, for err the sixth stage; each
    step lands exactly on the next output time if it would reach within
    1e-4 h of it, and nothing is interpolated; an output time less than
    10 ulp of t_eval[-1] after t, a rounding error of the time grid,
    takes the state at t.  No step exceeds h_max.

    `roundoff`, eps max|J_ii| (1/s), puts an error of up to about
    roundoff h gamma |y_i| into a step h: the RMS of roundoff h gamma
    |y_i| / (atol + rtol |y_i|) times the tolerance.  Every 1000 steps
    the check is slow when that is at least 1 at their mean step h and
    the rest of the interval at that pace needs more steps than are left;
    after three slow checks in a row round-off holds the steps too short
    to finish.

    Returns the (n, t_eval.size) states and the counts: accepted steps,
    rejected ones, nfev and nlu.  Raises ArithmeticError, naming the
    cause, when a factor is singular or not finite, when an error
    estimate is not finite, when the step falls below 10 ulp of t, when
    round-off holds the steps too short to finish, or when the interval
    needs more than 100 000 steps (before the first, if steps of h_max
    cannot cover it).
    """
    from scipy.linalg.lapack import dgbtrf, dgbtrs

    span = t_eval[-1] - t0
    if span > _MAX_STEPS * h_max:
        raise ArithmeticError(
            f"the {span:.3g} s interval needs more than {_MAX_STEPS} steps "
            f"of at most {h_max:.3g} s")
    n = y.size
    ys = np.empty((n, t_eval.size))
    u = np.empty((6, n))
    t, f0 = t0, fun(y)
    t_mark, slow = t0, 0  # t at the last check, and slow checks in a row
    h = min(h_max, _first_step(y, f0, span, rtol, atol))
    steps = rejected = nlu = 0
    nfev, retry = 1, False
    # output times this close to t differ from it by the grid's round-off
    near = 10.0 * math.ulp(t_eval[-1])
    for k, t_out in enumerate(t_eval):
        while t_out - t > near:
            last = t + 1.0001 * h >= t_out
            step = t_out - t if last else h
            if not step > 10.0 * math.ulp(t):
                raise ArithmeticError(
                    f"step size {step:.3g} s fell below 10 ulp of t = "
                    f"{t:.6g} s")
            if nlu == _MAX_STEPS:
                raise ArithmeticError(
                    f"{_MAX_STEPS} steps reached t = {t:.6g} s of "
                    f"{t_eval[-1]:.6g} s")
            if nlu and nlu % _CHECK == 0:
                pace, t_mark = (t - t_mark) / _CHECK, t
                q = np.abs(y)
                q /= atol + rtol * q
                floor = roundoff * GAMMA * pace * math.sqrt(float(q @ q) / n)
                slow = slow + 1 if floor >= 1.0 and t_eval[-1] - t > (
                    _MAX_STEPS - nlu) * pace else 0
                if slow == 3:
                    raise ArithmeticError(
                        f"the factor's round-off eps max|J_ii| h gamma |y| "
                        f"is {floor:.3g} times the tolerance at the "
                        f"{pace:.3g} s a step the last {_CHECK} steps "
                        f"averaged (eps max|J_ii| = {roundoff:.3g} 1/s): "
                        f"t = {t:.6g} s of {t_eval[-1]:.6g} s would take "
                        f"more than {_MAX_STEPS} steps")
            fac = 1.0 / (step * GAMMA)
            lu, piv, info = dgbtrf(shifted(fac, y), kl, ku, overwrite_ab=True)
            nlu += 1
            # ?gbtrf passes NaN and inf through
            if info != 0 or not np.isfinite(lu).all():
                raise ArithmeticError(
                    "banded LU factor is singular or not finite")
            u[0] = f0
            u[0] = dgbtrs(lu, kl, ku, u[0], piv, overwrite_b=True)[0]
            coef = _AC * (1.0, 1.0 / step)  # stage i's A[i] and C[i] / h
            for i in range(1, 6):
                lin = coef[i, :i].T @ u[:i]
                y1 = lin[0]
                y1 += y
                rhs = fun(y1)
                rhs += lin[1]
                u[i] = dgbtrs(lu, kl, ku, rhs, piv, overwrite_b=True)[0]
            nfev += 5
            y1 += u[5]
            q = np.maximum(np.abs(y), np.abs(y1))
            q *= rtol
            q += atol
            np.divide(u[5], q, out=q)
            err = math.sqrt(float(q @ q) / n)
            if not math.isfinite(err):
                raise ArithmeticError(f"error estimate {err} is not finite")
            change = min(_GROW, max(_SHRINK, _SAFE * err ** -0.25)) \
                if err else _GROW
            if err > 1.0:
                rejected += 1
                h = step * change
                retry = True
                continue
            steps += 1
            t, y = (t_out if last else t + step), y1
            f0 = fun(y)
            nfev += 1
            # after a rejection the step does not grow; a step cut short
            # to land on t_out leaves the proposal h as it was
            if not last:
                h = min(h_max, step * (min(change, 1.0) if retry else change))
            retry = False
        ys[:, k] = y
    return ys, {"steps": steps, "rejected": rejected, "nfev": nfev,
                "nlu": nlu}


def _first_step(y, f0, span, rtol, atol):
    """The first step size, 0.01 |y| / |f(y)| in the error norm, or 1e-6
    when either is below 1e-5 (Hairer, Norsett & Wanner I, Sec. II.4, whose
    explicit correction overshoots a stiff start), at most span."""
    scale = atol + rtol * np.abs(y)
    d0, d1 = (math.sqrt(float(np.mean(np.square(x / scale))))
              for x in (y, f0))
    return min(span, 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1)
