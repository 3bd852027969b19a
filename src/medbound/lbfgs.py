"""Limited-memory BFGS for smooth unconstrained minimization, in numpy only.

The unconstrained path of L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci.
Comput. 16, 1190 (1995)) with its constants, step rules and stop tests, so a
solve takes its iterates up to rounding: the direction -g without pairs, else
-H g (`_Memory`); Moré & Thuente's line search from the step 1/|d| on the first
iteration without pairs and 1 otherwise; a direction that is not one of
descent, or a search without a step in `MAXLS` evaluations, drops the pairs
and starts again from -g, and without pairs ends the solve; a pair is kept
when s^T y > eps stp (-g^T d); stop after a step with max |g| <= gtol, a
relative decrease of f of at most `FTOL`, or the `maxiter`-th step.

A solve hands back the pairs it holds at its end (`MinimizeResult.pairs`, a
(k, 2, n) array of (s, y), oldest first), and takes such pairs in
(`pairs`): a later solve of a nearby problem then starts from their -H g
with the step 1, which is L-BFGS-B's rule once its memory holds pairs,
instead of relearning the curvature from -g. Each pair given must have
s^T y > 0. Without pairs (None, or none) the iterates are those of a cold
solve, bit for bit.

`_dcsrch` and `_dcstep` port MINPACK-2's (Argonne National Laboratory and
University of Minnesota: Jorge J. Moré, David J. Thuente, Brett M. Averick and
Richard G. Carter) after SciPy's translation, `scipy.optimize._dcsrch`,
which carries this notice:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers. All rights reserved.

    Redistribution and use in source and binary forms, with or without modification, are
    permitted provided that the following conditions are met:

    1. Redistributions of source code must retain the above copyright notice, this list of
       conditions and the following disclaimer.
    2. Redistributions in binary form must reproduce the above copyright notice, this list of
       conditions and the following disclaimer in the documentation and/or other materials
       provided with the distribution.
    3. Neither the name of the copyright holder nor the names of its contributors may be used to
       endorse or promote products derived from this software without specific prior written
       permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS IS" AND ANY EXPRESS
    OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO, THE IMPLIED WARRANTIES OF
    MERCHANTABILITY AND FITNESS FOR A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE
    COPYRIGHT HOLDER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL,
    EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO, PROCUREMENT OF
    SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR PROFITS; OR BUSINESS INTERRUPTION)
    HOWEVER CAUSED AND ON ANY THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR
    TORT (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE OF THIS SOFTWARE,
    EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

__all__ = ["MAXCOR", "MAXLS", "FTOL", "MinimizeResult", "minimize"]

MAXCOR = 25         # pairs held
MAXLS = 50          # evaluations per line search: a unit step can overshoot far
FTOL = 1e-16        # stop once a step lowers f by at most this, relative

_EPS = float(np.finfo(float).eps)
_STPMAX = 1e10
_DECREASE, _CURVATURE, _XTOL = 1e-3, 0.9, 0.1   # dcsrch's ftol, gtol, xtol


# `status`: the stop test met ("gtol", "ftol", "maxiter"), or "line search" for no
# step; `pairs`: the (s, y) pairs held at the end, a (k, 2, n) array, oldest first
MinimizeResult = namedtuple("MinimizeResult", "x fun jac nit nfev status pairs")


class _Memory:
    """The newest `MAXCOR` pairs (s, y) and the inverse Hessian they define
    (Byrd, Nocedal & Schnabel, Math. Prog. 63, 129 (1994), Thm 2.2),

        H = gamma I + [S  gamma Y] [[R^-T (D + gamma Y^T Y) R^-1, -R^-T],
                                    [-R^-1,                        0   ]] [S  gamma Y]^T,

    R the upper triangle of S^T Y, D its diagonal, gamma = 1 / theta with
    L-BFGS-B's theta = y^T y / s^T y of the newest pair. Pair j sits in slot
    j mod MAXCOR; R^-1 (a permuted triangle) and Y^T Y are indexed by slot, and
    a new pair borders both once the evicted pair's R^-1 entries are zeroed."""

    def __init__(self, n: int):
        self.w = np.empty((MAXCOR, 2, n))
        self.rinv, self.yy = np.zeros((2, MAXCOR, MAXCOR))
        self.sy, self.gamma = np.zeros(MAXCOR), 1.0
        self.k = self.slot = 0      # pairs held, where the next one goes

    def add(self, s: np.ndarray, y: np.ndarray, sy: float, yy: float):
        j, k = self.slot, min(self.k + 1, MAXCOR)
        self.w[j] = s, y
        dots = self.w[:k].reshape(2 * k, -1) @ y      # s_i^T y and y_i^T y
        rinv = self.rinv
        rinv[j] = rinv[:, j] = 0.0
        rinv[:k, j] = rinv[:k, :k] @ dots[0::2] / -sy
        rinv[j, j] = 1.0 / sy
        self.yy[j, :k] = self.yy[:k, j] = dots[1::2]
        self.yy[j, j], self.sy[j], self.gamma = yy, sy, 1.0 / (yy / sy)
        self.k, self.slot = k, (j + 1) % MAXCOR

    def pairs(self) -> np.ndarray:
        """The pairs held, (k, 2, n), oldest first."""
        return self.w[(self.slot - self.k + np.arange(self.k)) % MAXCOR]

    def direction(self, g: np.ndarray) -> np.ndarray:
        """-H g."""
        k, gamma = self.k, self.gamma
        w = self.w[:k].reshape(2 * k, -1)
        dots = w @ g
        rinv = self.rinv[:k, :k]
        u = rinv @ dots[0::2]
        coef = np.empty(2 * k)
        coef[0::2] = (self.sy[:k] * u + gamma * (self.yy[:k, :k] @ u - dots[1::2])) @ rinv
        coef[1::2] = -gamma * u
        d = coef @ w
        d += gamma * g
        return np.negative(d, out=d)


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """One safeguarded step of Moré-Thuente: the new trial step and the
    updated interval (stx, fx, dx), (sty, fy, dy) that holds a minimizer."""
    def cubic(a, fa, da, clip=False):
        # theta and gamma of the cubic through (a, fa, da) and (stp, fp, dp)
        theta = 3.0 * (fa - fp) / (stp - a) + da + dp
        s = max(abs(theta), abs(da), abs(dp))
        disc = (theta / s) ** 2 - (da / s) * (dp / s)
        gamma = s * math.sqrt(max(0.0, disc) if clip else disc)
        return theta, -gamma if stp > a else gamma

    opposite = dp < 0.0 < dx or dx < 0.0 < dp
    if fp > fx:
        # higher f, bracketed: the cubic step if nearer stx than the quadratic's
        theta, gamma = cubic(stx, fx, dx)
        gamma = -gamma
        stpc = stx + ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp) * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) <= abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:
        # lower f, slopes of opposite sign, bracketed: the farther of cubic and secant
        theta, gamma = cubic(stx, fx, dx)
        stpc = stp + ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx) * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # lower f, |slope| shrinking: the cubic step if the cubic's minimum lies
        # beyond stp (or it falls without bound there), else the secant step
        theta, gamma = cubic(stx, fx, dx, clip=True)
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        stpc = (stp + r * (stx - stp) if r < 0.0 and gamma != 0.0
                else stpmax if stp > stx else stpmin)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            bound = stp + 0.66 * (sty - stp)
            stpf = min(bound, stpf) if stp > stx else max(bound, stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = min(max(stpf, stpmin), stpmax)
    elif brackt:
        # lower f, |slope| not shrinking, bracketed: the cubic step toward sty
        theta, gamma = cubic(sty, fy, dy)
        stpf = stp + ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy) * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin

    if fp > fx:
        return stx, fx, dx, stp, fp, dp, stpf, brackt
    if opposite:
        sty, fy, dy = stx, fx, dx
    return stp, fp, dp, sty, fy, dy, stpf, brackt


def _dcsrch(phi, f0: float, g0: float, stp: float):
    """Moré-Thuente's search for a step with f(stp) <= f0 + 1e-3 stp g0 and
    |phi'(stp)| <= 0.9 |g0| (slope g0 < 0 at 0; `phi(stp)` returns (f,
    slope)), or one it warns about, as L-BFGS-B accepts both: the accepted
    (stp, slope), or None after `MAXLS` evaluations, and the evaluations."""
    gtest = _DECREASE * g0
    width, width1 = _STPMAX, 2.0 * _STPMAX
    brackt, psi = False, True       # psi: search on f(t) - f0 - 1e-3 t g0 (stage 1)
    stx, fx, gx = sty, fy, gy = 0.0, f0, g0
    stmin, stmax = 0.0, stp + 4.0 * stp
    for nfev in range(1, MAXLS + 1):
        f, g = phi(stp)
        ftest = f0 + stp * gtest
        psi = psi and not (f <= ftest and g >= 0.0)
        if (brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= _XTOL * stmax)
                or stp == _STPMAX and f <= ftest and g <= gtest
                or stp == 0.0 and (f > ftest or g >= gtest)
                or f <= ftest and abs(g) <= _CURVATURE * -g0):
            return (stp, g), nfev
        try:
            if psi and fx >= f > ftest:
                stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                    stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest, gy - gtest,
                    stp, f - stp * gtest, g - gtest, brackt, stmin, stmax)
                fx, fy, gx, gy = fxm + stx * gtest, fym + sty * gtest, gxm + gtest, gym + gtest
            else:
                stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                    stx, fx, gx, sty, fy, gy, stp, f, g, brackt, stmin, stmax)
        except (ValueError, ZeroDivisionError):
            return None, nfev
        if brackt:
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), _STPMAX)
        if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= _XTOL * stmax):
            stp = stx       # no further progress: the best step so far
        if not math.isfinite(stp):
            return None, nfev
    return None, MAXLS


def minimize(fun, x0, *, gtol: float, maxiter: int, pairs=None) -> MinimizeResult:
    """Minimize `fun`, which returns (f, gradient), from `x0`. `pairs`, a
    (k, 2, n) array of (s, y) oldest first as `MinimizeResult.pairs` holds
    them, fills the memory before the first step (the newest `MAXCOR` of
    them)."""
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    nfev, nit, mem, trial = 1, 0, _Memory(x.size), []
    for s, y in ([] if pairs is None else pairs[-MAXCOR:]):
        mem.add(s, y, float(s @ y), float(y @ y))

    def phi(stp):
        xt = stp * d + x
        ft, gt = fun(xt)
        trial[:] = xt, ft, gt
        return ft, float(gt @ d)

    status = "gtol" if float(np.max(np.abs(g))) <= gtol else None
    while status is None:
        d = mem.direction(g) if mem.k else -g
        gd = float(g @ d)
        found, evals = (None, 0) if gd >= 0.0 else _dcsrch(
            phi, f, gd,
            min(1.0 / math.sqrt(d @ d), _STPMAX) if nit == 0 and not mem.k else 1.0)
        nfev += evals
        if found is None:
            status = None if mem.k else "line search"
            mem.k = mem.slot = 0
            continue
        (stp, gd_new), f_old, g_old = found, f, g
        x, f, g = trial
        nit += 1
        status = ("gtol" if float(np.max(np.abs(g))) <= gtol
                  else "ftol" if f_old - f <= FTOL * max(abs(f_old), abs(f), 1.0)
                  else "maxiter" if nit >= maxiter else None)
        y = g - g_old
        if stp == 1.0:
            sy, s, scale = gd_new - gd, d, -gd
        else:
            sy, s, scale = (gd_new - gd) * stp, stp * d, -gd * stp
        if status is None and sy > _EPS * scale:
            mem.add(s, y, sy, float(y @ y))
    return MinimizeResult(x, f, g, nit, nfev, status, mem.pairs())
