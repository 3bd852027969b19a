import math

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize, rosen, rosen_der

from medbound.lbfgs import FTOL, MAXCOR, MAXLS, _Memory, minimize


def rosenbrock(x):
    return rosen(x), rosen_der(x)


def spd_quadratic(n=40, cond=1e3, seed=0):
    """f(x) = x^T A x / 2 - b^T x with A's eigenvalues log-spaced over `cond`."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.logspace(0, np.log10(cond), n)) @ q.T
    b = rng.standard_normal(n)
    return lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b)


def iterates(fun, x0, gtol, steps):
    """The first `steps` accepted iterates of a solve: a solve capped at k
    steps ends at the k-th iterate of the uncapped one."""
    return [minimize(fun, x0, gtol=gtol, maxiter=k).x for k in range(1, steps + 1)]


def reference(fun, x0, gtol, maxiter, callback=None):
    """scipy's L-BFGS-B under the constants of `medbound.lbfgs`."""
    return scipy_minimize(fun, x0, jac=True, method="L-BFGS-B", callback=callback,
                          options={"gtol": gtol, "maxiter": maxiter, "ftol": FTOL,
                                   "maxcor": MAXCOR, "maxls": MAXLS})


def test_rosenbrock_takes_l_bfgs_b_steps():
    x0 = np.array([-1.2, 1.0])
    ref = reference(rosenbrock, x0, 1e-8, 1000)
    res = minimize(rosenbrock, x0, gtol=1e-8, maxiter=1000, pairs=None)
    assert res.status == "gtol" and ref.success
    assert (res.nit, res.nfev) == (ref.nit, ref.nfev)
    assert np.max(np.abs(res.x - ref.x)) <= 1e-12
    assert abs(res.fun - rosenbrock(res.x)[0]) == 0.0


def test_quadratic_iterates_follow_l_bfgs_b():
    fun = spd_quadratic()
    theirs = []
    reference(fun, np.zeros(40), 1e-12, 20, callback=lambda xk: theirs.append(xk.copy()))
    ours = iterates(fun, np.zeros(40), 1e-12, 20)
    assert len(theirs) == 20
    for k, (a, b) in enumerate(zip(ours, theirs)):
        assert np.max(np.abs(a - b)) <= 1e-12, k


@pytest.mark.parametrize("case", ["rosenbrock", "quadratic"])
def test_accepted_steps_meet_strong_wolfe(case):
    fun = rosenbrock if case == "rosenbrock" else spd_quadratic()
    x0 = np.array([-1.2, 1.0]) if case == "rosenbrock" else np.zeros(40)
    seen = {}

    def recording(x):
        seen[x.tobytes()] = value = fun(x)
        return value
    res = minimize(recording, x0, gtol=1e-6, maxiter=200)
    path = [x0] + iterates(recording, x0, 1e-6, res.nit)
    assert res.nit > 10 and np.array_equal(path[-1], res.x)
    for a, b in zip(path, path[1:]):
        (fa, ga), (fb, gb) = seen[a.tobytes()], seen[b.tobytes()]
        slope = ga @ (b - a)
        assert slope < 0.0
        assert fb <= fa + 1e-3 * slope
        assert abs(gb @ (b - a)) <= 0.9 * abs(slope)


def test_climbing_objective_ends_where_it_started():
    # the gradient handed back is -grad f, so every search climbs: as in
    # L-BFGS-B, the search shrinks the step until x no longer moves, accepts
    # that on its warning exit, and the solve stops on the decrease test
    def climbing(x):
        f, g = rosenbrock(x)
        return f, -g
    x0 = np.array([-1.2, 1.0])
    res = minimize(climbing, x0, gtol=1e-8, maxiter=100)
    ref = reference(climbing, x0, 1e-8, 100)
    assert res.status == "ftol" and res.nit == ref.nit == 1
    assert np.array_equal(res.x, x0) and np.array_equal(ref.x, x0)
    assert np.max(np.abs(res.jac)) > 1e-8


def test_search_without_a_step_ends_unconverged_without_one():
    # f and its gradient are nan off the start, so no trial step passes a
    # test: the search runs out of evaluations with no pairs to drop
    x0 = np.array([-1.2, 1.0])

    def nan_off_start(x):
        f, g = rosenbrock(x)
        return (f, g) if np.array_equal(x, x0) else (math.nan, g * math.nan)
    res = minimize(nan_off_start, x0, gtol=1e-8, maxiter=100)
    assert res.status == "line search"
    assert (res.nit, res.nfev) == (0, 1 + MAXLS)
    assert np.array_equal(res.x, x0)


def test_stops_at_maxiter():
    res = minimize(rosenbrock, np.array([-1.2, 1.0]), gtol=1e-8, maxiter=7)
    assert res.status == "maxiter" and res.nit == 7


def test_start_on_target_takes_no_step():
    res = minimize(rosenbrock, np.ones(2), gtol=1e-8, maxiter=10)
    assert res.status == "gtol" and (res.nit, res.nfev) == (0, 1)


def test_pairs_are_the_newest_steps_oldest_first():
    # more steps than the memory holds; the last step ends the solve and
    # leaves no pair
    fun = spd_quadratic()
    res = minimize(fun, np.zeros(40), gtol=1e-14, maxiter=MAXCOR + 10)
    path = [np.zeros(40)] + iterates(fun, np.zeros(40), 1e-14, MAXCOR + 10)
    assert res.status == "maxiter" and res.pairs.shape == (MAXCOR, 2, 40)
    steps = np.diff(np.array(path), axis=0)[:-1][-MAXCOR:]
    grads = np.diff(np.array([fun(x)[1] for x in path]), axis=0)[:-1][-MAXCOR:]
    assert np.max(np.abs(res.pairs[:, 0] - steps)) <= 1e-12
    assert np.max(np.abs(res.pairs[:, 1] - grads)) <= 1e-10


def test_given_pairs_start_from_their_direction_with_step_one():
    fun = spd_quadratic()
    first = minimize(fun, np.zeros(40), gtol=1e-14, maxiter=8)
    mem = _Memory(40)
    for s, y in first.pairs:
        mem.add(s, y, float(s @ y), float(y @ y))
    seen = []

    def recording(x):
        seen.append(x.copy())
        return fun(x)
    minimize(recording, first.x, gtol=1e-14, maxiter=1, pairs=first.pairs)
    expect = first.x + mem.direction(fun(first.x)[1])
    assert np.max(np.abs(seen[1] - expect)) <= 1e-12


def test_restart_with_pairs_beats_a_cold_restart():
    # 87 steps cold, 71 from the first solve's pairs
    fun = spd_quadratic(n=20)
    first = minimize(fun, np.zeros(20), gtol=1e-6, maxiter=20)
    assert first.status == "maxiter" and len(first.pairs) == 19
    cold = minimize(fun, first.x, gtol=1e-6, maxiter=1000)
    warm = minimize(fun, first.x, gtol=1e-6, maxiter=1000, pairs=first.pairs)
    assert cold.status == warm.status == "gtol"
    assert warm.nit < cold.nit
    # no pairs given is the cold solve
    empty = minimize(fun, first.x, gtol=1e-6, maxiter=1000, pairs=first.pairs[:0])
    assert (empty.nit, empty.nfev) == (cold.nit, cold.nfev)
    assert np.array_equal(empty.x, cold.x)
