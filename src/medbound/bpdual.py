"""Fixed-point (belief propagation) solver for the chain dual.

A BP problem is a `medbound.med.MedProblem` plus a temperature: chain
windows of n+1 sites, each shielded by its first n (the first window of an
open chain has no shield), and one constraint per overlap tying the last n
sites of a window to the first n of the next; a constraint from a cluster
to itself is the translation-invariant chain (`BPProblem` rejects any
other shape). The stationarity conditions of its free energy turn into
message equations between neighboring clusters: with Lambda_k the
exponential of minus the cluster Hamiltonian (over T), and odot the
log-space product,

    m_{k -> k-1}  prop  Tr_last(Lambda_k o m_{k+1->k} o m_{k-1->k}) o m_{k-1->k}^{-1}
    m_{k -> k+1}  prop  Tr_first(Lambda_k o m_{k+1->k} o m_{k-1->k}) o m_{k+1->k}^{-1}
    rho_k         prop  Lambda_k o m_{k+1->k} o m_{k-1->k}

The inverse factors only drop out when partial trace and the log-space
product commute (classical case).

Messages are positive definite operators on the n-site overlaps, carried as
their logs. A BP state is the unit-trace logs of its messages. The message
equations are the stationarity conditions of the MED objective, so a state
is a primal point (`bp_point`) on the primal solver's cached layout
(`med._Compiled`): G_k = log Lambda_k plus the incoming logs, and -T times
the unit-trace log of its "L" message on constraint j. The bound, the
beliefs and the consistency are read off it, so both solvers read one
problem description. An update adds the incoming logs to log Lambda_k, takes
one eigendecomposition U diag(p) U^dagger of the cluster belief, logs the
marginals it sends and subtracts the incoming logs. A marginal is
F F^dagger, F the eigen-factor U sqrt(p) with its rows gathered over the
traced site; its log, from the SVD of F, keeps the small eigenvalues that a
dense partial trace and eigh round off at about 1e-16 absolute: at the TFIM
n=4 T=0.1 fixed point the smallest, 2.76e-13, is within 3e-13 relative of a
40-digit value (dense: 2.5e-5). Beliefs and the bound read the carried logs
as they are. Open chains use identity messages beyond both ends.

Rounds. A round sends every message once. An open chain sweeps forward
(right-moving messages), then backward, and each step writes its new logs
outright: the clusters form a tree, the forward sweep reads right-moving
messages of the same round and the backward sweep left-moving ones, so no
message feeds back into itself within a round (Leifer & Poulin, Ann. Phys.
323, 1899 (2008)). The translation-invariant pair is updated jointly, from
one belief, and its step writes the damped mix of old and new logs, with
weight 0.8 (`_DAMPING`) on the new ones, a measured weight. With dense,
clamped marginal logs the undamped pair kept a period-2 mode (TFIM n=6
T=0.3: residual 0.254 over rounds 50-800) and ran at 0.5; with the factor
logs that plain round converges in 32 rounds. On the benchmark's 15 TI
cases 0.5, 0.7, 0.8, 0.9 and 1.0 take 290, 250, 242, 237 and 236 rounds;
in 3000 rounds TFIM n=4 T=0.1 converges at 0.8 (1604) but not at 0.5 or
0.7, and n=6 T=0.1 at 0.8 (2436) but not at 1.0. Steps leave their logs
unnormalized: a scalar shift of an incoming log cancels in the normalized
belief, so it changes the logs a step sends only by multiples of the
identity. The round normalizes once, with one batched eigendecomposition
of all message logs, which gives their unit-trace logs and the messages.

This round map G acts on the point x of all unit-trace message logs. The
next point is not G(x) but its type-II Anderson mix (Walker & Ni, SIAM J.
Numer. Anal. 49, 1715 (2011)) of depth `_HISTORY`: with the columns of F
and D the differences between rounds of f = G(x) - x and of G(x), over the
last `_HISTORY` rounds and read as real vectors, gamma minimizes
||f - F gamma|| over real coefficients and the next point is G(x) - D gamma,
shifted back to unit trace. Any real combination of Hermitian logs is
Hermitian and its exponential is positive definite, so the mix keeps every
message positive whatever gamma is; a mix of the messages themselves would
not. A rank-deficient least-squares system or a mix that is not finite
clears the history, and that round takes G(x); a rising residual does not.
The residual is the largest trace distance that one plain round moves a
message from the point the round started at, and the returned state is that
round's output G(x), so both read as they would without the mix.

Layout. A problem is compiled once per sector rule, into a `_Layout` cached
on it: one cluster and one message `_Flat` of `medbound.layout`. Cluster
logs, messages and message logs are rows of flat vectors, and a matrix
function is one batched call per block size over all the rows it acts on.
Each side of a cluster, its first or its last n sites, has an embedding
gather (`_Flat.trace_map`'s `at`, with a zero slot for the entries it does
not reach) and a factor map (`_Flat.factor_map`, one batched SVD per
message stack), both built with the layout, so no step builds a map. Dense
matrices appear only at the interface: the logs of `BPState`, the messages
`bp_update` returns and the beliefs.

The restriction to sectors is exact. Here the charge is the total charge
mod the modulus the sector rule picks (`layout._sector_rule`: U(1), then
Z2, then one sector). When log Lambda_k commutes with it, so does every
iterate: the identity start messages commute with it, the sum of
commuting logs and its exponential commute with it, the partial trace of a
charge-commuting state commutes with the charge of the sites it keeps, and
logs, differences, real combinations (damping and Anderson mixes) and
normalization keep that. The dense iteration would therefore stay block
diagonal in exact arithmetic; the block iteration keeps the off-sector
zeros exact. The rule is the primal solver's, with the message logs a
caller passes in checked too; with one sector the same code runs on one
block per matrix.

The global flip of the local index (X on every qubit) is exact in the same
way: when every log Lambda_k and every given log is invariant under it,
so is every iterate, since the identity start messages are, and sums of
logs, exponentials, partial traces (the flip acts site by site), logs and
real combinations map flip-invariant operators to flip-invariant ones.
The layout then carries each mirror pair of sector blocks once. The
trace distance of the residual and the Anderson least squares count every
carried entry by its multiplicity (components weighed by sqrt(mult)), so
the iteration is the U(1) one in exact arithmetic. The returned logs are
symmetrized, each entry of a self-mirror block averaged with its mirror
entry (`_Flat.flip_average`, the primal solver's average too), since
roundoff leaves such a block about 1e-13 off invariant: a state reads as
the layout its loop ran on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# build_lattice, ptrace_mat, logm_psd, sym, trace_product and entropy_mat are
# not called here; they stay attributes because perfbench/tracing.py wraps them
from medbound.lattice import (  # noqa: F401
    LatticeSpec,
    ModelSpec,
    _is_count,
    build_lattice,
    finite_geometry,
    ti_chain_geometry,
)
from medbound.layout import _Flat, _Rule, _sector_rule
from medbound.med import (
    Constraint,
    MedProblem,
    VarSpec,
    _compiled,
    _total,
    ti_problem,
)
from medbound.opalg import (  # noqa: F401
    embed_mat,
    entropy_mat,
    logm_psd,
    ptrace_mat,
    sym,
    trace_product,
)

__all__ = [
    "BPConfig",
    "BPState",
    "BPProblem",
    "bp_ti_problem",
    "bp_chain_problem",
    "bp_update",
    "bp_fixed_point",
    "bp_point",
    "beliefs_from_messages",
    "belief_consistency",
    "bp_free_energy",
]


_DAMPING = 0.8      # log-space step toward the new message (TI pair)
_HISTORY = 5        # depth of the Anderson mix of rounds


@dataclass(frozen=True)
class BPConfig:
    """`tol_residual` bounds the residual of a round, the largest trace
    distance by which one plain round moves a message: on the TI chain the
    damped step, on an open chain the full one. It does not bound how far
    the bound lies from its value at the fixed point: on eight TI n=2 chains
    with random complex Hermitian cluster Hamiltonians, stopping at 1e-8 left
    `bp_free_energy` up to 3.8e-8 (T = 1.0) and 6.4e-8 (T = 0.7) from its
    value at 1e-13. A stop on the certified gap would bound that (ROADMAP
    item 5). `max_iters` caps the number of rounds."""

    tol_residual: float = 1e-8
    max_iters: int = 10000

    def __post_init__(self):
        if not 0 < self.tol_residual < math.inf:
            raise ValueError("tol_residual must be positive and finite")
        if not _is_count(self.max_iters):
            raise ValueError("max_iters must be an integer >= 1")


@dataclass(eq=False)
class BPState:
    """The unit-trace message logs the loop carried, keyed by message name
    ("L"/"R" on the TI chain, (side, sender key) on an open one); `status`,
    the loop's stop: "tol", "max_iters" or "linalg" (LAPACK's eigh or svd
    raised LinAlgError), None on a state built by hand."""

    logs: dict
    residual: float
    iterations: int
    converged: bool
    status: str | None = None


@dataclass(frozen=True, eq=False)
class BPProblem:
    problem: MedProblem     # chain windows and their overlap constraints
    T: float
    ti: bool = field(init=False, repr=False)    # one window tied to itself
    _layouts: dict = field(default_factory=dict, init=False, repr=False)  # by rule (`_layout`)

    def __post_init__(self):
        """Reject any other shape: windows of n+1 sites on one dims tuple
        (first and last n sites alike), each with a Hamiltonian and, but
        the first of an open chain, shielded by its first n sites;
        each constraint ties a window's last n sites to the first n of the
        next key (TI: its one window to itself)."""
        if not 0 < self.T < math.inf:
            raise ValueError("temperature must be positive and finite")
        variables, constraints = self.problem.variables, self.problem.constraints
        dims = tuple(variables[0].dims)
        n = len(dims) - 1
        first, last = tuple(range(n)), tuple(range(1, n + 1))
        keys = [v.key for v in variables]
        pairs = [(c.left_key, c.right_key) for c in constraints]
        object.__setattr__(self, "ti", len(keys) == 1 and pairs == [(keys[0], keys[0])])
        if not (n >= 1 and dims[:n] == dims[1:]
                and (self.ti or pairs == list(zip(keys, keys[1:])))
                and all(tuple(c.left_axes) == last and tuple(c.right_axes) == first
                        for c in constraints)
                and all(tuple(v.dims) == dims and v.ham is not None
                        and tuple(v.shield_axes) == (first if self.ti or i else ())
                        for i, v in enumerate(variables))):
            raise ValueError("BP runs on chain windows tied last n sites to first n")


def bp_ti_problem(model: ModelSpec, n: int, T: float) -> BPProblem:
    """Translation-invariant chain with an n-site window (cluster of n+1):
    `med.ti_problem(ti_chain_geometry(model, n))` at temperature T."""
    if not _is_count(n):
        raise ValueError("window size n must be an integer >= 1")
    return BPProblem(ti_problem(ti_chain_geometry(model, int(n))), T)


def bp_chain_problem(spec: LatticeSpec, model: ModelSpec, n: int, T: float) -> BPProblem:
    """Finite open chain: clusters are the length-(n+1) windows k = n..N-1,
    each but the first shielded by its first n sites. Terms go to clusters
    by the lattice's highest-site rule (`finite_geometry` with radius n);
    the clusters of the sites before the first full window are summed into
    it."""
    if spec.kind != "chain" or spec.boundary != "open":
        raise ValueError("the dual solver runs on finite open chains (or ti)")
    n_sites = spec.n_sites
    if not _is_count(n) or n + 1 > n_sites:
        raise ValueError("window must be an integer n with 1 <= n <= N-1")
    n = int(n)
    geo = finite_geometry(spec, model, radius=n)
    window = (2,) * (n + 1)
    first, last = tuple(range(n)), tuple(range(1, n + 1))
    hams = {n: sum(embed_mat(geo.hams[j], window, tuple(range(j + 1))) for j in range(n + 1)),
            **{k: geo.hams[k] for k in range(n + 1, n_sites)}}
    variables = tuple(VarSpec(key=k, dims=window, ham=ham, shield_axes=first if k > n else ())
                      for k, ham in hams.items())
    constraints = tuple(Constraint(k - 1, last, k, first) for k in range(n + 1, n_sites))
    return BPProblem(MedProblem(variables, constraints, site_norm=float(n_sites)), T)


# ---------------------------------------------------------------------------
# the compiled problem
# ---------------------------------------------------------------------------

class _Layout:
    """A BP problem laid out under one sector rule, built once and cached on
    the problem (`_layout`).

    - `cluster`/`msg`: block layouts of one (n+1)-site cluster matrix and
      one n-site message, used with one row per matrix; `lam` holds
      log Lambda_k = -H_k / T, one row per cluster.
    - Messages: each constraint (a on its last n sites, b on its first n)
      carries a -> b, named "R", and b -> a, named "L"; on an open chain the
      name also holds the sender's key. The store holds their logs, one row
      each in `names` order, plus a zero row standing for "no message"
      (beyond an open end) and a zero column, the slot of the cluster
      entries an embedding does not reach.
    - `embed`: per side ("L": the first n sites, "R": the last n), the
      message entry embedded at each cluster entry (`_Flat.trace_map`'s
      `at`), the zero column where there is none.
    - `factors`: per tuple of sides a step sends to, their factor maps
      (`_Flat.factor_map`), one (sides, k, b, C) array per message stack.
      A step builds no map: it gathers."""

    def __init__(self, problem: BPProblem, rule: _Rule):
        variables = problem.problem.variables
        self.rule = rule
        n = len(variables[0].dims) - 1
        self.cluster = c = _Flat([variables[0].dims], rule)
        self.msg = m = _Flat([variables[0].dims[:n]], rule)
        self.keys = [v.key for v in variables]
        self.dim = int(np.prod(variables[0].dims[:n]))
        self.lam = -c.from_dense([np.array([v.ham for v in variables])]) / problem.T
        labels = m.to_dense(np.arange(1.0, m.n + 1.0))[0]
        self.embed, factors = {}, []
        for side, axes in (("L", range(n)), ("R", range(1, n + 1))):
            self.embed[side] = np.where((at := c.trace_map(0, labels, axes)[3]) < 0, m.n, at)
            factors.append(c.factor_map(0, m, tuple(axes)))
        both = [np.stack(pair) for pair in zip(*factors)]     # "L" and "R" per message stack
        self.factors = {sides: [a[rows] for a in both] for sides, rows in zip(
            [("L",), ("R",), ("L", "R")], [slice(1), slice(1, 2), slice(2)])}

        self.ti = problem.ti
        index = {k: i for i, k in enumerate(self.keys)}
        # per constraint: the sender and receiver index of its two messages
        self.edges = [(index[con.left_key], index[con.right_key])
                      for con in problem.problem.constraints]
        self.names = ([self.name("R", a) for a, _ in self.edges]
                      + [self.name("L", b) for _, b in self.edges])
        self.none = len(self.names)
        self.row = {name: i for i, name in enumerate(self.names)}
        # per cluster: store rows of the message from the left (on the first
        # n sites) and of the message from the right (on the last n sites)
        self.incoming = np.full((len(self.keys), 2), self.none)
        for j, (a, b) in enumerate(self.edges):
            self.incoming[b, 0] = j
            self.incoming[a, 1] = len(self.edges) + j

    def name(self, side: str, i: int):
        """The message cluster i sends to `side`."""
        return side if self.ti else (side, self.keys[i])

    def store(self, logs: np.ndarray) -> np.ndarray:
        out = np.zeros((self.none + 1, self.msg.n + 1),
                       dtype=np.result_type(logs, self.lam))
        out[:-1, :-1] = logs
        return out

    # -- kernels -----------------------------------------------------------------

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per row: the trace distance (1/2) ||a - b||_1."""
        return 0.5 * (np.abs(self.msg.eigvals(a - b)) * self.msg.eig_mult).sum(axis=-1)

    def cluster_logs(self, store, rows: slice) -> np.ndarray:
        """log Lambda plus the embedded incoming logs, one row per cluster of
        the slice `rows`: the BP point G_k."""
        left, right = self.incoming[rows].T
        return (self.lam[rows] + store[left].take(self.embed["L"], axis=1)
                + store[right].take(self.embed["R"], axis=1))

    def outgoing(self, store, i: int, sides) -> np.ndarray:
        """Logs (up to a scalar) of the messages cluster i sends to `sides`
        ("L": its left neighbour, "R": its right one), one row per side. One
        eigendecomposition of the belief and one SVD per message stack serve
        every side; each side divides out the message it received from the
        neighbour it sends to."""
        f = self.cluster.factor(self.cluster.spectrum(
            self.cluster_logs(store, slice(i, i + 1))))[0]
        logs = self.msg.log_gram([f[maps] for maps in self.factors[sides]])
        return logs - store[self.incoming[i, ["LR".index(side) for side in sides]], :-1]

    @staticmethod
    def mix(store, rows, out, alpha: float) -> None:
        """Move the store rows `rows` a step `alpha` toward the new logs
        `out`: the convex mix of logs, left unnormalized."""
        store[rows, :-1] = (1.0 - alpha) * store[rows, :-1] + alpha * out

    def normalize(self, logs):
        """The unit-trace shift of message logs (one row each) and their
        normalized exponentials, from one batched eigendecomposition."""
        eig = self.msg.exp(logs)
        return self.msg.unit_log(logs, eig), eig.rho


def _layout(problem: BPProblem, logs=()) -> _Layout:
    """The layout under the sector rule of the cluster Hamiltonians (read
    once per problem, `MedProblem._rule`) and the given message logs, cached
    on the problem."""
    dims = problem.problem.variables[0].dims[1:]
    rule = _sector_rule([(m, dims) for m in logs], problem.problem._rule)
    lay = problem._layouts.get(rule)
    if lay is None:
        lay = problem._layouts[rule] = _Layout(problem, rule)
    return lay


def _state_store(state: BPState, problem: BPProblem):
    """The layout of a state's problem and the store of its message logs.
    Logs of another problem (other names, or not dim x dim on the problem's
    n-site overlap) or not finite raise ValueError."""
    lay = _layout(problem)
    if (set(state.logs) != set(lay.names)
            or any(np.shape(m) != (lay.dim, lay.dim) for m in state.logs.values())):
        raise ValueError("the message logs are for another problem")
    if not all(np.isfinite(m).all() for m in state.logs.values()):
        raise ValueError("the message logs are not finite")
    lay = _layout(problem, state.logs.values())
    rows = np.reshape([state.logs[name] for name in lay.names], (-1, lay.dim, lay.dim))
    return lay, lay.store(lay.msg.from_dense([rows]))


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def bp_update(k, state: BPState, problem: BPProblem) -> dict:
    """Outgoing messages of cluster k to each neighbour it has (undamped,
    normalized to unit trace), keyed by name, given the logs of `state`."""
    lay, store = _state_store(state, problem)
    i = lay.keys.index(k)
    sides = tuple(side for side, row in zip("LR", lay.incoming[i]) if row != lay.none)
    if not sides:
        return {}
    out = lay.msg.exp(lay.outgoing(store, i, sides)).rho
    return {lay.name(side, i): mat for side, mat in zip(sides, lay.msg.to_dense(out)[0])}


def bp_fixed_point(problem: BPProblem, config: BPConfig | None = None) -> BPState:
    """Iterate the message equations to a fixed point.

    Finite chains sweep forward (right-moving messages) then backward
    (left-moving), undamped; the translation-invariant pair is updated
    jointly and damped, and rounds are Anderson-mixed (module docstring).
    The residual is the largest trace-distance change of one plain round; a
    problem without messages (a single window) converges in one round. If
    LAPACK's eigh or svd fails, the loop ends with the last completed round
    (the start messages and residual inf if there is none), unconverged.
    """
    return _iterate(_layout(problem), config or BPConfig())


def _iterate(lay: _Layout, config: BPConfig) -> BPState:
    if lay.ti:
        steps = [(0, ("L", "R"))]
    else:
        last = len(lay.keys) - 1
        steps = ([(i, ("R",)) for i in range(last)]
                 + [(i, ("L",)) for i in range(last, 0, -1)])
    # store rows of the messages each step sends
    steps = [(i, sides, np.array([lay.row[lay.name(side, i)] for side in sides]))
             for i, sides in steps]
    n_msgs = len(lay.names)
    store = lay.store(np.tile(-math.log(lay.dim) * lay.msg.diag, (n_msgs, 1)))
    msgs = np.tile(lay.msg.diag / lay.dim, (n_msgs, 1)).astype(store.dtype)
    # weights sqrt(multiplicity) on every real component of the logs make
    # the mix's least squares sum over every entry of the dense logs
    width = 2 if np.iscomplexobj(store) else 1
    accel = _Anderson(np.tile(np.repeat(np.sqrt(lay.msg.mult), width), n_msgs))
    # the open chain's forward-backward round is undamped (module docstring)
    damping = _DAMPING if lay.ti else 1.0
    g, residual, done, status = store[:-1, :-1].copy(), math.inf, 0, "max_iters"
    try:
        for it in range(1, config.max_iters + 1):
            # one plain round from the unit-trace logs x in the store; a round
            # sends every message once, so its largest change is measured
            # against the messages the round started from
            x = store[:-1, :-1].copy()
            for i, sides, rows in steps:
                lay.mix(store, rows, lay.outgoing(store, i, sides), damping)
            new, out = lay.normalize(store[:-1, :-1])
            # set together: a failed round leaves the last one's state whole
            g, residual, done = new, float(lay.distance(out, msgs).max(initial=0.0)), it
            store[:-1, :-1], msgs = g, out
            if residual <= config.tol_residual:
                status = "tol"
                break
            mixed = accel.step(x, g)
            if mixed is not g:
                store[:-1, :-1], msgs = lay.normalize(mixed)
    except np.linalg.LinAlgError:
        status = "linalg"   # the last completed round, unconverged
    logs = dict(zip(lay.names, lay.msg.to_dense(lay.msg.flip_average(g))[0]))
    return BPState(logs=logs, residual=residual, iterations=done, converged=status == "tol",
                   status=status)


class _Anderson:
    """Type-II Anderson mixing of the round map G, of depth `_HISTORY`
    (module docstring). `step` takes the point x a round started from and
    its output G(x), and returns the next point, unnormalized; the least
    squares weighs the components of f = G(x) - x by `weight`."""

    def __init__(self, weight=1.0):
        self.weight = weight
        self.dg, self.df = [], []
        self.last = None

    def step(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        gv = g.reshape(-1).view(float)
        fv = (gv - x.reshape(-1).view(float)) * self.weight
        if self.last is not None and _HISTORY:
            self.dg.append(gv - self.last[0])
            self.df.append(fv - self.last[1])
            del self.dg[:-_HISTORY], self.df[:-_HISTORY]
        self.last = gv, fv
        if not self.df:
            return g
        coef, _, rank, _ = np.linalg.lstsq(np.stack(self.df, axis=1), fv, rcond=None)
        mixed = gv.copy()
        # term by term, so the real and imaginary parts of a Hermitian pair
        # of entries see the same operations and the mix stays Hermitian
        for c, d in zip(coef, self.dg):
            mixed -= c * d
        if rank < len(self.df) or not np.isfinite(mixed).all():
            self.dg.clear()
            self.df.clear()
            return g
        return mixed.view(g.dtype).reshape(g.shape)


# ---------------------------------------------------------------------------
# the BP point and what is read off it
# ---------------------------------------------------------------------------

def _point(lay: _Layout, store: np.ndarray, problem: BPProblem):
    """The primal layout of `lay`'s rule and the BP point of the logs in
    `store` on it (`bp_point`): under one rule, one-matrix layouts list a
    matrix's entries in the primal layout's order. "L" of constraint j is
    store row e + j."""
    comp, e, point = _compiled(problem.problem, lay.rule), len(lay.edges), {}
    for name, flat, rows in (("g", comp.cl, lay.cluster_logs(store, slice(None))),
                             ("y", comp.con, -problem.T * store[e:2 * e, :-1])):
        point[name] = np.empty(flat.n, dtype=rows.dtype)
        point[name][np.argsort(flat.owner, kind="stable")] = rows.ravel()
    return comp, point


def bp_point(state: BPState, problem: BPProblem) -> dict:
    """A BP state as a primal point ``{"g": G, "y": multipliers}``, in the
    shape of `med.solve`'s ``meta["warm"]``, on the primal layout of the
    state's sector rule (module docstring); at a fixed point the primal
    Lagrangian is stationary there. `med.solve` and `med.cluster_states`
    take it when the logs keep the Hamiltonians' rule, as loop output does."""
    return _point(*_state_store(state, problem), problem)[1]


def beliefs_from_messages(state: BPState, problem: BPProblem):
    """Cluster beliefs rho_k, exp(G_k) normalized at the BP point
    (`bp_point`), and overlap beliefs sigma_k, keyed by the cluster right of
    the overlap: the normalized exponential of the logs of the two messages
    crossing it (the stationarity condition for the overlap state)."""
    lay, store = _state_store(state, problem)
    comp, point = _point(lay, store, problem)
    # overlap j is crossed by the messages in store rows e + j ("L") and j ("R")
    e = len(lay.edges)
    sigma = lay.msg.to_dense(lay.msg.exp(store[e:2 * e, :-1] + store[:e, :-1]).rho)[0]
    return (dict(zip(comp.keys, comp.cl.to_dense(comp.cl.exp(point["g"]).rho))),
            dict(zip([lay.keys[b] for _, b in lay.edges], sigma)))


def belief_consistency(state: BPState, problem: BPProblem) -> float:
    """Largest trace distance between the two cluster marginals of an
    overlap at the BP point, half the trace norm of the constraint's primal
    residual (`med._Terms.R`); at an exact fixed point this vanishes."""
    comp, point = _point(*_state_store(state, problem), problem)
    con = comp.con
    residual = comp.terms(comp.cl.exp(point["g"]), problem.T).R
    norm = np.bincount(con.eig_owner, con.eig_mult * np.abs(con.eigvals(residual)), con.n_mats)
    return float(0.5 * norm.max(initial=0.0))


def bp_free_energy(state: BPState, problem: BPProblem) -> float:
    """The MED objective of the problem at the BP point (`bp_point`), per
    site for the translation-invariant chain, total for a finite chain."""
    if not state.converged:
        warnings.warn("evaluating the free energy on a non-converged state",
                      RuntimeWarning, stacklevel=2)
    comp, point = _point(*_state_store(state, problem), problem)
    return _total(comp.terms(comp.cl.exp(point["g"]), problem.T).value)
