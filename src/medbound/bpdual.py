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

The bound is the MED objective at the BP point G_k = log Lambda_k + the
incoming logs, on the primal solver's cached layout (`med._Compiled`): both
solvers read one problem description. The inverse factors only drop out
when partial trace and the log-space product commute (classical case).

Messages are positive definite operators on the n-site overlaps, carried as
their logs. A BP state is the unit-trace logs of its messages, the
multipliers of the consistency constraints. An update adds the incoming logs
to log Lambda_k, takes one eigendecomposition of the cluster belief, logs
the marginals it sends (the loop's one `EIG_FLOOR` clamp) and subtracts the
incoming logs. Beliefs and the bound read the carried logs as they are.
Open chains use identity messages beyond both ends.

Rounds. A round sends every message once: an open chain sweeps forward
(right-moving messages), then backward; the translation-invariant pair is
updated jointly. Each step writes only the damped mix of old and new logs,
with the constant weight 0.5 (`_DAMPING`) on the new ones, and leaves it
unnormalized: a scalar shift of an incoming log cancels in the normalized
belief, so it changes the logs a step sends only by multiples of the
identity. The round normalizes once, with one batched eigendecomposition of
all message logs, which gives their unit-trace logs and the messages.

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
The residual is the largest trace distance that one plain damped round
moves a message from the point the round started at, and the returned state
is that round's output G(x), so both read as they would without the mix.

Layout. A problem is compiled once per sector rule, into a `_Layout` cached
on it: one cluster and one message `_Flat` of `medbound.layout`. Cluster
logs, beliefs, messages and message logs are rows of flat vectors, and a
matrix function is one batched call per block size over all the rows it acts
on. Embedding an incoming log on the first or last n sites of a cluster is
one gather, with a zero slot for the entries it does not reach; the partial
trace onto those sites reads the same index map (`_Flat.trace_map`)
backwards as one bincount. Dense matrices appear only at the interface: the
logs of `BPState`, the messages `bp_update` returns and the beliefs.

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
symmetrized, (m + flip(m)) / 2, since roundoff leaves a self-mirror block
about 1e-13 off invariant: a state reads as the layout its loop ran on.
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
from medbound.layout import _Flat, _Rule, _scatter, _sector_rule
from medbound.med import (
    Constraint,
    MedProblem,
    VarSpec,
    _compiled,
    _total,
    ti_problem,
)
from medbound.opalg import (  # noqa: F401
    EIG_FLOOR,
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
    "beliefs_from_messages",
    "belief_consistency",
    "bp_free_energy",
]


_DAMPING = 0.5      # log-space step toward the new message
_HISTORY = 5        # depth of the Anderson mix of rounds


@dataclass(frozen=True)
class BPConfig:
    """`tol_residual` bounds the residual of a round, the largest trace
    distance by which it moves a message. It does not bound how far the
    bound lies from its value at the fixed point: on a TI n=2 chain with a
    random complex Hermitian cluster Hamiltonian, where the loop contracts
    slowly, stopping at residual 1e-8 left `bp_free_energy` 8.3e-9 (T = 1.0)
    and 1.6e-8 (T = 0.7) from it. A stop on the certified gap would bound
    that (ROADMAP item 2). `max_iters` caps the number of rounds."""

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
    ("L"/"R" on the TI chain, (side, sender key) on an open one)."""

    logs: dict
    residual: float
    iterations: int
    converged: bool


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
    the problem (`_layout`); its per-step plans (`_step`) last as long.

    - `cluster`/`msg`: block layouts of one (n+1)-site cluster matrix and
      one n-site message, used with one row per matrix; `lam` holds
      log Lambda_k = -H_k / T, one row per cluster.
    - Messages: each constraint (a on its last n sites, b on its first n)
      carries a -> b, named "R", and b -> a, named "L"; on an open chain the
      name also holds the sender's key. The store holds their logs, one row
      each in `names` order, plus a zero row standing for "no message"
      (beyond an open end) and a zero column, the slot of the cluster
      entries an embedding does not reach.
    - `traced`: per side ("L": the first n sites, "R": the last n), the
      cluster entries the partial trace onto those sites reads, the message
      entries they feed and their weights (`_Flat.trace_map`); `first`/
      `last`: for every cluster entry, the message entry embedded there on
      those sites (else the zero slot)."""

    def __init__(self, problem: BPProblem, rule: _Rule):
        variables = problem.problem.variables
        self.rule = rule
        n = len(variables[0].dims) - 1
        self.cluster = c = _Flat([variables[0].dims], rule)
        self.msg = m = _Flat([variables[0].dims[:n]], rule)
        self.keys = [v.key for v in variables]
        self.dim = int(np.prod(variables[0].dims[:n]))
        self.diag = (m.rows == m.cols).astype(float)
        self.lam = -c.from_dense([np.array([v.ham for v in variables])]) / problem.T
        labels = m.to_dense(np.arange(1.0, m.n + 1.0))[0]
        self.traced, embedded = {}, []
        for side, axes in (("L", range(n)), ("R", range(1, n + 1))):
            idx, hit, count = c.trace_map(0, labels, axes)
            self.traced[side] = idx, hit, count / m.mult[hit]
            at = c.embedding(0, labels, axes).astype(int)
            embedded.append(np.where(at > 0, at - 1, m.n))
        self.first, self.last = embedded

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
        self._steps: dict = {}

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

    def gathers(self, from_left, from_right):
        """Flat store indices that embed the logs in the store rows
        `from_left` (on the first n sites) and `from_right` (on the last n),
        one cluster row per entry."""
        width = self.msg.n + 1
        return (from_left[:, None] * width + self.first,
                from_right[:, None] * width + self.last)

    @staticmethod
    def cluster_logs(store, lam, gathers) -> np.ndarray:
        """log Lambda plus the embedded incoming logs."""
        left, right = gathers
        return lam + store.take(left) + store.take(right)

    def belief_logs(self, store) -> np.ndarray:
        """The cluster logs of every cluster, one row each: the BP point."""
        return self.cluster_logs(store, self.lam,
                                 self.gathers(self.incoming[:, 0], self.incoming[:, 1]))

    def trace_plan(self, rows, sides):
        """Index map of a batch of marginals: marginal j is the partial trace
        of cluster row rows[j] onto the sites that side sides[j] sends on
        ("L": the first n, "R": the last n)."""
        src, tgt, weight = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0)]
        for j, (row, side) in enumerate(zip(rows, sides)):
            idx, hit, w = self.traced[side]
            src.append(idx + row * self.cluster.n)
            tgt.append(hit + j * self.msg.n)
            weight.append(w)
        return tuple(map(np.concatenate, (src, tgt, weight))) + (len(sides),)

    def trace(self, rho: np.ndarray, plan) -> np.ndarray:
        src, tgt, weight, count = plan
        return _scatter(tgt, rho.take(src) * weight,
                        count * self.msg.n).reshape(count, self.msg.n)

    def _step(self, i: int, sides):
        plan = self._steps.get((i, sides))
        if plan is None:
            # one belief serves every side; each side divides out the
            # message it received from the neighbour it sends to
            left, right = self.incoming[i]
            inverse = [left if side == "L" else right for side in sides]
            plan = self._steps[i, sides] = (self.gathers(np.array([left]), np.array([right])),
                                            self.trace_plan([0] * len(sides), sides),
                                            np.array(inverse, dtype=int))
        return plan

    def outgoing(self, store, i: int, sides) -> np.ndarray:
        """Logs (up to a scalar) of the messages cluster i sends to `sides`
        ("L": its left neighbour, "R": its right one), one row per side."""
        gathers, traced, inverse = self._step(i, sides)
        rho = self.cluster.exp(self.cluster_logs(store, self.lam[i], gathers)).rho
        vals, vecs = self.msg.eigh(self.trace(rho, traced))
        logs = self.msg.from_eig(vecs, np.log(np.maximum(vals, EIG_FLOOR)))
        return logs - store[inverse, :-1]

    @staticmethod
    def mix(store, rows, out, alpha: float) -> None:
        """Move the store rows `rows` a step `alpha` toward the new logs
        `out`: the convex mix of logs, left unnormalized."""
        store[rows, :-1] = (1.0 - alpha) * store[rows, :-1] + alpha * out

    def normalize(self, logs):
        """The unit-trace shift of message logs (one row each) and their
        normalized exponentials, from one batched eigendecomposition."""
        eig = self.msg.exp(logs)
        return logs - (eig.top + np.log(eig.z)) * self.diag, eig.rho

    def beliefs(self, store):
        """All cluster beliefs and the overlap belief of every constraint,
        from the message logs in `store`."""
        rho = self.cluster.exp(self.belief_logs(store)).rho
        # overlap j is crossed by the messages in store rows e + j ("L") and j ("R")
        e = len(self.edges)
        sigma = self.msg.exp(store[e:2 * e, :-1] + store[:e, :-1]).rho
        return rho, sigma


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
    out = lay.msg.exp(lay.outgoing(store, i, sides)).rho
    return {lay.name(side, i): mat for side, mat in zip(sides, lay.msg.to_dense(out)[0])}


def bp_fixed_point(problem: BPProblem, config: BPConfig | None = None) -> BPState:
    """Iterate the message equations to a fixed point.

    Finite chains sweep forward (right-moving messages) then backward
    (left-moving); the translation-invariant pair is updated jointly, and
    rounds are Anderson-mixed (module docstring). The residual is the
    largest trace-distance change of one plain damped round; a problem
    without messages (a single window) converges in one round.
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
    store = lay.store(np.tile(-math.log(lay.dim) * lay.diag, (n_msgs, 1)))
    msgs = np.tile(lay.diag / lay.dim, (n_msgs, 1)).astype(store.dtype)
    # weights sqrt(multiplicity) on every real component of the logs make
    # the mix's least squares sum over every entry of the dense logs
    width = 2 if np.iscomplexobj(store) else 1
    accel = _Anderson(np.tile(np.repeat(np.sqrt(lay.msg.mult), width), n_msgs))
    residual, it, converged = math.inf, 0, False
    for it in range(1, config.max_iters + 1):
        # one plain damped round from the unit-trace logs x in the store; a
        # round sends every message once, so its largest change is measured
        # against the messages the round started from
        x = store[:-1, :-1].copy()
        for i, sides, rows in steps:
            lay.mix(store, rows, lay.outgoing(store, i, sides), _DAMPING)
        g, out = lay.normalize(store[:-1, :-1])
        residual = float(lay.distance(out, msgs).max(initial=0.0))
        store[:-1, :-1], msgs = g, out
        if residual <= config.tol_residual:
            converged = True
            break
        mixed = accel.step(x, g)
        if mixed is not g:
            store[:-1, :-1], msgs = lay.normalize(mixed)
    mats = lay.msg.to_dense(g)[0]
    if lay.rule.flip:
        mats = 0.5 * (mats + mats[:, ::-1, ::-1])
    logs = dict(zip(lay.names, mats))
    return BPState(logs=logs, residual=residual, iterations=it, converged=converged)


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
# beliefs and the free energy
# ---------------------------------------------------------------------------

def beliefs_from_messages(state: BPState, problem: BPProblem):
    """Cluster beliefs rho_k and overlap beliefs sigma_k (keyed by the
    cluster right of the overlap).

    rho_k is the normalized exponential of log Lambda_k plus the logs of
    the messages it receives, sigma_k that of the logs of the two messages
    crossing the edge (the stationarity condition for the overlap state),
    both read from the state's carried logs."""
    lay, store = _state_store(state, problem)
    rho, sigma = lay.beliefs(store)
    beliefs = dict(zip(lay.keys, lay.cluster.to_dense(rho)[0]))
    edges = [lay.keys[b] for _, b in lay.edges]
    return beliefs, dict(zip(edges, lay.msg.to_dense(sigma)[0]))


def belief_consistency(state: BPState, problem: BPProblem) -> float:
    """Largest trace distance between cluster marginals and the overlap
    beliefs; at an exact fixed point this vanishes."""
    lay, store = _state_store(state, problem)
    rho, sigma = lay.beliefs(store)
    # both clusters of every overlap: the right one's first n sites and the
    # left one's last n against the overlap belief
    rows = [i for a, b in lay.edges for i in (b, a)]
    marg = lay.trace(rho, lay.trace_plan(rows, ["L", "R"] * len(lay.edges)))
    return float(lay.distance(marg, np.repeat(sigma, 2, axis=0)).max(initial=0.0))


def bp_free_energy(state: BPState, problem: BPProblem) -> float:
    """The MED objective of the problem at the BP point (per site for the
    translation-invariant chain, total for a finite chain)."""
    if not state.converged:
        warnings.warn("evaluating the free energy on a non-converged state",
                      RuntimeWarning, stacklevel=2)
    lay, store = _state_store(state, problem)
    comp = _compiled(problem.problem, lay.rule)
    logs = lay.belief_logs(store)
    # under one rule both layouts list a cluster's entries in the same order
    g = np.empty(comp.cl.n, dtype=logs.dtype)
    g[np.concatenate(comp.cl.sel)] = logs.ravel()
    return _total(comp.terms(comp.cl.exp(g), problem.T).value)
