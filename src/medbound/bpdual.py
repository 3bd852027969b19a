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

The bound is the MED objective of the same problem at the beliefs rho_k
(`med.markov_free_energy`), so both solvers read one problem description.
The inverse factors only drop out when partial trace and the log-space
product commute (classical case).

Messages are positive definite operators on the n-site overlaps, normalized
to unit trace after every update (normalization absorbs the scalar
multipliers). A BP state is the unit-trace logs of its messages, the
multipliers of the consistency constraints. An update adds the incoming logs
to log Lambda_k, takes one eigendecomposition of the cluster belief, logs
the marginals it sends (the loop's one `EIG_FLOOR` clamp) and subtracts the
incoming logs. Damping mixes old and new logs with the constant weight 0.5
(`_DAMPING`) on the new ones, which preserves positivity exactly; one
eigendecomposition of the mix gives the normalized message, on which the
residual (largest trace-distance change) is measured, and the shift that
normalizes its log. Beliefs and the bound read the carried logs as they
are. Open chains use identity messages beyond both ends.

Layout. Each public call compiles the problem once (`_Layout`) onto one
cluster and one message `_Flat` of `medbound.layout`: cluster logs,
beliefs, messages and message logs are rows of flat vectors, and a matrix
function is one batched call per block size over all the rows it acts on.
Embedding an incoming log on the first or last n sites of a cluster is one
gather, with a zero slot for the entries it does not reach; the partial
trace onto those sites reads the same index map (`_Flat.trace_map`)
backwards as one bincount. Dense matrices appear only at the interface:
the logs of `BPState`, the messages `bp_update` returns and the beliefs.

The restriction to sectors is exact. Here the charge is the total charge
mod the modulus the sector rule picks (`layout._charge_modulus`: U(1),
then Z2, then one sector). When log Lambda_k commutes with it, so does
every iterate: the identity start messages commute with it, the sum of
commuting logs and its exponential commute with it, the partial trace of a
charge-commuting state commutes with the charge of the sites it keeps, and
logs, differences, damping mixes and normalization keep that. The dense
iteration would therefore stay block diagonal in exact arithmetic; the
block iteration keeps the off-sector zeros exact. The rule is the primal
solver's, with the message logs a caller passes in checked too; with one
sector the same code runs on one block per matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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
from medbound.layout import _charge_modulus, _Flat, _scatter
from medbound.med import (
    Constraint,
    MedProblem,
    VarSpec,
    markov_free_energy,
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


@dataclass(frozen=True)
class BPConfig:
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


@dataclass(eq=False)
class BPProblem:
    problem: MedProblem     # chain windows and their overlap constraints
    T: float

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
        ti = len(keys) == 1 and pairs == [(keys[0], keys[0])]
        if not (n >= 1 and dims[:n] == dims[1:]
                and (ti or pairs == list(zip(keys, keys[1:])))
                and all(tuple(c.left_axes) == last and tuple(c.right_axes) == first
                        for c in constraints)
                and all(tuple(v.dims) == dims and v.ham is not None
                        and tuple(v.shield_axes) == (first if ti or i else ())
                        for i, v in enumerate(variables))):
            raise ValueError("BP runs on chain windows tied last n sites to first n")


def bp_ti_problem(model: ModelSpec, n: int, T: float) -> BPProblem:
    """Translation-invariant chain with an n-site window (cluster of n+1):
    the problem `med.minimize_ti(model, n)` solves."""
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
    """A BP problem laid out for one public call.

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
      cluster entries the partial trace onto those sites reads and the
      message entries they feed; `first`/`last` read them backwards: for
      every cluster entry, the message entry embedded there (else the zero
      slot)."""

    def __init__(self, problem: BPProblem, modulus: int):
        variables = problem.problem.variables
        n = len(variables[0].dims) - 1
        self.cluster = c = _Flat([variables[0].dims], modulus)
        self.msg = m = _Flat([variables[0].dims[:n]], modulus)
        self.keys = [v.key for v in variables]
        self.dim = int(np.prod(variables[0].dims[:n]))
        self.diag = (m.rows == m.cols).astype(float)
        self.lam = -c.from_dense([np.array([v.ham for v in variables])]) / problem.T
        labels = m.to_dense(np.arange(1.0, m.n + 1.0))[0]
        self.traced = {side: c.trace_map(0, labels, axes)
                       for side, axes in (("L", range(n)), ("R", range(1, n + 1)))}
        self.first, self.last = np.full((2, c.n), m.n)
        for mp, (idx, hit) in zip((self.first, self.last), self.traced.values()):
            mp[idx] = hit

        constraints = problem.problem.constraints
        self.ti = any(con.left_key == con.right_key for con in constraints)
        index = {k: i for i, k in enumerate(self.keys)}
        # per constraint: the sender and receiver index of its two messages
        self.edges = [(index[con.left_key], index[con.right_key]) for con in constraints]
        self.names = _message_names(problem)
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

    # -- dense edges -----------------------------------------------------------

    def flats(self, mats: dict) -> np.ndarray:
        """Dense message logs keyed by name, as rows in `names` order."""
        rows = np.reshape([mats[name] for name in self.names], (-1, self.dim, self.dim))
        return self.msg.from_dense([rows])

    def store(self, logs: np.ndarray) -> np.ndarray:
        out = np.zeros((self.none + 1, self.msg.n + 1),
                       dtype=np.result_type(logs, self.lam))
        out[:-1, :-1] = logs
        return out

    # -- kernels -----------------------------------------------------------------

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per row: the trace distance (1/2) ||a - b||_1."""
        return 0.5 * np.abs(self.msg.eigvals(a - b)).sum(axis=-1)

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

    def trace_plan(self, rows, sides):
        """Index map of a batch of marginals: marginal j is the partial trace
        of cluster row rows[j] onto the sites that side sides[j] sends on
        ("L": the first n, "R": the last n)."""
        src, tgt = [np.zeros(0, int)], [np.zeros(0, int)]
        for j, (row, side) in enumerate(zip(rows, sides)):
            idx, hit = self.traced[side]
            src.append(idx + row * self.cluster.n)
            tgt.append(hit + j * self.msg.n)
        return np.concatenate(src), np.concatenate(tgt), len(sides)

    def trace(self, rho: np.ndarray, plan) -> np.ndarray:
        src, tgt, count = plan
        return _scatter(tgt, rho.take(src), count * self.msg.n).reshape(count, self.msg.n)

    def _step(self, i: int, sides):
        plan = self._steps.get((i, sides))
        if plan is None:
            # one belief serves every side; each side divides out the
            # message it received from the neighbour it sends to
            left, right = self.incoming[i]
            inverse = [left if side == "L" else right for side in sides]
            plan = self._steps[i, sides] = (self.gathers(np.array([left]), np.array([right])),
                                            self.trace_plan([0] * len(sides), sides),
                                            np.array(inverse))
        return plan

    def outgoing(self, store, i: int, sides) -> np.ndarray:
        """Logs (up to a scalar) of the messages cluster i sends to `sides`
        ("L": its left neighbour, "R": its right one), one row per side."""
        gathers, traced, inverse = self._step(i, sides)
        rho = self.cluster.exp(self.cluster_logs(store, self.lam[i], gathers)).rho
        vals, vecs = self.msg.eigh(self.trace(rho, traced))
        logs = self.msg.from_eig(vecs, np.log(np.maximum(vals, EIG_FLOOR)))
        return logs - store[inverse, :-1]

    def damp(self, store, msgs, rows, out, alpha: float) -> None:
        """Move the store rows `rows` a step `alpha` toward the new logs
        `out`: the convex mix, shifted to unit trace, and its normalized
        exponential into `msgs`."""
        mix = (1.0 - alpha) * store[rows, :-1] + alpha * out
        eig = self.msg.exp(mix)
        msgs[rows] = eig.rho
        store[rows, :-1] = mix - (eig.top + np.log(eig.z)) * self.diag

    def beliefs(self, store):
        """All cluster beliefs and the overlap belief of every constraint,
        from the message logs in `store`."""
        rho = self.cluster.exp(self.cluster_logs(
            store, self.lam, self.gathers(self.incoming[:, 0], self.incoming[:, 1]))).rho
        # overlap j is crossed by the messages in store rows e + j ("L") and j ("R")
        e = len(self.edges)
        sigma = self.msg.exp(store[e:2 * e, :-1] + store[:e, :-1]).rho
        return rho, sigma


def _compile(problem: BPProblem, logs=()) -> _Layout:
    """The layout on the charge modulus `layout._charge_modulus` picks from
    every cluster Hamiltonian and every given message log."""
    variables = problem.problem.variables
    dims = variables[0].dims
    pairs = [(v.ham, v.dims) for v in variables] + [(m, dims[1:]) for m in logs]
    return _Layout(problem, _charge_modulus(pairs))


def _message_names(problem: BPProblem) -> list:
    """The names of the problem's messages in store order: "R" of every
    constraint, then "L" of every constraint (`_Layout`)."""
    constraints = problem.problem.constraints
    if any(con.left_key == con.right_key for con in constraints):
        return ["R", "L"]
    return [("R", c.left_key) for c in constraints] + [("L", c.right_key) for c in constraints]


def _state_store(state: BPState, problem: BPProblem):
    """The layout of a state's problem and the store of its message logs.
    Logs of another problem (other names, or not d x d on the problem's
    n-site overlap) raise ValueError."""
    d = int(np.prod(problem.problem.variables[0].dims[1:]))
    if (set(state.logs) != set(_message_names(problem))
            or any(np.shape(m) != (d, d) for m in state.logs.values())):
        raise ValueError("the message logs are for another problem")
    lay = _compile(problem, state.logs.values())
    return lay, lay.store(lay.flats(state.logs))


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def bp_update(k, state: BPState, problem: BPProblem) -> dict:
    """Outgoing messages of cluster k (undamped, normalized to unit trace),
    keyed by name, given the message logs of `state`."""
    lay, store = _state_store(state, problem)
    i = lay.keys.index(k)
    sides = ("L", "R")
    out = lay.msg.exp(lay.outgoing(store, i, sides)).rho
    return {lay.name(side, i): mat for side, mat in zip(sides, lay.msg.to_dense(out)[0])}


def bp_fixed_point(problem: BPProblem, config: BPConfig | None = None) -> BPState:
    """Iterate the message equations to a fixed point.

    Finite chains sweep forward (right-moving messages) then backward
    (left-moving); the translation-invariant pair is updated jointly.
    The residual is the largest trace-distance change per full round; a
    problem without messages (a single window) converges in one round.
    """
    return _iterate(_compile(problem), config or BPConfig())


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
    residual, it, converged = math.inf, 0, False
    for it in range(1, config.max_iters + 1):
        # a round sends every message once, so its largest change is
        # measured against the messages the round started from
        before = msgs.copy()
        for i, sides, rows in steps:
            out = lay.outgoing(store, i, sides)
            lay.damp(store, msgs, rows, out, _DAMPING)
        residual = float(lay.distance(msgs, before).max(initial=0.0))
        if residual <= config.tol_residual:
            converged = True
            break
    logs = dict(zip(lay.names, lay.msg.to_dense(store[:-1, :-1])[0]))
    return BPState(logs=logs, residual=residual, iterations=it, converged=converged)


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
    """The MED objective of the problem at the beliefs (per site for the
    translation-invariant chain, total for a finite chain)."""
    if not state.converged:
        warnings.warn("evaluating the free energy on a non-converged state",
                      RuntimeWarning, stacklevel=2)
    beliefs, _ = beliefs_from_messages(state, problem)
    return markov_free_energy(beliefs, problem.problem, problem.T)
