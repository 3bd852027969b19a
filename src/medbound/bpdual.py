"""Fixed-point (belief propagation) solver for the chain dual.

The stationarity conditions of the shield-local free energy on a chain turn
into message equations between neighboring clusters: with Lambda_k the
exponential of minus the cluster Hamiltonian (over T), and odot the log-space
product,

    m_{k -> k-1}  prop  Tr_last(Lambda_k o m_{k+1->k} o m_{k-1->k}) o m_{k-1->k}^{-1}
    m_{k -> k+1}  prop  Tr_first(Lambda_k o m_{k+1->k} o m_{k-1->k}) o m_{k+1->k}^{-1}
    rho_k         prop  Lambda_k o m_{k+1->k} o m_{k-1->k}

The inverse factors are retained; they only drop out when partial trace and
the log-space product commute (classical case). `BPConfig.retain_inverse`
can disable them to reproduce the cancellation some earlier treatments
assumed, which shifts the fixed point on non-commuting chains.

Messages are positive definite operators on the n-site overlaps, normalized
to unit trace after every update (normalization absorbs the scalar
multipliers). The fixed-point loop carries each message as its unit-trace
log: an update adds the incoming logs to log Lambda_k, takes one
eigendecomposition of the cluster belief, logs only the marginals it sends
and subtracts the incoming logs. Damping is a convex combination of the old
and new logs, which preserves positivity exactly; one eigendecomposition of
the mix gives the normalized message and the shift that normalizes its log.
Inside the loop `EIG_FLOOR` clamps only the logs of the cluster marginals;
message logs are never clamped. `BPState.messages` holds the normalized
exponentials, on which the residual (largest trace-distance change) is
measured, and `BPState.logs` the unit-trace logs the loop carried, from
which `beliefs_from_messages` builds the beliefs. A state given only
messages has them logged again, with the clamp. Open chains use identity
messages beyond both ends.

Layout. Each public call compiles the problem once (`_Layout`) onto the
charge-sector blocks of `medbound.layout`: cluster logs, beliefs, messages
and message logs are flat vectors of in-sector entries, one row per matrix,
and every matrix function is one batched call per block size over all the
rows it acts on (the two messages of a translation-invariant chain, or all
beliefs at once). Embedding an incoming log on the first or last n sites of
a cluster is one gather, with a zero slot for the entries it does not
reach, and the partial trace onto those sites reads the same index map
backwards as one bincount. Dense matrices appear only at the interface:
`BPState`, `bp_update` and the belief functions take and return them.

The restriction to sectors is exact. When log Lambda_k commutes with the
total charge, so does every iterate: the identity start messages commute
with it, the sum of commuting logs and its exponential commute with it, the
partial trace of a charge-commuting state commutes with the charge of the
sites it keeps, and logs, differences, damping mixes and normalization keep
that. The dense iteration would therefore stay block diagonal in exact
arithmetic; the block iteration keeps the off-sector zeros exact. Sectors
are used when every log Lambda_k, and every message a caller passes in, is
exactly zero off them; otherwise the same code runs with one sector per
matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# build_lattice, ptrace_mat, logm_psd, sym and entropy_mat are no longer
# called here; they stay attributes of this module because
# perfbench/tracing.py wraps them by name
from medbound.lattice import (  # noqa: F401
    LatticeSpec,
    ModelSpec,
    build_lattice,
    finite_geometry,
    ti_chain_geometry,
)
from medbound.layout import (
    _conserves_charge,
    _eigh_stacks,
    _eigvalsh_stacks,
    _from_eig,
    _neg_xlogx,
    _scatter,
    _sector_blocks,
    _stack,
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


@dataclass(frozen=True)
class BPConfig:
    damping: float = 0.5            # log-space step toward the new message
    tol_residual: float = 1e-8
    max_iters: int = 10000
    retain_inverse: bool = True

    def __post_init__(self):
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must be in (0, 1]")
        if self.tol_residual <= 0 or self.max_iters < 1:
            raise ValueError("bad tolerance or iteration limit")


@dataclass(eq=False)
class BPState:
    messages: dict
    residual: float
    iterations: int
    converged: bool
    meta: dict = field(default_factory=dict)
    logs: dict | None = field(default=None, repr=False)     # unit-trace message logs


@dataclass(eq=False)
class BPProblem:
    kind: str            # "ti" | "chain"
    n: int
    T: float
    log_lambda: dict     # cluster key -> -H_k / T
    clusters: dict       # cluster key -> site labels
    meta: dict = field(default_factory=dict)

    @property
    def cluster_keys(self):
        return sorted(self.clusters) if self.kind == "chain" else ["ti"]


def bp_ti_problem(model: ModelSpec, n: int, T: float) -> BPProblem:
    """Translation-invariant chain with an n-site window (cluster of n+1)."""
    if not 0 < T < math.inf:
        raise ValueError("temperature must be positive and finite")
    geo = ti_chain_geometry(model, int(n))
    return BPProblem(kind="ti", n=int(n), T=T,
                     log_lambda={"ti": -geo.ham / T},
                     clusters={"ti": geo.labels},
                     meta={"model": model, "schedule": "jacobi"})


def bp_chain_problem(spec: LatticeSpec, model: ModelSpec, n: int, T: float) -> BPProblem:
    """Finite open chain: clusters are the length-(n+1) windows. Terms go to
    clusters by the lattice's highest-site rule (`finite_geometry` with
    radius n); the clusters of the sites before the first full window are
    summed into it."""
    if spec.kind != "chain" or spec.boundary != "open":
        raise ValueError("the dual solver runs on finite open chains (or ti)")
    if not 0 < T < math.inf:
        raise ValueError("temperature must be positive and finite")
    n = int(n)
    n_sites = spec.n_sites
    if n < 1 or n + 1 > n_sites:
        raise ValueError("window must satisfy 1 <= n <= N-1")
    geo = finite_geometry(spec, model, radius=n)
    window = (2,) * (n + 1)
    first_ham = sum(embed_mat(geo.hams[j], window, tuple(range(j + 1))) for j in range(n + 1))
    hams = {n: first_ham, **{k: geo.hams[k] for k in range(n + 1, n_sites)}}
    return BPProblem(kind="chain", n=n, T=T,
                     log_lambda={k: -ham / T for k, ham in hams.items()},
                     clusters={k: tuple(range(k - n, k + 1)) for k in hams},
                     meta={"model": model, "schedule": "forward-backward sweep"})


# ---------------------------------------------------------------------------
# the compiled problem
# ---------------------------------------------------------------------------

class _Space:
    """Block layout of one matrix on `n_sites` qubits. A batch of matrices
    is a (c, n) array, one flat vector of in-sector entries per row."""

    def __init__(self, n_sites: int, by_charge: bool):
        self.dim = 2 ** n_sites
        self.stacks, _, self.rows, self.cols, _ = _stack(
            [_sector_blocks((2,) * n_sites, by_charge)])
        self.n = self.rows.size
        self.diag = (self.rows == self.cols).astype(float)

    def flat(self, mat) -> np.ndarray:
        return np.asarray(mat)[self.rows, self.cols]

    def dense(self, flat: np.ndarray) -> np.ndarray:
        mat = np.zeros((self.dim, self.dim), dtype=flat.dtype)
        mat[self.rows, self.cols] = flat
        return mat

    def exp(self, log: np.ndarray):
        """Per row: exp(log) scaled to unit trace, its eigenvalues, and the
        log of the scale (the log-sum-exp of the eigenvalues of log, shape
        (c, 1)), so the unit-trace log is log - scale * I."""
        vals, vecs = _eigh_stacks(self.stacks, log, self.dim)
        top = vals.max(axis=-1, keepdims=True)
        w = np.exp(vals - top)
        total = w.sum(axis=-1, keepdims=True)
        p = w / total
        return _from_eig(self.stacks, vecs, p, self.n), p, top + np.log(total)

    def log(self, flat: np.ndarray, floor: float | None = None) -> np.ndarray:
        """Per row: log of a positive matrix, eigenvalues clamped at `floor`;
        without a floor a singular matrix raises ValueError."""
        vals, vecs = _eigh_stacks(self.stacks, flat, self.dim)
        if floor is None:
            if vals.min() <= 0.0:
                raise ValueError("message is singular")
        else:
            vals = np.maximum(vals, floor)
        return _from_eig(self.stacks, vecs, np.log(vals), self.n)

    def eigvals(self, flat: np.ndarray) -> np.ndarray:
        return _eigvalsh_stacks(self.stacks, flat, self.dim)

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per row: the trace distance (1/2) ||a - b||_1."""
        return 0.5 * np.abs(self.eigvals(a - b)).sum(axis=-1)


class _Layout:
    """A BP problem laid out for one public call.

    - `cluster`/`msg`: block layouts of the (n+1)-site cluster matrices and
      the n-site messages; `lam` holds log Lambda_k, one row per cluster.
    - Message store: the logs of all messages, one row each in `names`
      order, plus a zero row standing for "no message" (beyond an open end)
      and a zero column, the slot of the cluster entries an embedding does
      not reach.
    - `first`/`last`: for every cluster entry, the message entry embedded
      on the first or last n sites lands on (the zero slot where none
      does); the partial trace onto those sites is the same map read
      backwards."""

    def __init__(self, problem: BPProblem, by_charge: bool):
        n = problem.n
        self.cluster = c = _Space(n + 1, by_charge)
        self.msg = m = _Space(n, by_charge)
        self.keys = problem.cluster_keys
        self.lam = np.array([c.flat(problem.log_lambda[k]) for k in self.keys])
        labels = np.zeros((m.dim, m.dim))
        labels[m.rows, m.cols] = np.arange(1, m.n + 1)
        window = (2,) * (n + 1)
        maps = []
        for axes in (range(n), range(1, n + 1)):
            hit = embed_mat(labels, window, tuple(axes))[c.rows, c.cols].astype(int)
            maps.append(np.where(hit > 0, hit - 1, m.n))
        self.first, self.last = maps
        # each side's partial trace: the reached cluster entries and their targets
        self.traced = {side: (np.flatnonzero(mp < m.n), mp[mp < m.n])
                       for side, mp in (("L", self.first), ("R", self.last))}

        if problem.kind == "ti":
            self.names = ["L", "R"]
            incoming = [("R", "L")]
            overlaps = [("L", "R")]
        else:
            keys = self.keys
            # keyed by sender: ('R', k) goes k -> k+1, ('L', k) goes k -> k-1
            self.names = [("R", k) for k in keys[:-1]] + [("L", k) for k in keys[1:]]
            incoming = [(("R", k - 1) if k > keys[0] else None,
                         ("L", k + 1) if k < keys[-1] else None) for k in keys]
            overlaps = [(("L", k), ("R", k - 1)) for k in keys[1:]]
        self.none = len(self.names)
        self.row = {name: i for i, name in enumerate(self.names)}
        self.row[None] = self.none
        # per cluster: store rows of the message from the left (on the first
        # n sites) and of the message from the right (on the last n sites)
        self.incoming = np.array([[self.row[a], self.row[b]] for a, b in incoming])
        self.overlaps = np.array([[self.row[a], self.row[b]] for a, b in overlaps])
        self._steps: dict = {}

    # -- dense edges -----------------------------------------------------------

    def flats(self, mats: dict) -> np.ndarray:
        """Dense messages (or logs) keyed by name, as rows in `names` order."""
        return np.array([self.msg.flat(mats[name]) for name in self.names])

    def dense(self, flats: np.ndarray) -> dict:
        return {name: self.msg.dense(f) for name, f in zip(self.names, flats)}

    def store(self, logs: np.ndarray) -> np.ndarray:
        out = np.zeros((self.none + 1, self.msg.n + 1),
                       dtype=np.result_type(logs, self.lam))
        out[:-1, :-1] = logs
        return out

    # -- kernels -----------------------------------------------------------------

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
        src, tgt = [], []
        for j, (row, side) in enumerate(zip(rows, sides)):
            idx, hit = self.traced[side]
            src.append(idx + row * self.cluster.n)
            tgt.append(hit + j * self.msg.n)
        return np.concatenate(src), np.concatenate(tgt), len(sides)

    def trace(self, rho: np.ndarray, plan) -> np.ndarray:
        src, tgt, count = plan
        return _scatter(tgt, rho.take(src), count * self.msg.n).reshape(count, self.msg.n)

    def _step(self, i: int, sides, retain: bool):
        key = (i, sides, retain)
        plan = self._steps.get(key)
        if plan is None:
            left, right = self.incoming[i]
            if retain:
                # one belief serves every side; each side divides out the
                # message it received from the neighbour it sends to
                pairs = [(left, right)]
                inverse = [left if side == "L" else right for side in sides]
            else:
                # each side sees only the message from the opposite side
                pairs = [(self.none, right) if side == "L" else (left, self.none)
                         for side in sides]
                inverse = [self.none] * len(sides)
            # with one belief every side traces it, else side j traces belief j
            rows = [0] * len(sides) if retain else range(len(sides))
            plan = self._steps[key] = (self.gathers(*np.array(pairs).T),
                                       self.trace_plan(rows, sides), np.array(inverse))
        return plan

    def outgoing(self, store, i: int, sides, retain: bool) -> np.ndarray:
        """Logs (up to a scalar) of the messages cluster i sends to `sides`
        ("L": its left neighbour, "R": its right one), one row per side."""
        gathers, traced, inverse = self._step(i, sides, retain)
        rho, _, _ = self.cluster.exp(self.cluster_logs(store, self.lam[i], gathers))
        logs = self.msg.log(self.trace(rho, traced), EIG_FLOOR)
        return logs - store[inverse, :-1]

    def damp(self, store, msgs, rows, out, alpha: float) -> None:
        """Move the store rows `rows` a step `alpha` toward the new logs
        `out`: the convex mix, shifted to unit trace, and its normalized
        exponential into `msgs`."""
        mix = (1.0 - alpha) * store[rows, :-1] + alpha * out
        msgs[rows], _, scale = self.msg.exp(mix)
        store[rows, :-1] = mix - scale * self.msg.diag

    def beliefs(self, store):
        """All cluster beliefs (rows, and their eigenvalues) and overlap
        beliefs, from the message logs in `store`."""
        rho, p, _ = self.cluster.exp(self.cluster_logs(
            store, self.lam, self.gathers(self.incoming[:, 0], self.incoming[:, 1])))
        sigma, _, _ = self.msg.exp(store[self.overlaps[:, 0], :-1]
                                   + store[self.overlaps[:, 1], :-1])
        return rho, p, sigma


def _compile(problem: BPProblem, messages=(), one_sector: bool = False) -> _Layout:
    """Charge sectors when every log Lambda and every given message is
    exactly zero off them (and not `one_sector`), else one sector per
    matrix."""
    n = problem.n
    by_charge = (not one_sector
                 and _conserves_charge(np.array(list(problem.log_lambda.values())),
                                       (2,) * (n + 1))
                 and all(_conserves_charge(m, (2,) * n) for m in messages))
    return _Layout(problem, by_charge)


def _state_store(state: BPState, problem: BPProblem):
    """The layout of a state's problem and its message-log store: the logs
    the loop carried, or the messages logged with the EIG_FLOOR clamp."""
    mats = state.logs if state.logs is not None else state.messages
    lay = _compile(problem, mats.values())
    flats = lay.flats(mats)
    if state.logs is None:
        flats = lay.msg.log(flats, EIG_FLOOR)
    return lay, lay.store(flats)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def bp_update(k, state: BPState, problem: BPProblem,
              config: BPConfig | None = None) -> dict:
    """Outgoing messages of cluster k given the current state (undamped).
    A singular message in the state raises ValueError."""
    config = config or BPConfig()
    lay = _compile(problem, state.messages.values())
    store = lay.store(lay.msg.log(lay.flats(state.messages)))
    sides = ("L", "R")
    out = lay.outgoing(store, lay.keys.index(k), sides, config.retain_inverse)
    msgs, _, _ = lay.msg.exp(out)
    names = sides if problem.kind == "ti" else [(side, k) for side in sides]
    return {name: lay.msg.dense(m) for name, m in zip(names, msgs)}


def bp_fixed_point(problem: BPProblem, config: BPConfig | None = None) -> BPState:
    """Iterate the message equations to a fixed point.

    Finite chains sweep forward (right-moving messages) then backward
    (left-moving); the translation-invariant pair is updated jointly.
    The residual is the largest trace-distance change per full round.
    """
    return _iterate(_compile(problem), problem, config or BPConfig())


def _iterate(lay: _Layout, problem: BPProblem, config: BPConfig) -> BPState:
    m = lay.msg
    if problem.kind == "ti":
        steps = [(0, ("L", "R"))]
    else:
        last = len(lay.keys) - 1
        steps = ([(i, ("R",)) for i in range(last)]
                 + [(i, ("L",)) for i in range(last, 0, -1)])
    # store rows of the messages each step sends
    steps = [(i, sides, np.array([lay.row[side if problem.kind == "ti" else (side, lay.keys[i])]
                                  for side in sides]))
             for i, sides in steps]
    n_msgs = len(lay.names)
    store = lay.store(np.tile(-math.log(m.dim) * m.diag, (n_msgs, 1)))
    msgs = np.tile(m.diag / m.dim, (n_msgs, 1)).astype(store.dtype)
    residual, it, converged = math.inf, 0, False
    for it in range(1, config.max_iters + 1):
        # a round sends every message once, so its largest change is
        # measured against the messages the round started from
        before = msgs.copy()
        for i, sides, rows in steps:
            out = lay.outgoing(store, i, sides, config.retain_inverse)
            lay.damp(store, msgs, rows, out, config.damping)
        residual = float(m.distance(msgs, before).max())
        if residual <= config.tol_residual:
            converged = True
            break
    return BPState(messages=lay.dense(msgs), residual=residual, iterations=it,
                   converged=converged, meta={"schedule": problem.meta.get("schedule")},
                   logs=lay.dense(store[:-1, :-1]))


# ---------------------------------------------------------------------------
# beliefs and the free energy
# ---------------------------------------------------------------------------

def beliefs_from_messages(state: BPState, problem: BPProblem):
    """Cluster beliefs rho_k and overlap beliefs sigma_k.

    sigma_k comes from the product of the two messages crossing the edge,
    which is the stationarity condition for the overlap state. The message
    logs are the ones the fixed-point loop carried; a state without them has
    its messages logged, with eigenvalues clamped at EIG_FLOOR."""
    lay, store = _state_store(state, problem)
    rho, _, sigma = lay.beliefs(store)
    beliefs = {k: lay.cluster.dense(r) for k, r in zip(lay.keys, rho)}
    edges = ["ti"] if problem.kind == "ti" else lay.keys[1:]
    return beliefs, {k: lay.msg.dense(s) for k, s in zip(edges, sigma)}


def belief_consistency(state: BPState, problem: BPProblem) -> float:
    """Largest trace distance between cluster marginals and the overlap
    beliefs; at an exact fixed point this vanishes."""
    lay, store = _state_store(state, problem)
    rho, _, sigma = lay.beliefs(store)
    if problem.kind == "ti":
        # both marginals of the one cluster against the one overlap
        pairs = [(0, "L", 0), (0, "R", 0)]
    else:
        last = len(lay.keys) - 1
        pairs = ([(i, "L", i - 1) for i in range(1, last + 1)]
                 + [(i, "R", i) for i in range(last)])
    cl, sides, ov = zip(*pairs)
    marg = lay.trace(rho, lay.trace_plan(cl, sides))
    return float(lay.msg.distance(marg, sigma[list(ov)]).max())


def bp_free_energy(state: BPState, problem: BPProblem) -> float:
    """Shield-local free energy evaluated at the beliefs (per site for the
    translation-invariant chain, total for a finite chain)."""
    if not state.converged:
        warnings.warn("evaluating the free energy on a non-converged state",
                      RuntimeWarning, stacklevel=2)
    T = problem.T
    lay, store = _state_store(state, problem)
    rho, p, _ = lay.beliefs(store)
    e = trace_product(rho, -T * lay.lam)
    # every cluster but the first of a finite chain has the first n sites
    # as its shield
    shielded = range(len(rho)) if problem.kind == "ti" else range(1, len(rho))
    shields = lay.msg.eigvals(lay.trace(rho, lay.trace_plan(shielded, ["L"] * len(shielded))))
    s = float(_neg_xlogx(p).sum() - _neg_xlogx(shields).sum())
    return e - T * s
