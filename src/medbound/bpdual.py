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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from medbound.lattice import LatticeSpec, ModelSpec, build_lattice, ti_chain_geometry
from medbound.opalg import (
    EIG_FLOOR,
    embed_mat,
    entropy_mat,
    logm_psd,
    ptrace_mat,
    sym,
    trace_distance,
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
    if T <= 0:
        raise ValueError("temperature must be positive")
    geo = ti_chain_geometry(model, int(n))
    return BPProblem(kind="ti", n=int(n), T=T,
                     log_lambda={"ti": -geo.ham / T},
                     clusters={"ti": geo.labels},
                     meta={"model": model, "schedule": "jacobi"})


def bp_chain_problem(spec: LatticeSpec, model: ModelSpec, n: int, T: float) -> BPProblem:
    """Finite open chain: clusters are the length-(n+1) windows; terms that
    end before the first full window are folded into the first cluster."""
    if spec.kind != "chain" or spec.boundary != "open":
        raise ValueError("the dual solver runs on finite open chains (or ti)")
    if T <= 0:
        raise ValueError("temperature must be positive")
    terms, sites = build_lattice(spec, model)
    n = int(n)
    n_sites = len(sites)
    if n < 1 or n + 1 > n_sites:
        raise ValueError("window must satisfy 1 <= n <= N-1")
    clusters = {k: tuple(range(k - n, k + 1)) for k in range(n, n_sites)}
    log_lambda = {}
    for k, labels in clusters.items():
        idx = {s: i for i, s in enumerate(labels)}
        dims = (2,) * len(labels)
        ham = np.zeros((2 ** len(labels), 2 ** len(labels)))
        for t in terms:
            top = max(t.support)
            target = max(top, n)
            if target != k:
                continue
            ham = ham + embed_mat(t.mat, dims, tuple(idx[s] for s in t.support))
        log_lambda[k] = -sym(ham) / T
    return BPProblem(kind="chain", n=n, T=T, log_lambda=log_lambda,
                     clusters=clusters,
                     meta={"model": model, "schedule": "forward-backward sweep"})


# ---------------------------------------------------------------------------
# message algebra
# ---------------------------------------------------------------------------

def _normalized_exp(log_mat: np.ndarray):
    """exp(log_mat) scaled to unit trace, and the log of the scale (the
    log-sum-exp of the eigenvalues), so the unit-trace log is
    log_mat - scale * I."""
    vals, vecs = np.linalg.eigh(sym(log_mat))
    w = np.exp(vals - vals[-1])
    total = w.sum()
    return sym((vecs * (w / total)) @ vecs.conj().T), float(vals[-1]) + math.log(total)


def _message_log(mat: np.ndarray) -> np.ndarray:
    """Unclamped log of a positive definite message."""
    vals, vecs = np.linalg.eigh(sym(mat))
    if vals[0] <= 0.0:
        raise ValueError("incoming message is singular")
    return sym((vecs * np.log(vals)) @ vecs.conj().T)


def _cluster_state_log(problem, key, log_right_in, log_left_in):
    """log of the unnormalized belief: log Lambda + embedded message logs."""
    n = problem.n
    dims = (2,) * (n + 1)
    first = tuple(range(n))
    last = tuple(range(1, n + 1))
    log_rho = np.array(problem.log_lambda[key])
    if log_right_in is not None:
        log_rho = log_rho + embed_mat(log_right_in, dims, first)
    if log_left_in is not None:
        log_rho = log_rho + embed_mat(log_left_in, dims, last)
    return sym(log_rho)


def _outgoing_logs(problem, key, log_right_in, log_left_in, sides, retain_inverse):
    """Logs (up to a scalar) of the outgoing messages of one cluster.

    The incoming logs come from the left (right-moving, on the first n
    sites) and from the right (left-moving, on the last n sites), None
    beyond an open end. `sides` names the outgoing directions wanted:
    "L" goes to the left neighbour, "R" to the right one."""
    n = problem.n
    dims = (2,) * (n + 1)
    out = {}
    rho = None
    for side in sides:
        keep, inverse = ((tuple(range(n)), log_right_in) if side == "L"
                         else (tuple(range(1, n + 1)), log_left_in))
        if retain_inverse:
            if rho is None:
                rho, _ = _normalized_exp(
                    _cluster_state_log(problem, key, log_right_in, log_left_in))
            out[side] = logm_psd(ptrace_mat(rho, dims, keep), EIG_FLOOR)
            if inverse is not None:
                out[side] = out[side] - inverse
        else:
            # the cancellation assumed when partial trace and the log-space
            # product are treated as commuting: each outgoing message sees only
            # the message arriving from the opposite side
            seen = (None, log_left_in) if side == "L" else (log_right_in, None)
            rho_side, _ = _normalized_exp(_cluster_state_log(problem, key, *seen))
            out[side] = logm_psd(ptrace_mat(rho_side, dims, keep), EIG_FLOOR)
    return out


def _incoming(problem, messages, key):
    """(from-left right-moving, from-right left-moving) or None at the ends."""
    if problem.kind == "ti":
        return messages["R"], messages["L"]
    keys = problem.cluster_keys
    m_right_in = messages[("R", key - 1)] if key > keys[0] else None
    m_left_in = messages[("L", key + 1)] if key < keys[-1] else None
    return m_right_in, m_left_in


def bp_update(k, state: BPState, problem: BPProblem,
              config: BPConfig | None = None) -> dict:
    """Outgoing messages of cluster k given the current state (undamped)."""
    config = config or BPConfig()
    logs = [None if m is None else _message_log(m)
            for m in _incoming(problem, state.messages, k)]
    out = _outgoing_logs(problem, k, *logs, ("L", "R"), config.retain_inverse)
    if problem.kind == "ti":
        return {side: _normalized_exp(log)[0] for side, log in out.items()}
    return {(side, k): _normalized_exp(log)[0] for side, log in out.items()}


def bp_fixed_point(problem: BPProblem, config: BPConfig | None = None) -> BPState:
    """Iterate the message equations to a fixed point.

    Finite chains sweep forward (right-moving messages) then backward
    (left-moving); the translation-invariant pair is updated jointly.
    The residual is the largest trace-distance change per full round.
    """
    config = config or BPConfig()
    dim = 2 ** problem.n
    if problem.kind == "ti":
        names = ["L", "R"]
        steps = [(("L", "R"), "ti")]
    else:
        # keyed by sender: ('R', k) goes k -> k+1, ('L', k) goes k -> k-1
        keys = problem.cluster_keys
        names = [("R", k) for k in keys[:-1]] + [("L", k) for k in keys[1:]]
        steps = ([(("R",), k) for k in keys[:-1]]
                 + [(("L",), k) for k in reversed(keys[1:])])
    logs = {name: np.eye(dim) * -math.log(dim) for name in names}
    state = BPState(messages={name: np.eye(dim) / dim for name in names},
                    residual=math.inf, iterations=0, converged=False,
                    meta={"schedule": problem.meta.get("schedule")}, logs=logs)
    alpha = config.damping
    for it in range(1, config.max_iters + 1):
        residual = 0.0
        for sides, k in steps:
            out = _outgoing_logs(problem, k, *_incoming(problem, logs, k), sides,
                                 config.retain_inverse)
            for side, log_new in out.items():
                name = side if problem.kind == "ti" else (side, k)
                # damping: convex mix of the logs, then one eigh gives the
                # unit-trace message and the shift that normalizes its log
                mix = (1.0 - alpha) * logs[name] + alpha * log_new
                mixed, scale = _normalized_exp(mix)
                residual = max(residual, trace_distance(mixed, state.messages[name]))
                state.messages[name] = mixed
                logs[name] = mix - scale * np.eye(dim)
        state.residual = residual
        state.iterations = it
        if residual <= config.tol_residual:
            state.converged = True
            break
    return state


def beliefs_from_messages(state: BPState, problem: BPProblem):
    """Cluster beliefs rho_k and overlap beliefs sigma_k.

    sigma_k comes from the product of the two messages crossing the edge,
    which is the stationarity condition for the overlap state. The message
    logs are the ones the fixed-point loop carried; a state without them has
    its messages logged, with eigenvalues clamped at EIG_FLOOR."""
    logs = state.logs
    if logs is None:
        logs = {name: logm_psd(m, EIG_FLOOR) for name, m in state.messages.items()}
    beliefs = {}
    overlaps = {}
    for k in problem.cluster_keys:
        beliefs[k], _ = _normalized_exp(
            _cluster_state_log(problem, k, *_incoming(problem, logs, k)))
    if problem.kind == "ti":
        overlaps["ti"], _ = _normalized_exp(logs["L"] + logs["R"])
        return beliefs, overlaps
    for k in problem.cluster_keys[1:]:
        overlaps[k], _ = _normalized_exp(logs[("L", k)] + logs[("R", k - 1)])
    return beliefs, overlaps


def belief_consistency(state: BPState, problem: BPProblem) -> float:
    """Largest trace distance between cluster marginals and the overlap
    beliefs; at an exact fixed point this vanishes."""
    n = problem.n
    dims = (2,) * (n + 1)
    first = tuple(range(n))
    last = tuple(range(1, n + 1))
    beliefs, overlaps = beliefs_from_messages(state, problem)
    worst = 0.0
    if problem.kind == "ti":
        rho = beliefs["ti"]
        sig = overlaps["ti"]
        worst = max(trace_distance(ptrace_mat(rho, dims, first), sig),
                    trace_distance(ptrace_mat(rho, dims, last), sig))
        return worst
    keys = problem.cluster_keys
    for k in keys:
        rho = beliefs[k]
        if k in overlaps:
            worst = max(worst, trace_distance(
                ptrace_mat(rho, dims, first), overlaps[k]))
        if k + 1 in overlaps:
            worst = max(worst, trace_distance(
                ptrace_mat(rho, dims, last), overlaps[k + 1]))
    return worst


def bp_free_energy(state: BPState, problem: BPProblem) -> float:
    """Shield-local free energy evaluated at the beliefs (per site for the
    translation-invariant chain, total for a finite chain)."""
    if not state.converged:
        warnings.warn("evaluating the free energy on a non-converged state",
                      RuntimeWarning, stacklevel=2)
    n = problem.n
    dims = (2,) * (n + 1)
    first = tuple(range(n))
    T = problem.T
    beliefs, _ = beliefs_from_messages(state, problem)
    if problem.kind == "ti":
        rho = beliefs["ti"]
        ham = -T * problem.log_lambda["ti"]
        e = trace_product(rho, ham)
        s = entropy_mat(rho) - entropy_mat(ptrace_mat(rho, dims, first))
        return e - T * s
    keys = problem.cluster_keys
    e = 0.0
    s_m = 0.0
    for k in keys:
        rho = beliefs[k]
        e += trace_product(rho, -T * problem.log_lambda[k])
        s_m += entropy_mat(rho)
        if k > keys[0]:
            s_m -= entropy_mat(ptrace_mat(rho, dims, first))
    return e - T * s_m
