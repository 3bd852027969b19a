"""Lattice geometry, site orderings, Markov shields, and cluster Hamiltonians.

Sites on chains are integers 0..N-1 ordered left to right. Sites on square
lattices are (x, y) pairs ordered raster fashion with the top row (largest y)
first, then left to right; "one row up" is therefore one step earlier in the
ordering. Shield templates are offset lists (dx, dy) relative to a site, and
must consist of predecessors under this ordering: dy > 0, or dy == 0 with
dx < 0.

Every interaction term is assigned wholly to the cluster of its
highest-ordered site, which partitions the Hamiltonian across clusters
without double counting. A term whose support does not fit inside its
designated cluster raises :class:`ShieldTooSmallError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from medbound.opalg import embed_mat, sym

__all__ = [
    "LatticeSpec",
    "ModelSpec",
    "Term",
    "Shield",
    "ShieldTooSmallError",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "model_term",
    "model_site_term",
    "build_lattice",
    "lattice_distance",
    "neighborhood_map",
    "markov_shield",
    "assign_terms",
    "total_hamiltonian",
    "TIGeometry",
    "FiniteGeometry",
    "ti_chain_geometry",
    "ti_square_geometry",
    "finite_geometry",
    "DEFAULT_SHIELD_7",
    "DEFAULT_SHIELD_10",
]

CLUSTER_DIM_GUARD = 2 ** 12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

# L-shaped defaults: predecessors in the same row plus a segment in the row
# above, sized so the cluster dimensions come out at 2^8 and 2^11.
DEFAULT_SHIELD_7 = ((-1, 0), (-2, 0), (-3, 0), (-4, 0), (-1, 1), (0, 1), (1, 1))
DEFAULT_SHIELD_10 = ((-1, 0), (-2, 0), (-3, 0), (-4, 0), (-5, 0),
                     (-2, 1), (-1, 1), (0, 1), (1, 1), (2, 1))


def _is_int(x) -> bool:
    """An integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_count(x) -> bool:
    """An integer (not a bool) of at least 1."""
    return _is_int(x) and x >= 1


class ShieldTooSmallError(ValueError):
    """An interaction term does not fit inside the cluster it is assigned to."""


@dataclass(frozen=True)
class LatticeSpec:
    kind: str                      # chain | square
    extent: tuple | int | None = None      # chain: a count; square: a count or a pair
    boundary: str = "open"         # open | periodic

    def __post_init__(self):
        if self.kind not in ("chain", "square"):
            raise ValueError(f"unsupported lattice kind {self.kind!r}")
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"unsupported boundary {self.boundary!r}")
        extent = self.extent
        if not (_is_count(extent) or (self.kind == "square" and np.ndim(extent) == 1
                                      and len(extent) == 2 and all(map(_is_count, extent)))):
            raise ValueError("extent must be a count (on a square, or a pair of counts)")
        if self.n_sites < 2:
            raise ValueError("finite lattices need at least 2 sites")

    @property
    def shape(self) -> tuple:
        if _is_int(self.extent):
            return (int(self.extent),) * (1 if self.kind == "chain" else 2)
        return tuple(int(e) for e in self.extent)

    @property
    def n_sites(self) -> int:
        return int(np.prod(self.shape))


@dataclass(frozen=True)
class ModelSpec:
    """A nearest-neighbor spin-1/2 model. The TFIM is written in the basis
    where its field is diagonal, -J sum XX - g sum Z: the Hadamard-rotated
    form of -J sum ZZ - g sum X, with the same spectrum. There its
    Hamiltonian conserves the S^z count mod 2, so both solvers run it in two
    parity sectors (`layout._sector_rule`) instead of one dense block; its
    field breaks the global spin flip, which Heisenberg and the classical
    Ising model keep bit for bit."""

    name: str                      # heisenberg | classical_ising | tfim
    J: float = 1.0
    g: float = 0.0                 # transverse field (tfim)

    def __post_init__(self):
        if self.name not in ("heisenberg", "classical_ising", "tfim"):
            raise ValueError(f"unknown model {self.name!r}")
        if not (np.isfinite(self.J) and np.isfinite(self.g)):
            raise ValueError("couplings must be finite")


@dataclass(frozen=True)
class Term:
    """One local Hamiltonian term: matrix `mat` acting on the `support` sites
    (axis order matches the support order)."""

    support: tuple
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "mat", sym(np.asarray(self.mat)))


@dataclass(frozen=True)
class Shield:
    """Markov shield of one site: the predecessors inside its neighborhood."""

    site: object
    shield: tuple      # ordering-sorted predecessors in the neighborhood
    cluster: tuple     # shield + the site itself (site last)


def model_term(model: ModelSpec) -> np.ndarray:
    """Two-site bond matrix for the given model (axis order = bond order)."""
    if model.name == "heisenberg":
        # J S.S with spin operators S = sigma/2
        return 0.25 * model.J * (np.kron(PAULI_X, PAULI_X).real
                                 + np.kron(PAULI_Y, PAULI_Y).real
                                 + np.kron(PAULI_Z, PAULI_Z).real)
    pauli = PAULI_X if model.name == "tfim" else PAULI_Z
    return -model.J * np.kron(pauli, pauli)


def model_site_term(model: ModelSpec) -> np.ndarray | None:
    if model.name == "tfim" and model.g != 0.0:
        return -model.g * PAULI_Z
    return None


# ---------------------------------------------------------------------------
# finite lattices: sites, ordering, bonds, distances
# ---------------------------------------------------------------------------

def _raster_key(site):
    if isinstance(site, tuple):
        x, y = site
        return (-y, x)
    return site


def _sites_of(spec: LatticeSpec):
    if spec.kind == "chain":
        return list(range(spec.shape[0]))
    nx, ny = spec.shape
    return sorted(((x, y) for x in range(nx) for y in range(ny)), key=_raster_key)


def lattice_distance(spec: LatticeSpec, a, b) -> int:
    """Graph (Manhattan) distance, wrapping on periodic boundaries."""
    def axis_dist(d, n):
        d = abs(d)
        return min(d, n - d) if spec.boundary == "periodic" else d
    if spec.kind == "chain":
        return axis_dist(a - b, spec.shape[0])
    nx, ny = spec.shape
    return axis_dist(a[0] - b[0], nx) + axis_dist(a[1] - b[1], ny)


def _bonds(spec: LatticeSpec):
    if spec.kind == "chain":
        n = spec.shape[0]
        bonds = [(i, i + 1) for i in range(n - 1)]
        if spec.boundary == "periodic" and n > 2:
            bonds.append((n - 1, 0))
        return bonds
    nx, ny = spec.shape
    bonds = []
    for x in range(nx):
        for y in range(ny):
            if x + 1 < nx:
                bonds.append(((x, y), (x + 1, y)))
            elif spec.boundary == "periodic" and nx > 2:
                bonds.append(((x, y), (0, y)))
            if y + 1 < ny:
                bonds.append(((x, y), (x, y + 1)))
            elif spec.boundary == "periodic" and ny > 2:
                bonds.append(((x, y), (x, 0)))
    return bonds


def build_lattice(spec: LatticeSpec, model: ModelSpec):
    """All nearest-neighbor terms plus the default raster ordering."""
    ordering = tuple(_sites_of(spec))
    terms = [Term(bond, model_term(model)) for bond in _bonds(spec)]
    for site in ordering:
        h1 = model_site_term(model)
        if h1 is not None:
            terms.append(Term((site,), h1))
    return terms, ordering


def _shield_offsets(kind: str, template) -> tuple:
    """A shield template's offsets: on a chain distinct negative integers
    (bare or 1-tuples), returned as integers; on a square distinct integer
    pairs before the site in raster order. Anything else raises ValueError."""
    chain = kind == "chain"
    out = []
    for o in template:
        o = (o,) if chain and _is_int(o) else o
        if not (np.ndim(o) == 1 and len(o) == (1 if chain else 2) and all(map(_is_int, o))):
            what = "integers" if chain else "pairs of integers"
            raise ValueError(f"shield offsets must be {what}, not {o!r}")
        o = int(o[0]) if chain else (int(o[0]), int(o[1]))
        if _raster_key(o) >= _raster_key(0 if chain else (0, 0)):
            raise ValueError(f"offset {o} is not a predecessor in the site ordering")
        out.append(o)
    if len(set(out)) != len(out):
        raise ValueError("duplicate offsets in shield template")
    return tuple(out)


def neighborhood_map(spec: LatticeSpec, radius: int | None = None,
                     template=None) -> dict:
    """Neighborhood of every site: a distance ball of the given radius, or an
    explicit offset template (`_shield_offsets`; entries falling off an open
    lattice are dropped)."""
    if (radius is None) == (template is None):
        raise ValueError("give exactly one of radius or template")
    if radius is not None and not _is_count(radius):
        raise ValueError("radius must be an integer >= 1")
    out = {}
    all_sites = _sites_of(spec)
    site_set = set(all_sites)
    if radius is not None:
        for k in all_sites:
            out[k] = frozenset(s for s in all_sites
                               if s != k and lattice_distance(spec, k, s) <= radius)
        return out
    offsets = _shield_offsets(spec.kind, template)
    for k in all_sites:
        if spec.kind == "chain":
            hood = [k + o for o in offsets]
        else:
            hood = [(k[0] + dx, k[1] + dy) for dx, dy in offsets]
            if spec.boundary == "periodic":
                hood = [(x % spec.shape[0], y % spec.shape[1]) for x, y in hood]
        out[k] = frozenset(s for s in hood if s in site_set and s != k)
    return out


def markov_shield(k, ordering, neighborhood) -> Shield:
    """Shield of site k: its neighborhood intersected with the sites that
    precede k in the ordering."""
    pos = {s: i for i, s in enumerate(ordering)}
    if k not in pos:
        raise ValueError(f"site {k!r} is not in the ordering")
    before = {s for s in neighborhood if pos[s] < pos[k]}
    shield = tuple(sorted(before, key=pos.get))
    if not shield and pos[k] > 0:
        raise ValueError(f"empty shield at site {k!r}; only the first site may have one")
    return Shield(site=k, shield=shield, cluster=shield + (k,))


def assign_terms(shields: dict, terms, ordering) -> dict:
    """Map every term to the cluster of its highest-ordered site."""
    pos = {s: i for i, s in enumerate(ordering)}
    out = {k: [] for k in shields}
    for t in terms:
        top = max(t.support, key=pos.get)
        cluster = set(shields[top].cluster)
        if not set(t.support) <= cluster:
            raise ShieldTooSmallError(
                f"term on {t.support} does not fit in the cluster of site {top!r}; "
                f"enlarge the shield")
        out[top].append(t)
    return out


def _cluster_matrix(cluster_labels, assigned_terms) -> np.ndarray:
    idx = {lab: i for i, lab in enumerate(cluster_labels)}
    dims = (2,) * len(cluster_labels)
    ham = np.zeros((2 ** len(dims),) * 2)
    for t in assigned_terms:
        ham = ham + embed_mat(t.mat, dims, tuple(idx[s] for s in t.support))
    return sym(ham)


def total_hamiltonian(terms, sites) -> np.ndarray:
    """Full lattice Hamiltonian, for exact-diagonalization oracles."""
    return _cluster_matrix(tuple(sites), terms)


# ---------------------------------------------------------------------------
# cluster geometries consumed by the solvers
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TIGeometry:
    """Single translation-invariant cluster: site labels in ordering position
    (top site last), the per-site cluster Hamiltonian, and the marginal pairs
    that encode translation consistency."""

    labels: tuple
    dims: tuple
    ham: np.ndarray
    shield_axes: tuple
    constraints: tuple      # ((left_axes, right_axes), ...)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))


@dataclass(eq=False)
class FiniteGeometry:
    """Per-site clusters of a finite lattice with all pairwise overlap
    constraints between the declared clusters."""

    sites: tuple
    shields: dict
    hams: dict
    constraints: tuple      # ((site_a, axes_a, site_b, axes_b), ...)
    terms: tuple

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def cluster_labels(self, k):
        return self.shields[k].cluster


def _translate(site, shift):
    """`site` moved back by `shift` (chain: integers, square: pairs)."""
    return site - shift if isinstance(site, int) else (site[0] - shift[0], site[1] - shift[1])


def _ti_geometry(model: ModelSpec, labels, bonded, shifts) -> TIGeometry:
    """The TI cluster on `labels` (top site last, shielded by the rest): the
    bonds from `bonded` to the top site, then its site term, and agreement
    with the translate by each of `shifts` on their overlap."""
    if 2 ** len(labels) > CLUSTER_DIM_GUARD:
        raise ValueError(f"cluster dimension 2^{len(labels)} exceeds guard {CLUSTER_DIM_GUARD}")
    top = labels[-1]
    terms = [Term((other, top), model_term(model)) for other in bonded]
    h1 = model_site_term(model)
    if h1 is not None:
        terms.append(Term((top,), h1))
    idx = {lab: i for i, lab in enumerate(labels)}
    constraints = []
    for shift in shifts:
        overlap = [o for o in labels if _translate(o, shift) in idx]
        constraints.append((tuple(idx[o] for o in overlap),
                            tuple(idx[_translate(o, shift)] for o in overlap)))
    return TIGeometry(labels=labels, dims=(2,) * len(labels), ham=_cluster_matrix(labels, terms),
                      shield_axes=tuple(range(len(labels) - 1)),
                      constraints=tuple(constraints))


def ti_chain_geometry(model: ModelSpec, shield) -> TIGeometry:
    """Infinite chain with a trailing shield: an integer n means the n
    preceding sites; an offset list gives a general (possibly disconnected)
    shield. The cluster holds one bond, the one ending at the top site, so
    the shield must contain -1. Consistency is enforced on the overlap with
    the unit translate."""
    if np.ndim(shield) == 0:
        if not _is_count(shield):
            raise ValueError("shield size must be an integer >= 1")
        offsets = tuple(range(-int(shield), 0))
    else:
        offsets = tuple(sorted(_shield_offsets("chain", shield)))
    if -1 not in offsets:
        raise ShieldTooSmallError("chain shield must contain -1 to hold the bond")
    return _ti_geometry(model, offsets + (0,), (-1,), (1,))


def ti_square_geometry(model: ModelSpec, template=DEFAULT_SHIELD_7) -> TIGeometry:
    """Infinite square lattice with an offset-template shield.

    The per-site cluster Hamiltonian holds one horizontal and one vertical
    bond, so the template must contain (-1, 0) and (0, 1). Consistency is
    enforced on the overlaps with the unit translates in x and y.
    """
    template = _shield_offsets("square", template)
    bonded = ((-1, 0), (0, 1))
    for other in bonded:
        if other not in template:
            raise ShieldTooSmallError(
                f"template must contain {other} to hold the bond {(other, (0, 0))}")
    # predecessors come first in raster order, so the site itself is last
    labels = tuple(sorted(template, key=_raster_key)) + ((0, 0),)
    return _ti_geometry(model, labels, bonded, ((1, 0), (0, 1)))


def finite_geometry(spec: LatticeSpec, model: ModelSpec, radius: int | None = None,
                    template=None) -> FiniteGeometry:
    """Per-site shields from a neighborhood spec (a distance ball, of radius
    1 unless given, or an offset template), cluster Hamiltonians under the
    highest-site rule, and every pairwise overlap constraint."""
    terms, ordering = build_lattice(spec, model)
    if radius is None and template is None:
        radius = 1
    nbh = neighborhood_map(spec, radius=radius, template=template)
    shields = {k: markov_shield(k, ordering, nbh[k]) for k in ordering}
    largest = max(len(s.cluster) for s in shields.values())
    if 2 ** largest > CLUSTER_DIM_GUARD:
        raise ValueError(f"cluster dimension 2^{largest} exceeds guard {CLUSTER_DIM_GUARD}")
    assignment = assign_terms(shields, terms, ordering)
    hams = {k: _cluster_matrix(shields[k].cluster, assignment[k]) for k in ordering}
    pos = {s: i for i, s in enumerate(ordering)}
    constraints = []
    for i, a in enumerate(ordering):
        ca = shields[a].cluster
        idx_a = {lab: t for t, lab in enumerate(ca)}
        for b in ordering[i + 1:]:
            cb = shields[b].cluster
            shared = sorted(set(ca) & set(cb), key=pos.get)
            if not shared:
                continue
            idx_b = {lab: t for t, lab in enumerate(cb)}
            constraints.append((a, tuple(idx_a[s] for s in shared),
                                b, tuple(idx_b[s] for s in shared)))
    return FiniteGeometry(sites=ordering, shields=shields, hams=hams,
                          constraints=tuple(constraints), terms=tuple(terms))
