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
    "neighborhood_map",
    "markov_shield",
    "assign_terms",
    "cluster_hamiltonian",
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


class ShieldTooSmallError(ValueError):
    """An interaction term does not fit inside the cluster it is assigned to."""


@dataclass(frozen=True)
class LatticeSpec:
    kind: str                      # chain | square
    extent: tuple | int | None = None
    boundary: str = "open"         # open | periodic
    w: int = 1                     # locality radius of the Hamiltonian

    def __post_init__(self):
        if self.kind not in ("chain", "square"):
            raise ValueError(f"unsupported lattice kind {self.kind!r}")
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"unsupported boundary {self.boundary!r}")
        if self.w < 1:
            raise ValueError("locality radius w must be >= 1")
        if self.extent is None:
            raise ValueError("finite lattices need an extent")
        if self.n_sites < 2:
            raise ValueError("finite lattices need at least 2 sites")

    @property
    def shape(self) -> tuple:
        if self.kind == "chain":
            return (int(self.extent),)
        if isinstance(self.extent, (int, np.integer)):
            return (int(self.extent), int(self.extent))
        return tuple(int(e) for e in self.extent)

    @property
    def n_sites(self) -> int:
        return int(np.prod(self.shape))


@dataclass(frozen=True)
class ModelSpec:
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
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "mat", sym(np.asarray(self.mat)))


@dataclass(frozen=True)
class Shield:
    """Markov shield of one site: the predecessors inside its neighborhood."""

    site: object
    neighborhood: frozenset
    shield: tuple      # ordering-sorted predecessors in the neighborhood
    cluster: tuple     # shield + the site itself (site last)


def model_term(model: ModelSpec, bond) -> np.ndarray:
    """Two-site bond matrix for the given model (axis order = bond order)."""
    if model.name == "heisenberg":
        # J S.S with spin operators S = sigma/2
        return 0.25 * model.J * (np.kron(PAULI_X, PAULI_X).real
                                 + np.kron(PAULI_Y, PAULI_Y).real
                                 + np.kron(PAULI_Z, PAULI_Z).real)
    # classical_ising and tfim share the diagonal bond
    return -model.J * np.kron(PAULI_Z, PAULI_Z).real


def model_site_term(model: ModelSpec, site) -> np.ndarray | None:
    if model.name == "tfim" and model.g != 0.0:
        return -model.g * PAULI_X
    return None


# ---------------------------------------------------------------------------
# finite lattices: sites, ordering, bonds, distances
# ---------------------------------------------------------------------------

def _raster_key(site):
    if isinstance(site, tuple):
        x, y = site
        return (-y, x)
    return site


def sites_of(spec: LatticeSpec):
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
    ordering = tuple(sites_of(spec))
    terms = []
    for bond in _bonds(spec):
        if lattice_distance(spec, *bond) > spec.w:
            raise ValueError(f"bond {bond} exceeds locality radius w={spec.w}")
        terms.append(Term(bond, model_term(model, bond)))
    for site in ordering:
        h1 = model_site_term(model, site)
        if h1 is not None:
            terms.append(Term((site,), h1))
    return terms, ordering


def neighborhood_map(spec: LatticeSpec, radius: int | None = None,
                     template=None) -> dict:
    """Neighborhood of every site: a distance ball of the given radius, or an
    explicit offset template (entries falling off an open lattice are dropped)."""
    if (radius is None) == (template is None):
        raise ValueError("give exactly one of radius or template")
    out = {}
    all_sites = sites_of(spec)
    site_set = set(all_sites)
    if radius is not None:
        for k in all_sites:
            out[k] = frozenset(s for s in all_sites
                               if s != k and lattice_distance(spec, k, s) <= radius)
        return out
    offsets = [tuple(o) for o in template]
    for k in all_sites:
        hood = []
        for o in offsets:
            if spec.kind == "chain":
                s = k + o if isinstance(o, int) else k + o[0]
            else:
                s = (k[0] + o[0], k[1] + o[1])
                if spec.boundary == "periodic":
                    s = (s[0] % spec.shape[0], s[1] % spec.shape[1])
            if s in site_set and s != k:
                hood.append(s)
        out[k] = frozenset(hood)
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
    return Shield(site=k, neighborhood=frozenset(neighborhood),
                  shield=shield, cluster=shield + (k,))


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


def cluster_hamiltonian(k, shields: dict, terms, ordering) -> np.ndarray:
    """Hamiltonian of cluster k under the highest-site assignment rule."""
    assignment = assign_terms(shields, terms, ordering)
    return _cluster_matrix(shields[k].cluster, assignment[k])


def _cluster_matrix(cluster_labels, assigned_terms, dims=None) -> np.ndarray:
    idx = {lab: i for i, lab in enumerate(cluster_labels)}
    if dims is None:
        dims = (2,) * len(cluster_labels)
    d = int(np.prod(dims))
    ham = np.zeros((d, d))
    for t in assigned_terms:
        axes = tuple(idx[s] for s in t.support)
        ham = ham + t.weight * embed_mat(t.mat, dims, axes)
    return sym(ham)


def total_hamiltonian(terms, sites, dims=None) -> np.ndarray:
    """Full lattice Hamiltonian, for exact-diagonalization oracles."""
    sites = tuple(sites)
    return _cluster_matrix(sites, terms, dims)


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
    meta: dict

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))


@dataclass(eq=False)
class FiniteGeometry:
    """Per-site clusters of a finite lattice with all pairwise overlap
    constraints between the declared clusters."""

    spec: LatticeSpec
    model: ModelSpec
    sites: tuple
    shields: dict
    hams: dict
    constraints: tuple      # ((site_a, axes_a, site_b, axes_b), ...)
    terms: tuple
    meta: dict

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def cluster_labels(self, k):
        return self.shields[k].cluster


def ti_chain_geometry(model: ModelSpec, shield) -> TIGeometry:
    """Infinite chain with a trailing shield: an integer n means the n
    preceding sites; an offset list gives a general (possibly disconnected)
    shield. The cluster holds one bond, the one ending at the top site, so
    the shield must contain -1. Consistency is enforced on the overlap with
    the unit translate."""
    if isinstance(shield, (int, np.integer)):
        if shield < 1:
            raise ValueError("shield size must be >= 1")
        offsets = tuple(range(-int(shield), 0))
    else:
        offsets = tuple(sorted(int(o) for o in shield))
        if len(set(offsets)) != len(offsets) or any(o >= 0 for o in offsets):
            raise ValueError("shield offsets must be distinct negative integers")
    if -1 not in offsets:
        raise ShieldTooSmallError("chain shield must contain -1 to hold the bond")
    labels = offsets + (0,)
    if 2 ** len(labels) > CLUSTER_DIM_GUARD:
        raise ValueError(f"cluster dimension 2^{len(labels)} exceeds guard {CLUSTER_DIM_GUARD}")
    dims = (2,) * len(labels)
    terms = [Term((-1, 0), model_term(model, (-1, 0)))]
    h1 = model_site_term(model, 0)
    if h1 is not None:
        terms.append(Term((0,), h1))
    ham = _cluster_matrix(labels, terms, dims)
    idx = {lab: i for i, lab in enumerate(labels)}
    cluster_set = set(labels)
    overlap = [o for o in labels if o - 1 in cluster_set]
    constraints = ((tuple(idx[o] for o in overlap),
                    tuple(idx[o - 1] for o in overlap)),)
    return TIGeometry(labels=labels, dims=dims, ham=ham,
                      shield_axes=tuple(range(len(offsets))), constraints=constraints,
                      meta={"kind": "ti_chain", "shield_size": len(offsets),
                            "model": model, "shield_offsets": offsets})


def ti_square_geometry(model: ModelSpec, template=DEFAULT_SHIELD_7) -> TIGeometry:
    """Infinite square lattice with an offset-template shield.

    The per-site cluster Hamiltonian holds one horizontal and one vertical
    bond, so the template must contain (-1, 0) and (0, 1). Consistency is
    enforced on the overlaps with the unit translates in x and y.
    """
    template = tuple(tuple(int(v) for v in o) for o in template)
    if len(set(template)) != len(template):
        raise ValueError("duplicate offsets in shield template")
    for dx, dy in template:
        if not (dy > 0 or (dy == 0 and dx < 0)):
            raise ValueError(f"offset {(dx, dy)} is not a predecessor in raster order")
    labels = tuple(sorted(template, key=_raster_key)) + ((0, 0),)
    if 2 ** len(labels) > CLUSTER_DIM_GUARD:
        raise ValueError(f"cluster dimension 2^{len(labels)} exceeds guard {CLUSTER_DIM_GUARD}")
    dims = (2,) * len(labels)
    bond = model_term(model, None)
    terms = []
    for other in ((-1, 0), (0, 1)):
        if other not in template:
            raise ShieldTooSmallError(
                f"template must contain {other} to hold the bond {(other, (0, 0))}")
        terms.append(Term((other, (0, 0)), bond))
    h1 = model_site_term(model, (0, 0))
    if h1 is not None:
        terms.append(Term(((0, 0),), h1))
    ham = _cluster_matrix(labels, terms, dims)
    idx = {lab: i for i, lab in enumerate(labels)}
    cluster_set = set(labels)
    constraints = []
    for sx, sy in ((1, 0), (0, 1)):
        overlap = sorted((o for o in labels if (o[0] - sx, o[1] - sy) in cluster_set),
                         key=_raster_key)
        if not overlap:
            raise ValueError(f"template has no overlap with its ({sx},{sy}) translate")
        left = tuple(idx[o] for o in overlap)
        right = tuple(idx[(o[0] - sx, o[1] - sy)] for o in overlap)
        constraints.append((left, right))
    return TIGeometry(labels=labels, dims=dims, ham=ham,
                      shield_axes=tuple(range(len(labels) - 1)),
                      constraints=tuple(constraints),
                      meta={"kind": "ti_square", "shield_offsets": template,
                            "model": model})


def finite_geometry(spec: LatticeSpec, model: ModelSpec, radius: int | None = None,
                    template=None) -> FiniteGeometry:
    """Per-site shields from a neighborhood spec, cluster Hamiltonians under
    the highest-site rule, and every pairwise overlap constraint."""
    terms, ordering = build_lattice(spec, model)
    if radius is None and template is None:
        radius = spec.w
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
    return FiniteGeometry(spec=spec, model=model, sites=ordering, shields=shields,
                          hams=hams, constraints=tuple(constraints),
                          terms=tuple(terms),
                          meta={"kind": spec.kind, "radius": radius,
                                "template": template, "model": model})
