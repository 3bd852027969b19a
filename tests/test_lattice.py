import numpy as np
import pytest

from medbound.lattice import (
    DEFAULT_SHIELD_7,
    DEFAULT_SHIELD_10,
    FiniteGeometry,
    LatticeSpec,
    ModelSpec,
    PAULI_X,
    PAULI_Z,
    ShieldTooSmallError,
    Term,
    assign_terms,
    build_lattice,
    finite_geometry,
    markov_shield,
    model_term,
    neighborhood_map,
    ti_chain_geometry,
    ti_square_geometry,
    total_hamiltonian,
)
from medbound.opalg import embed_mat
from medbound.oracle import exact_free_energy

HEIS = ModelSpec("heisenberg")
ISING = ModelSpec("classical_ising")
SQUARE_TEMPLATE_6 = ((-1, 0), (-2, 0), (-3, 0), (-1, 1), (0, 1), (1, 1))
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


class TestBuildLattice:
    def test_chain_open_bond_count(self):
        terms, ordering = build_lattice(LatticeSpec("chain", 4), HEIS)
        assert len(terms) == 3
        assert ordering == (0, 1, 2, 3)

    def test_chain_periodic_bond_count(self):
        terms, _ = build_lattice(LatticeSpec("chain", 4, boundary="periodic"), HEIS)
        assert len(terms) == 4

    def test_square_3x3_bond_count(self):
        terms, _ = build_lattice(LatticeSpec("square", (3, 3)), HEIS)
        assert len(terms) == 12

    def test_square_raster_ordering_top_row_first(self):
        _, ordering = build_lattice(LatticeSpec("square", (2, 2)), HEIS)
        assert ordering == ((0, 1), (1, 1), (0, 0), (1, 0))

    def test_ti_kind_rejected(self):
        with pytest.raises(ValueError):
            LatticeSpec("ti_chain")

    def test_every_term_within_locality(self):
        spec = LatticeSpec("square", (3, 4), boundary="periodic")
        terms, _ = build_lattice(spec, HEIS)
        from medbound.lattice import lattice_distance
        for t in terms:
            if len(t.support) == 2:
                assert lattice_distance(spec, *t.support) <= 1

    @pytest.mark.parametrize("kind, extent", [("chain", 6.9), ("chain", (4, 4)),
                                              ("square", 2.5), ("square", (2.5, 4)),
                                              ("square", (-2, -3)), ("square", (3,))],
                             ids=["chain-6.9", "chain-(4,4)", "square-2.5", "square-(2.5,4)",
                                  "square-(-2,-3)", "square-(3,)"])
    def test_sizes_must_be_counts(self, kind, extent):
        # a fraction is not rounded to a count, and a square takes one count
        # or a pair of them
        with pytest.raises(ValueError, match="count"):
            LatticeSpec(kind, extent)

    def test_numpy_integer_sizes_accepted(self):
        assert LatticeSpec("chain", np.int64(5)).n_sites == 5
        assert LatticeSpec("square", (np.int64(2), 3)).n_sites == 6

    def test_tfim_has_site_terms(self):
        terms, _ = build_lattice(LatticeSpec("chain", 3), ModelSpec("tfim", g=0.7))
        supports = [t.support for t in terms]
        assert (0,) in supports and (2,) in supports
        assert len(terms) == 2 + 3


class TestModelTerms:
    def test_heisenberg_bond_spectrum(self):
        vals = np.linalg.eigvalsh(model_term(HEIS))
        assert np.allclose(vals, [-0.75, 0.25, 0.25, 0.25])

    def test_classical_ising_diagonal(self):
        m = model_term(ModelSpec("classical_ising", J=1.0))
        assert np.allclose(m, np.diag([-1.0, 1.0, 1.0, -1.0]))

    def test_tfim_zero_field_is_classical_ising(self):
        # equal up to one Hadamard per site
        a = model_term(ModelSpec("tfim", J=2.0, g=0.0))
        b = model_term(ModelSpec("classical_ising", J=2.0))
        hh = np.kron(HADAMARD, HADAMARD)
        assert np.allclose(hh @ a @ hh, b)
        terms, _ = build_lattice(LatticeSpec("chain", 3), ModelSpec("tfim", J=2.0, g=0.0))
        assert all(len(t.support) == 2 for t in terms)

    @pytest.mark.parametrize("t", [0.3, 1.0])
    def test_tfim_matches_its_z_basis_form(self, t):
        # -J sum XX - g sum Z has the spectrum of -J sum ZZ - g sum X
        model = ModelSpec("tfim", J=1.0, g=0.8)
        spec = LatticeSpec("chain", 8)
        terms, sites = build_lattice(spec, model)
        z_basis = [Term(bond, -model.J * np.kron(PAULI_Z, PAULI_Z))
                   for bond in zip(range(7), range(1, 8))]
        z_basis += [Term((k,), -model.g * PAULI_X) for k in range(8)]
        f = exact_free_energy(total_hamiltonian(terms, sites), t).f_total
        f_z = exact_free_energy(total_hamiltonian(z_basis, sites), t).f_total
        assert abs(f - f_z) <= 1e-12


class TestShields:
    def test_window_shield_mid_chain(self):
        spec = LatticeSpec("chain", 10)
        nbh = neighborhood_map(spec, radius=2)
        sh = markov_shield(5, tuple(range(10)), nbh[5])
        assert sh.shield == (3, 4)
        assert sh.cluster == (3, 4, 5)

    def test_first_site_empty_shield(self):
        spec = LatticeSpec("chain", 4)
        nbh = neighborhood_map(spec, radius=2)
        sh = markov_shield(0, tuple(range(4)), nbh[0])
        assert sh.shield == ()
        assert sh.cluster == (0,)

    def test_bulk_seven_site_template(self):
        spec = LatticeSpec("square", (12, 12))
        ordering = tuple(sorted(((x, y) for x in range(12) for y in range(12)),
                                key=lambda s: (-s[1], s[0])))
        nbh = neighborhood_map(spec, template=DEFAULT_SHIELD_7)
        sh = markov_shield((6, 6), ordering, nbh[(6, 6)])
        assert len(sh.shield) == 7
        assert 2 ** len(sh.cluster) == 2 ** 8

    def test_template_size_bounds_shield(self):
        spec = LatticeSpec("square", (8, 8))
        ordering = tuple(sorted(((x, y) for x in range(8) for y in range(8)),
                                key=lambda s: (-s[1], s[0])))
        nbh = neighborhood_map(spec, template=DEFAULT_SHIELD_7)
        for k in ordering[1:]:
            if nbh[k]:
                sh = markov_shield(k, ordering, nbh[k])
                assert len(sh.shield) <= 7

    def test_shield_monotone_in_neighborhood(self):
        spec = LatticeSpec("chain", 9)
        ordering = tuple(range(9))
        small = neighborhood_map(spec, radius=1)
        big = neighborhood_map(spec, radius=3)
        for k in range(1, 9):
            a = markov_shield(k, ordering, small[k]).shield
            b = markov_shield(k, ordering, big[k]).shield
            assert set(a) <= set(b)


class TestClusterHamiltonians:
    def test_partition_property_chain(self):
        spec = LatticeSpec("chain", 6, boundary="periodic")
        model = HEIS
        terms, ordering = build_lattice(spec, model)
        nbh = neighborhood_map(spec, radius=2)
        shields = {k: markov_shield(k, ordering, nbh[k]) for k in ordering}
        assignment = assign_terms(shields, terms, ordering)
        assigned = [t for ts in assignment.values() for t in ts]
        assert len(assigned) == len(terms)
        assert {id(t) for t in assigned} == {id(t) for t in terms}

    def test_cluster_energy_matches_global(self, random_state):
        # energies from the cluster decomposition equal Tr(rho H) exactly
        spec = LatticeSpec("chain", 4)
        geo = finite_geometry(spec, HEIS, radius=1)
        h_total = total_hamiltonian(geo.terms, geo.sites)
        rho = random_state(2 ** len(geo.sites))
        e_direct = float(np.real(np.trace(rho @ h_total)))
        e_clusters = 0.0
        dims = (2,) * len(geo.sites)
        for k in geo.sites:
            axes = tuple(geo.sites.index(s) for s in geo.cluster_labels(k))
            big = embed_mat(geo.hams[k], dims, axes)
            e_clusters += float(np.real(np.trace(rho @ big)))
        assert abs(e_direct - e_clusters) <= 1e-12

    def test_shield_too_small_reports_term(self):
        spec = LatticeSpec("chain", 5)
        terms, ordering = build_lattice(spec, HEIS)
        # neighborhood template that skips the nearest predecessor
        nbh = {k: frozenset(s for s in ordering if s == k - 2) for k in ordering}
        nbh[0] = frozenset()
        nbh[1] = frozenset({0})
        shields = {k: markov_shield(k, ordering, nbh[k]) for k in ordering}
        with pytest.raises(ShieldTooSmallError):
            assign_terms(shields, terms, ordering)

    def test_cluster_hamiltonian_single_site(self):
        spec = LatticeSpec("chain", 3)
        h2 = finite_geometry(spec, HEIS, radius=1).hams[2]
        assert np.allclose(h2, model_term(HEIS))


class TestTIGeometries:
    def test_chain_one_bond_per_site(self):
        geo = ti_chain_geometry(HEIS, 2)
        assert geo.labels == (-2, -1, 0)
        bond = model_term(HEIS)
        expected = embed_mat(bond, geo.dims, (1, 2))
        assert np.allclose(geo.ham, expected)

    def test_chain_constraint_is_shift(self):
        geo = ti_chain_geometry(HEIS, 3)
        (left, right), = geo.constraints
        assert left == (1, 2, 3)
        assert right == (0, 1, 2)

    @pytest.mark.parametrize("shield", [True, 2.7, 0, (-1.5,)],
                             ids=["True", "2.7", "0", "(-1.5,)"])
    def test_chain_shield_must_be_integers(self, shield):
        # a bool is no size and a fraction no offset: neither is rounded to one
        with pytest.raises(ValueError, match="shield"):
            ti_chain_geometry(HEIS, shield)

    def test_chain_shield_numpy_integers_accepted(self):
        assert ti_chain_geometry(HEIS, np.int64(2)).labels == (-2, -1, 0)
        assert ti_chain_geometry(HEIS, (np.int64(-3), -1)).labels == (-3, -1, 0)

    def test_square_has_two_bonds(self):
        geo = ti_square_geometry(HEIS, DEFAULT_SHIELD_7)
        assert geo.dim == 2 ** 8
        # energy of the maximally mixed state is 0, of all-up product is bond sum
        up = np.zeros(geo.dim)
        up[0] = 1.0
        e_up = float(up @ geo.ham @ up)
        # two Heisenberg bonds, each 1/4 on aligned spins
        assert abs(e_up - 0.5) <= 1e-12

    def test_square_overlap_sizes(self):
        geo = ti_square_geometry(HEIS, DEFAULT_SHIELD_7)
        sizes = sorted(len(left) for left, _ in geo.constraints)
        assert sizes == [2, 6]

    def test_square_ten_site(self):
        geo = ti_square_geometry(HEIS, DEFAULT_SHIELD_10)
        assert geo.dim == 2 ** 11

    def test_bad_template_rejected(self):
        with pytest.raises(ValueError):
            ti_square_geometry(HEIS, [(1, 0), (0, 1)])
        with pytest.raises(ShieldTooSmallError):
            ti_square_geometry(HEIS, [(-1, 0), (-1, 1)])
        with pytest.raises(ValueError, match="pairs of integers"):
            ti_square_geometry(HEIS, [(-1.5, 0), (0, 1)])

    @pytest.mark.parametrize("model", [HEIS, ModelSpec("tfim", g=0.7)], ids=["heis", "tfim"])
    def test_ti_cluster_is_the_bulk_cluster(self, model):
        # the translation-invariant cluster is, shifted by the site, the
        # cluster of a bulk site of a finite lattice, Hamiltonian bit for bit
        chain = LatticeSpec("chain", 12)
        for n in (1, 2, 4):
            ti = ti_chain_geometry(model, n)
            fin = finite_geometry(chain, model, radius=n)
            assert tuple(o + 6 for o in ti.labels) == fin.cluster_labels(6)
            assert np.array_equal(ti.ham, fin.hams[6])
        square = LatticeSpec("square", (9, 9))
        for template in (DEFAULT_SHIELD_7, SQUARE_TEMPLATE_6):
            ti = ti_square_geometry(model, template)
            fin = finite_geometry(square, model, template=template)
            assert tuple((x + 4, y + 4) for x, y in ti.labels) == fin.cluster_labels((4, 4))
            assert np.array_equal(ti.ham, fin.hams[(4, 4)])


class TestFiniteGeometry:
    def test_periodic_chain_constraints_cover_overlaps(self):
        geo = finite_geometry(LatticeSpec("chain", 8, boundary="periodic"), HEIS, radius=2)
        assert isinstance(geo, FiniteGeometry)
        # every constraint references shared labels in both clusters
        for a, axes_a, b, axes_b in geo.constraints:
            ca = geo.cluster_labels(a)
            cb = geo.cluster_labels(b)
            assert len(axes_a) == len(axes_b)
            assert [ca[i] for i in axes_a] == [cb[i] for i in axes_b]

    def test_total_hamiltonian_sum(self):
        geo = finite_geometry(LatticeSpec("chain", 5), HEIS, radius=1)
        h = total_hamiltonian(geo.terms, geo.sites)
        rebuilt = np.zeros_like(h)
        space_dims = (2,) * 5
        idx = {s: i for i, s in enumerate(geo.sites)}
        for k in geo.sites:
            axes = tuple(idx[s] for s in geo.cluster_labels(k))
            rebuilt = rebuilt + embed_mat(geo.hams[k], space_dims, axes)
        assert np.allclose(h, rebuilt)

    def test_cluster_guard_runs_before_any_cluster_matrix(self, monkeypatch):
        # a 13-site cluster is 2^13 > CLUSTER_DIM_GUARD; the check must come
        # before the dense cluster Hamiltonians are built
        import medbound.lattice as lattice
        built = []

        def record(labels, terms):
            built.append(len(labels))
            return np.zeros((1, 1))
        monkeypatch.setattr(lattice, "_cluster_matrix", record)
        with pytest.raises(ValueError, match="exceeds guard"):
            finite_geometry(LatticeSpec("chain", 13), HEIS, radius=12)
        assert built == []

    @pytest.mark.parametrize("radius", [2.5, True], ids=["2.5", "True"])
    def test_radius_must_be_a_count(self, radius):
        # before: 2.5 solved radius 2 and True radius 1
        with pytest.raises(ValueError, match="radius"):
            finite_geometry(LatticeSpec("chain", 6), HEIS, radius=radius)

    def test_default_radius_is_one(self):
        geo = finite_geometry(LatticeSpec("chain", 5), HEIS)
        assert geo.cluster_labels(3) == (2, 3)


class TestTemplates:
    # one offset rule for the TI geometries and finite templates alike
    def test_chain_template_of_integers(self):
        # before: TypeError, only 1-tuples such as ((-1,), (-2,)) worked
        spec = LatticeSpec("chain", 6)
        ball = finite_geometry(spec, HEIS, radius=2)
        for template in ((-1, -2), ((-1,), (-2,))):
            geo = finite_geometry(spec, HEIS, template=template)
            assert all(geo.cluster_labels(k) == ball.cluster_labels(k) for k in geo.sites)
            assert geo.constraints == ball.constraints
            assert all(np.array_equal(geo.hams[k], ball.hams[k]) for k in geo.sites)

    @pytest.mark.parametrize("template", [
        ((-1,), (0,)), ((-1,), (1,)), ((-1,), (-1,)),
    ], ids=["site itself", "successor", "duplicate"])
    def test_bad_chain_template_rejected(self, template):
        # before: each was accepted, the offending offset dropped or merged
        with pytest.raises(ValueError):
            finite_geometry(LatticeSpec("chain", 6), HEIS, template=template)

    @pytest.mark.parametrize("extra, match", [
        ((1, 0), "predecessor"),
        ((-1, 0), "duplicate"),
        ((-1, 0, 2), "pairs of integers"),
        ((-1.5, 0), "pairs of integers"),
    ], ids=["successor", "duplicate", "triple", "float"])
    def test_bad_square_template_rejected(self, extra, match):
        # before: each was accepted, the offending offset dropped or merged
        with pytest.raises(ValueError, match=match):
            finite_geometry(LatticeSpec("square", 4), HEIS,
                            template=((-1, 0), (0, 1), extra))
