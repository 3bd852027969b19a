import math

import numpy as np
import pytest

from medbound.lattice import LatticeSpec, ModelSpec, build_lattice, total_hamiltonian
from medbound.opalg import entropy_mat, trace_distance
from medbound.oracle import (
    exact_free_energy,
    gibbs_state,
    ground_energy,
    ising_transfer_free_energy,
)

HEIS = ModelSpec("heisenberg")


def chain_hamiltonian(model, n, boundary="open"):
    terms, sites = build_lattice(LatticeSpec("chain", n, boundary=boundary), model)
    return total_hamiltonian(terms, sites)


class TestGibbsState:
    def test_high_temperature_limit(self):
        h = chain_hamiltonian(HEIS, 3)
        rho = gibbs_state(h, 1e6)
        assert trace_distance(rho, np.eye(8) / 8) <= 1e-5

    def test_commutes_with_hamiltonian(self):
        h = chain_hamiltonian(HEIS, 3)
        rho = gibbs_state(h, 1.0)
        comm = rho @ h - h @ rho
        assert np.linalg.norm(comm) <= 1e-10

    def test_two_site_heisenberg_populations(self):
        h = chain_hamiltonian(HEIS, 2)
        rho = gibbs_state(h, 1.0)
        z = math.exp(0.75) + 3 * math.exp(-0.25)
        assert abs(z - 4.453402365826889) <= 1e-12
        vals = np.linalg.eigvalsh(rho)
        expected = sorted([math.exp(0.75) / z] + [math.exp(-0.25) / z] * 3)
        assert np.allclose(sorted(vals), expected, atol=1e-12)

    def test_dimension_guard(self):
        # a zero-stride view has the oversize shape but allocates nothing, so
        # only the guard's shape check stands between it and a dense copy
        big = np.broadcast_to(0.0, (2 ** 15, 2 ** 15))
        with pytest.raises(ValueError, match="exceeds the oracle guard"):
            gibbs_state(big, 1.0)


class TestExactFreeEnergy:
    def test_two_site_heisenberg(self):
        h = chain_hamiltonian(HEIS, 2)
        res = exact_free_energy(h, 1.0)
        expected = -math.log(math.exp(0.75) + 3 * math.exp(-0.25))
        assert abs(res.f_total - expected) <= 1e-12
        assert abs(expected - (-1.4936683806286792)) <= 1e-12

    def test_zero_hamiltonian(self):
        for n in (1, 2, 3):
            res = exact_free_energy(np.zeros((2 ** n, 2 ** n)), 0.7, n_sites=n)
            assert abs(res.f_total + 0.7 * n * math.log(2)) <= 1e-12

    def test_gibbs_achieves_minimum(self):
        h = chain_hamiltonian(HEIS, 3)
        t = 0.8
        res = exact_free_energy(h, t)
        rho = gibbs_state(h, t)
        e = float(np.real(np.trace(rho @ h)))
        s = entropy_mat(rho)
        assert abs((e - t * s) - res.f_total) <= 1e-10

    def test_f_equals_e_minus_ts(self):
        h = chain_hamiltonian(HEIS, 4)
        res = exact_free_energy(h, 0.5)
        assert abs(res.f_total - (res.e_total - 0.5 * res.s_total)) <= 1e-10
        assert res.ground_energy <= res.e_total

    def test_concave_and_decreasing_in_t(self):
        h = chain_hamiltonian(HEIS, 4)
        ts = np.linspace(0.2, 3.0, 12)
        fs = [exact_free_energy(h, float(t)).f_total for t in ts]
        slopes = np.diff(fs) / np.diff(ts)
        assert np.all(np.array(fs)[1:] <= np.array(fs)[:-1] + 1e-10)
        assert np.all(np.diff(slopes) <= 1e-10)

    def test_f_below_ground_energy_and_limit(self):
        h = chain_hamiltonian(HEIS, 4)
        e0 = ground_energy(h)
        for t in (0.01, 0.1, 1.0, 5.0):
            assert exact_free_energy(h, t).f_total <= e0
        assert abs(exact_free_energy(h, 0.01).f_total - e0) <= 0.01

    def test_entropy_nonnegative(self):
        h = chain_hamiltonian(HEIS, 3)
        for t in (0.05, 0.5, 5.0):
            assert exact_free_energy(h, t).s_total >= 0.0


class TestIsingTransfer:
    def test_closed_form_value(self):
        f = ising_transfer_free_energy(J=1.0, h=0.0, T=1.0)
        assert abs(f - (-1.1269280110429725)) <= 1e-12

    def test_high_temperature_asymptote(self):
        t = 1e4
        f = ising_transfer_free_energy(J=1.0, h=0.0, T=t)
        assert abs(f / t + math.log(2)) <= 1e-6

    def test_field_consistent_with_zero_field(self):
        a = ising_transfer_free_energy(J=1.3, h=0.0, T=0.9)
        b = ising_transfer_free_energy(J=1.3, h=1e-12, T=0.9)
        assert abs(a - b) <= 1e-9

    def test_matches_finite_chain_per_site(self):
        model = ModelSpec("classical_ising")
        n = 12
        h = chain_hamiltonian(model, n, boundary="periodic")
        # short correlation length at T=2: infinite-chain value within 1e-3
        res = exact_free_energy(h, 2.0)
        assert abs(res.f_per_site - ising_transfer_free_energy(1.0, 0.0, 2.0)) <= 1e-3
        # Z_N = lam1^N + lam2^N links the two oracles exactly at any T
        t = 1.0
        res = exact_free_energy(h, t)
        lam1 = 2.0 * math.cosh(1.0 / t)
        lam2 = 2.0 * math.sinh(1.0 / t)
        f_n = -t / n * math.log(lam1 ** n + lam2 ** n)
        assert abs(res.f_per_site - f_n) <= 1e-10


class TestGroundEnergy:
    def test_two_site_heisenberg(self):
        assert abs(ground_energy(chain_hamiltonian(HEIS, 2)) + 0.75) <= 1e-12

    def test_four_site_ring(self):
        h = chain_hamiltonian(HEIS, 4, boundary="periodic")
        assert abs(ground_energy(h) + 2.0) <= 1e-10

    def test_classical_chain_all_aligned(self):
        model = ModelSpec("classical_ising", J=1.0)
        for n in (4, 6):
            h = chain_hamiltonian(model, n, boundary="periodic")
            assert abs(ground_energy(h) + n) <= 1e-12
