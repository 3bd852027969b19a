import math

import numpy as np
import pytest
import scipy.linalg

from medbound.lattice import LatticeSpec, ModelSpec, build_lattice, total_hamiltonian
from medbound.opalg import entropy_mat, trace_distance
from medbound import oracle
from medbound.oracle import (
    exact_free_energy,
    gibbs_state,
    ground_energy,
    ising_transfer_free_energy,
    onsager_free_energy,
)

HEIS = ModelSpec("heisenberg")
ISING = ModelSpec("classical_ising")


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

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_nonfinite_temperature_rejected(self, t):
        with pytest.raises(ValueError, match="temperature"):
            gibbs_state(chain_hamiltonian(HEIS, 2), t)

    @pytest.mark.parametrize("shape", [(4, 2), (4,), (2, 2, 2)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="square matrix"):
            gibbs_state(np.zeros(shape), 1.0)

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

    @pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
    def test_two_site_heisenberg_log_sum(self, t):
        # spectrum -3/4 and 1/4 (three times); at T = 1e-3 the unshifted sum
        # exp(3/(4T)) + ... overflows
        res = exact_free_energy(chain_hamiltonian(HEIS, 2), t)
        expected = -0.75 - t * math.log1p(3.0 * math.exp(-1.0 / t))
        assert abs(res.f_total - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("model", [HEIS, ISING], ids=["heis", "classical"])
    @pytest.mark.parametrize("t", [0.5, 1.0, 1e3])
    def test_gibbs_state_is_exp_over_z(self, model, t):
        # Z = exp(-F/T) from the free energy, exp(-H/T) from scipy's expm
        h = chain_hamiltonian(model, 3)
        z = math.exp(-exact_free_energy(h, t).f_total / t)
        assert np.max(np.abs(gibbs_state(h, t) - scipy.linalg.expm(-h / t) / z)) <= 1e-12

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

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_nonfinite_temperature_rejected(self, t):
        with pytest.raises(ValueError, match="temperature"):
            exact_free_energy(chain_hamiltonian(HEIS, 2), t)


class TestIsingTransfer:
    def test_closed_form_value(self):
        f = ising_transfer_free_energy(J=1.0, h=0.0, T=1.0)
        assert abs(f - (-1.1269280110429725)) <= 1e-12

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_nonfinite_temperature_rejected(self, t):
        with pytest.raises(ValueError, match="temperature"):
            ising_transfer_free_energy(J=1.0, h=0.5, T=t)

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


class TestOnsager:
    T_C = 2.0 / math.log(1.0 + math.sqrt(2.0))

    @pytest.mark.parametrize("t, f", [(4.0, -3.0364259141), (3.0, -2.4476481956),
                                      (2.5, -2.1984095519), (2.0, -2.0515856254)])
    def test_converged_off_the_critical_point(self, t, f, monkeypatch):
        value = onsager_free_energy(t)
        assert abs(value - f) <= 1e-10
        monkeypatch.setattr(oracle, "_ONSAGER_MIDPOINTS", 2 * oracle._ONSAGER_MIDPOINTS)
        assert abs(onsager_free_energy(t) - value) <= 1e-12

    def test_log_singularity_at_the_critical_point(self, monkeypatch):
        value = onsager_free_energy(self.T_C)
        monkeypatch.setattr(oracle, "_ONSAGER_MIDPOINTS", 2 * oracle._ONSAGER_MIDPOINTS)
        # the rule converges there only as n^-2: 3.7e-6 from 400 to 800 points
        assert 1e-7 <= abs(onsager_free_energy(self.T_C) - value) <= 1e-5

    def test_high_temperature_series(self):
        # -f/T = ln 2 + 2 ln cosh K + sum over closed loops: t^4 + 2 t^6 +
        # 9/2 t^8 + 12 t^10 + ..., t = tanh K
        t_ = 10.0
        t = math.tanh(1.0 / t_)
        series = -t_ * (math.log(2.0) + 2.0 * math.log(math.cosh(1.0 / t_))
                        + t ** 4 + 2.0 * t ** 6 + 4.5 * t ** 8)
        assert abs(onsager_free_energy(t_) - series) <= 20.0 * t_ * t ** 10

    def test_antiferromagnet_is_the_same(self):
        # the square lattice is bipartite: J -> -J flips every other spin
        assert abs(onsager_free_energy(2.0, J=-1.0) - onsager_free_energy(2.0)) <= 1e-14

    @pytest.mark.parametrize("t", [0.0, math.nan, math.inf])
    def test_nonfinite_temperature_rejected(self, t):
        with pytest.raises(ValueError, match="temperature"):
            onsager_free_energy(t)


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
