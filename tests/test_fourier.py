import cmath
import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from apx import (
    EmptySetError,
    MuUndefinedError,
    NoNonzeroFrequencyError,
    SymmetryRequiredError,
    dft_indicator,
    direct_prob,
    direct_t3,
    enumerate_abelian_groups,
    make_group,
    prob_spectral,
    residue_weights,
    structure_report,
    t3_spectral,
    top_nonzero_coefficient,
)
from apx.bounds import GAMMA0, lemma2_check, size_profile
from apx.fourier import (
    _orbit_bits,
    character_reduction,
    character_values,
    plancherel_residual,
    random_crosscheck,
)
from apx.report import report_json

from conftest import empty, full, index, mask
from test_counting import random_subset, random_symmetric_subset


def naive_coefficient(s, m):
    """Definitional sum, no FFT: (1/n) sum_x e(-2 pi i <m, x>)."""
    g = s.group
    mc = g.coords(m)
    total = 0j
    for x in s.indices():
        xc = g.coords(x)
        phase = sum(mi * xi / ni for mi, xi, ni in zip(mc, xc, g.moduli))
        total += cmath.exp(-2j * math.pi * phase)
    return total / g.order


def invert_spectrum(g, coeffs):
    """Pointwise reconstruction sum_m coeff[m] * e(+2*pi*i*<m,x>)."""
    shaped = coeffs.reshape(tuple(reversed(g.moduli)))
    return np.fft.ifftn(shaped, norm="forward").reshape(-1)


def test_dft_subgroup_example():
    s = mask([15], [0, 5, 10])
    coeffs = dft_indicator(s)
    for m in range(15):
        expected = 0.2 if m % 3 == 0 else 0.0
        assert abs(coeffs[m] - expected) < 1e-12


def test_dft_trivial_examples():
    g = make_group([8])
    whole = dft_indicator(full(g))
    assert abs(whole[0] - 1) < 1e-12
    assert np.max(np.abs(whole[1:])) < 1e-12
    single = dft_indicator(mask([8], [0]))
    assert np.max(np.abs(single - 1 / 8)) < 1e-14


def test_dft_matches_definitional_sum():
    rng = random.Random(61)
    for moduli in [(12,), (3, 5), (2, 3, 4), (7,)]:
        g = make_group(moduli)
        for _ in range(5):
            s = random_subset(rng, g, allow_empty=True)
            coeffs = dft_indicator(s)
            for m in range(g.order):
                assert abs(coeffs[m] - naive_coefficient(s, m)) <= 1e-12 * g.order


def test_plancherel_and_inversion_random():
    rng = random.Random(67)
    for _ in range(40):
        moduli = rng.choice([(rng.randrange(2, 64),), (rng.randrange(2, 12), rng.randrange(2, 12))])
        g = make_group(moduli)
        s = random_subset(rng, g, allow_empty=True)
        coeffs = dft_indicator(s)
        assert plancherel_residual(coeffs, s.size) <= 1e-10
        rebuilt = invert_spectrum(g, coeffs)
        indicator = np.zeros(g.order)
        for i in s.indices():
            indicator[i] = 1.0
        assert np.max(np.abs(rebuilt - indicator)) <= 1e-8


def test_symmetric_sets_have_real_coefficients():
    rng = random.Random(71)
    for moduli in [(16,), (3, 7), (2, 2, 5)]:
        g = make_group(moduli)
        for _ in range(10):
            s = random_symmetric_subset(rng, g)
            coeffs = dft_indicator(s)
            assert np.max(np.abs(coeffs.imag)) <= 1e-10


def test_prob_spectral_examples():
    assert abs(prob_spectral(mask([6], [0, 2, 4])) - 1.0) < 1e-9
    assert abs(prob_spectral(mask([6], [1, 5])) - 0.0) < 1e-9
    assert abs(prob_spectral(mask([5], [1, 2, 3, 4])) - 0.75) < 1e-9
    with pytest.raises(SymmetryRequiredError):
        prob_spectral(mask([6], [1, 2]))
    with pytest.raises(EmptySetError):
        prob_spectral(empty(make_group([6])))


def test_t3_spectral_examples():
    assert abs(t3_spectral(full(make_group([5]))) - 25) < 1e-6
    assert abs(t3_spectral(mask([7], [0, 1, 2])) - 5) < 1e-6
    assert abs(t3_spectral(mask([5], [0])) - 1) < 1e-6
    with pytest.raises(EmptySetError):
        t3_spectral(empty(make_group([5])))


def test_spectral_matches_direct_random():
    rng = random.Random(73)
    # Rank >= 3, distinct moduli, a Z_1 factor and order 1 read coeff[-2m]
    # one axis at a time.
    for moduli in [(9,), (3, 5), (11,), (2, 8), (3, 5, 7), (5, 1, 9), (3, 3, 3), (1,)]:
        g = make_group(moduli)
        for _ in range(10):
            s = random_symmetric_subset(rng, g)
            assert abs(prob_spectral(s) - float(direct_prob(s))) <= 1e-9
            if g.order % 2 == 1:
                assert abs(t3_spectral(s) - direct_t3(s)) <= 1e-6


def test_top_coefficient_tie_break():
    m0, value = top_nonzero_coefficient(dft_indicator(mask([15], [0, 5, 10])))
    assert (m0, round(value, 12)) == (3, 0.2)


def test_top_coefficient_full_set():
    m0, value = top_nonzero_coefficient(dft_indicator(full(make_group([6]))))
    assert m0 == 1
    assert abs(value) < 1e-12


def test_top_coefficient_symmetric_vs_general():
    s = mask([7], [0, 1, 6])
    coeffs = dft_indicator(s)
    m0, value = top_nonzero_coefficient(coeffs)
    assert m0 == 1
    assert abs(value - (1 + 2 * math.cos(2 * math.pi / 7)) / 7) < 1e-12
    # the largest modulus away from 0 sits at the same frequency here
    moduli = np.abs(coeffs[1:])
    assert 1 + int(np.argmax(moduli)) == m0 and abs(moduli.max() - value) < 1e-12
    with pytest.raises(NoNonzeroFrequencyError):
        top_nonzero_coefficient(dft_indicator(mask([1], [0])))


def test_character_reduction_cyclic_is_gcd():
    g = make_group([15])
    for m in range(1, 15):
        assert character_reduction(g, m) == math.gcd(m, 15)


def test_character_reduction_product_group():
    g = make_group([2, 4])
    m0 = index(g, (1, 2))
    # character (x1, x2) -> e(2 pi i (x1/2 + x2/2)) has order 2, so g = 8/2.
    assert character_reduction(g, m0) == 4
    values = character_values(g, m0, np.arange(g.order))
    for x in range(g.order):
        x1, x2 = g.coords(x)
        # v(x) = m1*x1*(n/n1) + m2*x2*(n/n2) = 4*x1 + 4*x2
        assert int(values[x]) == (4 * x1 + 4 * x2) % 8


def test_character_values_on_a_subset_match_the_scalar_formula():
    g = make_group([3, 1, 4, 5])
    n = g.order
    elems = np.array([0, 1, 7, 22, 31, 44, 58, 59])
    for m0 in range(n):
        want = [
            sum(m * (n // n_i) * x_i for m, x_i, n_i in zip(g.coords(m0), g.coords(x), g.moduli))
            % n
            for x in elems.tolist()
        ]
        assert character_values(g, m0, elems).tolist() == want, m0
    assert character_values(g, 5, elems[:0]).tolist() == []


def test_residue_weights_examples():
    w = residue_weights(mask([15], [0, 5, 10]), 3)
    assert w.modulus == 5 and w.total == 3
    assert w.weights == {0: 3}
    w = residue_weights(mask([15], [0, 1, 14]), 1)
    assert w.modulus == 15
    assert w.weights == {0: 1, 1: 1, -1: 1}
    w = residue_weights(mask([15], [0]), 1)
    assert w.weights == {0: 1}
    with pytest.raises(ValueError):
        residue_weights(mask([15], [0]), 0)


def test_residue_weights_symmetry():
    rng = random.Random(79)
    for moduli in [(12,), (3, 5), (2, 2, 3)]:
        g = make_group(moduli)
        for _ in range(10):
            s = random_symmetric_subset(rng, g)
            for m0 in range(1, g.order):
                w = residue_weights(s, m0)
                for i, c in w.weights.items():
                    # the centered residue of -i; n/2 is its own mirror
                    mirror = i if 2 * i == w.modulus else -i
                    assert w.weights.get(mirror, 0) == c
                assert sum(w.weights.values()) == s.size


def test_structure_report_subgroup_case():
    rep = structure_report(mask([15], [0, 5, 10]), 1)
    assert rep.m0 == 3
    assert rep.g == 3 and rep.k == 5
    assert rep.mu == 1 and rep.nu == 1 and rep.beta == 1
    assert rep.arc_mass == 1 and rep.eta == 1
    assert rep.q_prime == 1 and rep.alpha_prime == 0
    assert rep.induction_rhs == 1


def test_structure_report_matches_lemma2_and_arc_definition():
    # The kernel bucket of weight w in a subgroup of order g gives the
    # induction profile g/w = (q + alpha) / (k * eta), with k = n/g and
    # eta = w/d, so both reports must derive the same step bound.
    rng = random.Random(2018)
    for gamma0 in (GAMMA0, Fraction(1, 2)):
        in_range = 0
        for g in enumerate_abelian_groups(30):
            for _ in range(20):
                s = random_symmetric_subset(rng, g)
                n, d = g.order, s.size
                if d == n:
                    continue
                rep = structure_report(s, 1, gamma0)
                # the arc holds the phases v/n in [-1/3, 1/3] mod 1
                v = character_values(g, rep.m0, s.elems).tolist()
                centered = [j if 2 * j <= n else j - n for j in v]
                assert rep.arc_size == sum(3 * abs(j) <= n for j in centered)
                p = size_profile(n, d)
                if p.q < 2 or not 1 <= rep.k <= p.q or rep.eta <= Fraction(3, 4):
                    continue
                point = lemma2_check(p.q, p.alpha, rep.k, rep.eta, gamma0)
                assert (rep.q_prime, rep.alpha_prime, rep.induction_rhs) == (
                    point.q_prime, point.alpha_prime, point.lhs
                )
                in_range += 1
        assert in_range > 100


def test_structure_report_mu_arithmetic():
    s = mask([6], [0, 1, 2, 4, 5])
    rep = structure_report(s, Fraction(9, 10))
    assert rep.mu == Fraction(2, 5)
    assert rep.nu == Fraction(2 * Fraction(2, 5) + 1, 3)
    assert rep.eta <= rep.arc_mass
    assert 0 <= rep.arc_mass <= 1


def test_structure_report_guards():
    s = mask([6], [0, 1, 2, 4, 5])
    with pytest.raises(MuUndefinedError):
        structure_report(s, Fraction(5, 6))
    with pytest.raises(MuUndefinedError):
        structure_report(s, Fraction(1, 2))
    with pytest.raises(ValueError):
        structure_report(s, Fraction(11, 10))
    with pytest.raises(ValueError):
        structure_report(full(make_group([6])), 1)
    with pytest.raises(SymmetryRequiredError):
        structure_report(mask([6], [1, 2]), 1)


def test_structure_report_empty_kernel_bucket():
    # S = {1, 5} in Z_6: top coefficient sits at m0 = 1 (value 1/3 at m=1?
    # computed: coeff(m) = cos(pi m / 3) / 3), kernel bucket may be empty.
    rep = structure_report(mask([6], [1, 5]), Fraction(1, 2))
    assert rep.eta == rep.residue_weights.weights.get(0, 0) / Fraction(2)
    if rep.q_prime is None:
        assert rep.alpha_prime is None and rep.induction_rhs is None
    else:
        assert rep.q_prime >= 1


def test_random_crosscheck_small():
    rep = random_crosscheck(trials=40, max_order=128, seed=3)
    assert rep.passed
    assert rep.trials == 40
    assert rep.odd_order_trials >= 20
    assert rep.max_prob_error <= 1e-9
    assert rep.max_plancherel_residual <= 1e-10
    assert rep.max_t3_error <= 1e-6
    # determinism for a fixed seed
    rep2 = random_crosscheck(trials=40, max_order=128, seed=3)
    assert rep2.max_prob_error == rep.max_prob_error
    assert rep2.max_t3_error == rep.max_t3_error


@pytest.mark.parametrize("seed, digest", [(7, "a434e855089bc8de"), (11, "df3e4b0755672a47")])
def test_crosscheck_report_bytes_are_pinned(seed, digest):
    # The default cross-check, byte for byte: the same groups, sets and errors.
    report = report_json(random_crosscheck(seed=seed))
    assert hashlib.sha256(report.encode()).hexdigest()[:16] == digest


def test_orbit_bits_match_one_random_call_per_orbit():
    for seed in range(40):
        loop, block = random.Random(seed), random.Random(seed)
        for _ in range(seed % 3):  # start on both words of a pair
            loop.random(), block.random()
        for k in (0, 1, 2, 3, 5, 31, 32, 33, 64, 257):
            expected = [loop.random() < 0.5 for _ in range(k)]
            bits = _orbit_bits(block, k)
            assert bits.dtype == bool and bits.tolist() == expected, (seed, k)
            assert block.getstate() == loop.getstate(), (seed, k)
