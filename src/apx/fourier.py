"""Spectral route to the counting quantities, plus structural diagnostics.

Transform convention, shared index space with the rest of the toolkit:

    coeff[m] = (1/n) * sum_{x in S} e(-2*pi*i * (m1*x1/n1 + ... + mr*xr/nr))

Reshaping the indicator to (nr, ..., n1) makes this numpy.fft.fftn with
forward normalization; the flat C-order index of the result is the same
mixed-radix index used everywhere else. Spectral values are floating
point diagnostics; the counting module stays the authority.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import GAMMA0, induction_bound
from .counting import SubsetMask, direct_prob, direct_t3
from .errors import (
    EmptySetError,
    MuUndefinedError,
    NoNonzeroFrequencyError,
    SymmetryRequiredError,
)
from .group import (
    _MAX_FFT_BYTES,
    GroupSpec,
    _factors,
    _prime_factorization,
    _require,
    make_group,
    orbit_split,
)
from .util import as_fraction

# Coefficients this close to the top value count as tied; FFT rounding on
# exact ties is ~1e-16 * n, far below this.
_TIE_TOLERANCE = 1e-12

# Work bytes per element of an axis that pocketfft may transform by
# Bluestein's algorithm: one whose length m has a prime factor p, p * p > m.
# tracemalloc does not see them. On prime axes of 131,071 to 1,048,573
# elements a child's peak RSS (getrusage) rose by 129-134 bytes per element
# past the output (numpy 2.4.6, 2-CPU VM); 144 is nine complex128 per element.
_BLUESTEIN_BYTES = 144


def dft_indicator(s: SubsetMask) -> np.ndarray:
    """Read-only Fourier coefficients of 1_S, in the shared mixed-radix order.

    The estimate is 32 n bytes, the complex128 input and output, plus
    _BLUESTEIN_BYTES per element of the longest Bluestein axis.
    """
    n = s.group.order
    _require(s.group, "spectrum", (32 * n, "bytes", _MAX_FFT_BYTES))  # so axes <= 2^23 are factored
    shape = tuple(reversed(_factors(s.group)))  # a Z_1 axis would only cost time
    bluestein = (m for m in shape if m > 1 and _prime_factorization(m)[-1][0] ** 2 > m)
    extra = _BLUESTEIN_BYTES * max(bluestein, default=0)
    _require(s.group, "spectrum", (32 * n + extra, "bytes", _MAX_FFT_BYTES))
    shaped = s.memb.astype(np.complex128).reshape(shape)
    coeffs = np.fft.fftn(shaped, norm="forward").reshape(-1)
    coeffs.setflags(write=False)
    return coeffs


def plancherel_residual(coeffs: np.ndarray, size: int) -> float:
    """|sum |coeff|^2 - d/n|; zero in exact arithmetic."""
    energy = float(np.sum(np.abs(coeffs) ** 2))
    return abs(energy - size / coeffs.size)


def prob_from_coeffs(coeffs: np.ndarray, size: int) -> float:
    """(n^2/d^2) * sum of coefficient cubes, from the spectrum of a d-element set."""
    n = coeffs.size
    return float(np.real(np.sum(coeffs**3)) * n * n / (size * size))


def t3_from_coeffs(group: GroupSpec, coeffs: np.ndarray) -> float:
    """n^2 * sum_m coeff[m]^2 * coeff[-2m], from the spectrum of a set."""
    shape = tuple(reversed(_factors(group)))  # the axes of dft_indicator
    paired = coeffs.reshape(shape)
    for axis, m in enumerate(shape):  # coeff[-2m], one digit at a time
        paired = paired.take(-2 * np.arange(m) % m, axis=axis)
    n = group.order
    return float(np.real(np.sum(coeffs * coeffs * paired.reshape(-1))) * n * n)


def prob_spectral(s: SubsetMask) -> float:
    """Sum-closure probability as (n^2/d^2) * sum of coefficient cubes.

    Valid for symmetric sets, where every coefficient is real.
    """
    if s.size == 0:
        raise EmptySetError("spectral probability needs a non-empty set")
    if not s.is_symmetric:
        raise SymmetryRequiredError("spectral probability needs S = -S")
    return prob_from_coeffs(dft_indicator(s), s.size)


def t3_spectral(s: SubsetMask) -> float:
    """Progression count as n^2 * sum_m coeff[m]^2 * coeff[-2m]."""
    if s.size == 0:
        raise EmptySetError("spectral progression count needs a non-empty set")
    return t3_from_coeffs(s.group, dft_indicator(s))


def top_nonzero_coefficient(coeffs: np.ndarray):
    """The dominating coefficient away from frequency 0.

    Maximizes the real part (coefficients of a symmetric set are real).
    Ties resolve to the smallest mixed-radix index. Returns (m0, value).
    """
    if coeffs.size < 2:
        raise NoNonzeroFrequencyError("the trivial group has no m != 0")
    values = coeffs.real.copy()
    values[0] = -np.inf
    top = values.max()
    m0 = int(np.flatnonzero(values >= top - _TIE_TOLERANCE)[0])
    return m0, float(values[m0])


def character_values(group: GroupSpec, m0: int, elems: np.ndarray) -> np.ndarray:
    """v(x) with character_m0(x) = e(2*pi*i*v(x)/n), for each index x in elems."""
    n = group.order
    v = np.zeros(len(elems), dtype=np.int64)
    stride = 1
    for m_i, n_i in zip(group.coords(m0), group.moduli):
        v += elems // stride % n_i * (m_i * (n // n_i))  # m_i * (n/n_i) * x_i
        stride *= n_i
    v %= n
    return v


def character_reduction(group: GroupSpec, m0: int) -> int:
    """g with n/g = order of the m0 character; gcd(m0, n) in the cyclic case."""
    group._check_index(m0)
    n = group.order
    m_coords = group.coords(m0)
    return math.gcd(n, *(m_i * (n // n_i) for m_i, n_i in zip(m_coords, group.moduli)))


def _centered(i: int, modulus: int) -> int:
    """Representative of i mod modulus in (-modulus/2, modulus/2]."""
    return i if 2 * i <= modulus else i - modulus


@dataclass
class WeightSeq:
    """Bucket sizes of a subset by character phase, on centered residues."""

    modulus: int  # buckets live on Z_modulus
    weights: dict[int, int]  # centered residue -> count, zero buckets omitted
    total: int


def _bucket(phases: np.ndarray, g: int, modulus: int) -> WeightSeq:
    """Count character values, all multiples of g, by centered residue v/g."""
    if np.any(phases % g):
        raise ValueError("internal: character value escaped its lattice")
    weights = Counter(_centered(v, modulus) for v in (phases // g).tolist())
    return WeightSeq(modulus=modulus, weights=dict(weights), total=len(phases))


def residue_weights(s: SubsetMask, m0: int) -> WeightSeq:
    """Bucket S by the phase j/n of the m0 character, reduced to Z_{n/g}."""
    if m0 == 0:
        raise ValueError("residue weights need a nonzero frequency")
    g = character_reduction(s.group, m0)
    phases = character_values(s.group, m0, s.elems)
    return _bucket(phases, g, s.group.order // g)


@dataclass
class StructureReport:
    """Diagnostics of the concentration argument at a probed probability.

    Every rational field is exact given an exact gamma; coeff_value is the
    one floating-point entry (it comes from the spectrum).
    """

    gamma: Fraction
    m0: int
    coeff_value: float
    g: int
    k: int  # n/g, the character order
    mu: Fraction
    nu: Fraction
    beta: Fraction
    arc_size: int
    arc_mass: Fraction
    residue_weights: WeightSeq
    eta: Fraction
    q_prime: int | None
    alpha_prime: Fraction | None
    induction_rhs: Fraction | None


def structure_report(
    s: SubsetMask, gamma, gamma0=GAMMA0, coeffs: np.ndarray | None = None
) -> StructureReport:
    """Run the spectral concentration diagnostics on a symmetric set.

    gamma is the probed probability level, anything in (d/n, 1]: the report
    answers "what does the machinery say if Prob[S] were gamma". mu, nu,
    beta are the derived levels; the arc is the preimage of phases in
    [-2pi/3, 2pi/3] (closed); eta is the weight of the kernel bucket; the
    induction fields are absent when that bucket is empty, and the
    induction bound uses the constant floor gamma0. coeffs, when given, is
    dft_indicator(s), which a caller that has it need not transform again.
    """
    if not s.is_symmetric:
        raise SymmetryRequiredError("structure diagnostics need S = -S")
    n = s.group.order
    d = s.size
    if d == 0:
        raise EmptySetError("structure diagnostics need a non-empty set")
    if d >= n:
        raise ValueError("structure diagnostics need a proper subset")
    gamma = as_fraction(gamma)
    density = Fraction(d, n)
    if gamma <= density:
        raise MuUndefinedError(f"gamma must exceed d/n = {density}, got {gamma}")
    if gamma > 1:
        raise ValueError(f"gamma cannot exceed 1, got {gamma}")

    mu = (gamma - density) / (1 - density)
    nu = Fraction(2 * mu + 1, 3)
    beta = (gamma + 2 * nu * nu - nu - 1) / (nu * nu)

    if coeffs is None:
        coeffs = dft_indicator(s)
    m0, coeff_value = top_nonzero_coefficient(coeffs)
    g = character_reduction(s.group, m0)
    k = n // g

    phases = character_values(s.group, m0, s.elems)
    # |centered phase| = min(v, n - v); the arc keeps those at most n/3.
    arc_size = np.count_nonzero(3 * np.minimum(phases, n - phases) <= n)
    weights = _bucket(phases, g, k)
    kernel_weight = weights.weights.get(0, 0)
    eta = Fraction(kernel_weight, d)
    q_prime = alpha_prime = induction_rhs = None
    if kernel_weight > 0:
        q_prime, alpha_prime, induction_rhs = induction_bound(
            Fraction(g, kernel_weight), eta, gamma0
        )

    return StructureReport(
        gamma=gamma,
        m0=m0,
        coeff_value=coeff_value,
        g=g,
        k=k,
        mu=mu,
        nu=nu,
        beta=beta,
        arc_size=arc_size,
        arc_mass=Fraction(arc_size, d),
        residue_weights=weights,
        eta=eta,
        q_prime=q_prime,
        alpha_prime=alpha_prime,
        induction_rhs=induction_rhs,
    )


# ---------------------------------------------------------------------------
# Randomized cross-validation of the spectral route against the oracles.
# ---------------------------------------------------------------------------


@dataclass
class FourierCheckReport:
    trials: int
    odd_order_trials: int
    seed: int
    max_order: int
    max_factors: int
    tol_prob: float
    tol_t3: float
    tol_plancherel: float
    max_prob_error: float
    max_t3_error: float
    max_plancherel_residual: float
    max_symmetric_imag: float
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _random_group(rng: random.Random, max_order: int, max_factors: int, odd: bool):
    factor_count = rng.randint(1, max_factors)
    moduli = []
    budget = max_order
    for i in range(factor_count):
        lo = 2 if i == 0 else 1
        hi = max(budget, lo)
        if odd:
            lo = lo | 1
            m = rng.randrange(lo, hi + 1, 2) if hi >= lo else 1
        else:
            m = rng.randint(lo, hi)
        moduli.append(m)
        budget = max(budget // m, 1)
    rng.shuffle(moduli)
    return make_group(moduli)


def _orbit_bits(rng: random.Random, k: int) -> np.ndarray:
    """[rng.random() < 0.5 for _ in range(k)] as a bool array, from one draw.

    random() reads two 32-bit words and is below 1/2 exactly when the first
    is below 2^31; getrandbits(64 k) reads the same 2k words in the same
    order, least significant first, and leaves the same state.
    """
    words = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), "<u4")
    return words[::2] < 1 << 31


def _random_symmetric_subset(rng: random.Random, group: GroupSpec) -> SubsetMask:
    fixed, pairs = orbit_split(group)
    while True:
        # One draw per orbit, fixed points first; a draw below 1/2 keeps it.
        keep = _orbit_bits(rng, len(fixed) + len(pairs))
        memb = np.zeros(group.order, dtype=np.uint8)
        memb[fixed[keep[: len(fixed)]]] = 1
        memb[pairs[keep[len(fixed) :]]] = 1
        if memb.any():
            return SubsetMask._from_membership(group, memb)


def random_crosscheck(
    trials: int = 1000,
    max_order: int = 512,
    max_factors: int = 3,
    seed: int = 7,
    tol_prob: float = 1e-9,
    tol_t3: float = 1e-6,
    tol_plancherel: float = 1e-10,
) -> FourierCheckReport:
    """Compare the spectral route against the counting oracles on random sets.

    Half the trials force odd group order so the progression identity is
    exercised; every trial checks the probability identity and the energy
    identity on a random symmetric subset. Tolerances must be finite and
    non-negative: a NaN would make every comparison pass.
    """
    for name, value, least in (
        ("trials", trials, 1),
        ("max_order", max_order, 2),
        ("max_factors", max_factors, 1),
    ):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value!r}")
    for name, tol in (
        ("tol_prob", tol_prob),
        ("tol_t3", tol_t3),
        ("tol_plancherel", tol_plancherel),
    ):
        if not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {tol!r}")
    rng = random.Random(seed)
    failures: list[str] = []
    max_prob_err = 0.0
    max_t3_err = 0.0
    max_plancherel = 0.0
    max_imag = 0.0
    odd_trials = 0
    for trial in range(trials):
        force_odd = trial % 2 == 0
        group = _random_group(rng, max_order, max_factors, force_odd)
        s = _random_symmetric_subset(rng, group)
        where = f"trial {trial}: group {group.label}, set size {s.size}"

        coeffs = dft_indicator(s)
        resid = plancherel_residual(coeffs, s.size)
        max_plancherel = max(max_plancherel, resid)
        if resid > tol_plancherel:
            failures.append(f"{where}: plancherel residual {resid:.3e}")

        imag = float(np.max(np.abs(coeffs.imag)))
        max_imag = max(max_imag, imag)

        # s is symmetric and non-empty by construction, so both identities
        # read this one spectrum, and both oracles its one pair-sum pass.
        prob_err = abs(prob_from_coeffs(coeffs, s.size) - float(direct_prob(s)))
        max_prob_err = max(max_prob_err, prob_err)
        if prob_err > tol_prob:
            failures.append(f"{where}: prob mismatch {prob_err:.3e}")

        if group.order % 2 == 1:
            odd_trials += 1
            t3_err = abs(t3_from_coeffs(group, coeffs) - direct_t3(s))
            max_t3_err = max(max_t3_err, t3_err)
            if t3_err > tol_t3:
                failures.append(f"{where}: t3 mismatch {t3_err:.3e}")

    return FourierCheckReport(
        trials=trials,
        odd_order_trials=odd_trials,
        seed=seed,
        max_order=max_order,
        max_factors=max_factors,
        tol_prob=tol_prob,
        tol_t3=tol_t3,
        tol_plancherel=tol_plancherel,
        max_prob_error=max_prob_err,
        max_t3_error=max_t3_err,
        max_plancherel_residual=max_plancherel,
        max_symmetric_imag=max_imag,
        failures=tuple(failures),
    )
