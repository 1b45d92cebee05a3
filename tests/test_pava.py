"""The PAVA kernel against the frozen stack loop, its worst cases and
block sums above the float range.

Above `_pava._SMALL` values the kernel pools rising chains in numpy rounds
before the stack loop, so its block sums are added in another order than
the reference's running means (`support.reference_pava_nonincreasing`).
The rules:

- at or below `_SMALL` values the output is bit-equal to the reference;
- above it the block boundaries are equal, and each block is no further
  from the exact (`math.fsum`) mean of its inputs than the reference's,
  up to two roundings (2 eps) at the block's scale, the mean of |z|.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from mesoc import _pava
from mesoc._pava import pava_nonincreasing_kernel
from mesoc.cones import pava_nonincreasing
from mesoc.projection import ProjectionCase, project_mesoc
from support import reference_pava_nonincreasing

EPS = np.finfo(np.float64).eps
SCALES = [1e-6, 1e-3, 1.0, 1e3, 1e6]


def block_starts(x, tol):
    """Index of the first value of each block: where x drops by more than tol."""
    return np.flatnonzero(np.r_[True, x[:-1] - x[1:] > tol])


def assert_matches_reference(z, tie_tol=0.0):
    """Apply the rules of the module docstring to one input.

    Blocks whose exact means are equal are split or joined by rounding
    noise, which depends on the order of the sums; tie_tol (relative to
    max|z|) joins blocks closer than that, for inputs with exact ties.
    """
    got = pava_nonincreasing_kernel(z)
    ref = reference_pava_nonincreasing(z)
    if z.size <= _pava._SMALL:
        assert got.tobytes() == ref.tobytes()
        return
    tol = tie_tol * float(np.abs(z).max())
    starts = block_starts(got, tol)
    np.testing.assert_array_equal(starts, block_starts(ref, tol))
    ends = np.r_[starts[1:], z.size]
    values, magnitudes = z.tolist(), np.abs(z).tolist()
    exact = np.array([math.fsum(values[a:b]) / (b - a) for a, b in zip(starts, ends)])
    scale = np.array([math.fsum(magnitudes[a:b]) / (b - a) for a, b in zip(starts, ends)])
    exact_each = np.repeat(exact, ends - starts)
    err_got = np.maximum.reduceat(np.abs(got - exact_each), starts)
    err_ref = np.maximum.reduceat(np.abs(ref - exact_each), starts)
    assert np.all(err_got <= err_ref + 2 * EPS * scale)


class TestMatchesReferenceLoop:
    @pytest.mark.parametrize("scale", SCALES)
    def test_every_length_to_300(self, scale):
        # covers _SMALL - 1, _SMALL and _SMALL + 1
        rng = np.random.default_rng(2026)
        for n in range(1, 301):
            assert_matches_reference(scale * rng.standard_normal(n))

    @pytest.mark.parametrize("n", [10_001, 100_001])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_large_lengths(self, n, scale):
        assert_matches_reference(scale * np.random.default_rng(n).standard_normal(n))

    def test_integer_inputs_with_ties(self):
        rng = np.random.default_rng(7)
        for n in [*range(1, 301), 10_001]:
            z = rng.integers(-3, 4, n).astype(np.float64)
            # distinct block means differ by at least 1/n^2 (1e-8 at 10 001)
            assert_matches_reference(z, tie_tol=1e-9)

    @pytest.mark.parametrize("recipe", ["dual", "primal", "interior", "ascending"])
    def test_benchmark_case_families(self, recipe):
        # the recipes of perfbench's case_families at p = q = 100 000; the
        # kernel sees the lifted vector (z, ||w||)
        g = np.random.default_rng([1, 2, 100_000]).standard_normal(100_000)
        z, w_norm = {
            "dual": (g - 3.0, 1.0),
            "primal": (g + 8.0, 1.0),
            "interior": (g + 3.0, 10.0),
            "ascending": (np.sort(g) + 3.0, 10.0),
        }[recipe]
        assert_matches_reference(np.append(z, w_norm))


# Without the rule that ends the rounds once one removes less than a quarter
# of the blocks, the first input would take one O(n) round per element.
WORST_CASES = {
    # each round could pool only the spike with its left neighbour
    "ramp-then-spike": np.append(np.linspace(1.0, 0.0, 99_999), 1e6),
    # one round pools each tooth; the teeth then tie and nothing pools
    "sawtooth": np.tile(np.arange(10.0), 10_000),
}


@pytest.mark.parametrize("name", list(WORST_CASES))
def test_worst_case_stays_linear(name):
    z = WORST_CASES[name]
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        pava_nonincreasing_kernel(z)
        best = min(best, time.perf_counter() - t0)
    # acceptance 9's cap for a whole projection at this size
    assert best < 0.1
    assert_matches_reference(z)


def exact_blocks(z):
    """Block means and counts of the fit in exact rational arithmetic."""
    sums, counts = [], []
    for value in map(Fraction, z.tolist()):
        s2, c2 = value, 1
        # pool while the left block's mean is below the right one's
        while sums and sums[-1] * c2 < s2 * counts[-1]:
            s2 += sums.pop()
            c2 += counts.pop()
        sums.append(s2)
        counts.append(c2)
    return [s / c for s, c in zip(sums, counts)], counts


def assert_exact_fit(z):
    """The kernel's fit is finite and within 2 eps of each exact block mean
    at the block's scale (its exact mean |z|)."""
    got = pava_nonincreasing(z)
    assert np.isfinite(got).all()
    start = 0
    for mean, count in zip(*exact_blocks(z)):
        block = slice(start, start + count)
        scale = sum(map(Fraction, np.abs(z[block]).tolist())) / count
        assert np.all(np.abs(got[block] - float(mean)) <= 2 * EPS * float(scale))
        start += count


class TestOverflow:
    """A block sum above the largest double still gives the finite fit,
    checked against block means in exact rational arithmetic."""

    def test_loop_path(self):
        z = np.array([1e308, 1.7e308])
        assert_exact_fit(z)
        np.testing.assert_array_equal(pava_nonincreasing(z), [1.35e308, 1.35e308])

    def test_rounds_path(self):
        # rising, so the first round sums all of it into one block
        assert_exact_fit(np.linspace(1e308, 1.7e308, 1000))
        fit = pava_nonincreasing(np.linspace(1e306, 2e306, 1000))
        np.testing.assert_array_equal(fit, np.full(1000, 1.5e306))

    def test_rounds_path_nan_sum(self):
        # two chains whose sums overflow to -inf and +inf; the next round
        # pools them into a NaN sum
        pad = np.ravel([[-1e3 - 2 * i, -1e3 - 2 * i + 1] for i in range(200)])
        z = np.r_[-1.7e308, -1.6e308, -1.65e308, 1e308, 1.7e308, 1.75e308, pad]
        assert_exact_fit(z)

    def test_projection(self):
        cert = project_mesoc([1e308, 1.7e308], [])
        assert cert.case is ProjectionCase.PRIMAL_DOMINATES
        np.testing.assert_array_equal(cert.primal.x, [1.35e308, 1.35e308])
        np.testing.assert_array_equal(cert.dual_of_neg.x, [1.35e308 - 1e308, 1.35e308 - 1.7e308])

    def test_largest_finite_values_pass(self):
        z = np.full(1000, np.finfo(np.float64).max)
        np.testing.assert_array_equal(pava_nonincreasing(z), z)
