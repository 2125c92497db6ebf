"""The stacked Pfaffian and the pair-type clauses.

Only the volume form uses a Pfaffian: its top coefficient is the t^n
coefficient of a Pfaffian pencil.  The vanishing powers are coordinate l2
norms from the spectrum: the coefficient of (d alpha)^p on dx^I is
p! Pf(d alpha[I, I]), and these squared sum to p!^2 e_p(sigma^2) over the
singular values sigma of d alpha, each counted once.  The dict-based wedge
algebra in ``tests/helpers.py`` is the reference.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from contactcurv import catalog
from contactcurv import contactpair as cpm

from helpers import pair_clauses_reference
from test_chart_change import CHECK_COUNTS, pull_back

KEYS = [entry.key for entry in catalog.ENTRIES]


def skew(a):
    return a - np.swapaxes(a, -1, -2)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("n", range(2, 11, 2))
def test_square_is_the_determinant(n, complex_):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(7, 3, n, n))
    if complex_:
        a = a + 1j * rng.normal(size=a.shape)
    a = skew(a)
    pf = cpm.pfaffian(a)
    assert pf.shape == (7, 3) and np.iscomplexobj(pf) == complex_
    det = np.linalg.det(a)
    assert np.all(np.abs(pf ** 2 - det) <= 1e-12 * np.maximum(1.0, np.abs(det)))


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_standard_form_and_swaps(k):
    block = np.kron(np.eye(k), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert cpm.pfaffian(block) == 1.0
    rng = np.random.default_rng(k)
    a = skew(rng.normal(size=(2 * k, 2 * k)))
    for i, j in [(0, 2 * k - 1), (0, 1), (k - 1, k)]:
        if i == j:
            continue
        order = np.arange(2 * k)
        order[[i, j]] = order[[j, i]]
        # swapping two rows and the same two columns flips the sign
        assert cpm.pfaffian(a[order][:, order]) == pytest.approx(-cpm.pfaffian(a),
                                                                   rel=1e-12)
    # each matrix of a stack pivots on its own; Pf(c a) = c^k Pf(a)
    stack = np.stack([a, block, -2.0 * a])
    assert np.allclose(cpm.pfaffian(stack),
                       [cpm.pfaffian(a), 1.0, (-2.0) ** k * cpm.pfaffian(a)],
                       rtol=1e-13, atol=0.0)


def test_odd_sizes_and_zero_pivots():
    rng = np.random.default_rng(3)
    for n in (1, 3, 5, 7):
        assert np.all(cpm.pfaffian(skew(rng.normal(size=(4, n, n)))) == 0.0)
    assert cpm.pfaffian(np.zeros((0, 0))) == 1.0
    assert np.all(cpm.pfaffian(np.zeros((3, 6, 6))) == 0.0)
    # column 0 is zero below the diagonal: Pf = 0 with no division by zero
    a = skew(rng.normal(size=(6, 6)))
    a[:, 0] = a[0, :] = 0.0
    assert cpm.pfaffian(a) == 0.0
    # a zero in the leading pivot position, avoided by pivoting
    sparse = np.zeros((4, 4))
    sparse[0, 2], sparse[1, 3] = 2.0, 3.0
    sparse = skew(sparse)
    assert cpm.pfaffian(sparse) == pytest.approx(-6.0, rel=1e-15)
    assert cpm.pfaffian(sparse) ** 2 == pytest.approx(np.linalg.det(sparse), rel=1e-12)


@pytest.mark.parametrize("complex_", [False, True])
def test_a_non_finite_entry_gives_a_non_finite_pfaffian(complex_):
    # an overflowing alpha1 ^ alpha2 puts inf - inf = NaN into the pencil; a NaN
    # pivot must reach the result, not be read as a zero column (Pf = 0)
    block = np.kron(np.eye(3), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    dense = skew(np.random.default_rng(7).normal(size=(6, 6)))
    for a in (block, dense):
        for i, j in combinations(range(6), 2):
            for bad in (np.nan, np.inf, -np.inf):
                b = a.astype(complex) if complex_ else a.copy()
                b[i, j], b[j, i] = bad, -bad
                with np.errstate(all="ignore"):
                    assert not np.isfinite(cpm.pfaffian(b)), (i, j, bad)


def _assert_matches_reference(pair_type, alphas, dalphas):
    """Clauses over a stack of points, with the forms on the pair axis
    (``alphas[p, f]``, ``dalphas[p, f]``), against the wedge algebra at each."""
    rows = cpm.pair_clauses(pair_type, alphas, dalphas)
    assert [row[0] for row in rows] == ["volume_form", "dalpha1_power_vanishes",
                                        "dalpha2_power_vanishes"]
    values = np.stack([row[2] for row in rows], axis=-1)
    for p in range(len(alphas)):
        ref = np.array(pair_clauses_reference(pair_type, *alphas[p], *dalphas[p]))
        assert np.all(np.abs(values[p] - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))), \
            (pair_type, values[p], ref)
    assert np.array_equal(rows[0][4], np.abs(values[:, 0]) > 1e-10)


def _clauses_of(cp):
    st = cpm.structure_at(cp, cp.chart.sample_points)
    return cp.pair_type, st.alphas, st.dalphas


def _assert_powers_vanish_to_rounding(pair_type, alphas, dalphas):
    """Both power rows of a valid pair read at the rounding of d alpha, far
    below their tolerance; singular values taken from d alpha d alpha^T
    would read about 1e-8 here."""
    rows = cpm.pair_clauses(pair_type, alphas, dalphas)
    assert max(float(np.max(row[2])) for row in rows[1:]) <= 1e-14


@pytest.mark.parametrize("key", KEYS)
def test_catalog_clauses_match_the_wedge_algebra(key):
    clauses = _clauses_of(catalog.resolve(key))
    _assert_matches_reference(*clauses)
    _assert_powers_vanish_to_rounding(*clauses)


@pytest.mark.parametrize("key", sorted(CHECK_COUNTS))
def test_dense_pullback_clauses_match_the_wedge_algebra(key):
    cp = catalog.resolve(key)
    rng = np.random.default_rng(20261018)
    A = np.eye(cp.dim) + 0.3 * rng.uniform(-1.0, 1.0, (cp.dim, cp.dim))
    clauses = _clauses_of(pull_back(cp, A))
    _assert_matches_reference(*clauses)
    _assert_powers_vanish_to_rounding(*clauses)


def test_a_type_of_the_wrong_degree_has_no_volume():
    rng = np.random.default_rng(5)
    alphas = rng.normal(size=(3, 2, 6))
    dalphas = skew(rng.normal(size=(3, 2, 6, 6)))
    for pair_type in [(0, 0), (1, 0), (2, 1), (0, 3)]:
        _assert_matches_reference(pair_type, alphas, dalphas)
        assert np.all(cpm.pair_clauses(pair_type, alphas, dalphas)[0][2] == 0.0)


@st.composite
def random_forms(draw):
    """Two one-forms and two two-forms at two points, on the pair axis, for
    a type with m, n <= 2; entries are often exactly zero, so most draws are
    invalid pairs and many are sparse."""
    m, n = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    d = 2 * (m + n + 1)
    entries = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    alphas = draw(hnp.arrays(float, (2, 2, d), elements=entries))
    dalphas = skew(draw(hnp.arrays(float, (2, 2, d, d), elements=entries)))
    return (m, n), alphas, dalphas


@settings(max_examples=60, deadline=None)
@given(random_forms())
def test_random_forms_match_the_wedge_algebra(forms):
    _assert_matches_reference(*forms)


def _scaled(clauses, scale):
    """The clauses' forms with d alpha_1 multiplied by ``scale``."""
    pair_type, alphas, dalphas = clauses
    dalphas = dalphas.copy()
    dalphas[:, 0] *= scale
    return pair_type, alphas, dalphas


@pytest.mark.parametrize("scale", [1e150, 1e200, 1e300])
@pytest.mark.parametrize("key", ["hopf:1", "hopf:2", "sphere_product:1,1"])
def test_a_large_form_reads_a_number_or_inf_never_nan(key, scale):
    # σ^2 and the Pfaffians of the unscaled forms overflow from about 1e154
    rows = cpm.pair_clauses(*_scaled(_clauses_of(catalog.resolve(key)), scale))
    for name, _, values, *_ in rows:
        assert not np.isnan(values).any(), name
    if key == "hopf:1":
        power = rows[1][2]
        # about 4e283 at 1e150, from the rounding-level second singular value
        assert np.all((1e283 < power) & (power < 1e284)) if scale == 1e150 else \
            np.all(power == np.inf)
        assert np.all(rows[2][2] == 0.0)
        # the volume is linear in d alpha_1
        unscaled = cpm.pair_clauses(*_clauses_of(catalog.resolve(key)))[0][2]
        assert np.allclose(rows[0][2] / scale, unscaled, rtol=1e-12)


@pytest.mark.parametrize("scale", [1e150, 1e200, 1e300])
def test_a_large_power_is_exactly_zero_its_value_or_inf(scale):
    # d = 4, type (1, 0), alpha = (dx2, dx3): at the first point d alpha_1 =
    # s dx0^dx1, whose square is 0, at the second s (dx0^dx1 + dx2^dx3),
    # whose square has l2 norm 2 s^2; the volume is s at both
    alphas = np.zeros((2, 2, 4))
    alphas[:, 0, 2] = alphas[:, 1, 3] = 1.0
    dalphas = np.zeros((2, 2, 4, 4))
    dalphas[:, 0, 0, 1] = dalphas[1, 0, 2, 3] = scale
    rows = cpm.pair_clauses((1, 0), alphas, skew(dalphas))
    assert rows[1][2][0] == 0.0
    assert rows[1][2][1] == pytest.approx(2 * scale * scale, rel=1e-12) if scale < 1e154 \
        else rows[1][2][1] == np.inf
    assert np.all(rows[0][2] == pytest.approx(scale, rel=1e-12))
    assert np.all(rows[2][2] == 0.0)


@pytest.mark.parametrize("key", KEYS)
def test_the_powers_scale_exactly_with_a_power_of_two(key):
    clauses = _clauses_of(catalog.resolve(key))
    m = clauses[0][0]
    rows = cpm.pair_clauses(*clauses)
    big = cpm.pair_clauses(*_scaled(clauses, 2.0 ** 400))
    with np.errstate(over="ignore"):
        assert np.array_equal(big[1][2], np.ldexp(rows[1][2], 400 * (m + 1)))
    assert np.array_equal(big[2][2], rows[2][2])
