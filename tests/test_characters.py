"""Characters, transforms (both conventions), Parseval, Gauss sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qprog.field import get_field
from qprog.characters import (
    ComplexFn,
    additive_char_table,
    fourier,
    fourier_checks,
    fourier_inverse,
    gauss_sum,
    mult_fourier,
    mult_fourier_inverse,
    phase_table,
    quadratic_char_table,
    random_fn,
    unit_root_powers,
)

from conftest import Q_FULL, field_for
from transform_oracles import (
    complexfn_from_json,
    complexfn_to_json,
    fourier_dense,
    fourier_inverse_dense,
    fourier_trial_checks_per_trial,
    mult_fourier_dense,
    mult_char_table,
    mult_fourier_inverse_dense,
)


# ---------------------------------------------------------------------------
# additive character
# ---------------------------------------------------------------------------


def test_additive_char_basics():
    e = additive_char_table(get_field(3, 1))
    assert e[0] == 1
    assert abs(e[1] - np.exp(2j * np.pi / 3)) < 1e-15


def test_additive_orthogonality_exhaustive(ctx_medium):
    ctx = ctx_medium
    e = additive_char_table(ctx)
    codes = ctx.elements()
    for a in range(ctx.q):
        total = e[ctx.mul_vec(a, codes)].sum()
        expected = ctx.q if a == 0 else 0.0
        assert abs(total - expected) < 1e-9


def test_additive_char_is_homomorphism(ctx_small):
    ctx = ctx_small
    e = additive_char_table(ctx)
    a = np.repeat(ctx.elements(), ctx.q)
    b = np.tile(ctx.elements(), ctx.q)
    assert np.abs(e[ctx.add_vec(a, b)] - e[a] * e[b]).max() < 1e-12


@pytest.mark.parametrize("q", Q_FULL)
def test_phase_table_is_e_of_the_product_on_every_pair(q):
    """phase_table[log0[a] + log0[b]] is e[mul_vec(a, b)] bit for bit, zeros included."""
    ctx = field_for(q)
    codes = ctx.elements()
    by_log = phase_table(ctx)[ctx.log0[codes][:, None] + ctx.log0[codes][None, :]]
    by_mul = additive_char_table(ctx)[ctx.mul_vec(codes[:, None], codes[None, :])]
    assert by_log.tobytes() == by_mul.tobytes()


# ---------------------------------------------------------------------------
# multiplicative characters
# ---------------------------------------------------------------------------


def test_mult_char_basics():
    F5 = get_field(5, 1)
    assert np.all(mult_char_table(F5, 0)[1:] == 1)
    # chi = eta_2 on F_5: squares {1, 4} -> +1, nonsquares {2, 3} -> -1
    chi = mult_char_table(F5, 2)
    assert abs(chi[1] - 1) < 1e-15 and abs(chi[4] - 1) < 1e-15
    assert abs(chi[2] + 1) < 1e-15 and abs(chi[3] + 1) < 1e-15
    # eta_t(g) is the primitive root to the t, the t-th unit-root power
    root = np.exp(2j * np.pi / 4)
    for t in range(4):
        assert abs(mult_char_table(F5, t)[F5.g] - root**t) < 1e-14
        assert abs(unit_root_powers(F5)[t] - root**t) < 1e-14


def test_mult_orthogonality_exhaustive(ctx_medium):
    ctx = ctx_medium
    for t in range(ctx.q - 1):
        vals = mult_char_table(ctx, t)
        total = vals[ctx.units()].sum()
        expected = ctx.q - 1 if t == 0 else 0.0
        assert abs(total - expected) < 1e-9


@given(st.integers(1, 26), st.integers(1, 26), st.integers(0, 25))
@settings(max_examples=80, deadline=None)
def test_mult_char_multiplicative(x, y, t):
    ctx = get_field(3, 3)
    eta = mult_char_table(ctx, t)
    assert abs(eta[ctx.mul(x, y)] - eta[x] * eta[y]) < 1e-12


# ---------------------------------------------------------------------------
# quadratic character
# ---------------------------------------------------------------------------


def test_quadratic_char_values():
    chi = quadratic_char_table(get_field(7, 1))
    assert chi[1] == 1
    assert chi[0] == 0
    assert chi[3] == -1  # squares mod 7 are {1, 2, 4}
    assert {x for x in range(1, 7) if chi[x] == 1} == {1, 2, 4}


def test_quadratic_char_is_power_map(ctx_medium):
    ctx = ctx_medium
    chi = quadratic_char_table(ctx)
    for x in ctx.units():
        power = ctx.pow(int(x), (ctx.q - 1) // 2)
        expected = 1 if power == 1 else -1
        assert chi[x] == expected
    # chi is the character of index (q-1)/2
    eta = mult_char_table(ctx, (ctx.q - 1) // 2)
    assert np.abs(eta[ctx.units()] - chi[ctx.units()]).max() < 1e-12


def test_quadratic_char_multiplicative_exhaustive():
    for q in (5, 7, 9, 25, 49):
        ctx = field_for(q)
        chi = quadratic_char_table(ctx)
        units = ctx.units()
        a = np.repeat(units, q - 1)
        b = np.tile(units, q - 1)
        assert np.array_equal(chi[ctx.mul_vec(a, b)], chi[a] * chi[b])


# ---------------------------------------------------------------------------
# Fourier transform (averaged analysis / counting synthesis)
# ---------------------------------------------------------------------------


def test_fourier_of_constant_is_delta(ctx_small):
    ctx = ctx_small
    f = ComplexFn(ctx, np.ones(ctx.q))
    fhat = fourier(f).values
    expected = np.zeros(ctx.q)
    expected[0] = 1.0
    assert np.abs(fhat - expected).max() < 1e-12


def test_fourier_of_delta_is_flat(ctx_small):
    ctx = ctx_small
    v = np.zeros(ctx.q)
    v[0] = 1.0
    fhat = fourier(ComplexFn(ctx, v)).values
    assert np.abs(fhat - 1.0 / ctx.q).max() < 1e-12


def test_fourier_round_trip_and_parseval(ctx_medium):
    ctx = ctx_medium
    rng = np.random.default_rng(11)
    for _ in range(100):
        f = random_fn(ctx, rng)
        fhat = fourier(f)
        back = fourier_inverse(fhat)
        assert np.abs(back.values - f.values).max() < 1e-9
        a, b = f.norm_avg(), fhat.norm_count()
        assert abs(a - b) / max(a, b) < 1e-9


def test_fourier_inverse_of_delta_is_constant(ctx_small):
    ctx = ctx_small
    v = np.zeros(ctx.q)
    v[0] = 1.0
    out = fourier_inverse(ComplexFn(ctx, v)).values
    assert np.abs(out - 1.0).max() < 1e-12


def test_transforms_are_linear():
    ctx = get_field(7, 1)
    rng = np.random.default_rng(5)
    f, g = random_fn(ctx, rng), random_fn(ctx, rng)
    lhs = fourier(ComplexFn(ctx, 2.5 * f.values + 1j * g.values)).values
    rhs = 2.5 * fourier(f).values + 1j * fourier(g).values
    assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("q", Q_FULL + [125, 243, 343])
def test_fourier_matches_dense_oracle(q):
    """The digit-axis FFT read through the trace-dual index equals the dense
    character-matrix product, both directions, on every kind of input."""
    ctx = field_for(q)
    rng = np.random.default_rng(q)
    for kind in ("gaussian", "pm1", "indicator"):
        f = random_fn(ctx, rng, kind)
        assert np.abs(fourier(f).values - fourier_dense(f).values).max() <= 1e-12
        assert np.abs(fourier_inverse(f).values - fourier_inverse_dense(f).values).max() <= 1e-12


# ---------------------------------------------------------------------------
# multiplicative transform
# ---------------------------------------------------------------------------


def test_mult_fourier_of_unit_indicator(ctx_small):
    ctx = ctx_small
    v = np.zeros(ctx.q)
    v[1] = 1.0
    coeffs = mult_fourier(ComplexFn(ctx, v))
    assert np.abs(coeffs - 1.0).max() < 1e-12


def test_mult_fourier_of_character_is_orthogonal_peak():
    ctx = get_field(7, 1)
    s = 2
    f = ComplexFn(ctx, mult_char_table(ctx, s))
    coeffs = mult_fourier(f)
    expected = np.zeros(6, dtype=complex)
    expected[s] = 6.0
    assert np.abs(coeffs - expected).max() < 1e-12


def test_mult_fourier_parseval_and_inverse(ctx_medium):
    ctx = ctx_medium
    rng = np.random.default_rng(13)
    for _ in range(30):
        v = rng.standard_normal(ctx.q) + 1j * rng.standard_normal(ctx.q)
        v[0] = 0.0
        f = ComplexFn(ctx, v)
        coeffs = mult_fourier(f)
        lhs = (np.abs(coeffs) ** 2).sum() / (ctx.q - 1)
        rhs = (np.abs(v) ** 2).sum()
        assert abs(lhs - rhs) / max(lhs, rhs) < 1e-9
        back = mult_fourier_inverse(ctx, coeffs)
        assert np.abs(back.values - v).max() < 1e-9


@pytest.mark.parametrize("q", Q_FULL + [125, 243])
def test_mult_fourier_matches_dense_oracle(q):
    ctx = field_for(q)
    rng = np.random.default_rng(q)
    v = rng.standard_normal(ctx.q) + 1j * rng.standard_normal(ctx.q)
    v[0] = 0.0
    f = ComplexFn(ctx, v)
    assert np.abs(mult_fourier(f) - mult_fourier_dense(f)).max() <= 1e-10
    coeffs = rng.standard_normal(ctx.q - 1) + 1j * rng.standard_normal(ctx.q - 1)
    fft_route = mult_fourier_inverse(ctx, coeffs)
    assert fft_route.domain == "multiplicative"
    assert np.abs(fft_route.values - mult_fourier_inverse_dense(ctx, coeffs).values).max() <= 1e-10


def test_mult_fourier_rejects_nonvanishing_origin():
    ctx = get_field(5, 1)
    with pytest.raises(ValueError):
        mult_fourier(ComplexFn(ctx, np.ones(5)))


def test_complexfn_validation():
    ctx = get_field(5, 1)
    with pytest.raises(ValueError):
        ComplexFn(ctx, np.ones(4))
    with pytest.raises(ValueError):
        ComplexFn(ctx, np.ones(5), "multiplicative")
    with pytest.raises(ValueError):
        ComplexFn(ctx, np.ones(5), "weird")
    f = ComplexFn(ctx, np.arange(5, dtype=float))
    assert complexfn_from_json(ctx, complexfn_to_json(f)).values.tolist() == f.values.tolist()


# ---------------------------------------------------------------------------
# Gauss sums
# ---------------------------------------------------------------------------


def test_gauss_sum_f3_exact():
    info = gauss_sum(get_field(3, 1))
    assert abs(info.raw_sum - 1j * math.sqrt(3)) < 1e-12
    assert abs(info.sigma - 1j) < 1e-12


def test_gauss_sum_f5_modulus():
    info = gauss_sum(get_field(5, 1))
    assert abs(abs(info.raw_sum) - math.sqrt(5)) < 1e-12


def test_gauss_sum_unimodular_everywhere():
    for q in (3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 121):
        info = gauss_sum(field_for(q))
        assert abs(abs(info.sigma) - 1.0) < 1e-9
        assert abs(info.raw_sum - info.sigma * math.sqrt(q)) < 1e-9


@pytest.mark.parametrize("q", [3, 9, 27, 49])
def test_fourier_checks_batches_match_the_per_trial_loop(q):
    """Eleven trials, a full batch and a partial one, transformed a batch at
    a time: the one-trial-at-a-time Parseval and round-trip checks exactly."""
    ctx = field_for(q)
    checks = {c.name: c for c in fourier_checks(ctx, seed=q, trials=11)}
    for oracle in fourier_trial_checks_per_trial(ctx, q, 11):
        assert checks[oracle.name] == oracle
