"""Ring laws, quantum integers, and canonical rendering of HalfLaurent."""

from __future__ import annotations

import random
from functools import reduce
from operator import mul

import pytest

from moytree.laurent import (
    ONE,
    ZERO,
    HalfLaurent,
    equal_up_to_shift,
    is_symmetric,
    monomial,
    quantum_coefficients,
    quantum_integer,
    quantum_product,
)
from oracles import convolve_pairs


def random_poly(rng: random.Random) -> HalfLaurent:
    terms = {}
    for _ in range(rng.randint(0, 6)):
        terms[rng.randint(-8, 8)] = rng.randint(-9, 9)
    return HalfLaurent(terms)


# -- construction ----------------------------------------------------------


def test_zero_coefficients_are_dropped():
    p = HalfLaurent({3: 0, 1: 2})
    assert p.to_pairs() == ((1, 2),)
    assert p == HalfLaurent({1: 2})


def test_pair_iterable_accumulates():
    p = HalfLaurent([(1, 2), (1, 3), (0, -1)])
    assert p.to_pairs() == ((0, -1), (1, 5))
    # a term that cancels to zero and then reappears is stored again
    assert HalfLaurent([(1, 2), (1, -2), (1, 3)]) == HalfLaurent({1: 3})
    # a sum merges overlapping supports and drops the exponent that cancels
    s = HalfLaurent({0: 1, 2: 3, 4: -1}) + HalfLaurent({2: -3, 4: 2, 6: 5})
    assert s.to_pairs() == ((0, 1), (4, 1), (6, 5))


def test_duplicate_pairs_cancel_to_zero():
    p = HalfLaurent([(4, 7), (4, -7)])
    assert not p
    assert p == ZERO


def test_rejects_non_int_exponent_and_coefficient():
    with pytest.raises(TypeError):
        HalfLaurent({1.5: 2})
    with pytest.raises(TypeError):
        HalfLaurent({1: 2.0})
    with pytest.raises(TypeError):
        HalfLaurent({True: 2})
    with pytest.raises(TypeError):
        HalfLaurent({1: False})


def test_empty_is_zero():
    assert HalfLaurent().to_pairs() == ()
    assert not HalfLaurent()
    assert bool(ONE)
    assert ZERO == HalfLaurent()


# -- queries ---------------------------------------------------------------


def test_to_pairs_ascending():
    p = HalfLaurent({5: 1, -3: 2, 0: 4})
    assert p.to_pairs() == ((-3, 2), (0, 4), (5, 1))


def test_exponent_extremes():
    p = HalfLaurent({5: 1, -3: 2})
    assert p.min_doubled_exp() == -3
    assert p.to_pairs()[-1][0] == 5
    assert ZERO.min_doubled_exp() is None


def test_eval_one_is_coefficient_sum():
    p = HalfLaurent({4: 3, -1: -5, 0: 2})
    assert p.eval_one() == 0
    assert ZERO.eval_one() == 0


# -- ring laws against the convolution oracle ------------------------------


def test_mul_matches_convolution_oracle():
    rng = random.Random(11)
    for _ in range(200):
        p, q = random_poly(rng), random_poly(rng)
        assert (p * q).to_pairs() == convolve_pairs(p.to_pairs(), q.to_pairs())


def test_ring_laws_on_random_triples():
    rng = random.Random(12)
    for _ in range(200):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + ZERO == p
        assert p * ONE == p
        assert p * ZERO == ZERO
        assert (p + q) + (-q) == p
        assert p + (-p) == ZERO


def test_eval_one_is_a_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(200):
        p, q = random_poly(rng), random_poly(rng)
        assert (p + q).eval_one() == p.eval_one() + q.eval_one()
        assert (p * q).eval_one() == p.eval_one() * q.eval_one()
        assert (-p).eval_one() == -p.eval_one()


def test_arithmetic_rejects_foreign_types():
    with pytest.raises(TypeError):
        ONE + 1
    with pytest.raises(TypeError):
        ONE * 2
    assert (ONE == 1) is False


# -- shifts ----------------------------------------------------------------


def test_shifted_is_monomial_multiplication():
    rng = random.Random(14)
    for _ in range(100):
        p = random_poly(rng)
        d = rng.randint(-6, 6)
        assert p.shifted(d) == p * monomial(1, d)


def test_shifted_rejects_non_int():
    with pytest.raises(TypeError):
        ONE.shifted(0.5)
    with pytest.raises(TypeError):
        ONE.shifted(True)


def test_equal_up_to_shift():
    p = HalfLaurent({0: 1, 1: 2})
    assert equal_up_to_shift(p, p.shifted(7))
    assert equal_up_to_shift(p.shifted(-3), p)
    assert not equal_up_to_shift(p, p + ONE)
    assert not equal_up_to_shift(p, ZERO)
    assert not equal_up_to_shift(ZERO, p)
    assert equal_up_to_shift(ZERO, ZERO)
    # same support, different coefficients
    assert not equal_up_to_shift(HalfLaurent({0: 1, 2: 2}), HalfLaurent({0: 2, 2: 1}))


def test_is_symmetric():
    assert is_symmetric(quantum_integer(4).shifted(3))
    assert is_symmetric(HalfLaurent({-1: 1, 1: -1}))  # odd: one global sign
    assert is_symmetric(HalfLaurent({0: 1, 2: -3, 4: 1}))
    assert is_symmetric(monomial(-2, 5))
    assert is_symmetric(ZERO)
    assert not is_symmetric(HalfLaurent({0: 1, 2: 2}))
    # palindromic coefficients on exponents that are not symmetric
    assert not is_symmetric(HalfLaurent({0: 1, 4: 1, 6: 1}))
    # a sign flip in the middle only
    assert not is_symmetric(HalfLaurent({0: 1, 2: -1, 4: 1, 6: 1}))


# -- quantum integers ------------------------------------------------------


def test_quantum_integer_small_values():
    assert quantum_integer(1) == ONE
    assert quantum_integer(2).to_pairs() == ((-1, 1), (1, 1))
    assert quantum_integer(3).to_pairs() == ((-2, 1), (0, 1), (2, 1))


def test_quantum_integer_structure():
    for i in range(1, 12):
        q = quantum_integer(i)
        pairs = q.to_pairs()
        assert len(pairs) == i
        assert q.eval_one() == i
        assert all(c == 1 for _, c in pairs)
        # palindromic support around zero
        assert pairs[0][0] == -(pairs[-1][0]) == 1 - i


def test_quantum_integer_telescopes():
    # [i] * (t^(1/2) - t^(-1/2)) = t^(i/2) - t^(-i/2)
    step = monomial(1, 1) + monomial(-1, -1)
    for i in range(1, 12):
        assert quantum_integer(i) * step == monomial(1, i) + monomial(-1, -i)


def test_quantum_integer_rejects_bad_input():
    for bad in (0, -1, True, 2.0):
        with pytest.raises(ValueError):
            quantum_integer(bad)


# -- sliding-window products -----------------------------------------------


def chained_product(weights, doubled_shift):
    """The same product through the general O(|p|·|q|) multiplication."""
    return reduce(mul, map(quantum_integer, weights), monomial(1, doubled_shift))


def test_quantum_product_matches_chained_multiplication():
    rng = random.Random(17)
    for _ in range(300):
        weights = [rng.randint(1, 12) for _ in range(rng.randint(0, 6))]
        shift = rng.randint(-15, 15)
        assert quantum_product(weights, shift) == chained_product(weights, shift)


def test_quantum_product_edge_cases():
    assert quantum_product([]) == ONE
    assert quantum_product([], -7) == monomial(1, -7)
    assert quantum_product([1, 1, 1], 3) == monomial(1, 3)
    # an even and an odd weight give half-integer exponents
    assert quantum_product([2, 3]) == chained_product([2, 3], 0)
    for weights in ([1000], [1000, 1001], [1500, 2, 999], [1, 1024, 1]):
        shift = len(weights) - 2
        assert quantum_product(weights, shift) == chained_product(weights, shift)


def test_quantum_product_starts_from_given_coefficients():
    # t^(1/2) * (3 + t^2) * [2] * [3]
    start = HalfLaurent({1: 3, 5: 1})
    expected = start * quantum_integer(2) * quantum_integer(3)
    assert quantum_product([2, 3], 1, (3, 0, 1)) == expected
    assert quantum_product([], 1, (3, 0, 1)) == start
    # the same product as its lowest doubled exponent and dense coefficients
    assert quantum_coefficients([2, 3], 1, (3, 0, 1)) == (-2, [3, 6, 7, 5, 2, 1])


def test_quantum_product_rejects_bad_weights():
    for bad in (0, -1, -1000, True, False, 2.0):
        with pytest.raises(ValueError, match="i >= 1"):
            quantum_product([3, bad])


# -- identity and hashing --------------------------------------------------


def test_equal_polynomials_hash_equal():
    rng = random.Random(16)
    for _ in range(50):
        p = random_poly(rng)
        q = HalfLaurent(dict(p.to_pairs()))
        assert p == q
        assert hash(p) == hash(q)
    assert len({ONE, HalfLaurent({0: 1}), ZERO}) == 2


# -- rendering -------------------------------------------------------------


def test_str_golden_forms():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(monomial(-2, 0)) == "-2"
    assert str(monomial(1, 2)) == "t"
    assert str(monomial(-1, 2)) == "-t"
    assert str(monomial(1, 6)) == "t^3"
    assert str(monomial(3, -2)) == "3*t^-1"
    assert str(monomial(1, 1)) == "t^{1/2}"
    assert str(monomial(-4, -3)) == "-4*t^{-3/2}"
    assert str(quantum_integer(3)) == "t + 1 + t^-1"
    assert str(quantum_integer(2)) == "t^{1/2} + t^{-1/2}"
    assert str(HalfLaurent({4: 1, 0: -2, -1: -1})) == "t^2 - 2 - t^{-1/2}"


def test_str_orders_terms_descending():
    p = HalfLaurent({-3: 1, 5: 2, 0: 3})
    assert str(p) == "2*t^{5/2} + 3 + t^{-3/2}"


def test_repr_round_trips_terms():
    p = HalfLaurent({3: -2, -1: 4})
    assert repr(p) == "HalfLaurent({-1: 4, 3: -2})"
