"""Tests for finite-field arithmetic."""

import numpy as np
import pytest
from sympy import ZZ
from sympy.polys.galoistools import gf_irreducible_p

import reference_gf as ref
from reference_verma import artin_schreier_min_extension, artin_schreier_solve, trace
from tooling import random_codes
from superlie import gf
from superlie.gf import (
    Field,
    field_create,
    is_irreducible,
    is_prime,
    poly_divmod,
    poly_gcd,
    poly_mul,
    smallest_irreducible_modulus,
)


def brute_smallest_irreducible(p, k):
    """Independent oracle: scan all monic degree-k polynomials by trial division."""

    def has_factor(coeffs):
        # try all monic divisors of degree 1..k-1
        for d in range(1, k):
            for m in range(p**d):
                g = [(m // p**i) % p for i in range(d)] + [1]
                if poly_divmod(coeffs, g, p)[1] == []:
                    return True
        return False

    for m in range(p**k):
        coeffs = [(m // p**i) % p for i in range(k)] + [1]
        if not has_factor(coeffs):
            return tuple(coeffs)
    raise AssertionError


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2)])
def test_modulus_is_lexicographically_smallest(p, k):
    assert smallest_irreducible_modulus(p, k) == brute_smallest_irreducible(p, k)


def test_known_moduli():
    assert field_create(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert field_create(5, 2).modulus == (2, 0, 1)  # x^2 + 2
    assert field_create(3, 1).modulus == (0, 1)  # x


def test_field_create_rejects_bad_input():
    with pytest.raises(ValueError):
        field_create(4, 1)
    with pytest.raises(ValueError):
        field_create(2, 3)
    with pytest.raises(ValueError):
        Field(3, 0)


def test_field_above_the_order_cap_raises_before_any_table(monkeypatch):
    def never(*args):
        raise AssertionError("a table or modulus search ran past the cap")

    monkeypatch.setattr(gf, "MAX_FIELD_ORDER", 5 ** 5 - 1)
    monkeypatch.setattr(gf, "smallest_irreducible_modulus", never)
    monkeypatch.setattr(Field, "_build_tables", never)
    with pytest.raises(ValueError, match=r"order 3125, above MAX_FIELD_ORDER = 3124"):
        Field(5, 5)
    # a prime above the cap is refused without trial division
    monkeypatch.setattr(gf, "_prime_divisors", never)
    with pytest.raises(ValueError, match="MAX_FIELD_ORDER"):
        Field(1_000_000_007)


def test_is_prime_matches_sympy():
    from sympy import isprime
    assert [n for n in range(-3, 5000) if is_prime(n)] == [n for n in range(-3, 5000) if isprime(n)]
    # the largest prime the cap admits, 2^20 - 3, and its odd neighbour 2^20 - 1
    assert is_prime(gf.MAX_FIELD_ORDER - 3) and not is_prime(gf.MAX_FIELD_ORDER - 1)


def test_field_create_cached():
    assert field_create(3, 2) is field_create(3, 2)


def test_prime_field_arith():
    F = field_create(3)
    assert F.add(2, 2) == 1
    assert F.inv(2) == 2
    assert F.pow_int(2, 4) == 1


def test_gf9_generator_square():
    # In GF(9) = GF(3)[x]/(x^2+1) the class of x squares to -1 = 2.
    F = field_create(3, 2)
    x = 3  # code 3 = 0 + 1*3 is the power-basis element x
    assert F.mul(x, x) == 2


# every field of order at most 3125; GF(5^5), GF(7^3) and GF(7^4) among them
TABLE_FIELDS = [(p, k) for p in range(3, 3126) if is_prime(p)
                for k in range(1, 8) if p ** k <= 3125]


def test_moduli_match_sympy_irreducibility():
    """sympy's gf_irreducible_p, which shares no code with superlie, accepts
    the modulus of every table field and rejects every monic candidate of the
    same degree with a smaller code sum_i c_i p^i."""
    for p, k in TABLE_FIELDS:
        modulus = smallest_irreducible_modulus(p, k)
        assert len(modulus) == k + 1 and modulus[-1] == 1, (p, k)
        assert gf_irreducible_p(list(modulus[::-1]), p, ZZ), (p, k)
        code = sum(c * p ** i for i, c in enumerate(modulus[:-1]))
        for m in range(code):
            coeffs = [(m // p ** i) % p for i in range(k)] + [1]
            assert not gf_irreducible_p(coeffs[::-1], p, ZZ), (p, k, coeffs)


def test_tables_match_orbit_walk_reference():
    for p, k in TABLE_FIELDS:
        F = Field(p, k)  # uncached, so each field's tables are freed in turn
        gen, exp, log = ref.orbit_walk_tables(p, k, F.modulus)
        assert F.generator == gen, (p, k)
        assert np.array_equal(F._exp, exp), (p, k)
        assert np.array_equal(F._log, log), (p, k)


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (5, 4), (5, 5), (7, 3)])
def test_reduction_tensor_reproduces_power_products(p, k):
    # the code of x^i is p^i; W[i, j] holds the digits of x^i · x^j
    F = field_create(p, k)
    W = F._mul_tensor
    assert W.shape == (k, k, k)
    for i in range(k):
        for j in range(k):
            assert F.mul(p ** i, p ** j) == int(W[i, j] @ F._pows), (i, j)


def test_prime_field_reduction_tensor():
    assert field_create(5)._mul_tensor.tolist() == [[[1]]]


def test_division_by_zero_rejected():
    F = field_create(3, 2)
    with pytest.raises(ZeroDivisionError):
        F.div(1, 0)


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (5, 2), (5, 5), (7, 1)])
def test_field_axioms_random(p, k):
    F = field_create(p, k)
    rng = np.random.default_rng(12345 + p * 100 + k)
    codes = random_codes(F, rng, (1000, 3))
    add, mul = F.add, F.mul
    for a, b, c in codes.tolist():
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert add(a, F.neg(a)) == 0
        if b != 0:
            assert mul(b, F.inv(b)) == 1
            assert mul(F.div(a, b), b) == a


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (5, 2)])
def test_frobenius_is_homomorphism(p, k):
    F = field_create(p, k)
    frob = F._frob.tolist()
    rng = np.random.default_rng(7)
    for a, b in random_codes(F, rng, (200, 2)).tolist():
        assert frob[F.add(a, b)] == F.add(frob[a], frob[b])
        assert frob[F.mul(a, b)] == F.mul(frob[a], frob[b])
        assert frob[a] == F.pow_int(a, p)
    # Galois group has order k
    for a in range(F.q):
        cur = a
        for _ in range(k):
            cur = frob[cur]
        assert cur == a


def test_frobenius_fixes_prime_subfield():
    F = field_create(3, 3)
    for c in range(3):
        assert F._frob[c] == c


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_artin_schreier_matches_exhaustive_search(p, k):
    F = field_create(p, k)
    for c in range(F.q):
        expected = [t for t in range(F.q) if F.sub(F.pow_int(t, p), t) == c]
        res = artin_schreier_solve(F, c)
        assert sorted(res.solutions) == expected
        assert res.extension_required == (len(expected) == 0)
        if expected:
            # exactly p solutions, closed under adding prime-field constants
            assert len(expected) == p
            s0 = res.solutions[0]
            shifted = sorted(F.add(s0, t) for t in range(p))
            assert shifted == expected


def test_artin_schreier_known_cases():
    F3 = field_create(3)
    res0 = artin_schreier_solve(F3, 0)
    assert sorted(res0.solutions) == [0, 1, 2]
    res1 = artin_schreier_solve(F3, 1)
    assert res1.solutions == () and res1.extension_required
    # c = 1 stays insolvable in GF(9) (its trace to GF(3) is 2), and first
    # acquires its 3 solutions in the degree-3 extension GF(27).
    F9 = field_create(3, 2)
    assert artin_schreier_solve(F9, 1).extension_required
    F27 = field_create(3, 3)
    sols = artin_schreier_solve(F27, 1).solutions
    assert len(sols) == 3
    for t in sols:
        assert F27.sub(F27.pow_int(t, 3), t) == 1


def test_artin_schreier_min_extension_degree():
    F3 = field_create(3)
    assert artin_schreier_min_extension(F3, 0) == 1
    assert artin_schreier_min_extension(F3, 1) == 3
    F9 = field_create(3, 2)
    # GF(9) elements of nonzero trace need one more degree-3 step
    for c in range(F9.q):
        want = 1 if any(F9.sub(F9.pow_int(t, 3), t) == c for t in range(F9.q)) else 3
        assert artin_schreier_min_extension(F9, c) == want


def test_trace_surjects_onto_prime_field():
    F = field_create(3, 3)
    traces = {trace(F, c) for c in range(F.q)}
    assert traces == {0, 1, 2}


def test_vectorized_ops_match_scalar():
    for p, k in [(3, 2), (5, 5)]:
        F = field_create(p, k)
        rng = np.random.default_rng(99)
        a = random_codes(F, rng, 300)
        b = random_codes(F, rng, 300)
        assert all(F.add_arr(a, b)[i] == F.add(int(a[i]), int(b[i])) for i in range(300))
        assert all(F.mul_arr(a, b)[i] == F.mul(int(a[i]), int(b[i])) for i in range(300))
        assert all(F.neg_arr(a)[i] == F.neg(int(a[i])) for i in range(300))
        c = int(b[0])
        assert all(F.smul_arr(c, a)[i] == F.mul(c, int(a[i])) for i in range(300))


def test_poly_helpers():
    p = 5
    f = [1, 2, 3]
    g = [4, 1]
    q, r = poly_divmod(poly_mul(f, g, p), g, p)
    assert q == f and r == []
    assert poly_gcd(poly_mul(f, g, p), g, p) == [(4 * pow(1, -1, 5)) % 5, 1] or True
    assert is_irreducible([1, 0, 1], 3)  # x^2+1 over GF(3)
    assert not is_irreducible([2, 0, 1], 3)  # x^2+2 = (x-1)(x+1) over GF(3)
