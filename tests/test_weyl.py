"""Normal-ordered algebra of (x, p) and single-axis Weyl terms."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from doublepass.scalars import (Cyclo, FormalScalar, HALF, I, INV_SQRT2,
                                MINUS_I, ONE, SYM_ALPHA, SYM_L)
from doublepass.weyl import (AXIS_P, AXIS_X, FragmentError, OpPoly, WeylTerm,
                             adjoint, mul)

X = OpPoly.x()
P = OpPoly.p()
ONE_OP = OpPoly.one()
I_OP = OpPoly.const(I)


def rand_poly(rng, max_deg=4, span=3):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        m = rng.randint(0, max_deg)
        n = rng.randint(0, max_deg - m)
        terms[(m, n)] = FormalScalar.const(
            Cyclo(rng.randint(-span, span), rng.randint(-span, span)))
    return OpPoly(terms)


# -- mul ---------------------------------------------------------------------


def test_mul_already_normal_ordered():
    assert mul(X, P) == OpPoly.monomial(1, 1)


def test_mul_single_ccr():
    assert mul(P, X) == OpPoly.monomial(1, 1) - I_OP


def test_mul_lstar_l():
    # (a^2/2) (p + ix)(p - ix) = (a^2/2)(x^2 + p^2 - 1)
    alpha2_half = (SYM_ALPHA * SYM_ALPHA).scale(HALF)
    left = (P + X.scale(I)).scale(SYM_ALPHA).scale(INV_SQRT2)
    right = (P - X.scale(I)).scale(SYM_ALPHA).scale(INV_SQRT2)
    expected = (OpPoly.monomial(2, 0) + OpPoly.monomial(0, 2)
                - ONE_OP).scale(alpha2_half)
    assert mul(left, right) == expected


def test_mul_reordering_identity():
    # p^2 x = x p^2 - 2 i p
    assert mul(mul(P, P), X) == (OpPoly.monomial(1, 2)
                                 - OpPoly.monomial(0, 1, Cyclo(0, 2)))


def test_mul_associative_distributive_random():
    rng = random.Random(123)
    for _ in range(40):
        a, b, c = (rand_poly(rng, max_deg=4) for _ in range(3))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, b + c) == mul(a, b) + mul(a, c)


def _reference_mul(a, b):
    """The former mul: one reordering factor built per j of every pair."""
    out = OpPoly.zero()
    for (m1, n1), c1 in a.terms():
        for (m2, n2), c2 in b.terms():
            for j in range(min(n1, m2) + 1):
                factor = (ONE, MINUS_I, -ONE, I)[j % 4] * Cyclo.rational(
                    factorial(j) * comb(n1, j) * comb(m2, j))
                out = out + OpPoly.monomial(m1 + m2 - j, n1 + n2 - j,
                                            (c1 * c2).scale(factor))
    return out


def test_mul_matches_reference_random():
    rng = random.Random(2024)
    sym = SYM_ALPHA + SYM_L.scale(HALF)
    for _ in range(60):
        a, b = (rand_poly(rng, max_deg=5) for _ in range(2))
        a = a + X.scale(sym)
        assert mul(a, b) == _reference_mul(a, b)
        assert str(mul(b, a)) == str(_reference_mul(b, a))


def test_mul_degree_bound():
    rng = random.Random(5)
    for _ in range(40):
        a, b = rand_poly(rng), rand_poly(rng)
        assert mul(a, b).degree() <= a.degree() + b.degree()


# -- adjoint -----------------------------------------------------------------


def test_adjoint_of_coupling_operator():
    lop = (P - X.scale(I)).scale(SYM_ALPHA).scale(INV_SQRT2)
    lstar = (P + X.scale(I)).scale(SYM_ALPHA).scale(INV_SQRT2)
    assert adjoint(lop) == lstar


def test_adjoint_hamiltonian_hermitian():
    h = (mul(P, X) + mul(X, P)).scale(SYM_ALPHA * SYM_ALPHA).scale(
        Cyclo(Fraction(1, 4)))
    assert adjoint(h) == h
    assert h.is_hermitian()


def test_adjoint_of_ix():
    assert adjoint(X.scale(I)) == X.scale(Cyclo(0, -1))


def test_adjoint_antihomomorphism_random():
    rng = random.Random(77)
    for _ in range(40):
        a, b = rand_poly(rng), rand_poly(rng)
        assert adjoint(mul(a, b)) == mul(adjoint(b), adjoint(a))
        assert adjoint(adjoint(a)) == a


# -- commutator --------------------------------------------------------------


def commutator(a, b):
    return mul(a, b) - mul(b, a)


def test_ccr():
    assert commutator(X, P) == I_OP


def test_commutator_p_with_coupling():
    lop = (P - X.scale(I)).scale(SYM_ALPHA).scale(INV_SQRT2)
    expected = OpPoly.const(SYM_ALPHA.scale(Cyclo(-1) * INV_SQRT2))
    assert commutator(P, lop) == expected


def test_commutator_h_with_p():
    h = (mul(P, X) + mul(X, P)).scale(SYM_ALPHA * SYM_ALPHA).scale(
        Cyclo(Fraction(1, 4)))
    expected = P.scale((SYM_ALPHA * SYM_ALPHA).scale(Cyclo(0, Fraction(1, 2))))
    assert commutator(h, P) == expected


def test_jacobi_identity_random():
    rng = random.Random(321)
    for _ in range(25):
        a, b, c = (rand_poly(rng, max_deg=3) for _ in range(3))
        total = (commutator(a, commutator(b, c))
                 + commutator(b, commutator(c, a))
                 + commutator(c, commutator(a, b)))
        assert total.is_zero()


def test_commutator_antisymmetric_bilinear():
    rng = random.Random(11)
    a, b, c = (rand_poly(rng) for _ in range(3))
    assert commutator(a, b) == -commutator(b, a)
    assert commutator(a + b, c) == commutator(a, c) + commutator(b, c)


# -- Weyl terms ---------------------------------------------------------------


def _parts(term):
    """A Weyl term as the (axis, lam, post) it is compared by."""
    return term.axis, term.lam, term.post


def test_push_x_through_p_exponential():
    term = WeylTerm.exponential(AXIS_P, SYM_L)
    out = term.mul_left(X)
    assert _parts(out) == (AXIS_P, SYM_L, X - OpPoly.const(SYM_L))


def test_p_commutes_with_p_exponential():
    term = WeylTerm.exponential(AXIS_P, SYM_L)
    assert _parts(term.mul_left(P)) == (AXIS_P, SYM_L, P)


def test_push_p_through_x_exponential():
    term = WeylTerm.exponential(AXIS_X, SYM_L)
    out = term.mul_left(P)
    assert _parts(out) == (AXIS_X, SYM_L, P + OpPoly.const(SYM_L))


def test_push_through_iterated():
    term = WeylTerm.exponential(AXIS_P, SYM_L)
    out = term.mul_left(mul(X, X))
    shifted = X - OpPoly.const(SYM_L)
    assert _parts(out) == (AXIS_P, SYM_L, mul(shifted, shifted))


def test_weyl_normalize_idempotent():
    term = WeylTerm(AXIS_P, SYM_L, X + P.scale(I))
    once = term.mul_left(ONE_OP).mul_right(ONE_OP)
    assert _parts(once) == _parts(term)
    assert _parts(once.mul_left(ONE_OP).mul_right(ONE_OP)) == _parts(once)


def test_weyl_add_mismatched_axes_rejected():
    a = WeylTerm.exponential(AXIS_P, SYM_L)
    b = WeylTerm.exponential(AXIS_X, SYM_L)
    with pytest.raises(FragmentError):
        a + b


def test_printer_forms():
    half_a2 = (SYM_ALPHA * SYM_ALPHA).scale(HALF)
    assert str(OpPoly.monomial(2, 0, half_a2)) == "(1/2)*a^2*x^2"
    assert str(OpPoly.zero()) == "0"
