"""Exact arithmetic in Q(i, sqrt2) and the formal polynomial layer."""

import math
import random
import subprocess
import sys
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from doublepass.scalars import (Cyclo, FormalScalar, HALF, I, INV_SQRT2,
                                MINUS_I, ONE, SYM_ALPHA, SYM_K, SYM_L, ZERO)
from doublepass.weyl import OpPoly

SQRT2 = Cyclo(0, 0, 1)


def rand_cyclo(rng, span=3):
    return Cyclo(*(Fraction(rng.randint(-span, span),
                            rng.randint(1, 3)) for _ in range(4)))


def test_basic_identities():
    assert I * I == Cyclo(-1)
    assert SQRT2 * SQRT2 == Cyclo(2)
    assert INV_SQRT2 * SQRT2 == ONE
    assert (I * SQRT2) * (I * SQRT2) == Cyclo(-2)
    assert MINUS_I == -I


def test_field_axioms_random():
    rng = random.Random(20240901)
    for _ in range(200):
        a, b, c = (rand_cyclo(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a * b == b * a


def test_conjugation():
    q = Cyclo(1, 2, 3, 4)
    assert q.conjugate() == Cyclo(1, -2, 3, -4)
    assert (q * q.conjugate()).rb == 0
    assert (q * q.conjugate()).rd == 0


def test_float_conversion():
    assert float(Cyclo(Fraction(-3, 4))) == -0.75
    assert abs(float(INV_SQRT2) - 2 ** -0.5) < 1e-15
    # the imaginary parts are checked exactly: any nonzero one raises
    for value in (I, Cyclo(1, Fraction(1, 10 ** 30)), Cyclo(0, 0, 1, -1)):
        with pytest.raises(ValueError, match="not real"):
            float(value)


def test_formal_scalar_ring():
    a, k = SYM_ALPHA, SYM_K
    expr = (a + k) * (a - k)
    assert expr == a * a - k * k
    assert (expr - expr).is_zero()
    assert a ** 3 == a * a * a


def test_formal_scalar_evaluate():
    expr = (SYM_ALPHA * SYM_ALPHA * SYM_L + SYM_K.scale(SQRT2)
            - (SYM_ALPHA * SYM_K).scale(HALF))
    val = expr.evaluate_real(a=2.0, k=3.0, l=0.5)
    assert val == pytest.approx(2.0 + 3.0 * sqrt(2.0) - 3.0)
    assert FormalScalar.zero().evaluate_real(a=1.0) == 0.0
    # an imaginary coefficient raises wherever it is evaluated, at k = 0 too
    for k in (1.0, 0.0, np.zeros(3)):
        with pytest.raises(ValueError, match="not real"):
            SYM_K.scale(I).evaluate_real(k=k)
        with pytest.raises(ValueError, match="not real"):
            (expr + SYM_K.scale(I)).evaluate_real(a=2.0, k=k, l=0.5)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="not real"):
            expr.evaluate_real(a=2.0, k=bad, l=0.5)
    with pytest.raises(ValueError, match="not real"):
        expr.evaluate_real(a=2.0, k=np.array([0.0, math.inf]), l=0.5)


def test_evaluate_real_overflow_is_its_value_error():
    # a Python float ** int raises OverflowError where NumPy gives inf
    square = SYM_L * SYM_L
    for l in (1e200, np.array([0.0, 1e200])):
        with pytest.raises(ValueError, match="not real and finite"):
            square.evaluate_real(l=l)


def test_array_evaluation_matches_scalar_bit_for_bit():
    rng = np.random.default_rng(20261019)
    expr = (SYM_ALPHA * SYM_L - SYM_K).scale(Cyclo(Fraction(-1, 3), 0, 2)) \
        * (SYM_K * SYM_L + SYM_L.scale(INV_SQRT2) - SYM_ALPHA * SYM_ALPHA)
    k, l = rng.normal(scale=5.0, size=(2, 40, 30))
    values = expr.evaluate_real(a=1.7, k=k, l=l)
    scalar = [[expr.evaluate_real(a=1.7, k=kv, l=lv)
               for kv, lv in zip(krow, lrow)]
              for krow, lrow in zip(k.tolist(), l.tolist())]
    assert values.shape == k.shape
    assert np.array_equal(values, np.array(scalar))


def test_l_coefficient():
    expr = SYM_ALPHA * SYM_K - (SYM_ALPHA * SYM_ALPHA) * SYM_L \
        + SYM_K * SYM_K * SYM_L * SYM_L
    assert expr.l_coefficient(0) == SYM_ALPHA * SYM_K
    assert expr.l_coefficient(1) == -(SYM_ALPHA * SYM_ALPHA)
    assert expr.l_coefficient(2) == SYM_K * SYM_K
    assert expr.l_coefficient(3).is_zero()


def test_formal_scalar_conjugate():
    expr = SYM_K.scale(I) + SYM_L
    assert expr.conjugate() == SYM_L - SYM_K.scale(I)


def test_constant_extraction():
    c = FormalScalar.const(Cyclo(2, -1))
    assert c.is_constant()
    assert c.constant_value() == Cyclo(2, -1)
    with pytest.raises(ValueError):
        SYM_ALPHA.constant_value()


def test_degrees():
    expr = SYM_ALPHA * SYM_K * SYM_L + SYM_K * SYM_K
    assert expr.degree_kl() == 2
    assert (SYM_ALPHA * SYM_ALPHA * SYM_ALPHA * SYM_L).degree_kl() == 1
    assert (SYM_ALPHA * SYM_ALPHA).degree_kl() == 0
    assert FormalScalar.zero().degree_kl() == 0


def test_equality_is_type_strict_across_the_sparse_core():
    # FormalScalar and OpPoly share one table-based core; equal tables of
    # different classes are still different values
    for scalar, op in ((FormalScalar.zero(), OpPoly.zero()),
                       (FormalScalar.one(), OpPoly.one())):
        assert scalar != op and op != scalar
    for value in (FormalScalar.zero(), OpPoly.zero()):
        assert value != Cyclo(0) and Cyclo(0) != value
    assert FormalScalar.const(1) == FormalScalar.one()
    assert SYM_K + SYM_L == SYM_L + SYM_K
    assert OpPoly.x() + OpPoly.p() == OpPoly.p() + OpPoly.x()


def test_printing_deterministic():
    expr = SYM_ALPHA * SYM_ALPHA - SYM_K.scale(HALF)
    assert str(expr) == "-(1/2)*k + a^2"
    assert str(FormalScalar.zero()) == "0"
    assert str(SYM_L.scale(MINUS_I)) == "-i*l"


# -- reference: the four-Fraction representation ------------------------------


class RefCyclo:
    """The former Cyclo: four reduced Fraction parts, Fraction arithmetic."""

    def __init__(self, ra=0, rb=0, rc=0, rd=0):
        self.ra, self.rb, self.rc, self.rd = map(Fraction, (ra, rb, rc, rd))

    def parts(self):
        return (self.ra, self.rb, self.rc, self.rd)

    def __add__(self, other):
        return RefCyclo(*(x + y for x, y in zip(self.parts(), other.parts())))

    def __neg__(self):
        return RefCyclo(*(-x for x in self.parts()))

    def __mul__(self, other):
        a1, b1, c1, d1 = self.parts()
        a2, b2, c2, d2 = other.parts()
        return RefCyclo(a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
                        a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
                        a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
                        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2)

    def conjugate(self):
        return RefCyclo(self.ra, -self.rb, self.rc, -self.rd)

    def is_zero(self):
        return not any(self.parts())

    def __eq__(self, other):
        return self.parts() == other.parts()

    def real(self):
        return float(self.ra) + sqrt(2.0) * float(self.rc)

    def is_single_part(self):
        return sum(bool(r) for r in self.parts()) <= 1

    def sign_split(self):
        if self.is_single_part():
            for r in self.parts():
                if r < 0:
                    return -1, -self
        return 1, self

    def __str__(self):
        pieces = []
        for r, unit in zip(self.parts(), ("", "i", "sqrt2", "i*sqrt2")):
            if not r:
                continue
            if not unit:
                pieces.append(str(r))
            elif r in (1, -1):
                pieces.append(("-" if r < 0 else "") + unit)
            else:
                pieces.append(f"{r}*{unit}")
        if not pieces:
            return "0"
        text = pieces[0]
        for p in pieces[1:]:
            text += " - " + p[1:] if p.startswith("-") else " + " + p
        return text

    def __repr__(self):
        return "Cyclo({!r}, {!r}, {!r}, {!r})".format(*self.parts())


# large coprime denominators next to small ones sharing factors
_DENOMS = (1, 1, 2, 3, 4, 6, 12, 2 ** 61 - 1, 10 ** 9 + 7, 3 ** 40,
           (2 ** 31 - 1) * (10 ** 9 + 9))


def _rand_part(rng):
    kind = rng.random()
    if kind < 0.25:
        return 0
    if kind < 0.45:
        return rng.randint(-5, 5)
    return Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.choice(_DENOMS))


def _rand_pairs(seed, n=1200):
    """n seeded (Cyclo, RefCyclo) pairs with the same parts, zero included."""
    rng = random.Random(seed)
    out = [(Cyclo(), RefCyclo())]
    while len(out) < n:
        if rng.random() < 0.05 and len(out) > 1:
            out.append(rng.choice(out))     # repeats, so == meets equal values
            continue
        parts = [_rand_part(rng) for _ in range(4)]
        out.append((Cyclo(*parts), RefCyclo(*parts)))
    return out


def _same(new, ref):
    """new equals ref part by part, and equals the Cyclo built from ref."""
    assert (new.ra, new.rb, new.rc, new.rd) == ref.parts()
    assert all(type(r) is Fraction for r in (new.ra, new.rb, new.rc, new.rd))
    assert new == Cyclo(*ref.parts())


def test_arithmetic_matches_fraction_reference():
    elems = _rand_pairs(20261018)
    for (x, xr), (y, yr) in zip(elems, elems[1:] + elems[:1]):
        _same(x + y, xr + yr)
        _same(x * y, xr * yr)
        _same(-x, -xr)
        _same(x.conjugate(), xr.conjugate())
        assert (x == y) == (xr == yr)
        assert (x != y) == (xr != yr)
        assert x.is_zero() == xr.is_zero()


def test_equality_matches_reference():
    elems = _rand_pairs(777)
    rng = random.Random(5)
    for (x, xr), (y, yr) in zip(elems, elems[1:]):
        # the same value reached by a different route
        assert (x + y) + -y == x
        assert x * Cyclo(3) * Cyclo(Fraction(1, 3)) == x
        other, otherr = rng.choice(elems)
        if other == x:
            assert otherr == xr
        else:
            assert not otherr == xr


def test_printing_and_queries_match_reference():
    for x, xr in _rand_pairs(3):
        assert str(x) == str(xr)
        assert repr(x) == repr(xr)
        assert x.is_single_part() == xr.is_single_part()
        sign, mag = x.sign_split()
        ref_sign, ref_mag = xr.sign_split()
        assert sign == ref_sign
        _same(mag, ref_mag)
        if xr.rb or xr.rd:
            with pytest.raises(ValueError, match="not real"):
                float(x)
        else:
            assert float(x) == xr.real()
    single = [Cyclo(0, 0, Fraction(-3, 7)), Cyclo(0, -1), Cyclo(-2)]
    for x in single:
        ref = RefCyclo(x.ra, x.rb, x.rc, x.rd)
        assert str(x) == str(ref) and x.sign_split()[0] == -1


def test_canonical_form():
    half_a, half_b = Cyclo(Fraction(2, 4)), Cyclo(Fraction(1, 2))
    assert half_a == half_b
    # values reached through arithmetic are reduced to the same form
    routes = [Cyclo(Fraction(1, 4)) + Cyclo(Fraction(1, 4)),
              Cyclo(Fraction(1, 6)) + Cyclo(Fraction(1, 3)),
              Cyclo(Fraction(1, 4)) * Cyclo(2),
              Cyclo(Fraction(3, 4)) + -Cyclo(Fraction(1, 4)),
              INV_SQRT2 * INV_SQRT2]
    for value in routes:
        assert value == HALF
        assert repr(value) == "Cyclo(Fraction(1, 2), Fraction(0, 1), " \
                              "Fraction(0, 1), Fraction(0, 1))"
    key = (0, 1, 0, 0)
    total = FormalScalar({key: half_a}) + FormalScalar({key: routes[2]})
    assert list(total.terms()) == [(key, ONE)]
    assert (FormalScalar({key: half_a})
            - FormalScalar({key: routes[0]})).is_zero()
    assert Cyclo(Fraction(1, 3)) * Cyclo(3) == ONE
    assert HALF + -HALF == ZERO


def test_constructor_types():
    assert Cyclo(True) == ONE
    for bad in (0.5, "1", None, 1j):
        with pytest.raises(TypeError):
            Cyclo(bad)
        with pytest.raises(TypeError):
            Cyclo(0, 0, 0, bad)


def test_guards_raise_under_optimize():
    """The subset_terms check survives -O."""
    code = "\n".join([
        "from doublepass import ito",
        "from doublepass.weyl import OpPoly",
        "ito.ItoDifferential.left_mul = lambda self, acc: acc",
        "dx = ito.ItoDifferential(ca=OpPoly.one())",
        "try:",
        "    ito.subset_terms([(OpPoly.x(), dx)])",
        "except TypeError:",
        "    print('subset_terms raised')",
    ])
    res = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "subset_terms raised\n"
