"""Exact scalar arithmetic for the symbolic layer.

Coefficients live in the number field Q(i, sqrt(2)).  A :class:`Cyclo` holds
``(a + b*i + c*sqrt2 + d*i*sqrt2) / den`` as four Python-int numerators over
one positive int denominator.  Every result is divided by
``gcd(a, b, c, d, den)``, so the form is canonical: equal values have equal
tuples, and ``+``, ``*``, negation and conjugation do int arithmetic only.
The rational parts ``ra``..``rd`` are read as :class:`~fractions.Fraction`.
On top of that, :class:`FormalScalar` is a multivariate polynomial over the
field in the three formal symbols ``a`` (coupling strength), ``k`` and
``l`` (transform variables).  It and the operator polynomial
:class:`~doublepass.weyl.OpPoly` share one sparse-dictionary core,
:class:`SparsePoly`.  Everything here is exact; floating point only enters
through :meth:`FormalScalar.evaluate_real`, in real arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from math import sqrt as _float_sqrt
from typing import Iterator, Mapping, Union

import numpy as np

RationalLike = Union[int, Fraction]

_SQRT2 = _float_sqrt(2.0)


def _num_den(x: RationalLike) -> tuple[int, int]:
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Cyclo:
    """An element of Q(i, sqrt2), represented exactly.

    The value is ``ra + rb*i + rc*sqrt2 + rd*i*sqrt2`` with all four parts
    rational, stored as ``_v = (a, b, c, d, den)``: ``ra == a/den`` and so
    on, ``den > 0`` and ``gcd(a, b, c, d, den) == 1``.  The class is
    immutable; arithmetic returns new instances.
    """

    __slots__ = ("_v",)

    def __init__(self, ra: RationalLike = 0, rb: RationalLike = 0,
                 rc: RationalLike = 0, rd: RationalLike = 0) -> None:
        parts = [_num_den(r) for r in (ra, rb, rc, rd)]
        den = lcm(*(q for _, q in parts))
        # over the lcm of reduced denominators the tuple is already reduced
        _set_v(self, tuple(n * (den // q) for n, q in parts) + (den,))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Cyclo is immutable")

    @property
    def ra(self) -> Fraction:
        return Fraction(self._v[0], self._v[4])

    @property
    def rb(self) -> Fraction:
        return Fraction(self._v[1], self._v[4])

    @property
    def rc(self) -> Fraction:
        return Fraction(self._v[2], self._v[4])

    @property
    def rd(self) -> Fraction:
        return Fraction(self._v[3], self._v[4])

    def __add__(self, other: "Cyclo") -> "Cyclo":
        a1, b1, c1, d1, e1 = self._v
        a2, b2, c2, d2, e2 = other._v
        if e1 == e2:
            return _reduced(a1 + a2, b1 + b2, c1 + c2, d1 + d2, e1)
        return _reduced(a1 * e2 + a2 * e1, b1 * e2 + b2 * e1,
                        c1 * e2 + c2 * e1, d1 * e2 + d2 * e1, e1 * e2)

    def __neg__(self) -> "Cyclo":
        a, b, c, d, e = self._v
        return _make((-a, -b, -c, -d, e))

    def __mul__(self, other: "Cyclo") -> "Cyclo":
        a1, b1, c1, d1, e1 = self._v
        a2, b2, c2, d2, e2 = other._v
        # i*i = -1, sqrt2*sqrt2 = 2, (i*sqrt2)^2 = -2
        return _reduced(
            a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
            e1 * e2,
        )

    def conjugate(self) -> "Cyclo":
        """Complex conjugation (i -> -i; sqrt2 is real)."""
        a, b, c, d, e = self._v
        return _make((a, -b, c, -d, e))

    def is_zero(self) -> bool:
        v = self._v
        return not (v[0] or v[1] or v[2] or v[3])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cyclo):
            return NotImplemented
        return self._v == other._v

    def __float__(self) -> float:
        a, b, c, d, e = self._v
        if b or d:
            raise ValueError(f"{self} is not real")
        return a / e + _SQRT2 * (c / e)     # int / int is correctly rounded

    # -- printing ---------------------------------------------------------

    def _parts(self) -> list[tuple[int, str]]:
        parts = (self.ra, self.rb, self.rc, self.rd)
        return [(-1 if r < 0 else 1, _unit_part(abs(r), unit))
                for r, unit in zip(parts, ("", "i", "sqrt2", "i*sqrt2")) if r]

    def is_single_part(self) -> bool:
        return sum(bool(n) for n in self._v[:4]) <= 1

    def sign_split(self) -> tuple[int, "Cyclo"]:
        """Return (sign, magnitude) for single-part values, (+1, self) else."""
        if self.is_single_part() and min(self._v[:4]) < 0:
            return -1, -self
        return 1, self

    def __str__(self) -> str:
        return _signed_sum(self._parts())

    def __repr__(self) -> str:
        return f"Cyclo({self.ra!r}, {self.rb!r}, {self.rc!r}, {self.rd!r})"


_set_v = Cyclo._v.__set__
_new = object.__new__


def _make(v: tuple[int, int, int, int, int]) -> Cyclo:
    """Wrap an already reduced ``(a, b, c, d, den)`` tuple."""
    out = _new(Cyclo)
    _set_v(out, v)
    return out


def _reduced(a: int, b: int, c: int, d: int, den: int) -> Cyclo:
    """Canonical Cyclo of ``(a + b*i + c*sqrt2 + d*i*sqrt2) / den``, den > 0."""
    g = gcd(a, b, c, d, den)
    if g != 1:
        a //= g
        b //= g
        c //= g
        d //= g
        den //= g
    return _make((a, b, c, d, den))


def _unit_part(r: Fraction, unit: str) -> str:
    """``r`` times ``unit`` for ``r > 0``; the bare ``r`` for the unit ``""``."""
    if not unit:
        return str(r)
    return unit if r == 1 else f"{r}*{unit}"


def _signed_sum(pieces: list[tuple[int, str]]) -> str:
    """Join ``(sign, body)`` terms as ``a - b + c``; no terms print as 0."""
    if not pieces:
        return "0"
    sign, body = pieces[0]
    text = ("-" if sign < 0 else "") + body
    for sign, body in pieces[1:]:
        text += (" - " if sign < 0 else " + ") + body
    return text


ZERO = Cyclo()
ONE = Cyclo(1)
I = Cyclo(0, 1)
MINUS_I = Cyclo(0, -1)
HALF = Cyclo(Fraction(1, 2))
INV_SQRT2 = Cyclo(0, 0, Fraction(1, 2))        # 1/sqrt2 == sqrt2/2
I_INV_SQRT2 = Cyclo(0, 0, 0, Fraction(1, 2))   # i/sqrt2


class SparsePoly:
    """A sparse polynomial: a table from exponent keys to nonzero coefficients.

    Zero coefficients are dropped, so two values are equal iff they have the
    same class and the same table.  Subclasses give the constant key
    ``_CONST``, the zero coefficient ``_ZERO_COEFF``, the symbol names
    ``SYMBOLS``, their product, ``scale`` and the one-term printer ``_term``.
    The class is immutable; arithmetic returns new instances.
    """

    __slots__ = ("_terms",)

    _CONST: tuple[int, ...]
    _ZERO_COEFF: object
    SYMBOLS: tuple[str, ...]

    def __init__(self, terms: Mapping | None = None) -> None:
        clean = {}
        if terms:
            for key, coeff in terms.items():
                if not coeff.is_zero():
                    clean[tuple(key)] = coeff
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls()

    def terms(self) -> Iterator[tuple]:
        return iter(sorted(self._terms.items()))

    def __add__(self, other):
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            cur = out.get(key)
            out[key] = coeff if cur is None else cur + coeff
        return type(self)(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)({k: -c for k, c in self._terms.items()})

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(key == self._CONST for key in self._terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self._terms.get(self._CONST, self._ZERO_COEFF)

    def __eq__(self, other: object) -> bool:
        # type-strict: a zero scalar is not a zero operator
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def _monomial(self, key: tuple[int, ...]) -> str:
        """``name^exp`` factors of one key joined by ``*``; ``""`` if none."""
        return "*".join(name if exp == 1 else f"{name}^{exp}"
                        for name, exp in zip(self.SYMBOLS, key) if exp)

    def __str__(self) -> str:
        return _signed_sum([self._term(k, c) for k, c in self.terms()])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


ExpKey = tuple[int, int, int]


class FormalScalar(SparsePoly):
    """Exact polynomial in the symbols (a, k, l) over Q(i, sqrt2).

    The table maps exponent tuples to nonzero :class:`Cyclo` coefficients.
    """

    SYMBOLS = ("a", "k", "l")

    __slots__ = ()

    _CONST = (0, 0, 0)
    _ZERO_COEFF = ZERO

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, value: Cyclo | RationalLike) -> "FormalScalar":
        coeff = value if isinstance(value, Cyclo) else Cyclo(value)
        return cls({cls._CONST: coeff})

    @classmethod
    def one(cls) -> "FormalScalar":
        return cls.const(ONE)

    @classmethod
    def symbol(cls, name: str) -> "FormalScalar":
        idx = cls.SYMBOLS.index(name)
        key = tuple(int(j == idx) for j in range(len(cls.SYMBOLS)))
        return cls({key: ONE})

    # -- ring operations --------------------------------------------------

    def __mul__(self, other: "FormalScalar") -> "FormalScalar":
        out: dict[ExpKey, Cyclo] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                key = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                prod = c1 * c2
                cur = out.get(key)
                out[key] = prod if cur is None else cur + prod
        return FormalScalar(out)

    def __pow__(self, n: int) -> "FormalScalar":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        out = FormalScalar.one()
        for _ in range(n):
            out = out * self
        return out

    def scale(self, coeff: Cyclo) -> "FormalScalar":
        if coeff.is_zero():
            return FormalScalar.zero()
        return FormalScalar({k: c * coeff for k, c in self._terms.items()})

    def conjugate(self) -> "FormalScalar":
        """Complex conjugation; the formal symbols are treated as real."""
        return FormalScalar({k: c.conjugate() for k, c in self._terms.items()})

    def degree_kl(self) -> int:
        """Total degree in the (k, l) pair."""
        return max((key[1] + key[2] for key in self._terms), default=0)

    # -- numerics ---------------------------------------------------------

    def l_coefficient(self, n: int) -> "FormalScalar":
        """The exact coefficient of ``l^n``, a polynomial in a and k."""
        return FormalScalar({(ea, ek, 0): c for (ea, ek, el), c
                             in self._terms.items() if el == n})

    def evaluate_real(self, a=0.0, k=0.0, l=0.0):
        """Substitute floats or NumPy arrays for the symbols; real arithmetic.

        ``ValueError`` if a coefficient has an imaginary part (checked
        exactly, whatever the point) or if the value is not finite anywhere.
        """
        total = 0.0
        try:
            with np.errstate(all="ignore"):     # an overflow raises below
                for (ea, ek, el), coeff in self._terms.items():
                    total += float(coeff) * ((a ** ea) * (k ** ek) * (l ** el))
        except OverflowError:   # float ** int raises where NumPy gives inf
            total = np.inf
        if not np.isfinite(total).all():
            raise ValueError(f"{self} is not real and finite at a={a}, k={k},"
                             f" l={l}: {total}")
        return total

    # -- printing ---------------------------------------------------------

    def _term(self, key: ExpKey, coeff: Cyclo) -> tuple[int, str]:
        sign, mag = coeff.sign_split()
        sym_part = self._monomial(key)
        mag_str = str(mag)
        if not mag.is_single_part():
            mag_str = f"({mag_str})"
        if not sym_part:
            return sign, mag_str
        if mag == ONE:
            return sign, sym_part
        if mag_str not in ("i", "sqrt2", "i*sqrt2") and "/" in mag_str:
            mag_str = f"({mag_str})"
        return sign, f"{mag_str}*{sym_part}"


SYM_ALPHA = FormalScalar.symbol("a")
SYM_K = FormalScalar.symbol("k")
SYM_L = FormalScalar.symbol("l")
