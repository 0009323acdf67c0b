"""Symbolic algebra for the canonical pair (x, p) with [x, p] = i.

Operators are normal-ordered polynomials: every monomial is written with all
x factors to the left of all p factors, so equality is a structural check on
the coefficient table.  A single Weyl exponential factor exp(i*lambda*x) or
exp(i*lambda*p) can be carried alongside a polynomial via :class:`WeylTerm`;
polynomial factors are pushed to the right of the exponential using the
conjugation rules

    x * exp(i*lam*p) = exp(i*lam*p) * (x - lam)
    p * exp(i*lam*x) = exp(i*lam*x) * (p + lam)

All coefficients are exact (:class:`~doublepass.scalars.FormalScalar`).
"""

from __future__ import annotations

from math import comb, factorial
from typing import Iterator, Mapping

from .scalars import Cyclo, FormalScalar, I, MINUS_I

AXIS_X = "x"
AXIS_P = "p"

MonoKey = tuple[int, int]

_MINUS_I_POWERS = (Cyclo(1), MINUS_I, Cyclo(-1), I)


class FragmentError(ValueError):
    """Raised for expressions outside the supported algebra fragment."""


class OpPoly:
    """Normal-ordered polynomial in x and p with exact coefficients.

    The coefficient table maps exponent pairs ``(m, n)`` -- the monomial
    ``x^m p^n`` -- to :class:`FormalScalar`.  Zero coefficients are dropped,
    so two polynomials are equal iff their tables are equal.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[MonoKey, FormalScalar] | None = None):
        clean: dict[MonoKey, FormalScalar] = {}
        if terms:
            for key, coeff in terms.items():
                if not coeff.is_zero():
                    clean[tuple(key)] = coeff
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("OpPoly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "OpPoly":
        return cls()

    @classmethod
    def one(cls) -> "OpPoly":
        return cls({(0, 0): FormalScalar.one()})

    @classmethod
    def x(cls) -> "OpPoly":
        return cls({(1, 0): FormalScalar.one()})

    @classmethod
    def p(cls) -> "OpPoly":
        return cls({(0, 1): FormalScalar.one()})

    @classmethod
    def monomial(cls, m: int, n: int,
                 coeff: FormalScalar | Cyclo | int = 1) -> "OpPoly":
        if isinstance(coeff, FormalScalar):
            c = coeff
        elif isinstance(coeff, Cyclo):
            c = FormalScalar.const(coeff)
        else:
            c = FormalScalar.const(coeff)
        return cls({(m, n): c})

    @classmethod
    def const(cls, coeff: FormalScalar | Cyclo | int) -> "OpPoly":
        return cls.monomial(0, 0, coeff)

    # -- linear structure -------------------------------------------------

    def terms(self) -> Iterator[tuple[MonoKey, FormalScalar]]:
        return iter(sorted(self._terms.items()))

    def coefficient(self, m: int, n: int) -> FormalScalar:
        return self._terms.get((m, n), FormalScalar.zero())

    def __add__(self, other: "OpPoly") -> "OpPoly":
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            cur = out.get(key)
            out[key] = coeff if cur is None else cur + coeff
        return OpPoly(out)

    def __sub__(self, other: "OpPoly") -> "OpPoly":
        return self + (-other)

    def __neg__(self) -> "OpPoly":
        return OpPoly({k: -c for k, c in self._terms.items()})

    def scale(self, coeff: FormalScalar | Cyclo) -> "OpPoly":
        if isinstance(coeff, Cyclo):
            coeff = FormalScalar.const(coeff)
        return OpPoly({k: c * coeff for k, c in self._terms.items()})

    # -- multiplicative structure ------------------------------------------

    def __mul__(self, other: "OpPoly") -> "OpPoly":
        return mul(self, other)

    def adjoint(self) -> "OpPoly":
        return adjoint(self)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self == OpPoly.one()

    def is_constant(self) -> bool:
        return all(key == (0, 0) for key in self._terms)

    def constant_value(self) -> FormalScalar:
        if not self.is_constant():
            raise ValueError(f"not a scalar multiple of identity: {self}")
        return self._terms.get((0, 0), FormalScalar.zero())

    def degree(self) -> int:
        return max((m + n for (m, n) in self._terms), default=0)

    def is_hermitian(self) -> bool:
        return self == self.adjoint()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OpPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset((k, hash(c)) for k, c in self._terms.items()))

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[tuple[int, str]] = []
        for (m, n), coeff in self.terms():
            mono = "*".join(
                part for part in (_power_str("x", m), _power_str("p", n)) if part
            )
            sign, body = _coeff_body(coeff)
            if mono:
                body = mono if body == "1" else f"{body}*{mono}"
            chunks.append((sign, body))
        sign, body = chunks[0]
        text = ("-" if sign < 0 else "") + body
        for sign, body in chunks[1:]:
            text += (" - " if sign < 0 else " + ") + body
        return text

    def __repr__(self) -> str:
        return f"OpPoly({self})"


def _power_str(sym: str, exp: int) -> str:
    if exp == 0:
        return ""
    if exp == 1:
        return sym
    return f"{sym}^{exp}"


def _coeff_body(coeff: FormalScalar) -> tuple[int, str]:
    """Render a FormalScalar coefficient as (sign, body-without-sign)."""
    terms = list(coeff.terms())
    if len(terms) != 1:
        return 1, f"({coeff})"
    sign, body = coeff._term_str(*terms[0])
    return sign, body


def mul(a: OpPoly, b: OpPoly) -> OpPoly:
    """Normal-ordered product of two polynomials.

    Uses the reordering identity
    ``p^n x^m = sum_j (-i)^j j! C(n,j) C(m,j) x^(m-j) p^(n-j)``.
    """
    out: dict[MonoKey, FormalScalar] = {}
    # reordering factors (j >= 1) of each (n1, m2) pair met in this product
    factors: dict[MonoKey, list[Cyclo]] = {}
    for (m1, n1), c1 in a._terms.items():
        for (m2, n2), c2 in b._terms.items():
            base = c1 * c2
            reorder = factors.get((n1, m2))
            if reorder is None:
                reorder = factors[(n1, m2)] = [
                    _MINUS_I_POWERS[j % 4]
                    * Cyclo(factorial(j) * comb(n1, j) * comb(m2, j))
                    for j in range(1, min(n1, m2) + 1)]
            for j in range(min(n1, m2) + 1):
                contrib = base if j == 0 else base.scale(reorder[j - 1])
                key = (m1 + m2 - j, n1 + n2 - j)
                cur = out.get(key)
                out[key] = contrib if cur is None else cur + contrib
    return OpPoly(out)


def adjoint(a: OpPoly) -> OpPoly:
    """Hermitian adjoint: conjugate coefficients and reorder p^n x^m terms."""
    out = OpPoly.zero()
    for (m, n), coeff in a._terms.items():
        reordered = mul(OpPoly.monomial(0, n), OpPoly.monomial(m, 0))
        out = out + reordered.scale(coeff.conjugate())
    return out


class WeylTerm:
    """A single-axis Weyl exponential times a polynomial postfactor.

    Canonical form is ``exp(i*lam*axis) * post`` with the identity prefactor:
    any polynomial multiplying from the left is pushed through the
    exponential.  Only one exponential axis per term is supported; mixing
    axes raises :class:`FragmentError`.
    """

    __slots__ = ("axis", "lam", "post")

    def __init__(self, axis: str, lam: FormalScalar, post: OpPoly):
        if axis not in (AXIS_X, AXIS_P):
            raise FragmentError(f"unsupported exponential axis {axis!r}")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "post", post)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("WeylTerm is immutable")

    @classmethod
    def exponential(cls, axis: str, lam: FormalScalar) -> "WeylTerm":
        return cls(axis, lam, OpPoly.one())

    # -- algebra ----------------------------------------------------------

    def _push_through(self, poly: OpPoly) -> OpPoly:
        """Rewrite poly * exp(i*lam*axis) as exp(i*lam*axis) * result."""
        out: dict[MonoKey, FormalScalar] = {}
        for (m, n), coeff in poly._terms.items():
            if self.axis == AXIS_P:
                # x -> x - lam, p unchanged
                for j in range(m + 1):
                    shift = ((-self.lam) ** (m - j)).scale(
                        Cyclo.rational(comb(m, j)))
                    key = (j, n)
                    contrib = coeff * shift
                    cur = out.get(key)
                    out[key] = contrib if cur is None else cur + contrib
            else:
                # p -> p + lam, x unchanged
                for j in range(n + 1):
                    shift = (self.lam ** (n - j)).scale(
                        Cyclo.rational(comb(n, j)))
                    key = (m, j)
                    contrib = coeff * shift
                    cur = out.get(key)
                    out[key] = contrib if cur is None else cur + contrib
        return OpPoly(out)

    def mul_left(self, poly: OpPoly) -> "WeylTerm":
        """poly * self, re-canonicalized."""
        return WeylTerm(self.axis, self.lam,
                        mul(self._push_through(poly), self.post))

    def mul_right(self, poly: OpPoly) -> "WeylTerm":
        """self * poly."""
        return WeylTerm(self.axis, self.lam, mul(self.post, poly))

    def scale(self, coeff: FormalScalar | Cyclo) -> "WeylTerm":
        return WeylTerm(self.axis, self.lam, self.post.scale(coeff))

    def __add__(self, other: "WeylTerm") -> "WeylTerm":
        if self.axis != other.axis or self.lam != other.lam:
            raise FragmentError(
                "cannot add Weyl terms with different exponential factors")
        return WeylTerm(self.axis, self.lam, self.post + other.post)

    def __neg__(self) -> "WeylTerm":
        return WeylTerm(self.axis, self.lam, -self.post)

    def adjoint(self) -> "WeylTerm":
        """Adjoint: lam -> -conj(lam), postfactor adjointed and pushed through."""
        flipped = WeylTerm.exponential(self.axis, -self.lam.conjugate())
        return flipped.mul_left(self.post.adjoint())

    def is_zero(self) -> bool:
        return self.post.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeylTerm):
            return NotImplemented
        return (self.axis == other.axis and self.lam == other.lam
                and self.post == other.post)

    def __hash__(self) -> int:
        return hash((self.axis, self.lam, self.post))

    def __str__(self) -> str:
        lam_str = str(self.lam) if self.lam.is_simple_symbol() else f"({self.lam})"
        head = f"exp(i*{lam_str}*{self.axis})"
        if self.post.is_one():
            return head
        return f"{head}*({self.post})"

    def __repr__(self) -> str:
        return f"WeylTerm({self})"
