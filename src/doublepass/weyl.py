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

from .scalars import Cyclo, FormalScalar, I, MINUS_I, SparsePoly

AXIS_X = "x"
AXIS_P = "p"

MonoKey = tuple[int, int]

_MINUS_I_POWERS = (Cyclo(1), MINUS_I, Cyclo(-1), I)


class FragmentError(ValueError):
    """Raised for expressions outside the supported algebra fragment."""


class OpPoly(SparsePoly):
    """Normal-ordered polynomial in x and p with exact coefficients.

    The coefficient table maps exponent pairs ``(m, n)`` -- the monomial
    ``x^m p^n`` -- to :class:`FormalScalar`.
    """

    SYMBOLS = ("x", "p")

    __slots__ = ()

    _CONST = (0, 0)
    _ZERO_COEFF = FormalScalar.zero()

    # -- constructors -----------------------------------------------------

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
        if not isinstance(coeff, FormalScalar):
            coeff = FormalScalar.const(coeff)
        return cls({(m, n): coeff})

    @classmethod
    def const(cls, coeff: FormalScalar | Cyclo | int) -> "OpPoly":
        return cls.monomial(0, 0, coeff)

    # -- structure --------------------------------------------------------

    def coefficient(self, m: int, n: int) -> FormalScalar:
        return self._terms.get((m, n), self._ZERO_COEFF)

    def scale(self, coeff: FormalScalar | Cyclo) -> "OpPoly":
        if isinstance(coeff, Cyclo):
            coeff = FormalScalar.const(coeff)
        return OpPoly({k: c * coeff for k, c in self._terms.items()})

    def degree(self) -> int:
        return max((m + n for (m, n) in self._terms), default=0)

    def is_hermitian(self) -> bool:
        return self == adjoint(self)

    # -- printing ---------------------------------------------------------

    def _term(self, key: MonoKey, coeff: FormalScalar) -> tuple[int, str]:
        if len(coeff._terms) == 1:
            sign, body = coeff._term(*next(iter(coeff._terms.items())))
        else:
            sign, body = 1, f"({coeff})"
        mono = self._monomial(key)
        if mono:
            body = mono if body == "1" else f"{body}*{mono}"
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
        """Rewrite poly * exp(i*lam*axis) as exp(i*lam*axis) * result.

        Under exp(i*lam*p), x -> x - lam; under exp(i*lam*x), p -> p + lam.
        """
        # index of the shifted exponent in (m, n), and the shift itself
        own, shift = (0, -self.lam) if self.axis == AXIS_P else (1, self.lam)
        out: dict[MonoKey, FormalScalar] = {}
        for key, coeff in poly._terms.items():
            e = key[own]
            for j in range(e + 1):
                contrib = coeff * (shift ** (e - j)).scale(
                    Cyclo(comb(e, j)))
                new = (j, key[1]) if own == 0 else (key[0], j)
                cur = out.get(new)
                out[new] = contrib if cur is None else cur + contrib
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

    def is_zero(self) -> bool:
        return self.post.is_zero()
