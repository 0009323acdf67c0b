"""Quantum Ito calculus for a single vacuum field channel.

A system is an (L, H) pair driving the unitary QSDE

    dU = { -L* dA + L dA* - 1/2 L*L dt - i H dt } U

with identity scattering, so the Ito table keeps only dA dA* = dt.
Differentials are coefficient triples for (dA, dA*, dt).  Heisenberg flow
coefficients are stored in *argument form*: an operator Z' appearing in a
coefficient stands for the flow U* Z' U, which keeps the symbolic layer
finite-dimensional (no explicit unitary object is ever built).

The module derives, rather than hard-codes, the standard results: the
Lindblad drift of a flow, the series product of two cascaded systems, the
input/output relations of the accumulated field quadratures, and the
transport equations satisfied by the joint characteristic functions of the
double-pass model.  Every I/O relation and transport equation is one
expansion of the triple (U*, Z, U) by the subset rule
(:func:`flow_differential`).  :func:`double_pass_derivation` derives them
once per process; the moment equations, the transport solvers, ``compare``
and the transcript (:func:`derivation_report`) read what it recorded.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType
from typing import Mapping, Sequence, Union

from .scalars import (Cyclo, FormalScalar, HALF, I, INV_SQRT2, I_INV_SQRT2,
                      MINUS_I, SYM_ALPHA, SYM_K, SYM_L)
from .weyl import (AXIS_P, AXIS_X, FragmentError, OpPoly, WeylTerm, adjoint,
                   mul)

AlgebraElement = Union[OpPoly, WeylTerm]

_ZERO = OpPoly.zero()
_ONE = OpPoly.one()
_MINUS_HALF = Cyclo(-1) * HALF


def alg_add(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if isinstance(a, OpPoly) and isinstance(b, OpPoly):
        return a + b
    if isinstance(a, WeylTerm) and isinstance(b, WeylTerm):
        return a + b
    raise FragmentError("cannot add a polynomial to a Weyl exponential term")


def alg_mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    if a.is_zero() or b.is_zero():
        return _ZERO
    if isinstance(a, OpPoly):
        if isinstance(b, OpPoly):
            return mul(a, b)
        return b.mul_left(a)
    if isinstance(b, OpPoly):
        return a.mul_right(b)
    raise FragmentError("products of two Weyl exponentials are unsupported")


@dataclass(frozen=True)
class ItoDifferential:
    """Coefficient triple (dA, dA*, dt) of a stochastic differential."""

    # a factory: OpPoly is unhashable, so dataclass refuses it as a default
    ca: AlgebraElement = field(default_factory=OpPoly.zero)
    castar: AlgebraElement = field(default_factory=OpPoly.zero)
    ct: AlgebraElement = field(default_factory=OpPoly.zero)

    def __add__(self, other: "ItoDifferential") -> "ItoDifferential":
        return ItoDifferential(alg_add(self.ca, other.ca),
                               alg_add(self.castar, other.castar),
                               alg_add(self.ct, other.ct))

    def left_mul(self, op: AlgebraElement) -> "ItoDifferential":
        """Multiply every coefficient by an adapted operator on the left."""
        return ItoDifferential(alg_mul(op, self.ca),
                               alg_mul(op, self.castar),
                               alg_mul(op, self.ct))

    def right_mul(self, op: AlgebraElement) -> "ItoDifferential":
        return ItoDifferential(alg_mul(self.ca, op),
                               alg_mul(self.castar, op),
                               alg_mul(self.ct, op))

    def __str__(self) -> str:
        return f"dA: {self.ca}; dA*: {self.castar}; dt: {self.ct}"


def ito_product(dx: ItoDifferential, dy: ItoDifferential) -> ItoDifferential:
    """Product of two differentials under the vacuum Ito table.

    Only the dA (left) times dA* (right) entry survives and contributes dt;
    products involving an existing dt coefficient vanish.
    """
    return ItoDifferential(ct=alg_mul(dx.ca, dy.castar))


Factor = tuple[AlgebraElement, ItoDifferential]
#: one subset term of an expansion: (factor indices, differential)
Term = tuple[tuple[int, ...], ItoDifferential]


def subset_terms(factors: Sequence[Factor]) -> list[Term]:
    """All nonempty-subset terms of d(Z_1 ... Z_p), in (size, lex) order.

    For a subset nu, the term keeps factor order, replacing each factor in nu
    by its differential; differential-differential products go through the
    Ito table, so terms with three or more increments vanish automatically.
    """
    if not factors:
        raise ValueError("need at least one factor")
    indices = range(len(factors))
    out = []
    for size in range(1, len(factors) + 1):
        for subset in combinations(indices, size):
            chosen = set(subset)
            acc: AlgebraElement | ItoDifferential = _ONE
            for idx, (value, diff) in enumerate(factors):
                if idx in chosen:
                    if isinstance(acc, ItoDifferential):
                        acc = ito_product(acc, diff)
                    else:
                        acc = diff.left_mul(acc)
                else:
                    if isinstance(acc, ItoDifferential):
                        acc = acc.right_mul(value)
                    else:
                        acc = alg_mul(acc, value)
            if not isinstance(acc, ItoDifferential):
                raise TypeError(f"subset {subset} left no differential: "
                                f"{type(acc).__name__}")
            out.append((subset, acc))
    return out


@dataclass(frozen=True)
class HPSystem:
    """An (L, H) pair defining one vacuum-channel QSDE (identity scattering)."""

    L: OpPoly
    H: OpPoly

    def __post_init__(self):
        if not self.H.is_hermitian():
            raise ValueError("Hamiltonian must be Hermitian")

    def generator(self) -> ItoDifferential:
        """Coefficients of dU = {...} U, in argument form."""
        ls = adjoint(self.L)
        drift = mul(ls, self.L).scale(_MINUS_HALF) + self.H.scale(MINUS_I)
        return ItoDifferential(ca=-ls, castar=self.L, ct=drift)

    def generator_adjoint(self) -> ItoDifferential:
        """Coefficients of dU* = U* {...}."""
        ls = adjoint(self.L)
        drift = mul(ls, self.L).scale(_MINUS_HALF) + self.H.scale(I)
        return ItoDifferential(ca=ls, castar=-self.L, ct=drift)


def single_pass_systems() -> tuple[HPSystem, HPSystem]:
    """The two one-pass Faraday couplings: L1 = a*p/sqrt2, L2 = -i*a*x/sqrt2."""
    l1 = OpPoly.p().scale(SYM_ALPHA).scale(INV_SQRT2)
    l2 = OpPoly.x().scale(SYM_ALPHA).scale(INV_SQRT2).scale(MINUS_I)
    return HPSystem(l1, OpPoly.zero()), HPSystem(l2, OpPoly.zero())


def series_product(first: HPSystem, second: HPSystem) -> HPSystem:
    """Compose two systems fed by the same field in sequence (first, then second).

    Derived by expanding the one-step product (I + dM2)(I + dM1) with the Ito
    table and matching the result back to canonical (L, H) form.
    """
    g1 = first.generator()
    g2 = second.generator()
    combined = g1 + g2 + ito_product(g2, g1)
    l_new = combined.castar
    drift = combined.ct
    # drift == -1/2 L*L - iH  =>  H = i*(drift + 1/2 L*L)
    h_new = (drift + mul(adjoint(l_new), l_new).scale(HALF)).scale(I)
    if combined.ca != -adjoint(l_new):
        raise FragmentError("combined generator is not of canonical form")
    return HPSystem(l_new, h_new)


def double_pass_system() -> HPSystem:
    """Series composition of the two single-pass systems (pass 1 first)."""
    first, second = single_pass_systems()
    return series_product(first, second)


_NO_INCREMENT = ItoDifferential()


def _flow_expansion(sys: HPSystem, z: AlgebraElement, dz: ItoDifferential,
                    ) -> tuple[tuple[Term, ...], ItoDifferential]:
    """Subset terms of d(U* Z U) and their sum.

    The triple (U*, Z, U) is expanded against the QSDE generators, with
    ``dz`` the increment of Z itself (zero for an atomic operator).  This is
    the one place a flow is expanded.
    """
    terms = tuple(subset_terms([(_ONE, sys.generator_adjoint()), (z, dz),
                                (_ONE, sys.generator())]))
    total = _NO_INCREMENT
    for _, term in terms:
        total = total + term
    return terms, total


def flow_differential(sys: HPSystem, z: AlgebraElement,
                      dz: ItoDifferential = _NO_INCREMENT) -> ItoDifferential:
    """Differential of the Heisenberg flow U* Z U, by the subset rule.

    The resulting coefficients are in argument form.  The closed forms
    cA = [L*, Z], cA* = [Z, L], ct = Lindblad(Z) of an atomic Z (``dz``
    zero) are checked in tests, not assumed here.
    """
    return _flow_expansion(sys, z, dz)[1]


def lindblad(sys: HPSystem, z: AlgebraElement) -> AlgebraElement:
    """Lindblad drift -1/2 {L*L, Z} + i [H, Z] + L* Z L, computed directly.

    Independent of :func:`flow_differential`; equality of the two routes is a
    tested invariant.
    """
    ls = adjoint(sys.L)
    lsl = mul(ls, sys.L)
    anti = alg_add(alg_mul(lsl, z), alg_mul(z, lsl))
    comm = alg_add(alg_mul(sys.H, z), alg_mul(z, sys.H).scale(Cyclo(-1)))
    sandwich = alg_mul(ls, alg_mul(z, sys.L))
    return alg_add(alg_add(anti.scale(_MINUS_HALF), comm.scale(I)), sandwich)


# ---------------------------------------------------------------------------
# Input/output relations of the accumulated field quadratures
# ---------------------------------------------------------------------------

# Increments of the accumulated input quadratures X = (A + A*)/sqrt2 and
# P = (A - A*)/(i*sqrt2); the accumulated operators themselves commute with
# every adapted atomic operator, so they never enter the coefficients.
_DX_IN = ItoDifferential(ca=OpPoly.const(INV_SQRT2),
                         castar=OpPoly.const(INV_SQRT2))
_DP_IN = ItoDifferential(ca=OpPoly.const(Cyclo(-1) * I_INV_SQRT2),
                         castar=OpPoly.const(I_INV_SQRT2))

RELATION_KEYS = ("x_ph_in", "p_ph_in", "x_at_out", "p_at_out", "const")


@dataclass(frozen=True)
class IORelation:
    """One derived relation: its subset expansion, their sum and its reading.

    ``expansion`` holds the subset terms of d(U* Z U) that sum to
    ``differential``.  ``terms`` maps the names in :data:`RELATION_KEYS` to
    exact coefficients; e.g. ``{"x_ph_in": 1, "p_at_out": a}`` reads
    "x_ph_out(t) = x_ph_in(t) + a * p_at_out(t)".  Zero coefficients are
    omitted.
    """

    name: str
    expansion: tuple[Term, ...]
    differential: ItoDifferential
    terms: dict[str, FormalScalar]

    def pretty(self) -> str:
        parts = []
        for key in RELATION_KEYS:
            coeff = self.terms.get(key)
            if coeff is None:
                continue
            if coeff == FormalScalar.one():
                parts.append(key if not parts else f"+ {key}")
            else:
                text = f"({coeff})*{key}" if key != "const" else f"({coeff})"
                parts.append(text if not parts else f"+ {text}")
        rhs = " ".join(parts) if parts else "0"
        return f"{self.name} = {rhs}"


@dataclass(frozen=True)
class IORelations:
    """The four input/output relations of one system, engine-derived."""

    x_ph_out: IORelation
    p_ph_out: IORelation
    dx_at_out: IORelation
    dp_at_out: IORelation

    def all(self) -> tuple[IORelation, ...]:
        return (self.x_ph_out, self.p_ph_out, self.dx_at_out, self.dp_at_out)


def _decompose_increments(d: ItoDifferential) -> dict[str, FormalScalar]:
    """Express scalar (cA, cA*) coefficients over the input quadrature pair."""
    ca = d.ca.constant_value()
    castar = d.castar.constant_value()
    u = (ca + castar).scale(INV_SQRT2)
    v = (castar - ca).scale(Cyclo(-1) * I_INV_SQRT2)
    out = {}
    if not u.is_zero():
        out["x_ph_in"] = u
    if not v.is_zero():
        out["p_ph_in"] = v
    return out


def _decompose_drift(drift: OpPoly) -> dict[str, FormalScalar]:
    """Express a degree<=1 drift over {1, x_at_out, p_at_out}."""
    if drift.degree() > 1:
        raise FragmentError(f"drift is not linear: {drift}")
    out = {}
    cx = drift.coefficient(1, 0)
    cp = drift.coefficient(0, 1)
    c0 = drift.coefficient(0, 0)
    if not cx.is_zero():
        out["x_at_out"] = cx
    if not cp.is_zero():
        out["p_at_out"] = cp
    if not c0.is_zero():
        out["const"] = c0
    return out


def _relation(name: str, sys: HPSystem, z: AlgebraElement,
              dz: ItoDifferential) -> IORelation:
    expansion, d = _flow_expansion(sys, z, dz)
    terms = _decompose_increments(d)
    terms.update(_decompose_drift(d.ct))
    return IORelation(name, expansion, d, terms)


def output_quadrature_relations(sys: HPSystem) -> IORelations:
    """Derive the four input/output relations of the accumulated quadratures.

    The output quadratures are the flows of the accumulated input quadratures;
    differentiating the triple (U*, quadrature, U) by the subset rule, the
    terms that leave the quadrature undifferentiated carry the generator of
    d(U*U) and cancel (unitarity), which the expansion reproduces because the
    quadrature commutes with every coefficient.
    """
    return IORelations(
        x_ph_out=_relation("x_ph_out", sys, _ONE, _DX_IN),
        p_ph_out=_relation("p_ph_out", sys, _ONE, _DP_IN),
        dx_at_out=_relation("dx_at_out/dt", sys, OpPoly.x(), _NO_INCREMENT),
        dp_at_out=_relation("dp_at_out/dt", sys, OpPoly.p(), _NO_INCREMENT),
    )


def output_commutator_rate(io: IORelations) -> FormalScalar:
    """dt-rate of [x_ph_out, p_ph_out], so the commutator equals rate * t.

    The drift cross terms are commutators of atomic flows with accumulated
    field quadratures and vanish identically; what survives are the two Ito
    cross products of the increments.
    """
    dx, dp = io.x_ph_out.differential, io.p_ph_out.differential
    forward = ito_product(dx, dp).ct
    backward = ito_product(dp, dx).ct
    return (forward - backward).constant_value()


# ---------------------------------------------------------------------------
# Characteristic-function transport equations
# ---------------------------------------------------------------------------

FAMILY_F = "F"
FAMILY_G = "G"


@dataclass(frozen=True)
class PdeCoefficients:
    """Right-hand side d/dt = c0(k,l) * fn + c1(k,l) * d(fn)/dl."""

    family: str
    c0: FormalScalar
    c1: FormalScalar

    def __post_init__(self):
        if self.c0.degree_kl() > 2 or self.c1.degree_kl() > 2:
            raise FragmentError("transport coefficients exceed degree 2 in (k,l)")
        if not self.c1.l_coefficient(2).is_zero():  # MOC's exact paths
            raise FragmentError(f"advection {self.c1} is not affine in l")
        # c0 even and c1 odd under (k, l) -> (-k, -l): the solution is then
        # even, and FD steps only the rows with k >= 0
        for name, coeff, parity in (("c0", self.c0, 0), ("c1", self.c1, 1)):
            if any((ek + el) % 2 != parity
                   for (_, ek, el), _ in coeff.terms()):
                raise FragmentError(
                    f"{name} = {coeff} is not {('even', 'odd')[parity]}"
                    " under (k, l) -> (-k, -l)")

    def evaluate(self, alpha: float, k: float, l: float) -> tuple[float, float]:
        return (self.c0.evaluate_real(a=alpha, k=k, l=l),
                self.c1.evaluate_real(a=alpha, k=k, l=l))


def _field_exponential_differential(family: str) -> tuple[FormalScalar, ...]:
    """(dA, dA*, dt) scalars of the accumulated-quadrature Weyl exponential.

    Installed as a primitive rewrite: for exp(i*k*X_t) the increment expansion
    is i*k*(dA + dA*)/sqrt2 - (k^2/4) dt, and for exp(i*k*P_t) it is
    k*(dA - dA*)/sqrt2 - (k^2/4) dt; both follow from the normal-ordered
    factorization of the exponential and (dA)^2 = (dA*)^2 = 0.
    """
    k2 = (SYM_K * SYM_K).scale(Cyclo(Fraction(-1, 4)))
    if family == FAMILY_F:
        phi = SYM_K.scale(I_INV_SQRT2)
        return phi, phi, k2
    if family == FAMILY_G:
        phi = SYM_K.scale(INV_SQRT2)
        return phi, -phi, k2
    raise ValueError(f"unknown family {family!r}")


def char_fn_generator(sys: HPSystem, family: str) -> PdeCoefficients:
    """Derive the transport equation of the joint characteristic function.

    Family F pairs the atomic p axis with the accumulated X quadrature;
    family G pairs the atomic x axis with the accumulated P quadrature.  The
    subset rule is applied to (U*, Weyl-exponential pair, U), the vacuum
    expectation drops the increments, and the surviving Weyl coefficient is
    reduced using fn[Z * exp] = -i d(fn)/dl for Z the exponential's own axis.
    """
    if sys.L.degree() > 1 or sys.H.degree() > 2:
        raise FragmentError("supported fragment is linear L with quadratic H")
    axis = AXIS_P if family == FAMILY_F else AXIS_X
    zw = WeylTerm.exponential(axis, SYM_L)
    phi_a, phi_astar, phi_t = _field_exponential_differential(family)
    dmid = ItoDifferential(ca=zw.scale(phi_a), castar=zw.scale(phi_astar),
                           ct=zw.scale(phi_t))
    # the dA and dA* coefficients vanish in vacuum expectation
    drift = flow_differential(sys, zw, dmid).ct
    if not isinstance(drift, WeylTerm) or drift.axis != axis or drift.lam != SYM_L:
        raise FragmentError("drift left the single-exponential fragment")
    c0 = FormalScalar.zero()
    c1 = FormalScalar.zero()
    for (m, n), coeff in drift.post.terms():
        own = n if axis == AXIS_P else m
        other = m if axis == AXIS_P else n
        if other != 0 or own > 1:
            raise FragmentError(
                f"irreducible monomial x^{m} p^{n} in transport drift")
        if own == 0:
            c0 = c0 + coeff
        else:
            # fn[axis * exp(i*l*axis)] = -i d(fn)/dl
            c1 = c1 + coeff.scale(MINUS_I)
    return PdeCoefficients(family, c0, c1)


# ---------------------------------------------------------------------------
# The derivation, built once, and the paper's forms it must reproduce
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Derivation:
    """The double-pass system, its I/O relations and transport equations."""

    system: HPSystem
    io: IORelations
    transport: Mapping[str, PdeCoefficients]    # family -> coefficients

    def forms(self) -> dict[str, dict]:
        """The derived results, laid out as :data:`PAPER_FORMS`."""
        io_forms = {rel.name: rel.terms for rel in self.io.all()}
        io_forms["commutator_rate"] = output_commutator_rate(self.io)
        return {
            "series_product": {"L": self.system.L, "H": self.system.H},
            "io_relations": io_forms,
            "char_fn_generator": {family: (pde.c0, pde.c1)
                                  for family, pde in self.transport.items()},
        }


@functools.lru_cache(maxsize=1)
def double_pass_derivation() -> Derivation:
    """Derive the double-pass results once per process; all callers share them.

    Nothing is derived at import: the first call derives, later calls reuse.
    """
    sys = double_pass_system()
    return Derivation(sys, output_quadrature_relations(sys),
                      MappingProxyType({family: char_fn_generator(sys, family)
                                        for family in (FAMILY_F, FAMILY_G)}))


_X, _P = OpPoly.x(), OpPoly.p()
_QUARTER = Cyclo(Fraction(1, 4))
_F_ARG = SYM_ALPHA * SYM_L - SYM_K      # a*l - k
_G_ARG = SYM_ALPHA * SYM_L + SYM_K      # a*l + k

#: The paper's symbolic results, each declared once, grouped by the check
#: that compares them with :meth:`Derivation.forms`: L = a(p - ix)/sqrt2 and
#: H = a^2(px + xp)/4; the four I/O relations as term maps plus the rate of
#: [x_ph_out, p_ph_out]; the (c0, c1) transport coefficients of F and G.
PAPER_FORMS: dict[str, dict] = {
    "series_product": {
        "L": (_P - _X.scale(I)).scale(SYM_ALPHA).scale(INV_SQRT2),
        "H": (mul(_P, _X) + mul(_X, _P)).scale(
            (SYM_ALPHA * SYM_ALPHA).scale(_QUARTER)),
    },
    "io_relations": {
        "x_ph_out": {"x_ph_in": FormalScalar.one(), "p_at_out": SYM_ALPHA},
        "p_ph_out": {"p_ph_in": FormalScalar.one(), "x_at_out": -SYM_ALPHA},
        "dx_at_out/dt": {"p_ph_in": SYM_ALPHA},
        "dp_at_out/dt": {"x_ph_in": -SYM_ALPHA,
                         "p_at_out": -(SYM_ALPHA * SYM_ALPHA)},
        "commutator_rate": FormalScalar.const(I),
    },
    "char_fn_generator": {
        FAMILY_F: (-(_F_ARG * _F_ARG).scale(_QUARTER), -(SYM_ALPHA * _F_ARG)),
        FAMILY_G: (-(_G_ARG * _G_ARG).scale(_QUARTER), -(SYM_ALPHA * SYM_K)),
    },
}


# ---------------------------------------------------------------------------
# Derivation transcript
# ---------------------------------------------------------------------------


def derivation_report() -> str:
    """Deterministic plain-text transcript of the symbolic derivations.

    It formats :func:`double_pass_derivation`, including the subset
    expansion each I/O relation recorded, and expands nothing itself.
    """
    lines: list[str] = []
    first, second = single_pass_systems()
    derived = double_pass_derivation()
    sys, io = derived.system, derived.io
    lines.append("== single-pass systems ==")
    lines.append(f"pass 1: L = {first.L}; H = {first.H}")
    lines.append(f"pass 2: L = {second.L}; H = {second.H}")
    lines.append("== double-pass system (series product) ==")
    lines.append(f"L = {sys.L}")
    lines.append(f"H = {sys.H}")
    lines.append("== output quadrature relations ==")
    for rel, z in ((io.x_ph_out, "quadrature"), (io.p_ph_out, "quadrature"),
                   (io.dx_at_out, "x"), (io.dp_at_out, "p")):
        lines.append(f"-- {rel.name}: subset expansion of (U*, {z}, U) --")
        for subset, term in rel.expansion:
            label = "{" + ",".join(str(i + 1) for i in subset) + "}"
            lines.append(f"  {label}: {term}")
        lines.append(f"  total: {rel.differential}")
        lines.append(f"  {rel.pretty()}")
    lines.append(f"commutator rate: [x_ph_out, p_ph_out] = "
                 f"({output_commutator_rate(io)})*t")
    lines.append("== Lindblad drifts ==")
    for name, z in (("x", OpPoly.x()), ("p", OpPoly.p())):
        lines.append(f"lindblad({name}) = {lindblad(sys, z)}")
    lines.append("== characteristic-function transport equations ==")
    for family, pde in derived.transport.items():
        lines.append(f"family {family}: d/dt = ({pde.c0})*{family}"
                     f" + ({pde.c1})*d{family}/dl")
    return "\n".join(lines) + "\n"
