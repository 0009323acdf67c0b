"""Ito-table products, the subset rule, flows, series product, transport."""

import random
from fractions import Fraction

import pytest

from doublepass.ito import (FAMILY_F, FAMILY_G, HPSystem, ItoDifferential,
                            PdeCoefficients,
                            char_fn_generator, double_pass_system,
                            flow_differential, ito_product, lindblad,
                            output_commutator_rate,
                            output_quadrature_relations, series_product,
                            single_pass_systems, subset_terms)
from doublepass.scalars import (Cyclo, FormalScalar, HALF, I, INV_SQRT2,
                                MINUS_I, SYM_ALPHA, SYM_K, SYM_L)
from doublepass.weyl import (AXIS_P, FragmentError, OpPoly, WeylTerm,
                             adjoint, mul)

X = OpPoly.x()
P = OpPoly.p()
ONE_OP = OpPoly.one()
ALPHA = SYM_ALPHA
QUARTER = Cyclo(Fraction(1, 4))


def rand_poly(rng, max_deg=2, span=2):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        m = rng.randint(0, max_deg)
        n = rng.randint(0, max_deg - m)
        terms[(m, n)] = FormalScalar.const(
            Cyclo(rng.randint(-span, span), rng.randint(-span, span)))
    return OpPoly(terms)


def rand_differential(rng):
    return ItoDifferential(rand_poly(rng), rand_poly(rng), rand_poly(rng))


# -- Ito table ----------------------------------------------------------------


def test_table_da_dastar_is_dt():
    da = ItoDifferential(ca=ONE_OP)
    dastar = ItoDifferential(castar=ONE_OP)
    out = ito_product(da, dastar)
    assert out.ca.is_zero() and out.castar.is_zero()
    assert out.ct == ONE_OP


def test_table_zero_entries():
    da = ItoDifferential(ca=ONE_OP)
    dastar = ItoDifferential(castar=ONE_OP)
    dt = ItoDifferential(ct=ONE_OP)
    assert ito_product(dastar, da) == ItoDifferential()
    assert ito_product(da, da) == ItoDifferential()
    assert ito_product(dt, da) == ItoDifferential()
    assert ito_product(dastar, dt) == ItoDifferential()


def test_table_general_product():
    rng = random.Random(42)
    dx = rand_differential(rng)
    dy = rand_differential(rng)
    out = ito_product(dx, dy)
    assert out.ct == mul(dx.ca, dy.castar)
    assert out.ca.is_zero() and out.castar.is_zero()


# -- subset rule ---------------------------------------------------------------


def test_subset_pair_matches_product_rule():
    rng = random.Random(9)
    xv, yv = rand_poly(rng), rand_poly(rng)
    dx, dy = rand_differential(rng), rand_differential(rng)
    total = sum((term for _, term in subset_terms([(xv, dx), (yv, dy)])),
                ItoDifferential())
    manual = dy.left_mul(xv) + dx.right_mul(yv) + ito_product(dx, dy)
    assert total.ca == manual.ca
    assert total.castar == manual.castar
    assert total.ct == manual.ct


def test_subset_triple_has_seven_terms():
    rng = random.Random(10)
    factors = [(rand_poly(rng), rand_differential(rng)) for _ in range(3)]
    terms = subset_terms(factors)
    labels = [subset for subset, _ in terms]
    assert labels == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


def test_triple_increment_vanishes():
    rng = random.Random(11)
    factors = [(rand_poly(rng), rand_differential(rng)) for _ in range(3)]
    (_, triple), = [t for t in subset_terms(factors) if t[0] == (0, 1, 2)]
    assert triple == ItoDifferential()


# -- system construction --------------------------------------------------------


def expected_double_pass():
    lop = (P - X.scale(I)).scale(ALPHA).scale(INV_SQRT2)
    h = (mul(P, X) + mul(X, P)).scale(ALPHA * ALPHA).scale(QUARTER)
    return lop, h


def test_hamiltonian_must_be_hermitian():
    with pytest.raises(ValueError):
        HPSystem(L=P, H=X.scale(I))


def test_series_product_double_pass():
    sysd = double_pass_system()
    lop, h = expected_double_pass()
    assert sysd.L == lop
    assert sysd.H == h


def test_series_product_identity_composition():
    idle = HPSystem(OpPoly.zero(), OpPoly.zero())
    first, second = single_pass_systems()
    for sys in (first, second, double_pass_system()):
        assert series_product(idle, sys) == sys
        assert series_product(sys, idle) == sys


def test_series_product_swapped_order_flips_h():
    first, second = single_pass_systems()
    swapped = series_product(second, first)
    lop, h = expected_double_pass()
    assert swapped.L == lop
    assert swapped.H == -h


def rand_linear_system(rng):
    lop = (X.scale(FormalScalar.const(Cyclo(rng.randint(-2, 2),
                                            rng.randint(-2, 2))))
           + P.scale(FormalScalar.const(Cyclo(rng.randint(-2, 2),
                                              rng.randint(-2, 2)))))
    q = rand_poly(rng, max_deg=2)
    h = q + adjoint(q)
    return HPSystem(lop, h)


def test_series_product_associative_random():
    rng = random.Random(2718)
    for _ in range(10):
        s1, s2, s3 = (rand_linear_system(rng) for _ in range(3))
        left = series_product(series_product(s1, s2), s3)
        right = series_product(s1, series_product(s2, s3))
        assert left == right


# -- flows and Lindblad drifts ---------------------------------------------------


def test_flow_of_x():
    sysd = double_pass_system()
    d = flow_differential(sysd, X)
    minus_i_a = FormalScalar.const(Cyclo(0, 0, 0, Fraction(-1, 2))) * ALPHA
    assert d.ca == OpPoly.const(minus_i_a)             # -i a / sqrt2
    assert d.castar == OpPoly.const(-minus_i_a)
    assert d.ct.is_zero()


def test_flow_of_p():
    sysd = double_pass_system()
    d = flow_differential(sysd, P)
    minus_a = OpPoly.const(ALPHA.scale(Cyclo(0, 0, Fraction(-1, 2), 0)))
    assert d.ca == minus_a
    assert d.castar == minus_a
    assert d.ct == P.scale(-(ALPHA * ALPHA))


def test_flow_of_identity_is_zero():
    assert flow_differential(double_pass_system(), ONE_OP) == ItoDifferential()


def test_lindblad_values():
    sysd = double_pass_system()
    assert lindblad(sysd, X).is_zero()
    assert lindblad(sysd, P) == P.scale(-(ALPHA * ALPHA))
    assert lindblad(sysd, ONE_OP).is_zero()


def test_flow_drift_equals_lindblad_two_routes():
    sysd = double_pass_system()
    rng = random.Random(100)
    for z in (X, P, mul(X, X), mul(P, P), mul(X, P), rand_poly(rng, 3),
              rand_poly(rng, 3)):
        assert flow_differential(sysd, z).ct == lindblad(sysd, z)


def test_flow_closed_form_coefficients():
    sysd = double_pass_system()
    lop, lstar = sysd.L, adjoint(sysd.L)
    rng = random.Random(200)
    for z in (X, P, mul(X, P), rand_poly(rng, 3)):
        d = flow_differential(sysd, z)
        assert d.ca == mul(lstar, z) - mul(z, lstar)
        assert d.castar == mul(z, lop) - mul(lop, z)


def test_hermitian_flow_structure():
    sysd = double_pass_system()
    for z in (X, P, mul(X, X), (mul(X, P) + mul(P, X)).scale(HALF)):
        assert z.is_hermitian()
        d = flow_differential(sysd, z)
        assert d.ct.is_hermitian()
        assert d.ca == adjoint(d.castar)


def test_lindblad_weyl_exponential():
    sysd = double_pass_system()
    e = WeylTerm.exponential(AXIS_P, SYM_L)
    out = lindblad(sysd, e)
    a2 = ALPHA * ALPHA
    expected_post = (OpPoly.const((a2 * SYM_L * SYM_L).scale(
        Cyclo(Fraction(-1, 4))))
        + P.scale((a2 * SYM_L).scale(MINUS_I)))
    ct = flow_differential(sysd, e).ct
    for term in (out, ct):
        assert (term.axis, term.lam, term.post) == (
            AXIS_P, SYM_L, expected_post)


# -- input/output relations -------------------------------------------------------


def test_io_relations_exact():
    io = output_quadrature_relations(double_pass_system())
    one = FormalScalar.one()
    assert io.x_ph_out.terms == {"x_ph_in": one, "p_at_out": ALPHA}
    assert io.p_ph_out.terms == {"p_ph_in": one, "x_at_out": -ALPHA}
    assert io.dx_at_out.terms == {"p_ph_in": ALPHA}
    assert io.dp_at_out.terms == {"x_ph_in": -ALPHA,
                                  "p_at_out": -(ALPHA * ALPHA)}


def test_io_commutator_preserved():
    io = output_quadrature_relations(double_pass_system())
    assert output_commutator_rate(io) == FormalScalar.const(I)


def test_io_relations_decouple_without_coupling():
    io = output_quadrature_relations(HPSystem(OpPoly.zero(), OpPoly.zero()))
    one = FormalScalar.one()
    assert io.x_ph_out.terms == {"x_ph_in": one}
    assert io.p_ph_out.terms == {"p_ph_in": one}
    assert io.dx_at_out.terms == {}
    assert io.dp_at_out.terms == {}


# -- characteristic-function transport --------------------------------------------


def test_transport_family_f():
    pde = char_fn_generator(double_pass_system(), FAMILY_F)
    al_minus_k = ALPHA * SYM_L - SYM_K
    assert pde.c0 == -(al_minus_k * al_minus_k).scale(QUARTER)
    assert pde.c1 == -(ALPHA * al_minus_k)


def test_transport_family_g():
    pde = char_fn_generator(double_pass_system(), FAMILY_G)
    al_plus_k = ALPHA * SYM_L + SYM_K
    assert pde.c0 == -(al_plus_k * al_plus_k).scale(QUARTER)
    assert pde.c1 == -(ALPHA * SYM_K)


def test_transport_no_coupling():
    pde = char_fn_generator(HPSystem(OpPoly.zero(), OpPoly.zero()), FAMILY_F)
    assert pde.c0 == -(SYM_K * SYM_K).scale(QUARTER)
    assert pde.c1.is_zero()


def test_transport_rejects_nonlinear_coupling():
    bad = HPSystem(mul(X, X), OpPoly.zero())
    with pytest.raises(FragmentError):
        char_fn_generator(bad, FAMILY_F)


# -- derivation transcript ---------------------------------------------------------


def test_transcript_golden_lines():
    from doublepass.ito import derivation_report
    report = derivation_report()
    for line in (
        "L = (1/2*sqrt2)*a*p - (1/2*i*sqrt2)*a*x",
        "H = -(1/4*i)*a^2 + (1/2)*a^2*x*p",
        "  {1,2,3}: dA: 0; dA*: 0; dt: 0",
        "  total: dA: 1/2*sqrt2; dA*: 1/2*sqrt2; dt: a*p",
        "  x_ph_out = x_ph_in + (a)*p_at_out",
        "commutator rate: [x_ph_out, p_ph_out] = (i)*t",
        "lindblad(p) = -a^2*p",
        "family F: d/dt = (-(1/4)*k^2 + (1/2)*a*k*l - (1/4)*a^2*l^2)*F"
        " + (a*k - a^2*l)*dF/dl",
    ):
        assert line in report, line
    assert report == derivation_report()


def test_transport_coefficient_guard_is_an_exception():
    pde = char_fn_generator(double_pass_system(), FAMILY_F)
    assert pde.evaluate(1.0, 0.5, -0.25) == (-0.140625, 0.75)
    with pytest.raises(ValueError, match="not real"):
        pde.evaluate(float("nan"), 0.5, -0.25)
    # the check is FormalScalar.evaluate_real, shared with the moment ODEs
    imaginary = PdeCoefficients(FAMILY_F, pde.c0, pde.c1.scale(I))
    with pytest.raises(ValueError, match="not real"):
        imaginary.evaluate(1.0, 0.5, -0.25)
    with pytest.raises(ValueError, match="not real"):
        SYM_K.scale(I).evaluate_real(k=1.0)
    with pytest.raises(ValueError, match="not real"):
        SYM_K.evaluate_real(k=float("nan"))


def test_transport_parity_under_k_l_reflection():
    # FD steps only k >= 0 and mirrors: PdeCoefficients refuses a c0 that is
    # not even or a c1 that is not odd under (k, l) -> (-k, -l)
    pde = char_fn_generator(double_pass_system(), FAMILY_F)
    for c0, c1, name in ((SYM_K, pde.c1, "c0"), (pde.c0 + SYM_L, pde.c1, "c0"),
                         (pde.c0, SYM_K * SYM_L, "c1"),
                         (pde.c0, pde.c1 + FormalScalar.const(HALF), "c1")):
        with pytest.raises(FragmentError,
                           match=rf"^{name} = .* under \(k, l\)"):
            PdeCoefficients(FAMILY_F, c0, c1)
    # the derived equations pass the guard, with both coefficients nonzero
    for family in (FAMILY_F, FAMILY_G):
        pde = char_fn_generator(double_pass_system(), family)
        assert not pde.c0.is_zero() and not pde.c1.is_zero()
    # so does the pure-decay equation of
    # test_charfn.test_solvers_read_the_derived_equation: a zero c1 is odd
    decay = PdeCoefficients(FAMILY_F, (SYM_K * SYM_K).scale(-QUARTER),
                            FormalScalar.zero())
    assert decay.c1.is_zero()


def test_transport_advection_must_be_affine_in_l():
    # the method of characteristics writes its paths exactly only then
    pde = char_fn_generator(double_pass_system(), FAMILY_F)
    with pytest.raises(FragmentError, match="not affine in l"):
        PdeCoefficients(FAMILY_F, pde.c0, pde.c1 + SYM_L * SYM_L)
    assert PdeCoefficients(FAMILY_F, pde.c0, pde.c1 + SYM_K).c1 \
        == pde.c1 + SYM_K


def test_relations_record_the_expansion_they_sum():
    sysd = double_pass_system()
    io = output_quadrature_relations(sysd)
    for rel in io.all():
        assert [subset for subset, _ in rel.expansion] == [
            (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
        assert sum((term for _, term in rel.expansion),
                   ItoDifferential()) == rel.differential
    assert io.dx_at_out.differential == flow_differential(sysd, X)
    assert io.dp_at_out.differential == flow_differential(sysd, P)
