import random
from fractions import Fraction

import numpy as np
import pytest

from latrank import (
    ExactNormUnavailableError,
    FieldMismatchError,
    NotIntegralError,
    ReduciblePolynomialError,
    field_arith,
    intmat,
    make_field,
    trace_and_twisted_norm,
)
from latrank.numfield import (
    SingularBasisError,
    flatten_kvector,
    parse_field_file,
    rank_over_K,
)
from tests_support import from_integral_coords, k_rref


class TestMakeField:
    def test_rationals(self, QQ):
        assert QQ.degree == 1
        assert QQ.signature == (1, 0)
        assert QQ.discriminant == 1

    def test_gaussian(self, Qi):
        assert Qi.degree == 2
        assert Qi.signature == (0, 1)
        assert Qi.discriminant == -4

    def test_sqrt5_with_integral_basis(self, Qs5):
        assert Qs5.signature == (2, 0)
        assert Qs5.discriminant == 5
        assert Qs5.monogenic_index == 2

    def test_sqrt5_power_basis_has_order_discriminant(self):
        K = make_field([-5, 0, 1])
        assert K.discriminant == 20

    def test_reducible_rejected(self):
        with pytest.raises(ReduciblePolynomialError):
            make_field([-1, 0, 1])    # x^2 - 1
        with pytest.raises(ReduciblePolynomialError):
            make_field([4, 0, 0, 0, 1])   # x^4 + 4 = (x^2+2x+2)(x^2-2x+2)

    def test_degree_gt4_needs_assertion(self):
        with pytest.raises(ReduciblePolynomialError):
            make_field([2, 0, 0, 0, 0, 1])
        K = make_field([2, 0, 0, 0, 0, 1], assume_irreducible=True)
        assert K.degree == 5
        assert K.signature == (1, 2)
        assert not K.irreducibility_checked

    def test_singular_basis_rejected(self):
        with pytest.raises((SingularBasisError, ValueError)):
            make_field([1, 0, 1], integral_basis=[[1, 0], [2, 0]])

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            make_field([1, 0, 2])


class TestArithmetic:
    def test_gaussian_product(self, Qi):
        a = Qi.element([1, 1])
        b = Qi.element([1, -1])
        assert field_arith(a, b, "mul") == Qi.coerce(2)

    def test_gaussian_inverse(self, Qi):
        a = Qi.element([1, 1])
        inv = field_arith(Qi.one(), a, "div")
        assert inv.coords == (Fraction(1, 2), Fraction(-1, 2))

    def test_theta_squared_is_five(self):
        K = make_field([-5, 0, 1])
        t = K.gen()
        assert t * t == K.coerce(5)

    def test_division_by_zero(self, Qi):
        with pytest.raises(ZeroDivisionError):
            field_arith(Qi.one(), Qi.zero(), "div")

    def test_field_mismatch(self, Qi, Qs5):
        with pytest.raises(FieldMismatchError):
            field_arith(Qi.one(), Qs5.one(), "add")

    def test_inverse_property_random(self, Qi, Qs5):
        rng = random.Random(3)
        for K in (Qi, Qs5):
            for _ in range(25):
                x = K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                               for _ in range(K.degree)])
                if x.is_zero():
                    continue
                assert (x / x) == K.one()
                y = K.element([rng.randint(-9, 9) for _ in range(K.degree)])
                assert (x + y) - y == x
                if not y.is_zero():
                    assert (x * y) / y == x

    def test_inverse_equals_solve_route(self, QQ, Qi, Qs5):
        # degree 1 takes the reciprocal of the one coordinate; higher degrees
        # solve y M(x) = 1 -- both must agree with the solve exactly
        rng = random.Random(17)
        for K in (QQ, Qi, Qs5):
            for _ in range(60):
                x = K.element([Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
                               for _ in range(K.degree)])
                if x.is_zero():
                    continue
                one = [Fraction(1)] + [Fraction(0)] * (K.degree - 1)
                solved = intmat.solve(intmat.transpose(K.mult_matrix(x)), one)
                inv = x.inverse()
                assert inv.coords == tuple(solved)
                assert all(type(c) is Fraction for c in inv.coords)


class TestTwistedNorm:
    def test_rational(self, QQ):
        t, tw = trace_and_twisted_norm(QQ.coerce(3))
        assert t == 9 and tw == 9.0

    def test_gaussian_unit(self, Qi):
        t, tw = trace_and_twisted_norm(Qi.one())
        assert t == 2
        assert abs(tw - 1.0) < 1e-14

    def test_gaussian_one_plus_i(self, Qi):
        t, tw = trace_and_twisted_norm(Qi.element([1, 1]))
        assert t == 4
        assert abs(tw - 2.0) < 1e-14

    def test_conjugation_is_involution(self, Qi):
        x = Qi.element([2, 3])
        assert x.conj().conj() == x
        assert x.conj().coords == (Fraction(2), Fraction(-3))

    def test_cyclotomic_octic_conjugation(self):
        # zeta_8: conjugation exists and the pairing is rational
        K = make_field([1, 0, 0, 0, 1])
        z = K.gen()
        assert z.conj() == K.one() / z
        t, _ = trace_and_twisted_norm(z + K.one())
        assert t == 8   # sum over 4 embeddings of |1 + zeta|^2 = 4 + Tr(zeta) + Tr(conj zeta)

    def test_mixed_signature_rejected(self):
        K = make_field([-1, -1, 0, 1])   # x^3 - x - 1, signature (1, 1)
        with pytest.raises(ExactNormUnavailableError):
            K.t2(K.gen(), K.gen())


class TestEmbedding:
    def test_rational_embed(self, QQ):
        v = QQ.minkowski_embed([QQ.coerce(2), QQ.coerce(-1)])
        assert np.allclose(v, [2.0, -1.0])

    def test_gaussian_unit_norm(self, Qi):
        v = Qi.minkowski_embed([Qi.one()])
        assert abs(v @ v - 1.0) < 1e-12

    def test_sqrt5_norm(self, Qs5):
        v = Qs5.minkowski_embed([Qs5.one()])
        assert abs(v @ v - 2 * 5 ** -0.5) < 1e-12

    def test_norm_consistency_random(self, QQ, Qi, Qs5):
        rng = random.Random(11)
        for K in (QQ, Qi, Qs5):
            for _ in range(100):
                x = from_integral_coords(K, [rng.randint(-20, 20) for _ in range(K.degree)])
                emb = K.minkowski_embed([x])
                assert abs(float(emb @ emb) - K.twisted_sqnorm(x)) < 1e-10


class TestReduction:
    def test_rational(self, QQ):
        P = QQ.prime_above(5)
        assert QQ.reduce_mod_prime(QQ.coerce(7), P) == 2

    def test_gaussian_roots(self, Qi):
        P = Qi.prime_above(5, root=2)
        x = Qi.element([1, 1])
        img = Qi.reduce_mod_prime(x, P)
        assert img == 3
        # oracle: x - img lies in P, i.e. N(x - img) is divisible by 5
        assert (x - Qi.coerce(img)).norm() % 5 == 0

    def test_gaussian_other_root(self, Qi):
        P = Qi.prime_above(5, root=3)
        x = Qi.element([2, -1])
        img = Qi.reduce_mod_prime(x, P)
        assert img == 4
        assert (x - Qi.coerce(img)).norm() % 5 == 0

    def test_ring_morphism_random(self, Qi, Qs5):
        rng = random.Random(5)
        P1 = Qi.prime_above(13)
        P2 = Qs5.prime_above(11)
        for K, P in ((Qi, P1), (Qs5, P2)):
            for _ in range(50):
                x = from_integral_coords(K, [rng.randint(-30, 30) for _ in range(K.degree)])
                y = from_integral_coords(K, [rng.randint(-30, 30) for _ in range(K.degree)])
                rx, ry = K.reduce_mod_prime(x, P), K.reduce_mod_prime(y, P)
                assert K.reduce_mod_prime(x * y, P) == rx * ry % P.p
                assert K.reduce_mod_prime(x + y, P) == (rx + ry) % P.p

    def test_non_integral_rejected(self, Qi):
        P = Qi.prime_above(5)
        with pytest.raises(NotIntegralError):
            Qi.reduce_mod_prime(Qi.element([Fraction(1, 2), 0]), P)

    def test_index_divisor_rejected(self, Qs5):
        with pytest.raises(ValueError):
            Qs5.prime_above(2)   # 2 divides [O_K : Z[theta]]

    @pytest.mark.parametrize("p", [0, 1, 4, 9, 25])
    def test_non_prime_rejected(self, QQ, Qi, p):
        for K in (QQ, Qi):
            with pytest.raises(ValueError, match=f"p={p} is not a prime"):
                K.prime_above(p)

    def test_invalid_root_rejected(self, Qi):
        with pytest.raises(ValueError):
            Qi.prime_above(5, root=1)
        with pytest.raises(ValueError):
            Qi.prime_above(7)    # x^2 + 1 has no root mod 7


class TestOkZBasis:
    def test_rationals(self, QQ):
        out = QQ.ok_z_basis([(QQ.one(), QQ.zero())])
        assert len(out) == 1
        assert out[0] == (QQ.one(), QQ.zero())

    def test_gaussian_single(self, Qi):
        out = Qi.ok_z_basis([(Qi.one(),)])
        assert [v[0] for v in out] == [Qi.one(), Qi.gen()]

    def test_gaussian_one_plus_i(self, Qi):
        out = Qi.ok_z_basis([(Qi.element([1, 1]), Qi.zero())])
        assert out[0][0] == Qi.element([1, 1])
        assert out[1][0] == Qi.element([-1, 1])

    def test_z_rank_is_full(self, Qi, Qs5):
        from latrank import intmat

        for K in (Qi, Qs5):
            rows = K.ok_z_basis([(K.one(), K.gen()), (K.gen(), K.coerce(3))])
            flat = [flatten_kvector(K, r) for r in rows]
            assert intmat.rank(flat) == 2 * K.degree


class TestKMatrices:
    def test_rank_over_K(self, QQ, Qi):
        assert rank_over_K([[QQ.zero(), QQ.zero()]]) == 0
        M = [[QQ.coerce(2), QQ.coerce(1)], [QQ.coerce(4), QQ.coerce(2)],
             [QQ.coerce(6), QQ.coerce(3)]]
        assert rank_over_K(M) == 1
        i = Qi.gen()
        assert rank_over_K([[Qi.one(), Qi.one()], [Qi.zero(), i]]) == 2

    def test_k_rref_gaussian(self, Qi):
        i = Qi.gen()
        R, pivots, rank = k_rref([[Qi.one(), Qi.one()], [Qi.zero(), i]])
        assert rank == 2
        assert pivots == [0, 1]
        assert R[0][1].is_zero() and R[1][1] == Qi.one()


def test_parse_field_file(tmp_path):
    path = tmp_path / "field.txt"
    path.write_text(
        "# Gaussian field\n"
        "min_poly = 1 0 1\n"
        "precision_digits = 40\n"
    )
    K = parse_field_file(path)
    assert K.degree == 2 and K.discriminant == -4
    path2 = tmp_path / "sqrt5.txt"
    path2.write_text(
        "min_poly = -5, 0, 1\n"
        "integral_basis = 1 0 1/2 1/2\n"
    )
    K2 = parse_field_file(path2)
    assert K2.discriminant == 5
