import numpy as np
import pytest

from btoep.symbols import (
    Symbol,
    SymbolClass,
    classify,
    conjugate,
    evaluate,
    fejer_kernel,
    fejer_smooth,
    poly_product,
    rotate,
    sup_norm,
)


def sym_close(f, g, tol=1e-12):
    keys = set(f.coeffs) | set(g.coeffs)
    return all(abs(f.coeff(k) - g.coeff(k)) <= tol for k in keys)


class TestConstruction:
    def test_zero_coeffs_dropped(self):
        f = Symbol({0: 1.0, 3: 0.0})
        assert f.support == [0]
        assert f.support_radius == 0

    def test_support_radius(self):
        assert Symbol({-4: 1, 2: 1}).support_radius == 4

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Symbol({0: float("nan")})

    def test_immutable(self):
        f = Symbol({0: 1})
        with pytest.raises(AttributeError):
            f.coeffs_ = {}

    def test_json_round_trip(self):
        f = Symbol({-1: 0.5 - 2j, 0: 1, 3: 0.25j})
        assert Symbol.from_json(f.to_json()) == f

    def test_json_duplicate_k_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Symbol.from_json('{"coeffs": [[0, 1, 0], [0, 2, 0]]}')

    def test_json_bad_index_rejected(self):
        with pytest.raises(ValueError):
            Symbol.from_json('{"coeffs": [[0.5, 1, 0]]}')

    def test_json_malformed_rejected(self):
        with pytest.raises(ValueError):
            Symbol.from_json("[1, 2]")
        with pytest.raises(ValueError):
            Symbol.from_json("{not json")
        for text in (
            '{"coeffs": 5}',
            '{"coeffs": [[0, null, 0]]}',
            '{"coeffs": [[0, [1], 0]]}',
            '{"coeffs": [[0, "0.5", 0]]}',
            '{"coeffs": [[0, " 1e0 ", "-0"]]}',
            '{"coeffs": [[0, true, false]]}',
            '{"coeffs": [[0, 1, true]]}',
            '{"coeffs": [[0, 1%s, 0]]}' % ("0" * 400),
            # nested past the recursion limit: json.loads raises RecursionError
            "[" * 100_000,
            '{"coeffs": %s}' % ("[" * 100_000 + "]" * 100_000),
        ):
            with pytest.raises(ValueError):
                Symbol.from_json(text)


class TestConjugate:
    def test_real_constant_fixed(self):
        assert conjugate(Symbol({0: 1})) == Symbol({0: 1})

    def test_reflect_and_conj(self):
        assert conjugate(Symbol({1: 1j})) == Symbol({-1: -1j})

    def test_odd_skew_symbol_negates_odd_part(self):
        # b + 2ia sin(theta) conjugates to b - 2ia sin(theta)
        f = Symbol({-1: -0.6, 0: 0.8, 1: 0.6})
        assert conjugate(f) == Symbol({-1: 0.6, 0: 0.8, 1: -0.6})

    def test_involution(self):
        rng = np.random.default_rng(1)
        f = Symbol({int(k): complex(*rng.uniform(-1, 1, 2)) for k in range(-3, 4)})
        assert conjugate(conjugate(f)) == f

    def test_antimultiplicative(self):
        rng = np.random.default_rng(2)
        f = Symbol({int(k): complex(*rng.uniform(-1, 1, 2)) for k in range(-2, 3)})
        g = Symbol({int(k): complex(*rng.uniform(-1, 1, 2)) for k in range(-1, 2)})
        lhs = conjugate(poly_product(f, g))
        rhs = poly_product(conjugate(g), conjugate(f))
        assert sym_close(lhs, rhs)


class TestPolyProduct:
    def test_exponent_addition(self):
        assert poly_product(Symbol({1: 1}), Symbol({1: 1})) == Symbol({2: 1})

    def test_unit(self):
        g = Symbol({-2: 3, 1: 2j})
        assert poly_product(Symbol({0: 1}), g) == g

    def test_two_cos_squared(self):
        f = Symbol({-1: 1, 1: 1})
        assert poly_product(f, f) == Symbol({-2: 1, 0: 2, 2: 1})


class TestFejer:
    def test_center_untouched(self):
        assert fejer_smooth(Symbol({0: 2.5j}), 7) == Symbol({0: 2.5j})

    def test_weight_at_k2_order3(self):
        assert fejer_smooth(Symbol({2: 1}), 3) == Symbol({2: 0.5})

    def test_outside_window_zeroed(self):
        assert fejer_smooth(Symbol({5: 1}), 3) == Symbol({})

    def test_kernel_coeffs(self):
        f = fejer_kernel(3)
        assert f.coeff(0) == 1 and f.coeff(2) == 0.5 and f.coeff(4) == 0

    @pytest.mark.parametrize("N", range(33))
    def test_kernel_is_the_smoothed_flat_window(self, N):
        flat = Symbol(dict.fromkeys(range(-N, N + 1), 1))
        assert fejer_kernel(N) == fejer_smooth(flat, N)
        # the closed form bit for bit, every |k| <= N kept
        assert fejer_kernel(N).coeffs == {k: 1 - abs(k) / (N + 1) for k in range(-N, N + 1)}

    def test_negative_order_raises_the_same_error(self):
        messages = set()
        for call in (lambda: fejer_kernel(-1), lambda: fejer_smooth(Symbol({0: 1}), -1)):
            with pytest.raises(ValueError) as exc:
                call()
            messages.add(str(exc.value))
        assert messages == {"Fejer order must be >= 0"}

    def test_converges_coefficientwise(self):
        f = Symbol({-2: 1j, 0: 2, 3: -1})
        for k in f.support:
            diffs = [abs(fejer_smooth(f, N).coeff(k) - f.coeff(k)) for N in (5, 20, 80)]
            assert diffs == sorted(diffs, reverse=True)
            assert diffs[-1] < 0.05

    def test_sup_norm_contracts(self):
        rng = np.random.default_rng(3)
        f = Symbol({int(k): complex(*rng.uniform(-1, 1, 2)) for k in range(-4, 5)})
        val, err = sup_norm(f)
        for N in (2, 5, 10):
            sval, serr = sup_norm(fejer_smooth(f, N))
            assert sval <= val + 2 * (err + serr)


class TestRotate:
    def test_identity(self):
        f = Symbol({-1: 2, 1: 1j})
        assert rotate(f, 0.0) == f

    def test_pi_flips_odd(self):
        g = rotate(Symbol({1: 1}), np.pi)
        assert abs(g.coeff(1) + 1) < 1e-15

    def test_quarter_turn(self):
        g = rotate(Symbol({-1: 1, 1: 1}), np.pi / 2)
        assert abs(g.coeff(-1) - 1j) < 1e-15
        assert abs(g.coeff(1) + 1j) < 1e-15

    def test_moduli_preserved(self):
        rng = np.random.default_rng(4)
        f = Symbol({int(k): complex(*rng.uniform(-1, 1, 2)) for k in range(-3, 4)})
        g = rotate(f, 0.7)
        for k in f.support:
            assert abs(abs(g.coeff(k)) - abs(f.coeff(k))) < 1e-15

    def test_sup_norm_invariant(self):
        rng = np.random.default_rng(5)
        f = Symbol({int(k): complex(*rng.uniform(-1, 1, 2)) for k in range(-3, 4)})
        v0, e0 = sup_norm(f)
        v1, e1 = sup_norm(rotate(f, 1.3))
        assert abs(v0 - v1) <= e0 + e1


class TestSupNorm:
    def test_constant(self):
        val, err = sup_norm(Symbol({0: 3}))
        assert val == 3 and err == 0

    def test_two_cos(self):
        val, err = sup_norm(Symbol({-1: 1, 1: 1}))
        assert abs(val - 2) <= err + 1e-12

    def test_skew_example(self):
        # |0.8 + 1.2 i sin(theta)| peaks at sqrt(0.64 + 1.44)
        val, err = sup_norm(Symbol({-1: -0.6, 0: 0.8, 1: 0.6}))
        assert abs(val - np.sqrt(2.08)) <= err + 1e-12

    def test_grid_too_coarse(self):
        with pytest.raises(ValueError, match="grid too coarse"):
            sup_norm(Symbol({10: 1}), grid_points=32)

    def test_error_bound_covers_true_sup(self):
        # degree-8 polynomial with known sup at theta=0
        f = Symbol({int(k): 1.0 for k in range(-8, 9)})
        val, err = sup_norm(f, grid_points=64)
        assert val <= 17.0 <= val + err

    def test_hermitian_grid_values_real(self):
        rng = np.random.default_rng(6)
        coeffs = {0: complex(rng.uniform(-1, 1))}
        for k in range(1, 4):
            c = complex(*rng.uniform(-1, 1, 2))
            coeffs[k], coeffs[-k] = c, c.conjugate()
        vals = evaluate(Symbol(coeffs), np.linspace(0, 2 * np.pi, 257))
        assert np.abs(vals.imag).max() < 1e-12


class TestClassify:
    def test_analytic_nonneg(self):
        assert classify(Symbol({0: 1, 1: 1})) == {
            SymbolClass.NONNEGATIVE_COEFFS,
            SymbolClass.ANALYTIC,
            SymbolClass.GENERAL,
        }

    def test_hermitian_nonneg(self):
        assert classify(Symbol({-1: 1, 0: 2, 1: 1})) == {
            SymbolClass.NONNEGATIVE_COEFFS,
            SymbolClass.HERMITIAN,
            SymbolClass.GENERAL,
        }

    def test_skew_symbol_only_general(self):
        assert classify(Symbol({-1: -0.6, 0: 0.8, 1: 0.6})) == {SymbolClass.GENERAL}

    def test_empty_symbol_in_all(self):
        assert classify(Symbol({})) == {
            SymbolClass.NONNEGATIVE_COEFFS,
            SymbolClass.HERMITIAN,
            SymbolClass.ANALYTIC,
            SymbolClass.GENERAL,
        }
