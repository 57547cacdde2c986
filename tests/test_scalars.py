from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import coefficients, gaussian, gaussians
from starbundle import Coefficient, LimitError
from starbundle.scalars import C_I, HBAR_OVER_I, I_OVER_HBAR, MAX_DIGITS


def pair(x: Coefficient):
    """(re, im) of a constant Coefficient, read through parts()."""
    (k, (rn, rd), (jn, jd)), = x.parts() or [(0, (0, 1), (0, 1))]
    assert k == 0
    return (Fraction(rn, rd), Fraction(jn, jd))


def laurent(c: Coefficient):
    """{hbar exponent: (re, im)}, read through parts()."""
    return {k: (Fraction(*re), Fraction(*im)) for k, re, im in c.parts()}


class TestGaussianConstant:
    def test_exact_construction(self):
        x = gaussian(Fraction(2, 4), Fraction(-6, 4))
        assert x.parts() == [(0, (1, 2), (-3, 2))]
        assert pair(x) == (Fraction(1, 2), Fraction(-3, 2))

    def test_one_plus_i_times_one_minus_i(self):
        assert gaussian(1, 1) * gaussian(1, -1) == gaussian(2)

    def test_i_squared(self):
        assert C_I * C_I == gaussian(-1)

    def test_division_roundtrip(self):
        x = gaussian(Fraction(3, 7), Fraction(-2, 5))
        y = gaussian(Fraction(1, 3), Fraction(4))
        assert (x / y) * y == x

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gaussian(1) / gaussian(0)
        with pytest.raises(ZeroDivisionError):
            Coefficient.hbar(1) / 0

    def test_division_by_several_hbar_powers(self):
        with pytest.raises(ValueError, match="single term"):
            gaussian(1) / (Coefficient.hbar(1) + 1)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            gaussian(1).re = Fraction(2)
        with pytest.raises(AttributeError):
            C_I._data = {}

    @given(gaussians, gaussians)
    def test_commutative(self, x, y):
        assert x + y == y + x
        assert x * y == y * x

    @given(gaussians, gaussians, gaussians)
    def test_distributive(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(gaussians)
    def test_conjugation_involution(self, x):
        assert x.conjugate().conjugate() == x


class TestCoefficient:
    def test_laurent_exponents_cancel(self):
        assert Coefficient.hbar(1) * Coefficient.hbar(-1) == Coefficient.one()

    def test_hbar_over_i_times_i_over_hbar(self):
        assert HBAR_OVER_I * I_OVER_HBAR == Coefficient.one()

    def test_product_adds_exponents(self):
        x = Coefficient.hbar(2, C_I)
        y = Coefficient.hbar(-3, 2)
        assert (x * y).items() == [(-1, gaussian(0, 2))]

    def test_items_yields_constant_coefficients(self):
        items = (HBAR_OVER_I + Coefficient.hbar(-2, Fraction(1, 3))).items()
        assert items == [(-2, Fraction(1, 3)), (1, -C_I)]
        assert all(type(value) is Coefficient for _, value in items)

    def test_zero_entries_dropped(self):
        c = Coefficient({0: gaussian(1), 1: gaussian(0)})
        assert c.items() == [(0, gaussian(1))]
        assert (c - c).items() == []
        assert not (c - c)

    def test_constructor_values(self):
        expected = Coefficient.hbar(1, 3) + Coefficient.hbar(2, Fraction(1, 2)) + Coefficient.hbar(3, C_I)
        assert Coefficient({1: 3, 2: Fraction(1, 2), 3: C_I}) == expected
        with pytest.raises(TypeError, match="Gaussian rational"):
            Coefficient({0: Coefficient.hbar(1)})
        with pytest.raises(TypeError, match="Gaussian rational"):
            Coefficient.hbar(2, 0.5)

    def test_pow(self):
        assert HBAR_OVER_I ** 2 == Coefficient.hbar(2, -1)
        assert HBAR_OVER_I ** 0 == Coefficient.one()
        with pytest.raises(ValueError):
            HBAR_OVER_I ** -1

    def test_conjugate_keeps_hbar_real(self):
        assert HBAR_OVER_I.conjugate() == Coefficient.hbar(1, C_I)

    def test_str_and_repr(self):
        mixed = Coefficient({0: gaussian(Fraction(1, 2), -1), 2: gaussian(0, Fraction(3, 4)), -3: 5})
        assert str(mixed) == "5*hbar^-3 + (1/2 - 1*i) + 3/4*i*hbar^2"
        assert str(HBAR_OVER_I) == "-1*i*hbar"
        assert str(I_OVER_HBAR) == "1*i*hbar^-1"
        assert str(Coefficient.hbar(1, gaussian(Fraction(-1, 3), Fraction(2, 5)))) == "(-1/3 + 2/5*i)*hbar"
        assert str(Coefficient.zero()) == "0"
        assert repr(C_I) == "Coefficient(1*i)"

    def test_parts_refuse_numbers_past_max_digits(self):
        largest = 10 ** MAX_DIGITS - 1
        assert Coefficient({0: largest}).parts() == [(0, (largest, 1), (0, 1))]
        for value in (largest + 1, gaussian(0, -largest - 1), Fraction(1, largest + 1)):
            with pytest.raises(LimitError, match="MAX_DIGITS"):
                Coefficient.hbar(-1, value).parts()

    @given(coefficients, coefficients, coefficients)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(coefficients)
    def test_additive_inverse(self, a):
        assert not (a + (-a))


# -- hashing agrees with equality ---------------------------------------------


def _forms(value: Coefficient):
    """Every representation that compares equal to the constant ``value``."""
    re, im = pair(value)
    forms = [value, Coefficient({0: value}), Coefficient.hbar(0, value)]
    if not im:
        forms.append(re)
        if re.denominator == 1:
            forms.append(int(re))
    return forms


class TestHashMatchesEquality:
    @given(gaussians)
    def test_equal_forms_hash_equal(self, x):
        forms = _forms(x)
        for a in forms:
            for b in forms:
                assert a == b
                assert hash(a) == hash(b)
        assert len(set(forms)) == 1

    @given(gaussians, gaussians)
    def test_any_equal_pair_hashes_equal(self, x, y):
        for a in _forms(x) + [Coefficient.hbar(1, x)]:
            for b in _forms(y) + [Coefficient.hbar(1, y)]:
                if a == b:
                    assert hash(a) == hash(b)

    def test_documented_cases(self):
        assert len({gaussian(2), 2}) == 1
        assert len({Coefficient.one(), 1, gaussian(1)}) == 1
        assert len({Coefficient.zero(), 0, Fraction(0), gaussian(0)}) == 1
        assert len({Coefficient.hbar(0, Fraction(1, 3)), Fraction(1, 3)}) == 1


# -- differential test against a Fraction-pair reference ----------------------

# The reference: a Gaussian rational is a pair (re, im) of Fractions; a
# Laurent coefficient is a dict {hbar exponent: pair} without zero pairs.


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    return ref_mul(x, (y[0] / norm, -y[1] / norm))


def ref_laurent_add(x, y):
    out = dict(x)
    for k, v in y.items():
        s = (out.get(k, (0, 0))[0] + v[0], out.get(k, (0, 0))[1] + v[1])
        out[k] = s
    return {k: v for k, v in out.items() if v != (0, 0)}


def ref_laurent_mul(x, y):
    out = {}
    for k1, v1 in x.items():
        for k2, v2 in y.items():
            out = ref_laurent_add(out, {k1 + k2: ref_mul(v1, v2)})
    return out


def assert_canonical(value: Coefficient):
    for a, b, d in value._data.values():
        assert all(type(n) is int for n in (a, b, d))
        assert d > 0
        assert gcd(a, b, d) == 1
        assert (a, b) != (0, 0)


wide_fractions = st.fractions(min_value=-60, max_value=60, max_denominator=36)
wide_gaussians = st.builds(gaussian, wide_fractions, wide_fractions)
laurents = st.builds(
    lambda pairs: Coefficient(dict(pairs)),
    st.lists(st.tuples(st.integers(-3, 3), wide_gaussians), max_size=4),
)


class TestAgainstFractionReference:
    @given(wide_gaussians, wide_gaussians)
    def test_gaussian_arithmetic(self, x, y):
        px, py = pair(x), pair(y)
        results = {
            "+": (x + y, (px[0] + py[0], px[1] + py[1])),
            "-": (x - y, (px[0] - py[0], px[1] - py[1])),
            "*": (x * y, ref_mul(px, py)),
            "conjugate": (x.conjugate(), (px[0], -px[1])),
            "neg": (-x, (-px[0], -px[1])),
        }
        if y:
            results["/"] = (x / y, ref_div(px, py))
        for op, (got, want) in results.items():
            assert pair(got) == want, op
            assert_canonical(got)

    @given(wide_gaussians, wide_fractions, st.integers(-5, 5))
    def test_mixed_operands(self, x, f, n):
        re, im = pair(x)
        assert pair(x * f) == ref_mul((re, im), (f, 0))
        assert pair(n - x) == (n - re, -im)
        if n:
            assert pair(x / n) == ref_div((re, im), (Fraction(n), Fraction(0)))
        assert_canonical(x * f)
        assert_canonical(n - x)

    @given(laurents, wide_gaussians, st.integers(-3, 3))
    def test_division_by_a_single_term(self, a, y, k):
        assume(y)
        inverse = ref_div((1, 0), pair(y))
        want = {e - k: ref_mul(v, inverse) for e, v in laurent(a).items()}
        got = a / Coefficient.hbar(k, y)
        assert laurent(got) == want
        assert_canonical(got)

    @given(laurents, laurents)
    def test_laurent_arithmetic(self, a, b):
        la, lb = laurent(a), laurent(b)
        neg_b = {k: (-v[0], -v[1]) for k, v in lb.items()}
        results = {
            "+": (a + b, ref_laurent_add(la, lb)),
            "-": (a - b, ref_laurent_add(la, neg_b)),
            "*": (a * b, ref_laurent_mul(la, lb)),
            "cancel": ((a + b) * (a - b), ref_laurent_add(
                ref_laurent_mul(la, la), {k: (-v[0], -v[1]) for k, v in ref_laurent_mul(lb, lb).items()}
            )),
            "conjugate": (a.conjugate(), {k: (v[0], -v[1]) for k, v in la.items()}),
        }
        for op, (got, want) in results.items():
            assert laurent(got) == want, op
            assert_canonical(got)

    @given(laurents, laurents)
    def test_division_refusals(self, a, b):
        if not b:
            with pytest.raises(ZeroDivisionError):
                a / b
        elif len(laurent(b)) > 1:
            with pytest.raises(ValueError, match="single term"):
                a / b
        else:
            assert (a / b) * b == a

    @given(laurents, st.integers(0, 4))
    def test_laurent_power(self, a, n):
        want = {0: (1, 0)}
        for _ in range(n):
            want = ref_laurent_mul(want, laurent(a))
        assert laurent(a ** n) == want
        assert_canonical(a ** n)

    @given(laurents, st.integers(-20, 20), st.integers(1, 20))
    def test_scaled(self, a, num, den):
        got = a.scaled(num, den)
        assert laurent(got) == ref_laurent_mul(laurent(a), {0: (Fraction(num, den), 0)})
        assert_canonical(got)

    def test_cancelling_exponents(self):
        x = Coefficient({1: 1, -1: C_I})
        y = Coefficient({1: 1, -1: -C_I})
        product = x * y
        assert laurent(product) == {2: (1, 0), -2: (1, 0)}
        assert 0 not in product._data
        assert_canonical(product)
