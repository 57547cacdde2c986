from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import coefficients, gaussians
from starbundle import Coefficient, GaussianRational, LimitError
from starbundle.scalars import GR_I, HBAR_OVER_I, I_OVER_HBAR, MAX_DIGITS


class TestGaussianRational:
    def test_exact_construction(self):
        x = GaussianRational(Fraction(2, 4), Fraction(-6, 4))
        assert x.re == Fraction(1, 2)
        assert x.im == Fraction(-3, 2)

    def test_one_plus_i_times_one_minus_i(self):
        assert GaussianRational(1, 1) * GaussianRational(1, -1) == GaussianRational(2)

    def test_i_squared(self):
        assert GR_I * GR_I == GaussianRational(-1)

    def test_division_roundtrip(self):
        x = GaussianRational(Fraction(3, 7), Fraction(-2, 5))
        y = GaussianRational(Fraction(1, 3), Fraction(4))
        assert (x / y) * y == x

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1) / GaussianRational(0)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            GaussianRational(1).re = Fraction(2)

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
        x = Coefficient.hbar(2, GaussianRational(0, 1))
        y = Coefficient.hbar(-3, 2)
        assert (x * y).items() == [(-1, GaussianRational(0, 2))]

    def test_zero_entries_dropped(self):
        c = Coefficient({0: GaussianRational(1), 1: GaussianRational(0)})
        assert c.items() == [(0, GaussianRational(1))]
        assert (c - c).items() == []
        assert not (c - c)

    def test_pow(self):
        assert HBAR_OVER_I ** 2 == Coefficient.hbar(2, -1)
        assert HBAR_OVER_I ** 0 == Coefficient.one()
        with pytest.raises(ValueError):
            HBAR_OVER_I ** -1

    def test_conjugate_keeps_hbar_real(self):
        assert HBAR_OVER_I.conjugate() == Coefficient.hbar(1, GaussianRational(0, 1))

    def test_parts_refuse_numbers_past_max_digits(self):
        largest = 10 ** MAX_DIGITS - 1
        assert Coefficient({0: GaussianRational(largest)}).parts() == [(0, (largest, 1), (0, 1))]
        for value in (GaussianRational(largest + 1), GaussianRational(0, -largest - 1),
                      GaussianRational(Fraction(1, largest + 1))):
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


def _forms(value: GaussianRational):
    """Every representation that compares equal to ``value``."""
    forms = [value, Coefficient.coerce(value)]
    if not value.im:
        forms.append(value.re)
        if value.re.denominator == 1:
            forms.append(int(value.re))
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
        for a in _forms(x):
            for b in _forms(y):
                if a == b:
                    assert hash(a) == hash(b)

    def test_documented_cases(self):
        assert len({GaussianRational(2), 2}) == 1
        assert len({Coefficient.one(), 1, GaussianRational(1)}) == 1
        assert len({Coefficient.zero(), 0, Fraction(0), GaussianRational(0)}) == 1
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


def pair(x: GaussianRational):
    return (x.re, x.im)


def laurent(c: Coefficient):
    return {k: pair(v) for k, v in c.items()}


def assert_canonical(value):
    triples = [value._t] if isinstance(value, GaussianRational) else list(value._data.values())
    for a, b, d in triples:
        assert all(type(n) is int for n in (a, b, d))
        assert d > 0
        assert gcd(a, b, d) == 1
        if isinstance(value, Coefficient):
            assert (a, b) != (0, 0)


wide_fractions = st.fractions(min_value=-60, max_value=60, max_denominator=36)
wide_gaussians = st.builds(GaussianRational, wide_fractions, wide_fractions)
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
        assert pair(x * f) == ref_mul(pair(x), (f, 0))
        assert pair(n - x) == (n - x.re, -x.im)
        assert_canonical(x * f)
        assert_canonical(n - x)

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
        x = Coefficient({1: 1, -1: GaussianRational(0, 1)})
        y = Coefficient({1: 1, -1: GaussianRational(0, -1)})
        product = x * y
        assert laurent(product) == {2: (1, 0), -2: (1, 0)}
        assert 0 not in product._data
        assert_canonical(product)
