"""Exact scalars: one type, :class:`Coefficient`, a Laurent polynomial in hbar.

Every computation in this package is exact; no floats appear anywhere.
A scalar is a finite sum  sum_k c_k * hbar^k  with k ranging over the
integers (hbar is formally invertible) and each c_k a complex number
with rational real and imaginary parts.  A Gaussian rational is the
constant scalar whose only entry is at hbar^0; ``C_I`` is i.

Each c_k is stored as a triple of plain ints (a, b, d) meaning
(a + b*i)/d, canonical (d > 0, gcd(a, b, d) == 1) so that equality is
structural.  ``Fraction`` appears only at the API edge.

No integer printed through :meth:`Coefficient.parts` may have more than
``MAX_DIGITS`` decimal digits, which keeps every printed number under
CPython's default 4300-digit int-to-str limit; a larger one raises
:class:`LimitError` instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import LimitError

MAX_DIGITS = 4000
_DIGIT_BOUND = 10 ** MAX_DIGITS


def _reduce(a: int, b: int, d: int) -> tuple:
    g = gcd(a, b, d)
    return (a // g, b // g, d // g) if g != 1 else (a, b, d)


def _add(x: tuple, y: tuple) -> tuple:
    (a1, b1, d1), (a2, b2, d2) = x, y
    if d1 == d2:
        return _reduce(a1 + a2, b1 + b2, d1)
    return _reduce(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def _mul(x: tuple, y: tuple) -> tuple:
    (a1, b1, d1), (a2, b2, d2) = x, y
    return _reduce(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)


def _triple(value) -> tuple:
    """The canonical triple of an int, a Fraction or an hbar-free Coefficient."""
    if type(value) is int:
        return (value, 0, 1)
    if isinstance(value, Coefficient):
        if value._data.keys() <= {0}:
            return value._data.get(0, (0, 0, 1))
    elif isinstance(value, (int, Fraction)):
        return (value.numerator, 0, value.denominator)
    raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")


def _coeff(data: dict) -> "Coefficient":
    # trusted fast constructor: keys are ints, values nonzero canonical triples
    out = object.__new__(Coefficient)
    object.__setattr__(out, "_data", data)
    return out


class Coefficient:
    """A Laurent polynomial in hbar over the Gaussian rationals.

    Stored sparsely as a map from integer hbar-exponent to the canonical
    triple of a nonzero Gaussian rational; the zero scalar is the empty
    map.  Products add exponents, so hbar is formally invertible.  A
    Gaussian rational is the constant whose only entry is at hbar^0.
    """

    __slots__ = ("_data",)

    def __init__(self, data=None):
        triples = {int(k): _triple(v) for k, v in (data or {}).items()}
        object.__setattr__(self, "_data", {k: t for k, t in triples.items() if t[0] or t[1]})

    def __setattr__(self, name, value):
        raise AttributeError("Coefficient is immutable")

    @staticmethod
    def coerce(value) -> "Coefficient":
        return value if isinstance(value, Coefficient) else Coefficient({0: value})

    @staticmethod
    def zero() -> "Coefficient":
        return _coeff({})

    @staticmethod
    def one() -> "Coefficient":
        return _coeff({0: (1, 0, 1)})

    @staticmethod
    def hbar(power: int = 1, scale=1) -> "Coefficient":
        """scale * hbar**power; power may be negative."""
        return Coefficient({power: scale})

    def __add__(self, other):
        if type(other) is not Coefficient:
            other = Coefficient.coerce(other)
        if not self._data:
            return other
        data = dict(self._data)
        for k, t in other._data.items():
            s = data.get(k)
            s = t if s is None else _add(s, t)
            if s[0] or s[1]:
                data[k] = s
            else:
                del data[k]
        return _coeff(data)

    __radd__ = __add__

    def __neg__(self):
        return _coeff({k: (-a, -b, d) for k, (a, b, d) in self._data.items()})

    def __sub__(self, other):
        return self + (-Coefficient.coerce(other))

    def __rsub__(self, other):
        return Coefficient.coerce(other) + (-self)

    def __mul__(self, other):
        if type(other) is not Coefficient:
            other = Coefficient.coerce(other)
        x, y = self._data, other._data
        if len(x) == 1 and len(y) == 1:
            (k1, t1), = x.items()
            (k2, t2), = y.items()
            return _coeff({k1 + k2: _mul(t1, t2)})
        out = _coeff({})
        for k1, t1 in x.items():
            for k2, t2 in y.items():
                out = out + _coeff({k1 + k2: _mul(t1, t2)})
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("Coefficient powers must be non-negative integers")
        if len(self._data) == 1:
            # (c hbar^k)^n = c^n hbar^(k n), powered on the triple
            (k, t), = self._data.items()
            triple = (1, 0, 1)
            for bit in bin(n)[2:]:
                triple = _mul(_mul(triple, triple), t) if bit == "1" else _mul(triple, triple)
            return _coeff({k * n: triple})
        out = Coefficient.one()
        for bit in bin(n)[2:]:
            out = out * out * self if bit == "1" else out * out
        return out

    def __truediv__(self, other):
        """self / (c*hbar^k); the divisor must be a single nonzero term."""
        other = Coefficient.coerce(other)
        if len(other._data) != 1:
            if not other._data:
                raise ZeroDivisionError("division by the zero scalar")
            raise ValueError("can only divide by a single term c*hbar^k")
        (k, (a, b, d)), = other._data.items()
        return self * _coeff({-k: _reduce(a * d, -b * d, a * a + b * b)})

    def scaled(self, num: int, den: int = 1) -> "Coefficient":
        """self * num/den for ints num and den > 0, without a Fraction."""
        if not num:
            return _coeff({})
        return _coeff({k: _reduce(a * num, b * num, d * den) for k, (a, b, d) in self._data.items()})

    def conjugate(self) -> "Coefficient":
        """Complex conjugation; hbar is treated as a real symbol."""
        return _coeff({k: (a, -b, d) for k, (a, b, d) in self._data.items()})

    def items(self):
        """(exponent, constant Coefficient) pairs sorted by ascending hbar-exponent."""
        return [(k, _coeff({0: t})) for k, t in sorted(self._data.items())]

    def parts(self):
        """(exponent, (re num, re den), (im num, im den)) sorted by ascending
        hbar-exponent, each part in lowest terms: the integer view printers read."""
        out = []
        for k, (a, b, d) in sorted(self._data.items()):
            ga, gb = gcd(a, d), gcd(b, d)
            re, im = (a // ga, d // ga), (b // gb, d // gb)
            if max(abs(re[0]), re[1], abs(im[0]), im[1]) >= _DIGIT_BOUND:
                raise LimitError(f"a coefficient has more than MAX_DIGITS = {MAX_DIGITS} digits")
            out.append((k, re, im))
        return out

    def __bool__(self):
        return bool(self._data)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Coefficient.coerce(other)
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self._data == other._data

    def __hash__(self):
        # a real constant hashes like the int or Fraction it equals
        data = self._data
        if len(data) == 1 and 0 in data and not data[0][1]:
            a, _, d = data[0]
            return hash(a) if d == 1 else hash(Fraction(a, d))
        return hash(frozenset(data.items())) if data else 0

    def __repr__(self):
        return f"Coefficient({self})"

    def __str__(self):
        out = []
        for k, (a, b, d) in sorted(self._data.items()):
            re, im = Fraction(a, d), Fraction(b, d)
            text = f"({re} {'+-'[im < 0]} {abs(im)}*i)" if re and im else f"{im}*i" if im else str(re)
            out.append(text + {0: "", 1: "*hbar"}.get(k, f"*hbar^{k}"))
        return " + ".join(out) or "0"


C_ONE = Coefficient.one()
C_I = _coeff({0: (0, 1, 1)})
# hbar/i = -i*hbar, the ubiquitous expansion coefficient
HBAR_OVER_I = _coeff({1: (0, -1, 1)})
# i/hbar, its reciprocal
I_OVER_HBAR = _coeff({-1: (0, 1, 1)})
