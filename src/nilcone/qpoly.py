"""Laurent polynomials in one variable q with integer coefficients.

Coefficients are arbitrary-precision Python ints; exponents may be
negative.  Zero coefficients are never stored, so equality of the
coefficient dicts is equality of polynomials.  A constant compares equal
to its int and hashes as it; an operand that is neither a QPoly nor an int
is left to Python, which raises TypeError.
"""

from .errors import refuse, require_int


class QPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        # coeffs: map int exponent -> int coefficient; zeros are dropped
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                if type(e) is not int or type(c) is not int:
                    refuse("term", (e, c), "an int exponent and coefficient")
                if c:
                    self.coeffs[e] = c

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self.coeffs.keys() <= {0}:
            return hash(self.coeffs.get(0, 0))
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        res = QPoly()
        res.coeffs = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = QPoly()
        res.coeffs = {e: -c for e, c in self.coeffs.items()}
        return res

    def __sub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return QPoly()
            res = QPoly()
            res.coeffs = {e: c * other for e, c in self.coeffs.items()}
            return res
        if not isinstance(other, QPoly):
            return NotImplemented
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        res = QPoly()
        res.coeffs = out
        return res

    __rmul__ = __mul__

    def shifted(self, k):
        """Multiply by q^k."""
        res = QPoly()
        res.coeffs = {e + k: c for e, c in self.coeffs.items()}
        return res

    def coeff(self, e):
        return self.coeffs.get(e, 0)

    def at_one(self):
        return sum(self.coeffs.values())

    def min_exponent(self):
        if not self.coeffs:
            return None
        return min(self.coeffs)

    def truncated(self, n):
        """Drop all terms of exponent > n."""
        res = QPoly()
        res.coeffs = {e: c for e, c in self.coeffs.items() if e <= n}
        return res

    def nonnegative(self):
        return all(c >= 0 for c in self.coeffs.values())

    def pairs(self):
        """Sorted (exponent, coefficient) list, the serialization form."""
        return sorted(self.coeffs.items())

    def to_json(self):
        return [[e, str(c)] for e, c in self.pairs()]

    def __repr__(self):
        return "QPoly(%s)" % (dict(self.pairs()),)

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for e, c in self.pairs():
            if e == 0:
                bits.append(str(c))
            else:
                var = "q" if e == 1 else "q^%d" % e
                if c == 1:
                    bits.append(var)
                elif c == -1:
                    bits.append("-" + var)
                else:
                    bits.append("%d*%s" % (c, var))
        out = bits[0]
        for b in bits[1:]:
            out += " - " + b[1:] if b.startswith("-") else " + " + b
        return out


def _operand(other):
    """other as a QPoly, an int (or bool) as a constant, or None."""
    if isinstance(other, QPoly):
        return other
    if isinstance(other, int):
        res = QPoly()
        if other:
            res.coeffs[0] = int(other)
        return res
    return None


def geometric_series(step, n):
    """1 + q^step + q^(2*step) + ... truncated at exponent n."""
    require_int(step, "step", 1, None)
    out = {}
    e = 0
    while e <= n:
        out[e] = 1
        e += step
    return QPoly(out)


def product_truncated(factors, n):
    """Product of QPoly factors, truncated at exponent n after each step."""
    acc = QPoly.one()
    for f in factors:
        acc = (acc * f).truncated(n)
    return acc
