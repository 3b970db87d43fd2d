"""Exact multivariate polynomial and rational-function arithmetic.

Gap profiles, boundary traces and coefficient tensors are PolynomialFields.
Coefficients are fractions.Fraction, so values, gradients and Hessians of
polynomial inputs carry no rounding beyond the final float conversion.  The
float jets of the vertical interpolant are closed form (geometry,
auxiliary); RationalField is the exact quotient family they are checked
against in the tests.

PolynomialField   dense-by-terms polynomial in variables x1..xm
RationalField     quotients num / den**k with a fixed base denominator, closed
                  under +, *, and partial derivatives (quotient rule)
parse_expression  recursive-descent parser for the config expression grammar
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = ["PolynomialField", "RationalField", "ExpressionError", "parse_expression"]

# the highest total degree of an input polynomial: a parsed expression, a gap
# profile, a trace; the arithmetic of PolynomialField itself has no cap
MAX_DEGREE = 8
# the most bits the numerator or denominator of a parsed constant power may
# have, so that a short input such as 1.5^10000000 cannot stall the parse
MAX_POWER_BITS = 1 << 12


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, (int, np.integer)):
        return Fraction(int(c))
    if isinstance(c, float):
        return Fraction(c)  # exact binary value
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


class PolynomialField:
    """Polynomial in ``nvars`` variables with exact rational coefficients.

    Terms are stored as a mapping from exponent tuples to Fraction
    coefficients; zero coefficients are dropped so equality and is_zero are
    coefficient-level checks.  Instances are treated as immutable.

    Parameters
    ----------
    nvars : int
        Number of variables.  Variables are indexed 0..nvars-1 and printed
        as x1..x{nvars}.
    terms : mapping
        Exponent tuple -> coefficient.  Coefficients may be int, Fraction,
        str, or float (floats enter with their exact binary value).
    """

    def __init__(self, nvars, terms=None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        self.nvars = int(nvars)
        clean = {}
        for expo, c in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.nvars:
                raise ValueError(f"exponent {expo} has wrong length for nvars={nvars}")
            if any(e < 0 for e in expo):
                raise ValueError(f"negative exponent in {expo}")
            c = _as_fraction(c)
            if c != 0:
                clean[expo] = clean.get(expo, Fraction(0)) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}
        self._key = tuple(sorted(self.terms.items()))
        self._eval_cache = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: _as_fraction(c)})

    @classmethod
    def variable(cls, nvars, i):
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for nvars={nvars}")
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient(self, expo):
        return self.terms.get(tuple(expo), Fraction(0))

    def constant_term(self):
        return self.coefficient((0,) * self.nvars)

    def linear_coefficients(self):
        out = []
        for i in range(self.nvars):
            e = [0] * self.nvars
            e[i] = 1
            out.append(self.coefficient(e))
        return out

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable counts")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolynomialField.constant(self.nvars, other)
        if not isinstance(other, PolynomialField):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return PolynomialField(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return PolynomialField(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolynomialField.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return PolynomialField.zero(self.nvars)
            return PolynomialField(
                self.nvars, {e: c * other for e, c in self.terms.items()}
            )
        if not isinstance(other, PolynomialField):
            return NotImplemented
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return PolynomialField(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = PolynomialField.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialField)
            and self.nvars == other.nvars
            and self._key == other._key
        )

    def __hash__(self):
        return hash((self.nvars, self._key))

    # -- calculus ----------------------------------------------------------

    def deriv(self, i):
        """Exact partial derivative with respect to variable ``i``."""
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            terms[tuple(e2)] = c * e[i]
        return PolynomialField(self.nvars, terms)

    def grad(self):
        return [self.deriv(i) for i in range(self.nvars)]

    # -- evaluation --------------------------------------------------------

    def value(self, point):
        """Evaluate at a single point.

        Exact (Fraction) if every coordinate is int/Fraction, float otherwise.
        """
        if len(point) != self.nvars:
            raise ValueError("point has wrong dimension")
        exact = all(isinstance(p, (int, Fraction)) for p in point)
        total = Fraction(0) if exact else 0.0
        for e, c in self.terms.items():
            term = c if exact else float(c)
            for p, k in zip(point, e):
                if k:
                    term = term * p**k
            total = total + term
        return total

    def value_many(self, points):
        """Vectorized evaluation; ``points`` has shape (..., nvars)."""
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != self.nvars:
            raise ValueError("points have wrong dimension")
        if self._eval_cache is None:
            expos = np.array(sorted(self.terms), dtype=np.int64).reshape(
                len(self.terms), self.nvars
            )
            coefs = np.array([float(self.terms[tuple(e)]) for e in expos])
            self._eval_cache = (expos, coefs)
        expos, coefs = self._eval_cache
        if len(coefs) == 0:
            return np.zeros(pts.shape[:-1])
        if len(coefs) == 1 and not expos.any():
            # a constant: every power below is 1.0, so the sum is c exactly
            return np.full(pts.shape[:-1], coefs[0])
        # powers: (..., nterms, nvars) -> product over vars
        powers = pts[..., None, :] ** expos
        return (coefs * powers.prod(axis=-1)).sum(axis=-1)

    def c2_samples(self, values):
        """|f|, |grad f| and the Frobenius norm |hess f|_F at a set of
        samples, the three parts of every sampled C2 norm.  ``values`` maps
        a PolynomialField to its values there, e.g.
        ``lambda p: p.value_many(points)``."""
        value = np.abs(values(self))
        grad = self.grad()
        grad_sq = np.zeros_like(value)
        for d in grad:
            grad_sq = grad_sq + values(d) ** 2
        hess_sq = np.zeros_like(value)
        for d in grad:
            for j in range(self.nvars):
                hess_sq = hess_sq + values(d.deriv(j)) ** 2
        return value, np.sqrt(grad_sq), np.sqrt(hess_sq)

    def lift(self, nvars_new):
        """Embed into a larger variable set, the extra variables appended."""
        if nvars_new < self.nvars:
            raise ValueError("cannot lift to fewer variables")
        pad = (0,) * (nvars_new - self.nvars)
        return PolynomialField(nvars_new, {e + pad: c for e, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "<poly 0>"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"x{i+1}^{k}" if k > 1 else f"x{i+1}" for i, k in enumerate(e) if k
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "<poly " + " + ".join(bits) + ">"


class RationalField:
    """Rational function num / den**power with a fixed base denominator.

    The vertical interpolant and everything derived from it are quotients by
    powers of the single gap polynomial, so the family {p / q**k : p poly}
    is closed under sums, products and derivatives: the exact oracle for
    their float jets.  Addition requires both operands to share the same
    base ``den`` (enforced), which keeps quotient arithmetic exact without
    any gcd machinery.
    """

    def __init__(self, num, den, power=1):
        if not isinstance(num, PolynomialField) or not isinstance(den, PolynomialField):
            raise TypeError("num and den must be PolynomialField")
        if num.nvars != den.nvars:
            raise ValueError("num/den variable mismatch")
        if power < 0:
            raise ValueError("power must be >= 0")
        if den.is_zero():
            raise ZeroDivisionError("zero base denominator")
        if num.is_zero():
            power = 0
        self.num = num
        self.den = den
        self.power = int(power)

    @classmethod
    def from_poly(cls, p, den):
        return cls(p, den, 0)

    def _check(self, other):
        if self.den != other.den:
            raise ValueError("rational functions over different base denominators")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, PolynomialField)):
            other = RationalField.from_poly(
                other if isinstance(other, PolynomialField)
                else PolynomialField.constant(self.num.nvars, other),
                self.den,
            )
        if not isinstance(other, RationalField):
            return NotImplemented
        self._check(other)
        k = max(self.power, other.power)
        num = self.num * self.den ** (k - self.power) + other.num * self.den ** (
            k - other.power
        )
        return RationalField(num, self.den, k)

    __radd__ = __add__

    def __neg__(self):
        return RationalField(-self.num, self.den, self.power)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, PolynomialField)):
            return self + (-1 * other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalField(self.num * other, self.den, self.power)
        if isinstance(other, PolynomialField):
            return RationalField(self.num * other, self.den, self.power)
        if not isinstance(other, RationalField):
            return NotImplemented
        self._check(other)
        return RationalField(self.num * other.num, self.den, self.power + other.power)

    __rmul__ = __mul__

    def deriv(self, i):
        """Quotient rule: d/dx_i (p/q^k) = (p' q - k p q') / q^(k+1)."""
        if self.power == 0:
            return RationalField(self.num.deriv(i), self.den, 0)
        num = self.num.deriv(i) * self.den - self.power * self.num * self.den.deriv(i)
        return RationalField(num, self.den, self.power + 1)

    def is_zero(self):
        return self.num.is_zero()

    def value_many(self, points):
        num = self.num.value_many(points)
        if self.power == 0:
            return num
        den = self.den.value_many(points)
        return num / den**self.power

    def __repr__(self):
        return f"<rational ({self.num!r}) / ({self.den!r})^{self.power}>"


class ExpressionError(ValueError):
    """Syntax or name error in a config expression; carries the position."""

    def __init__(self, message, text, pos):
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.text = text
        self.pos = pos


class _Parser:
    # expr   := ('+'|'-')? term (('+'|'-') term)*
    # term   := factor ('*' factor)*
    # factor := atom ('^' int)*
    # atom   := number | var | '(' expr ')'
    def __init__(self, text, nvars):
        self.text = text
        self.nvars = nvars
        self.pos = 0

    def error(self, message):
        raise ExpressionError(message, self.text, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self):
        poly = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected {self.text[self.pos]!r}")
        return poly

    def expr(self):
        sign = 1
        if self.take("-"):
            sign = -1
        else:
            self.take("+")
        poly = self.term() * sign
        while True:
            if self.take("+"):
                poly = poly + self.term()
            elif self.take("-"):
                poly = poly - self.term()
            else:
                return poly

    def cap(self, degree, start):
        """Refuse a product or power above MAX_DEGREE before it is expanded,
        so that a short input such as 0*(1+x1)^3000 cannot stall the parse."""
        if degree > MAX_DEGREE:
            self.pos = start
            self.error(f"degree {degree} > {MAX_DEGREE}")

    def term(self):
        self.skip_ws()
        start = self.pos
        poly = self.factor()
        while self.take("*"):
            other = self.factor()
            self.cap(poly.degree() + other.degree(), start)
            poly = poly * other
        return poly

    def factor(self):
        self.skip_ws()
        start = self.pos
        poly = self.atom()
        while self.take("^"):
            k = self.exponent(poly)
            self.cap(poly.degree() * k, start)
            if poly.degree() == 0:
                c = poly.constant_term()
                # a lower bound on the bits of (p/q)^k, taken before computing it
                if k * math.log2(max(abs(c.numerator), c.denominator)) > MAX_POWER_BITS:
                    self.pos = start
                    self.error(f"constant power above {MAX_POWER_BITS} bits")
            poly = poly ** k
        return poly

    def digits(self):
        """The digits at the cursor, leading zeros dropped ("0" if all are
        zeros, "" if none), to be length-checked before int() sees them."""
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        text = self.text[start : self.pos]
        return text.lstrip("0") or text[:1]

    def exponent(self, base):
        """The integer after '^'.  A power of 0, 1 or -1 needs only its
        parity, and any other base refuses an exponent above MAX_POWER_BITS."""
        self.skip_ws()
        start = self.pos
        digits = self.digits()
        if not digits:
            self.error("expected integer exponent after '^'")
        if base.degree() <= 0 and base.constant_term() in (-1, 0, 1):
            return 0 if digits == "0" else 2 - int(digits[-1]) % 2
        if len(digits) > len(str(MAX_POWER_BITS)):
            self.pos = start
            self.error(f"exponent {digits} > {MAX_POWER_BITS}")
        return int(digits)

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            poly = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            return poly
        if ch == "x":
            start = self.pos
            self.pos += 1
            idx = self.digits()
            if not idx:
                self.pos = start
                self.error("expected variable index after 'x'")
            if len(idx) > len(str(self.nvars)) or not 1 <= int(idx) <= self.nvars:
                self.pos = start
                self.error(f"undefined variable x{idx}")
            return PolynomialField.variable(self.nvars, int(idx) - 1)
        if ch.isdigit() or ch == ".":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isdigit() or self.text[self.pos] == "."
            ):
                self.pos += 1
            token = self.text[start : self.pos]
            try:
                c = Fraction(token)
            except (ValueError, ZeroDivisionError):
                self.pos = start
                self.error(f"bad number {token!r}")
            return PolynomialField.constant(self.nvars, c)
        if ch == "":
            self.error("unexpected end of expression")
        self.error(f"unexpected {ch!r}")


def parse_expression(text, nvars):
    """Parse a polynomial expression over variables x1..x{nvars}.

    Grammar: sums/differences of products of numbers, variables, integer
    powers and parenthesized subexpressions.  Decimal literals become exact
    rationals (``0.5`` is one half, not the nearest float).  Too deep a
    nesting, a product or power above MAX_DEGREE, a constant power above
    MAX_POWER_BITS and a coefficient beyond the float range are errors.

    >>> parse_expression("0.5*x1^2 - 0.25*x1^4", 1).coefficient((2,))
    Fraction(1, 2)
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression", str(text), 0)
    parser = _Parser(text, nvars)
    try:
        poly = parser.parse()
        for c in poly.terms.values():
            float(c)  # OverflowError beyond the float range
    except RecursionError:
        raise ExpressionError("expression nested too deeply", text, parser.pos) from None
    except OverflowError:
        raise ExpressionError("coefficient beyond the float range", text, 0) from None
    return poly
