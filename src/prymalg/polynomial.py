"""Univariate integer polynomials in the symbol m (the deck-group order).

Every closed-form count is built one way: as a polynomial in m with
integer coefficients (an int is a constant one).  ``deck_order`` reads
off the counts to be printed the m they are read at, and ``at_order`` is
the one place a count becomes a number there (None while m is unbound).
Evaluation uses arbitrary-precision integers.
"""

from __future__ import annotations

from .abelian_group import SymbolicOrder, concrete_order


class IntPoly:
    """Immutable polynomial in m with int coefficients, ascending by power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = tuple(int(c) for c in coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def constant(cls, c):
        return cls((c,))

    @classmethod
    def monomial(cls, c, power):
        if power < 0:
            raise ValueError("power must be >= 0")
        return cls((0,) * power + (c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def coefficient(self, power):
        return self.coeffs[power] if 0 <= power < len(self.coeffs) else 0

    def evaluate(self, m):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * m + c
        return acc

    def __add__(self, other):
        other = as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-as_poly(other))

    def __rsub__(self, other):
        return as_poly(other) + (-self)

    def __mul__(self, other):
        other = as_poly(other)
        if self.is_zero() or other.is_zero():
            return IntPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        acc = IntPoly.constant(1)
        for _ in range(n):
            acc = acc * self
        return acc

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs == ((other,) if other != 0 else ())
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        # constants hash like the plain int they equal
        if self.is_constant():
            return hash(self.coefficient(0))
        return hash(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = head + ("m" if power == 1 else "m^%d" % power)
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self):
        return "IntPoly(%r)" % (self.coeffs,)


def deck_order(group, counts):
    """The m that counts are read at: None while the group's order is
    unbound, 1 when every count is constant in m, else ``concrete_order``,
    a power that costs seconds at a large genus, so asked once per table."""
    if group is None or (isinstance(group, SymbolicOrder) and not group.is_bound):
        return None
    if all(as_poly(count).degree <= 0 for count in counts):
        return 1
    return concrete_order(group)


def at_order(count, m):
    """The count at m = |D|, None while m is None (unbound)."""
    return None if m is None else as_poly(count).evaluate(m)


def as_poly(value):
    """value as an IntPoly; an int is a constant polynomial."""
    if isinstance(value, IntPoly):
        return value
    if isinstance(value, int):
        return IntPoly((value,))
    raise TypeError("cannot combine IntPoly with %r" % type(value))


M = IntPoly((0, 1))
