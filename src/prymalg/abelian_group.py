"""Finite abelian groups: deck groups of abelian covers, written additively.

A group is a direct sum of cyclic factors Z/f with every f >= 2; the
empty factor list is the trivial group.  An element is a plain tuple of
ints, one reduced residue per cyclic factor.
A symbolic-order tag stands in for the genus-g level-l deck group when
its order l^(2g) is to be carried as the indeterminate m instead of a
concrete integer; symbolic computations never enumerate elements.
``check_concrete`` is the one guard that refuses a group without
elements, and ``concrete_order`` the one place a group becomes the
integer m; an untwisted ``AlgebraSpec`` holds the trivial group, of order 1.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
import re
from .errors import CapExceededError, InvalidParameterError, ParseError, _Value

DEFAULT_ENUMERATION_CAP = 10**6
MAX_GROUP_RANK = 10**4
MAX_ORDER_BITS = 2**28
"""The most bits, 2 genus log2(level), of a bound ``SymbolicOrder``'s
order, refused before the power is taken.  In one CPython 3.11 process
on a 2-vCPU Xeon, 2^(2^28) took 1.8 s of CPU and a 124 MB peak, and
2^(2^30) 5.9 s and 440 MB; a level with no power-of-two shortcut is
slower (3^(2g) at 2^26 bits took 25 s, at 2^27 bits 78 s).  Under a 1 GB
address-space limit, level 2 at genus 10^11 raised MemoryError."""


def format_element(x):
    """Text form of a residue tuple, e.g. "(0,1)"."""
    return "(" + ",".join(map(str, x)) + ")"


class FiniteAbelianGroup(_Value, fields=("cyclic_factors",)):
    """Direct sum of cyclic groups; factor order is irrelevant to semantics."""

    __slots__ = ("cyclic_factors", "_identity")

    def __init__(self, cyclic_factors: tuple[int, ...]):
        factors = tuple(int(f) for f in cyclic_factors)
        if any(f < 2 for f in factors):
            raise InvalidParameterError(
                "cyclic factors must all be >= 2; the trivial group is ()"
            )
        object.__setattr__(self, "cyclic_factors", factors)
        object.__setattr__(self, "_identity", (0,) * len(factors))

    def order(self):
        # one power per distinct factor: H1(g, l) has 2g equal factors
        counts = collections.Counter(self.cyclic_factors)
        return math.prod(f**k for f, k in counts.items())

    def identity(self):
        return self._identity

    def element(self, residues):
        """Reduce a residue vector into the group (idempotent)."""
        residues = tuple(int(x) for x in residues)
        if len(residues) != len(self.cyclic_factors):
            raise InvalidParameterError(
                "expected %d residues, got %d"
                % (len(self.cyclic_factors), len(residues))
            )
        return tuple(map(operator.mod, residues, self.cyclic_factors))

    def elements(self):
        """All elements, identity first, in mixed-radix order."""
        if self.order() > DEFAULT_ENUMERATION_CAP:
            raise CapExceededError(
                "group order %d exceeds enumeration cap %d"
                % (self.order(), DEFAULT_ENUMERATION_CAP)
            )
        return list(itertools.product(*(range(f) for f in self.cyclic_factors)))

    def add(self, x, y):
        return tuple(map(operator.mod, map(operator.add, x, y), self.cyclic_factors))

    def negate(self, x):
        return tuple(map(operator.mod, map(operator.neg, x), self.cyclic_factors))

    def subtract(self, x, y):
        """x - y, in one pass: ``add(x, negate(y))``."""
        return tuple(map(operator.mod, map(operator.sub, x, y), self.cyclic_factors))

    def torsion_count(self, n):
        """Number of x with n*x = 0, one gcd per cyclic factor."""
        if n < 1:
            raise InvalidParameterError("n must be >= 1")
        return math.prod(math.gcd(n, f) for f in self.cyclic_factors)

    def __str__(self):
        if not self.cyclic_factors:
            return "Z1"
        return "x".join("Z%d" % f for f in self.cyclic_factors)


class SymbolicOrder(_Value):
    """The deck-group order l^(2g) kept as the indeterminate m.

    Optionally bound to concrete (level, genus); ``concrete_order`` then
    gives the exact integer value.  A genus alone is allowed (it still
    fixes stable ranges); a level alone names no group and is refused,
    and so is an order past ``MAX_ORDER_BITS``.
    """

    __slots__ = ("level", "genus")

    def __init__(self, level: int | None = None, genus: int | None = None):
        if level is not None and genus is None:
            raise InvalidParameterError("a level needs a genus: alone it names no deck group")
        if genus is not None and genus < 0:
            raise InvalidParameterError("genus must be >= 0")
        if level is not None:
            if level < 2:
                raise InvalidParameterError("level must be >= 2")
            if 2 * genus > MAX_ORDER_BITS / math.log2(level):
                raise CapExceededError(
                    "deck-group order level^(2 genus) exceeds cap of %d bits"
                    % MAX_ORDER_BITS
                )
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "genus", genus)

    @property
    def is_bound(self):
        return self.level is not None and self.genus is not None

    def __str__(self):
        return "m"


def concrete_order(group):
    """|D| as an int: the order of a finite group or of a bound symbolic
    order; None for an unbound symbolic order or no group at all.

    This is the one place a deck group becomes an integer m.  Whether a
    table of counts needs it at all is decided by ``polynomial.deck_order``,
    which evaluates them there (``polynomial.at_order``).
    """
    if isinstance(group, SymbolicOrder):
        return group.level ** (2 * group.genus) if group.is_bound else None
    return None if group is None else group.order()


def check_concrete(group):
    """group, when it is a FiniteAbelianGroup; a deck group without elements
    to weight blocks with (a symbolic order, None, anything else) is refused."""
    if not isinstance(group, FiniteAbelianGroup):
        raise InvalidParameterError(
            "operation requires a concrete group, got %r" % (group,)
        )
    return group


def homology_group(genus, level):
    """First homology of the closed genus-g surface with Z/l coefficients."""
    if genus < 0:
        raise InvalidParameterError("genus must be >= 0")
    if level < 2:
        raise InvalidParameterError("level must be >= 2")
    return FiniteAbelianGroup((level,) * (2 * genus))


_H1_RE = re.compile(r"H1\(\s*g\s*=\s*(\d+)\s*,\s*l\s*=\s*(\d+)\s*\)")
_FACTOR_RE = re.compile(r"Z(\d+)(?:\^(\d+))?")


def _check_rank(rank, text):
    if rank > MAX_GROUP_RANK:
        raise CapExceededError(
            "group %r has %d cyclic factors, more than the cap %d"
            % (text, rank, MAX_GROUP_RANK)
        )


def parse_group_literal(text):
    """Parse a group literal: "Z2xZ2", "Z3^4", or "H1(g=2,l=3)".

    "Z1" factors are accepted and dropped (they contribute nothing).  The
    number of cyclic factors is counted from the literal and checked
    against MAX_GROUP_RANK before the factor list is built.
    """
    t = text.strip()
    if not t:
        raise ParseError("empty group literal")
    m = _H1_RE.fullmatch(t)
    if m:
        genus = int(m.group(1))
        _check_rank(2 * genus, t)
        return homology_group(genus, int(m.group(2)))
    if t.startswith("H1"):
        raise ParseError("malformed H1 literal %r; expected H1(g=<int>,l=<int>)" % t)
    powers = []
    for token in t.split("x"):
        m = _FACTOR_RE.fullmatch(token.strip())
        if not m:
            raise ParseError("unrecognized group token %r in %r" % (token, text))
        n = int(m.group(1))
        k = int(m.group(2)) if m.group(2) else 1
        if n == 0:
            raise ParseError("unrecognized group token %r in %r" % (token, text))
        if n > 1:
            powers.append((n, k))
    _check_rank(sum(k for _, k in powers), t)
    return FiniteAbelianGroup(tuple(n for n, k in powers for _ in range(k)))
