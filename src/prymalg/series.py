"""Dimension tables built from truncated series and the algebra dimensions.

Tables hold exact coefficients, never closed-form rational functions.
Every count is built as a polynomial in the deck-group order m and kept
in ``poly_entries``; ``entries`` holds it at m = |D| (``at_order``), or
None while m is unbound.  Each table is built whole, in one constructor
call, by ``_build``.  Every entry
carries an in_stable_range flag; entries outside the proven genus range
are still computed, because the formulas are total, but consumers must
treat them as extrapolations.  When the genus is not bound the flag is
False: an entry is only marked in range when that is provable from the
given parameters.

The stability comparison ``putman_gap`` reads one level polynomial P_k
at m = 1 (the untwisted entry) and at m = |D|; ``_m_degree`` owns the
paper's dichotomy, the m-degree of P_k, and P_k is checked against it.

A boundary-component count never enters: the tables depend on the genus,
the puncture count, and the level only.  A table for p = 0 refers to a
surface with at least one boundary component; a closed surface is outside
the hypotheses of every twisted table here and is rejected explicitly.
"""

from __future__ import annotations

from .abelian_group import SymbolicOrder, concrete_order
from .algebra import AlgebraSpec, Variant, graded_dimension
from .errors import CapExceededError, InvalidParameterError, OracleMismatchError, _Value
from .partitions import (
    MAX_COUNT_R,
    JVector,
    block_singleton_counts,
    coin_counts,
    count_d_weighted_partitions,
)
from .polynomial import M, IntPoly, as_poly, at_order

import enum
import itertools
import math

MAX_STABLE_DEGREE = 200


class StableRangeKind(enum.Enum):
    PUTMAN = "putman"
    LOOIJENGA = "looijenga"


def in_stable_range(kind, genus, k):
    """Whether degree k is inside the proven range for the given genus."""
    if genus < 0 or k < 0:
        raise InvalidParameterError("genus and degree must be >= 0")
    if kind is StableRangeKind.PUTMAN:
        return genus >= 2 * k * k + 7 * k + 2
    if kind is StableRangeKind.LOOIJENGA:
        return 2 * genus >= 3 * k + 2
    raise InvalidParameterError("unknown stable range kind %r" % (kind,))


class DimensionTable(_Value):
    """Map degree -> exact count, with per-entry stable-range flags.

    Twisted tables are keyed by the total degree k; the group-cohomology
    degree of the k-entry is k - r and is reported alongside (k itself
    when r is None, as for the stable ring).
    """

    __slots__ = ("r", "genus", "poly_entries", "entries", "in_range")

    def __init__(
        self,
        r: int | None,
        genus: int | None,
        poly_entries: dict[int, IntPoly],
        entries: dict[int, int | None],
        in_range: dict[int, bool],
    ):
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "poly_entries", poly_entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "in_range", in_range)

    def rows(self):
        """Row dicts in the delimited-output column order."""
        return [
            {
                "k": k,
                "cohomological_degree": k if self.r is None else k - self.r,
                "dim_polynomial_in_m": str(poly),
                "dim_at_concrete_m": self.entries[k],
                "in_stable_range": self.in_range[k],
            }
            for k, poly in self.poly_entries.items()
        ]


def _check_max_degree(name, value):
    if not 0 <= value <= MAX_STABLE_DEGREE:
        raise InvalidParameterError("%s must lie in [0, %d]" % (name, MAX_STABLE_DEGREE))


def _build(p, max_k, factor, m=1, r=None, genus=None, kind=None):
    """The table of the stable ring with p punctures convolved with an
    algebra factor, up to degree max_k.

    factor[b] is the factor's degree-b dimension as a polynomial in m (an
    int is a constant one), zero past the end of the list.  Each entry is
    the convolved polynomial at m (``at_order``), None while m is None;
    the sums run on coefficient lists, with one IntPoly built per entry.
    The flags are those of ``kind`` at the genus, False while the genus
    is unbound, and all True for kind None (the stable ring itself).

    The stable ring is p degree-2 classes times one degree-2i class for
    each i >= 1.  It is free, so its degree-2q dimension is ``coin_counts``
    at q with p + 1 coins of half-degree 1 and one of each half-degree 2
    to q; p enters only as a number of coins, so the cost hardly grows
    with it.
    """
    max_q = max_k // 2
    coins = {1: p + 1, **dict.fromkeys(range(2, max_q + 1), 1)}
    stable = list(itertools.islice(coin_counts(coins), max_q + 1))
    rows = [as_poly(f).coeffs for f in factor]
    width = max(map(len, rows), default=0)
    poly_entries, entries, in_range = {}, {}, {}
    for k in range(max_k + 1):
        coeffs = [0] * width
        # the stable ring lives in even degrees, so b has k's parity
        for b in range(k % 2, min(k + 1, len(rows)), 2):
            c = stable[(k - b) // 2]
            for i, x in enumerate(rows[b]):
                coeffs[i] += c * x
        poly = poly_entries[k] = IntPoly(coeffs)
        entries[k] = None if m is None else at_order(poly, m)
        in_range[k] = kind is None or (
            genus is not None and in_stable_range(kind, genus, k)
        )
    return DimensionTable(r, genus, poly_entries, entries, in_range)


def stable_cohomology_dims(p, max_degree):
    """Stable ring dimensions (see ``_build``), truncated at max_degree."""
    if p < 0:
        raise InvalidParameterError("p must be >= 0")
    _check_max_degree("max_degree", max_degree)
    return _build(p, max_degree, [1])


def _algebra_factor_spec(mode, r, level, genus):
    """The table's algebra factor with m unbound, and the m = |D| its
    entries are evaluated at: 1 for the untwisted factor, and for a level
    factor at r <= 1, whose entries are constant in m (``_m_degree``)."""
    if mode == "level":
        # only |D| = level^(2 genus) is needed, never the 2 genus factors
        order = SymbolicOrder(level=level, genus=genus)
        m = concrete_order(order) if r >= 2 or not order.is_bound else 1
        return AlgebraSpec(Variant.LEVEL_PRIME, r, SymbolicOrder()), m
    if mode == "full-mcg":
        if level is not None:
            raise InvalidParameterError("full-mcg mode takes no level")
        return AlgebraSpec(Variant.KAWAZUMI_DPRIME, r), 1
    raise InvalidParameterError("mode must be 'level' or 'full-mcg', got %r" % (mode,))


def twisted_cohomology_dims(
    r,
    p,
    *,
    mode="level",
    level=None,
    genus=None,
    max_k=20,
    closed_surface=False,
):
    """Tensor-power twisted-coefficient table up to total degree max_k.

    The k-entry is the convolution of the stable ring with the prime
    algebra factor (deck-weighted for mode="level", untwisted for
    mode="full-mcg") and describes group cohomology in degree k - r.
    In level mode, leaving level/genus unbound keeps m unbound: the
    entries are None and the polynomials are in ``poly_entries``.  The
    surface must not be closed: with p = 0 the table refers to a surface
    with boundary (which count never enters).
    """
    if r < 0 or p < 0:
        raise InvalidParameterError("r and p must be >= 0")
    if genus is not None and genus < 0:
        raise InvalidParameterError("genus must be >= 0")
    if closed_surface:
        if p == 0:
            raise InvalidParameterError(
                "closed surface (p = 0, no boundary) is outside the hypotheses "
                "of the twisted tables; they require a puncture or boundary"
            )
        raise InvalidParameterError(
            "closed_surface contradicts p >= 1 (punctures make the surface open)"
        )
    _check_max_degree("max_k", max_k)
    spec, m = _algebra_factor_spec(mode, r, level, genus)
    alg = [graded_dimension(spec, b) for b in range(max_k + 1)]
    kind = StableRangeKind.PUTMAN if mode == "level" else StableRangeKind.LOOIJENGA
    return _build(p, max_k, alg, m, r, genus, kind)


def _m_degree(r, k):
    """The m-degree of a level table's k-entry, -1 for a zero entry: the
    paper's dichotomy, 0 (stable) for r <= 1 and growing for r >= 2.

    A set partition of {1..r} with b blocks, s of them singletons, adds
    m^(r-b) from degree 2(r - b + s) on (``graded_dimension``), so at
    k = 2q the top degree is the largest r - b with r - b + s <= q:
    min(q, r - 1), through blocks of size >= 2, once q >= ceil(r/2).
    """
    if k % 2 or k < 2 * ((r + 1) // 2):
        return -1
    return 0 if r <= 1 else min(k // 2, r - 1)


def putman_gap(r, p, k, level, genus):
    """(lhs_dim, rhs_dim) at degree k: the k-entry P_k of one level table
    with m unbound, read at m = 1, where every deck weight is trivial and
    P_k is the untwisted entry, and at m = |D| = level^(2 genus).  P_k
    must have the m-degree ``_m_degree`` gives; any other is an oracle
    mismatch."""
    if r < 0 or p < 0:
        raise InvalidParameterError("r and p must be >= 0")
    order = SymbolicOrder(level=level, genus=genus)
    if k < 0:
        raise InvalidParameterError("k must be >= 0")
    if k % 2 == 1:
        raise InvalidParameterError(
            "k must be even: both compared dimensions vanish for odd k"
        )
    if not in_stable_range(StableRangeKind.PUTMAN, genus, k):
        raise InvalidParameterError(
            "(genus=%d, k=%d) is outside the proven range genus >= 2k^2+7k+2 = %d"
            % (genus, k, 2 * k * k + 7 * k + 2)
        )
    _check_max_degree("k", k)
    poly = twisted_cohomology_dims(r, p, max_k=k).poly_entries[k]
    expected = _m_degree(r, k)
    if poly.degree != expected:
        raise OracleMismatchError(
            "expected m-degree %d for r=%d, k=%d but the level entry has %d"
            % (expected, r, k, poly.degree)
        )
    m = concrete_order(order) if expected > 0 else 1  # a P_k constant in m needs no |D|
    return at_order(poly, 1), at_order(poly, m)


def j_factor_dimension(j_vector, degree):
    """Degree slice of the J-compatible summand over partitions of {1..r+1}.

    Block 1 (the one containing index 1) carries only non-identity
    weights, giving (m-1) choices each, and is barred from indices whose
    slot tag is 1; singleton blocks other than {1} start their exponent
    at 1.  Returns a polynomial in m.

    Block 1 is {1} plus s of the untagged slots.  The other r - s indices
    form b blocks, k of them singletons, counted by
    ``block_singleton_counts(r - s)``; with b + 1 blocks in all, the
    exponents add t = q - (r - b) - k over the minimum in C(t + b, b) ways.
    """
    if degree < 0:
        raise InvalidParameterError("degree must be >= 0")
    r = len(j_vector)
    if r > MAX_COUNT_R:
        raise CapExceededError(
            "J-vector of length %d exceeds counting cap %d" % (r, MAX_COUNT_R)
        )
    if degree % 2 == 1:
        return IntPoly.zero()
    q = degree // 2
    cold = r - sum(j_vector.entries)
    total = IntPoly.zero()
    for s in range(cold + 1):
        block_one = (M - 1) ** s * math.comb(cold, s)
        for b, k, count in block_singleton_counts(r - s):
            t = q - (r - b) - k
            if t < 0:
                continue
            others = IntPoly.monomial(count * math.comb(t + b, b), r - s - b)
            total = total + block_one * others
    return total


def j_twisted_dims(j_vector, level, genus, max_k=20):
    """Slot-tagged twisted table in the one-marked-point setting."""
    if not isinstance(j_vector, JVector):
        j_vector = JVector(tuple(j_vector))
    order = SymbolicOrder(level=level, genus=genus)
    _check_max_degree("max_k", max_k)
    factor = [j_factor_dimension(j_vector, b) for b in range(max_k + 1)]
    m = concrete_order(order)
    return _build(0, max_k, factor, m, len(j_vector), genus, StableRangeKind.PUTMAN)


def stratum_census(r, codim):
    """Number of weighted partitions of {1..r} with r - (block count) =
    codim, as a polynomial in m: the m^codim term of
    ``count_d_weighted_partitions(r)``."""
    counts = count_d_weighted_partitions(r)  # refuses r past MAX_COUNT_R
    if not 0 <= codim <= r:
        raise InvalidParameterError("codim must lie in [0, r]")
    return IntPoly.monomial(counts.coefficient(codim), codim)
