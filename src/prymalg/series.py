"""Dimension tables built from truncated series and the algebra dimensions.

Tables hold exact coefficients, never closed-form rational functions.
Every count is built as a polynomial in the deck-group order m and kept
in ``poly_entries``; ``entries`` holds it at m = |D| (``at_order``), or
the polynomial itself while m is unbound.  Every entry
carries an in_stable_range flag; entries outside the proven genus range
are still computed, because the formulas are total, but consumers must
treat them as extrapolations.  When the genus is not bound the flag is
False: an entry is only marked in range when that is provable from the
given parameters.

A boundary-component count never enters: the tables depend on the genus,
the puncture count, and the level only.  A table for p = 0 refers to a
surface with at least one boundary component; a closed surface is outside
the hypotheses of every twisted table here and is rejected explicitly.
"""

from __future__ import annotations

from .abelian_group import SymbolicOrder, check_homology_parameters, concrete_order
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
    HARER = "harer"


def in_stable_range(kind, genus, k):
    """Whether degree k is inside the proven range for the given genus."""
    if genus < 0 or k < 0:
        raise InvalidParameterError("genus and degree must be >= 0")
    if kind is StableRangeKind.PUTMAN:
        return genus >= 2 * k * k + 7 * k + 2
    if kind is StableRangeKind.LOOIJENGA:
        return 2 * genus >= 3 * k + 2
    if kind is StableRangeKind.HARER:
        return 3 * k <= 2 * (genus - 1)
    raise InvalidParameterError("unknown stable range kind %r" % (kind,))


class DimensionTable(_Value, frozen=False):
    """Map degree -> exact count, with per-entry stable-range flags.

    Twisted tables are keyed by the total degree k; the group-cohomology
    degree of the k-entry is k - r and is reported alongside.
    Each dict field left out starts as a new empty dict.
    """

    __slots__ = (
        "variant", "entries", "in_range", "r", "p", "level", "genus", "symbolic",
        "poly_entries",
    )

    def __init__(
        self,
        variant: str,
        entries: dict[int, object] | None = None,
        in_range: dict[int, bool] | None = None,
        r: int | None = None,
        p: int | None = None,
        level: int | None = None,
        genus: int | None = None,
        symbolic: bool = False,
        # the entries as polynomials in m
        poly_entries: dict[int, IntPoly] | None = None,
    ):
        self.variant = variant
        self.entries = {} if entries is None else entries
        self.in_range = {} if in_range is None else in_range
        self.r = r
        self.p = p
        self.level = level
        self.genus = genus
        self.symbolic = symbolic
        self.poly_entries = {} if poly_entries is None else poly_entries

    def degrees(self):
        return sorted(self.entries)

    def value(self, k):
        return self.entries[k]

    def flag(self, k):
        return self.in_range[k]

    def cohomological_degree(self, k):
        return k - self.r if self.r is not None else k

    def rows(self):
        """Row dicts in the delimited-output column order."""
        return [
            {
                "k": k,
                "cohomological_degree": self.cohomological_degree(k),
                "dim_polynomial_in_m": str(self.poly_entries[k]),
                "dim_at_concrete_m": None if self.symbolic else self.entries[k],
                "in_stable_range": self.in_range[k],
            }
            for k in self.degrees()
        ]


def stable_cohomology_dims(p, max_degree):
    """Stable ring dimensions: p degree-2 classes times one degree-2i
    class for each i >= 1, truncated at max_degree.  That ring is free,
    so its degree-2q dimension is ``coin_counts`` at q with p + 1 coins
    of half-degree 1 and one of each half-degree 2 to q; p enters only
    as a number of coins, so the cost hardly grows with it."""
    if p < 0:
        raise InvalidParameterError("p must be >= 0")
    if not 0 <= max_degree <= MAX_STABLE_DEGREE:
        raise InvalidParameterError(
            "max_degree must lie in [0, %d]" % MAX_STABLE_DEGREE
        )
    max_q = max_degree // 2
    coins = {1: p + 1, **dict.fromkeys(range(2, max_q + 1), 1)}
    ways = list(itertools.islice(coin_counts(coins), max_q + 1))
    table = DimensionTable(variant="stable", p=p)
    for k in range(max_degree + 1):
        table.entries[k] = ways[k // 2] if k % 2 == 0 else 0
        table.poly_entries[k] = IntPoly.constant(table.entries[k])
        table.in_range[k] = True
    return table


def _algebra_factor_spec(mode, r, level, genus):
    """The table's algebra factor with m unbound, and the m = |D| its
    entries are evaluated at (1 for the untwisted factor)."""
    if mode == "level":
        # only |D| = level^(2 genus) is needed, never the 2 genus factors
        order = concrete_order(SymbolicOrder(level=level, genus=genus))
        return AlgebraSpec(Variant.LEVEL_PRIME, r, SymbolicOrder()), order
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
    In level mode, leaving level/genus unbound keeps entries polynomial
    in m.  The surface must not be closed: with p = 0 the table refers
    to a surface with boundary (which count never enters).
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
    if not 0 <= max_k <= MAX_STABLE_DEGREE:
        raise InvalidParameterError("max_k must lie in [0, %d]" % MAX_STABLE_DEGREE)
    spec, m = _algebra_factor_spec(mode, r, level, genus)
    alg = [graded_dimension(spec, b) for b in range(max_k + 1)]
    kind = StableRangeKind.PUTMAN if mode == "level" else StableRangeKind.LOOIJENGA
    table = DimensionTable(
        variant=mode,
        r=r,
        p=p,
        level=level,
        genus=genus,
        symbolic=m is None,
    )
    _convolve_into(table, stable_cohomology_dims(p, max_k), alg, m, kind)
    return table


def _convolve_into(table, stable, factor, m, kind):
    """Fill table with the stable ring convolved with an algebra factor.

    factor[b] is the factor's degree-b dimension as a polynomial in m (an
    int is a constant one); each entry is the convolved polynomial at m
    (``at_order``).  The sums run on coefficient lists, with one IntPoly
    built per entry.
    """
    rows = [as_poly(f).coeffs for f in factor]
    width = max(map(len, rows), default=0)
    for k in range(len(factor)):
        coeffs = [0] * width
        for a in range(0, k + 1, 2):
            c = stable.value(a)
            for i, x in enumerate(rows[k - a]):
                coeffs[i] += c * x
        poly = IntPoly(coeffs)
        table.poly_entries[k] = poly
        table.entries[k] = at_order(poly, m)
        table.in_range[k] = (
            in_stable_range(kind, table.genus, k) if table.genus is not None else False
        )


def putman_gap(r, p, k, level, genus):
    """Compare the untwisted-coefficient and deck-twisted tables at degree
    k: (lhs_dim, rhs_dim), the full-mcg entry and the level entry."""
    if r < 0 or p < 0:
        raise InvalidParameterError("r and p must be >= 0")
    check_homology_parameters(genus, level)
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
    lhs = twisted_cohomology_dims(r, p, mode="full-mcg", genus=genus, max_k=k).value(k)
    rhs = twisted_cohomology_dims(
        r, p, mode="level", level=level, genus=genus, max_k=k
    ).value(k)
    if r >= 2 and k >= r + r % 2 and lhs == rhs:
        # from degree 2*ceil(r/2) on (r/2 pair blocks, or one triple for
        # odd r), two or more tensor factors always gain deck-weighted
        # classes; equality there means a computation bug
        raise OracleMismatchError(
            "expected differing dimensions for r=%d, k=%d but both are %d"
            % (r, k, lhs)
        )
    return lhs, rhs


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
    check_homology_parameters(genus, level)
    if not 0 <= max_k <= MAX_STABLE_DEGREE:
        raise InvalidParameterError("max_k must lie in [0, %d]" % MAX_STABLE_DEGREE)
    factor = [j_factor_dimension(j_vector, b) for b in range(max_k + 1)]
    table = DimensionTable(
        variant="j-twisted", r=len(j_vector), p=None, level=level, genus=genus
    )
    _convolve_into(
        table,
        stable_cohomology_dims(0, max_k),
        factor,
        concrete_order(SymbolicOrder(level=level, genus=genus)),
        StableRangeKind.PUTMAN,
    )
    return table


def stratum_census(r, codim):
    """Number of weighted partitions of {1..r} with r - (block count) =
    codim, as a polynomial in m: the m^codim term of
    ``count_d_weighted_partitions(r)``."""
    counts = count_d_weighted_partitions(r)  # refuses r past MAX_COUNT_R
    if not 0 <= codim <= r:
        raise InvalidParameterError("codim must lie in [0, r]")
    return IntPoly.monomial(counts.coefficient(codim), codim)
