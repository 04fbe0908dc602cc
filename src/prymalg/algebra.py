"""Normal-form arithmetic and graded dimensions for five quotient algebras.

The algebras are generated by degree-2 classes (one per index, written u
in the untwisted case and v in the deck-weighted case) together with
classes a attached to weighted index subsets of size >= 2, of degree
2|S| - 2.  Products of a-classes merge overlapping blocks, shedding one
v-power per shared index beyond the first, and vanish when the weight
constraints of the two blocks contradict.  A normal monomial is a
deck-weighted partition with one exponent per block, which builds the
"all v's on a block agree" relation into the data type.

Five variants share this machinery:

    LOOIJENGA_FULL   untwisted full algebra
    LOOIJENGA_PRIME  untwisted subspace, singleton exponents >= 2
    KAWAZUMI_DPRIME  untwisted subspace, singleton exponents >= 1
    LEVEL_FULL       deck-weighted full algebra
    LEVEL_PRIME      deck-weighted subspace, singleton exponents >= 1

The primed variants are graded subspaces (not unital subalgebras) of
their full counterparts; multiply is exposed on the full variants and
membership is tested with in_subspace.  These are abstract presented
algebras: identifications with cohomology rings are only valid inside
the stable genus ranges tracked by the series module.  An untwisted
spec holds the trivial group; ``check_basis_degree`` bounds the degree
of every slice that is enumerated, built by the oracle or traced.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import re
import typing
from fractions import Fraction

from .abelian_group import (
    DEFAULT_ENUMERATION_CAP,
    FiniteAbelianGroup,
    SymbolicOrder,
    check_concrete,
    concrete_order,
    format_element,
)
from .errors import CapExceededError, InvalidParameterError, ParseError, _Value
from .partitions import (
    MAX_COUNT_R,
    DWeightedPartition,
    _compositions,
    block_offsets,
    block_singleton_counts,
    coin_counts,
    enumerate_set_partitions,
    merge_offsets,
    parse_block,
    rebase_offsets,
    relabel,
)
from .polynomial import IntPoly, at_order, deck_order

DEFAULT_BASIS_DEGREE_CAP = 64
ORACLE_MAX_COLUMNS = 10**5

TRIVIAL_GROUP = FiniteAbelianGroup(())


class Variant(enum.Enum):
    LOOIJENGA_FULL = "looijenga-full"
    LOOIJENGA_PRIME = "looijenga-prime"
    KAWAZUMI_DPRIME = "kawazumi-dprime"
    LEVEL_FULL = "level-full"
    LEVEL_PRIME = "level-prime"

    @property
    def twisted(self):
        return self in (Variant.LEVEL_FULL, Variant.LEVEL_PRIME)

    @property
    def singleton_min_exponent(self):
        return _SINGLETON_MIN[self]

    @property
    def is_full(self):
        return self in (Variant.LOOIJENGA_FULL, Variant.LEVEL_FULL)

    @property
    def full_variant(self):
        return Variant.LEVEL_FULL if self.twisted else Variant.LOOIJENGA_FULL


_SINGLETON_MIN = {
    Variant.LOOIJENGA_FULL: 0,
    Variant.LOOIJENGA_PRIME: 2,
    Variant.KAWAZUMI_DPRIME: 1,
    Variant.LEVEL_FULL: 0,
    Variant.LEVEL_PRIME: 1,
}


class AlgebraSpec(_Value):
    """Which algebra: variant, number of indices, deck group (trivial if untwisted)."""

    __slots__ = ("variant", "r", "group")

    def __init__(
        self,
        variant: Variant,
        r: int,
        group: FiniteAbelianGroup | SymbolicOrder | None = None,
    ):
        if r < 0:
            raise InvalidParameterError("r must be >= 0")
        if not variant.twisted:
            group = TRIVIAL_GROUP  # untwisted variants ignore the group field
        elif group is None:
            raise InvalidParameterError(
                "%s requires a group or symbolic order" % variant.value
            )
        elif not isinstance(group, (FiniteAbelianGroup, SymbolicOrder)):
            raise InvalidParameterError(
                "%s requires a group or symbolic order, got %r" % (variant.value, group)
            )
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "group", group)

    def concrete_group(self):
        """The group weights live in; refused while it is a symbolic order."""
        return check_concrete(self.group)


class NormalMonomial(_Value):
    """Deck-weighted partition plus one exponent per block."""

    __slots__ = ("partition", "exponents")

    def __init__(self, partition: DWeightedPartition, exponents: tuple[int, ...]):
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != partition.num_blocks:
            raise InvalidParameterError("one exponent per block required")
        if any(e < 0 for e in exponents):
            raise InvalidParameterError("exponents must be >= 0")
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "exponents", exponents)

    @classmethod
    def _trusted(cls, partition, exponents):
        """Build from a tuple of nonnegative ints, one per block, without checks."""
        monomial = object.__new__(cls)
        object.__setattr__(monomial, "partition", partition)
        object.__setattr__(monomial, "exponents", exponents)
        return monomial

    @property
    def degree(self):
        # v-classes give 2 per exponent, and the a-class of a block S gives
        # 2|S| - 2, which sums to 2(r - number of blocks)
        partition = self.partition
        return 2 * (sum(self.exponents) + partition.r - len(partition.blocks))

    def __str__(self):
        return format_monomial(self)


_ONE = Fraction(1)


class AlgebraElement(_Value):
    """Finite rational combination of normal monomials, canonically sorted."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[Fraction, NormalMonomial], ...]):
        object.__setattr__(self, "terms", terms)

    @classmethod
    def zero(cls):
        return cls(())

    def is_zero(self):
        return not self.terms


def multiply(spec, x, y):
    """Product of two normal monomials in a full-variant algebra.

    Blocks of the two partitions merge along the connected components of
    their overlaps: each block of y is merged, in turn, with every block
    built so far that it shares an index with.  Each merge of blocks
    sharing t indices contributes t - 1 to the merged block's exponent,
    weight offsets must agree up to a common shift or the product is
    zero, and exponents accumulate onto merged blocks.  The merge order is
    immaterial.

    Only merged blocks are re-based.  A block of x stays as it is until a
    block of y with two or more indices reaches it, and one that none
    reaches keeps its indices and weights with no offset dict built; a
    singleton of y only adds its exponent.
    """
    if not spec.variant.is_full:
        raise InvalidParameterError(
            "multiply is defined on the full variants; compute in %s and test "
            "membership with in_subspace" % spec.variant.full_variant.value
        )
    group = spec.concrete_group()
    for mon in (x, y):
        if mon.partition.r != spec.r:
            raise InvalidParameterError("monomial index set does not match spec")
        if mon.partition.group is not group and mon.partition.group != group:
            raise InvalidParameterError("monomial group does not match spec")

    # key -> (block, exponent) of a block built so far: an x block as the
    # (indices, weights) pair it is, a merged block as an offset dict
    items = {}
    owner = {}  # index -> key of the block holding it
    key = 0
    for item in zip(x.partition.blocks, x.exponents):
        items[key] = item
        for i in item[0][0]:
            owner[i] = key
        key += 1
    for (idx, weights), exponent in zip(y.partition.blocks, y.exponents):
        if len(idx) == 1:
            # a singleton pins no offset: its exponent joins its block's
            other = owner[idx[0]]
            block, exp_o = items[other]
            items[other] = block, exp_o + exponent
            continue
        offsets = block_offsets(group, idx, weights)
        for i in idx:
            other = owner[i]
            if other not in items:
                continue  # merged already, at an earlier index of this block
            off_o, exp_o = items.pop(other)
            exponent += exp_o
            if isinstance(off_o, tuple):
                if not off_o[1]:
                    continue  # an x singleton: offsets already holds i
                off_o = block_offsets(group, *off_o)
            merged = merge_offsets(group, off_o, offsets)
            if merged is None:
                return AlgebraElement.zero()
            # t shared indices: the union holds t fewer than the two
            exponent += len(off_o) + len(offsets) - len(merged) - 1
            offsets = merged
        items[key] = offsets, exponent
        for i in offsets:
            owner[i] = key
        key += 1

    blocks = [
        (block if isinstance(block, tuple) else rebase_offsets(group, block.items()), e)
        for block, e in items.values()
    ]
    # blocks are disjoint, so sorting them compares first indices only
    blocks.sort()
    # r = 0 leaves no blocks to unzip
    parts, exponents = zip(*blocks) if blocks else ((), ())
    partition = DWeightedPartition._trusted(group, parts, spec.r)
    monomial = NormalMonomial._trusted(partition, exponents)
    assert monomial.degree == x.degree + y.degree
    return AlgebraElement(((_ONE, monomial),))


def relabel_monomial(monomial, sigma):
    """Push a normal monomial forward along a permutation of the indices.

    ``relabel`` checks sigma; each exponent then moves to the image block
    of the point that carried it.
    """
    sigma = tuple(sigma)
    partition = monomial.partition
    new_partition = relabel(partition, sigma)
    exponent_at = [0] * (len(sigma) + 1)
    for (idx, _), e in zip(partition.blocks, monomial.exponents):
        for i in idx:
            exponent_at[sigma[i - 1]] = e
    exponents = tuple(exponent_at[idx[0]] for idx, _ in new_partition.blocks)
    return NormalMonomial._trusted(new_partition, exponents)


def in_subspace(spec, monomial):
    """Membership of a normal monomial in the (possibly primed) variant."""
    minimum = spec.variant.singleton_min_exponent
    if minimum == 0:
        return True
    for (idx, _), e in zip(monomial.partition.blocks, monomial.exponents):
        if len(idx) == 1 and e < minimum:
            return False
    return True


def graded_dimension(spec, degree):
    """Dimension of the degree-n slice, at m = |D|; a polynomial in m
    while m is unbound.

    Counts normal monomials: the set partitions with b blocks and s
    singletons (``block_singleton_counts``) contribute their number x
    m^(r-b) weight choices x the number of exponent vectors meeting the
    singleton minimum.  Odd degrees are zero.
    """
    if degree < 0:
        raise InvalidParameterError("degree must be >= 0")
    if spec.r > MAX_COUNT_R:
        raise CapExceededError("r=%d exceeds dimension cap %d" % (spec.r, MAX_COUNT_R))
    minimum = spec.variant.singleton_min_exponent
    coeffs = [0] * (spec.r + 1)
    for b, singletons, count in block_singleton_counts(spec.r):
        t = degree // 2 - (spec.r - b) - singletons * minimum
        if degree % 2 == 0 and t >= 0:
            ways = math.comb(t + b - 1, b - 1) if b else int(t == 0)
            coeffs[spec.r - b if spec.variant.twisted else 0] += count * ways
    poly = IntPoly(coeffs)
    m = deck_order(spec.group, [poly])
    return poly if m is None else at_order(poly, m)


def check_basis_degree(degree):
    """Refuse a negative degree, then one past the basis degree cap."""
    if degree < 0:
        raise InvalidParameterError("degree must be >= 0")
    if degree > DEFAULT_BASIS_DEGREE_CAP:
        raise CapExceededError(
            "degree %d exceeds cap %d" % (degree, DEFAULT_BASIS_DEGREE_CAP)
        )


def basis(spec, degree):
    """All normal monomials of the given degree, in deterministic order."""
    check_basis_degree(degree)
    group = spec.concrete_group()
    if degree % 2 == 1:
        return []
    count = graded_dimension(spec, degree)
    if count > DEFAULT_ENUMERATION_CAP:
        raise CapExceededError(
            "basis size %d exceeds cap %d" % (count, DEFAULT_ENUMERATION_CAP)
        )
    q = degree // 2
    minimum = spec.variant.singleton_min_exponent
    elements = group.elements()
    result = []
    for blocks in enumerate_set_partitions(spec.r):
        mins = [minimum if len(blk) == 1 else 0 for blk in blocks]
        t = q - (spec.r - len(blocks)) - sum(mins)
        if t < 0:
            continue
        weight_choices = [
            itertools.product(elements, repeat=len(blk) - 1) for blk in blocks
        ]
        for assignment in itertools.product(*weight_choices):
            partition = DWeightedPartition._trusted(
                group, tuple(zip(blocks, assignment)), spec.r
            )
            for extra in _compositions(t, len(blocks)):
                exponents = tuple(m0 + e for m0, e in zip(mins, extra))
                result.append(NormalMonomial._trusted(partition, exponents))
    assert len(result) == count
    return result


# ---------------------------------------------------------------------------
# Independent oracle: dimensions from generators and relations only.
# ---------------------------------------------------------------------------


def _oracle_generators(r, group, degree):
    """Free generators of degree at most ``degree``: ("v", i) of degree 2
    and ("a", (S, weights)) of degree 2|S| - 2 for every weighted subset S
    with |S| >= 2.  Larger generators cannot occur in the degree slice.

    Degrees never decrease along the list.  Each generator times a power
    of v_1 is a distinct monomial of the slice, so for even degree the
    list is no longer than the slice.
    """
    if degree < 2:
        return []
    gens = [(("v", i), 2) for i in range(1, r + 1)]
    elements = group.elements()
    for size in range(2, min(r, degree // 2 + 1) + 1):
        for S in itertools.combinations(range(1, r + 1), size):
            for weights in itertools.product(elements, repeat=size - 1):
                gens.append((("a", (S, weights)), 2 * size - 2))
    return gens


def _oracle_monomials(gens, width, degree):
    """The packed monomials over gens of every even degree up to
    ``degree``, as {degree: tuple}, listed in one pass over the generators.

    A monomial is a packed exponent vector: one int in which generator i
    owns the bits [width * i, width * (i + 1)), so v_1^2 * a is
    2 + (1 << width * (index of a)).  The oracle packs a degree-d slice at
    width (d // 2).bit_length(): every generator has degree at least 2,
    so no exponent of the slice, or of a factor of one of its monomials,
    exceeds d // 2 < 2^width, and the product of two monomials is their
    sum with no carry between fields.

    Every generator has even degree and gens[0] = v_1 has degree 2, so the
    monomials of degree n over gens[0..top] are v_1^(n/2), then, for each
    generator i from top down to 1 and each exponent e >= 1, g_i^e times
    the monomials of degree n - e deg(g_i) over gens[0..i-1].  Each degree
    keeps that listing as blocks: [v_1^(n/2)], then one block per
    generator in the order the generators are added, read back last-first.
    Adding generator i walks n downward, so the lower degrees its block
    reads are still over gens[0..i-1].  With no generators, only degree 0
    has a monomial, the empty one.
    """

    def in_order(blocks):
        return itertools.chain(blocks[0], *blocks[:0:-1])

    parts = {n: [[n // 2]] for n in range(0, degree + 1, 2) if gens or not n}
    for i in range(1, len(gens)):
        d = gens[i][1]
        field = 1 << (width * i)
        for n in range(degree - degree % 2, d - 1, -2):
            block = []
            for e in range(1, n // d + 1):
                block += map((e * field).__add__, in_order(parts[n - e * d]))
            parts[n].append(block)
    return {n: tuple(in_order(blocks)) for n, blocks in parts.items()}


@functools.lru_cache(maxsize=None)
def _merged_class(group, key_a, key_b):
    """Key (S, weights) of the a-class that two overlapping a-classes merge
    into, or None when their weights contradict.  Cached for the life of
    the process, so every slice over the same group merges a pair once."""
    merged = merge_offsets(
        group, block_offsets(group, *key_a), block_offsets(group, *key_b)
    )
    return None if merged is None else rebase_offsets(group, merged.items())


def _oracle_relations(gens, group, degree, width):
    """Homogeneous relations of degree at most ``degree``, each as
    (relation degree, terms).

    A term is a monomial packed at ``width`` as in ``_oracle_monomials``:
    v_i a for the v-class relations, a_lo a_hi for a product of a-classes,
    and the v^(t-1) a that merging two a-classes over t shared indices
    gives.  Every relation has coefficients 1 and -1: one term t stands
    for the monomial t, two terms (s, t) for the binomial s - t, and
    s != t.  A pair of a-classes is visited only when its product fits
    the degree, so the pairs visited are no more than the monomials of
    the slice; each pair's merge comes from ``_merged_class``.
    """
    index_of = {key: i for i, (key, _) in enumerate(gens)}
    one = [1 << (width * i) for i in range(len(gens))]  # each generator, packed
    relations = []
    a_gens = [(i, key[1], d) for i, (key, d) in enumerate(gens) if key[0] == "a"]
    # one v-class per block: v_i a = v_j a for i, j in the block
    for gi, (S, _), d in a_gens:
        if d + 2 > degree:
            break
        for i, j in itertools.combinations(S, 2):
            term1 = one[index_of[("v", i)]] + one[gi]
            term2 = one[index_of[("v", j)]] + one[gi]
            relations.append((d + 2, (term1, term2)))
    # products of overlapping a-classes merge or vanish
    for ia, (gi_a, key_a, d_a) in enumerate(a_gens):
        if 2 * d_a > degree:
            break
        for ib in range(ia, len(a_gens)):
            gi_b, key_b, d_b = a_gens[ib]
            if d_a + d_b > degree:
                break
            shared = set(key_a[0]) & set(key_b[0])
            if not shared:
                continue
            lhs = one[gi_a] + one[gi_b]
            merged = _merged_class(group, key_a, key_b)
            if merged is None:
                relations.append((d_a + d_b, (lhs,)))
            else:
                v_index = index_of[("v", min(shared))]
                rhs = (len(shared) - 1) * one[v_index] + one[index_of[("a", merged)]]
                relations.append((d_a + d_b, (lhs, rhs)))
    return relations


class _SliceComponents(typing.NamedTuple):
    """Connected components of one degree slice under the relation rows.

    ``labels[c]`` names the component of column c, or is None when the
    component contains a monomial row and so lies in the ideal.  ``rank``
    is the rank of the ideal's slice: a dead component of k columns spans
    k dimensions of it, a live one k - 1.
    """

    labels: tuple
    rank: int


@functools.lru_cache(maxsize=None)
def _oracle_ideal(r, group, degree):
    """Components of the degree slice of the relation ideal, plus its index.

    Returns (components, monomials, gens), all immutable; the monomials are
    packed at width (degree // 2).bit_length().  Every relation times a
    complementary monomial f is again a monomial or a binomial with
    coefficients 1 and -1, its terms ``lhs + f`` and ``rhs + f``, so the
    quotient of the slice by the ideal has one basis vector per live
    component and no arithmetic is needed: union-find merges the two
    columns of each binomial row as it is made, and each monomial row
    only marks its column.  After the last union, each marked column
    kills its root's component.  One call of ``_oracle_monomials`` lists
    the slice and every complementary degree; the slice is popped from
    it, and an odd degree, or a positive one over no generators, holds no
    monomial.
    """
    gens = tuple(_oracle_generators(r, group, degree))
    width = (degree // 2).bit_length()
    listed = _oracle_monomials(gens, width, degree)
    monomials = listed.pop(degree, ())
    relations = _oracle_relations(gens, group, degree, width)
    column = {code: c for c, code in enumerate(monomials)}
    parent = list(range(len(monomials)))

    def find(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    marked = []  # the column of each monomial row
    for rel_degree, terms in relations:
        factors = listed.get(degree - rel_degree, ())
        if len(terms) == 1:
            marked += map(column.__getitem__, map(terms[0].__add__, factors))
            continue
        lhs, rhs = terms
        for f in factors:
            # find, inlined: this loop runs once per row
            a = column[lhs + f]
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            b = column[rhs + f]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[a] = b
    roots = [find(c) for c in range(len(monomials))]
    dead = [False] * len(monomials)
    for c in marked:
        dead[roots[c]] = True
    live = sum(1 for c, root in enumerate(roots) if root == c and not dead[c])
    labels = tuple(None if dead[root] else root for root in roots)
    return _SliceComponents(labels, len(monomials) - live), monomials, gens


def _covers_all_indices(monomial, gens, r, minimum, width):
    # field i - 1 holds v_i's exponent and the fields from r up hold the
    # a-classes; jump from the highest set a-class field to the next
    covered = set()
    rest = monomial >> (width * r)
    while rest:
        g = (rest.bit_length() - 1) // width
        covered.update(gens[r + g][0][1][0])
        rest &= (1 << (width * g)) - 1
    mask = (1 << width) - 1
    return all(
        i in covered or (monomial >> (width * (i - 1))) & mask >= minimum
        for i in range(1, r + 1)
    )


@functools.lru_cache(maxsize=None)
def _oracle_columns(r, order, degree):
    """Number of monomials of the given degree in the oracle's generators.

    Counted without listing them, and memoised: a cell's cap is checked
    when a grid is listed and again when its slice is built.  There are r
    v-classes of half-degree 1 and C(r, s) * order^(s - 1) a-classes of
    half-degree s - 1 for each 2 <= s <= r, so the count a_t at
    half-degree t is the number of ways to make change for t from those
    coins, read from ``coin_counts``.  For r >= 1 the a_t never decrease
    (multiply by v_1), so the count stops at the first a_t above
    ORACLE_MAX_COLUMNS and returns it; for r = 0 they are 1, 0, 0, ...
    """
    if degree % 2:
        return 0
    q = degree // 2
    coins = {1: r}
    for s in range(2, min(r, q + 1) + 1):
        coins[s - 1] = coins.get(s - 1, 0) + math.comb(r, s) * order ** (s - 1)
    for count in itertools.islice(coin_counts(coins), q + 1):
        if count > ORACLE_MAX_COLUMNS:
            break
    return count


def check_oracle_cap(spec, degree):
    """Raise CapExceededError when the oracle's degree slice is too large.

    The degree is bounded as a basis's, r by the closed form's cap, and the
    slice at ORACLE_MAX_COLUMNS monomials, counted before anything is built.
    """
    check_basis_degree(degree)
    if spec.r > MAX_COUNT_R:
        raise CapExceededError("r=%d exceeds dimension cap %d" % (spec.r, MAX_COUNT_R))
    order = concrete_order(spec.concrete_group())
    if _oracle_columns(spec.r, order, degree) > ORACLE_MAX_COLUMNS:
        raise CapExceededError(
            "oracle cap: the degree-%d slice for r=%d, |D|=%d has more than %d "
            "columns" % (degree, spec.r, order, ORACLE_MAX_COLUMNS)
        )


def oracle_graded_dimension(spec, degree):
    """Graded dimension recomputed from generators and relations alone.

    Builds the degree slice of the free graded-commutative algebra on all
    generators and spans the same slice of the relation ideal by
    multiplying every relation by all complementary-degree monomials.
    Each such row is a monomial or a binomial, so the quotient has one
    basis vector per connected component of the binomial relation graph
    that holds no monomial row.  ``_oracle_ideal`` builds those
    components once per (r, group, degree): the slice and its
    complementary degrees are listed in one pass over the generators,
    each a-class merge is made once per group for the whole process, and
    the monomial rows are folded in after the last union.  For the full
    variants the answer is the number of those live components; for the
    primed subspaces it is the number of live components whose monomials
    have every index in an a-class factor or carrying at least the
    singleton minimum exponent.  That coverage is the same for every
    monomial of a component (each relation changes v-exponents only
    inside its own a-classes, whose cover it keeps), so only each
    component's root is tested.
    """
    check_oracle_cap(spec, degree)
    components, monomials, gens = _oracle_ideal(
        spec.r, spec.concrete_group(), degree
    )
    if spec.variant.is_full:
        return len(monomials) - components.rank
    minimum = spec.variant.singleton_min_exponent
    width = (degree // 2).bit_length()
    return sum(
        1
        for c, (label, mon) in enumerate(zip(components.labels, monomials))
        if label == c and _covers_all_indices(mon, gens, spec.r, minimum, width)
    )


# ---------------------------------------------------------------------------
# Text and JSON forms.
# ---------------------------------------------------------------------------


def format_monomial(monomial):
    """Text form, e.g. "v{1}^2 * a{1<2:d=(1)}"; the empty product is "1".

    The v-class of a block is written through the block's base index, so
    a monomial on the merged block {1,2} prints v{1}, not v{1<2}.
    """
    v_parts = []
    a_parts = []
    for (idx, weights), e in zip(monomial.partition.blocks, monomial.exponents):
        if e >= 1:
            v_parts.append("v{%d}" % idx[0] + ("^%d" % e if e >= 2 else ""))
        if len(idx) >= 2:
            a_parts.append(
                "a{%s:d=%s}"
                % ("<".join(map(str, idx)), ",".join(map(format_element, weights)))
            )
    parts = v_parts + a_parts
    return " * ".join(parts) if parts else "1"


_V_RE = re.compile(r"v\{(\d+(?:<\d+)*)\}(?:\^(\d+))?")
_A_RE = re.compile(r"a(\{.*\})")


def parse_monomial(text, spec):
    """Inverse of format_monomial for a given spec.

    A v-factor may name any index of its block (or the whole block); the
    exponent attaches to the block containing those indices.
    """
    group = spec.concrete_group()
    t = text.strip()
    blocks = {}
    v_tokens = []
    if t != "1":
        for token in t.split("*"):
            token = token.strip()
            m = _V_RE.fullmatch(token)
            if m:
                idx = tuple(int(i) for i in m.group(1).split("<"))
                e = int(m.group(2)) if m.group(2) else 1
                v_tokens.append((token, idx, e))
                continue
            m = _A_RE.fullmatch(token)
            if m:
                idx, weights = parse_block(m.group(1), group)
                if len(idx) < 2:
                    raise ParseError("a-factor %r must span >= 2 indices" % token)
                if idx in blocks:
                    raise ParseError("duplicate a-factor for block %r" % (idx,))
                blocks[idx] = weights
                continue
            raise ParseError("unrecognized factor %r in %r" % (token, text))
    seen = set()
    for idx in blocks:
        seen.update(idx)
    for _, idx, _ in v_tokens:
        seen.update(idx)
    if seen and max(seen) > spec.r:
        raise ParseError("index %d outside 1..%d" % (max(seen), spec.r))
    all_blocks = dict(blocks)
    for i in range(1, spec.r + 1):
        if not any(i in idx for idx in blocks):
            all_blocks[(i,)] = ()

    def containing(i):
        for idx in all_blocks:
            if i in idx:
                return idx
        raise ParseError("index %d outside 1..%d" % (i, spec.r))

    exponents = {}
    for token, idx, e in v_tokens:
        home = containing(idx[0])
        if any(i not in home for i in idx):
            raise ParseError(
                "v-factor %r spans several blocks of the monomial" % (token,)
            )
        exponents[home] = exponents.get(home, 0) + e
    ordered = sorted(all_blocks.items(), key=lambda kv: kv[0][0])
    partition = DWeightedPartition(group, tuple(ordered))
    exps = tuple(exponents.get(idx, 0) for idx, _ in partition.blocks)
    return NormalMonomial(partition, exps)
