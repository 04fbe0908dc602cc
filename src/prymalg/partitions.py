"""Set partitions of {1..r} and their deck-weighted refinements.

Two flavours are modeled:

* plain set partitions, each a canonical tuple of blocks of indices,
* deck-weighted partitions, whose blocks carry one deck-group element per
  non-base index, recording how the marked points of one orbit differ.

Within a block S = {i1 < i2 < ...} the base point is always the minimal
index i1 and the j-th weight relates point i_{j+1} to i1.  The empty
weight list belongs to singleton blocks.

One kernel owns that convention for relabeling, the algebra product and
the oracle: ``block_offsets``, ``merge_offsets`` and ``rebase_offsets``
turn a block into an offset dict, unite two of them (or report that they
contradict), and re-base (index, offset) pairs on their minimal index,
shifting by ``FiniteAbelianGroup.subtract`` unless that index already
sits at the identity.  ``relabel`` and ``algebra.multiply`` re-base
only the blocks whose base point can move.
Parsers and public constructors validate; ``DWeightedPartition._trusted``
does not.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re

from .abelian_group import (
    DEFAULT_ENUMERATION_CAP,
    FiniteAbelianGroup,
    concrete_order,
    format_element,
)
from .errors import CapExceededError, InvalidParameterError, ParseError, _Value
from .polynomial import IntPoly, at_order

MAX_SET_PARTITION_R = 12
MAX_WEIGHTED_ENUMERATION_R = 8
MAX_COUNT_R = 30
_INT = frozenset([int])


def _validate_blocks(blocks):
    """Check canonical form: sorted blocks ordered by minimum, covering [r]."""
    seen = set()
    total = 0
    prev_min = 0
    for block in blocks:
        if not block:
            raise InvalidParameterError("empty block")
        if list(block) != sorted(block):
            raise InvalidParameterError("block %r is not sorted" % (block,))
        if block[0] <= prev_min:
            raise InvalidParameterError("blocks are not ordered by minimum element")
        prev_min = block[0]
        for i in block:
            if i in seen:
                raise InvalidParameterError("index %d appears twice" % i)
            seen.add(i)
        total += len(block)
    if seen and (min(seen) != 1 or max(seen) != total):
        raise InvalidParameterError("blocks must partition {1..r}")


def _check_concrete(group):
    """Refuse a deck group without elements to weight blocks with: a
    symbolic order, None, or anything else not a FiniteAbelianGroup."""
    if not isinstance(group, FiniteAbelianGroup):
        raise InvalidParameterError(
            "operation requires a concrete group, got %r" % (group,)
        )


class DWeightedPartition(_Value, fields=("group", "blocks")):
    """Set partition with deck-group weights, one per non-base index.

    ``r``, the number of indices, is stored once and is not a field.
    """

    __slots__ = ("group", "blocks", "r")

    def __init__(
        self,
        group: FiniteAbelianGroup,
        blocks: tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...],
    ):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "blocks", blocks)
        self.__post_init__()
        object.__setattr__(self, "r", sum(len(idx) for idx, _ in self.blocks))

    def __post_init__(self):
        """Canonicalize and check the stored blocks.  Unlike the other value
        classes this stays a second step, because bench/instrument.py times
        it by name as ``partitions.validate``; it folds into ``__init__``
        when ROADMAP item 1 re-points that counter."""
        _check_concrete(self.group)
        blocks = tuple(
            (tuple(int(i) for i in idx), tuple(weights)) for idx, weights in self.blocks
        )
        object.__setattr__(self, "blocks", blocks)
        _validate_blocks([idx for idx, _ in blocks])
        nfac = len(self.group.cyclic_factors)
        for idx, weights in blocks:
            if len(weights) != len(idx) - 1:
                raise InvalidParameterError(
                    "block %r needs %d weights, got %d"
                    % (idx, len(idx) - 1, len(weights))
                )
            for w in weights:
                if not isinstance(w, tuple) or any(type(x) is not int for x in w):
                    raise InvalidParameterError("weight %r is not a group element" % (w,))
                if len(w) != nfac:
                    raise InvalidParameterError("weight %s has wrong arity" % format_element(w))
                if w != self.group.element(w):
                    raise InvalidParameterError("weight %s is not reduced" % format_element(w))

    @classmethod
    def _trusted(cls, group, blocks, r):
        """Build without checks from blocks that __post_init__ would accept
        unchanged: (index tuple, reduced weight tuple) pairs by minimum,
        covering {1..r}."""
        partition = object.__new__(cls)
        _SET_GROUP(partition, group)
        _SET_BLOCKS(partition, blocks)
        _SET_R(partition, r)
        return partition

    @property
    def num_blocks(self):
        return len(self.blocks)

    def __str__(self):
        return format_partition(self)


# _trusted stores through the slot descriptors, which bypass _Value's
# refusing __setattr__ as object.__setattr__ does, without its name lookup
_SET_GROUP = DWeightedPartition.group.__set__
_SET_BLOCKS = DWeightedPartition.blocks.__set__
_SET_R = DWeightedPartition.r.__set__


class JVector(_Value):
    """0/1 tags for tensor slots: 1 selects the punctured-cover module."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        entries = tuple(int(e) for e in entries)
        if any(e not in (0, 1) for e in entries):
            raise InvalidParameterError("JVector entries must be 0 or 1")
        object.__setattr__(self, "entries", entries)

    def __len__(self):
        return len(self.entries)


def enumerate_set_partitions(r):
    """All set partitions of {1..r} in deterministic refinement order.

    Each is its canonical tuple of blocks, e.g. ``((1, 3), (2,))``: every
    block is sorted and the blocks are ordered by their minimum.
    """
    if r < 0:
        raise InvalidParameterError("r must be >= 0")
    if r > MAX_SET_PARTITION_R:
        raise CapExceededError(
            "r=%d exceeds set-partition enumeration cap %d" % (r, MAX_SET_PARTITION_R)
        )
    result = []

    def extend(i, blocks):
        if i > r:
            result.append(tuple(map(tuple, blocks)))
            return
        for b in blocks:
            b.append(i)
            extend(i + 1, blocks)
            b.pop()
        blocks.append([i])
        extend(i + 1, blocks)
        blocks.pop()

    extend(1, [])
    return result


def count_d_weighted_partitions(r):
    """Number of deck-weighted partitions of {1..r} as a polynomial in m."""
    if r < 0:
        raise InvalidParameterError("r must be >= 0")
    if r > MAX_COUNT_R:
        raise CapExceededError("r=%d exceeds counting cap %d" % (r, MAX_COUNT_R))
    coeffs = [0] * (r + 1)
    for b, _, count in block_singleton_counts(r):
        coeffs[r - b] += count
    return IntPoly(coeffs)


def enumerate_d_weighted_partitions(r, group):
    """All deck-weighted partitions of {1..r}, lexicographic and complete."""
    if r > MAX_WEIGHTED_ENUMERATION_R:
        raise CapExceededError(
            "r=%d exceeds weighted enumeration cap %d" % (r, MAX_WEIGHTED_ENUMERATION_R)
        )
    _check_concrete(group)
    total = at_order(count_d_weighted_partitions(r), concrete_order(group))
    if total > DEFAULT_ENUMERATION_CAP:
        raise CapExceededError(
            "%d weighted partitions exceed enumeration cap %d"
            % (total, DEFAULT_ENUMERATION_CAP)
        )
    elements = group.elements()
    result = []
    for blocks in enumerate_set_partitions(r):
        weight_choices = [
            itertools.product(elements, repeat=len(block) - 1) for block in blocks
        ]
        for assignment in itertools.product(*weight_choices):
            result.append(
                DWeightedPartition._trusted(group, tuple(zip(blocks, assignment)), r)
            )
    return result


def _compositions(total, parts):
    """All tuples of `parts` nonnegative ints summing to total, lexicographic."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def validate_permutation(sigma, r):
    """sigma as a tuple of ints, when its entries are integers, not
    booleans, forming a permutation of 1..r."""
    try:
        entries = tuple(sigma)
        # exact ints pass as they are; other integer types go through
        # operator.index, but not bool, which it would take as an int
        if not _INT.issuperset(map(type, entries)):
            if bool in map(type, entries):
                raise TypeError
            entries = tuple(map(operator.index, entries))
    except TypeError:
        raise InvalidParameterError(
            "a permutation is a sequence of integers, got %r" % (sigma,)
        ) from None
    # r entries covering 1..r are exactly a permutation of it
    if len(entries) != r or not set(entries).issuperset(range(1, r + 1)):
        raise InvalidParameterError("not a permutation of 1..%d: %r" % (r, entries))
    return entries


def block_offsets(group, idx, weights):
    """Offset of every index of a block, the base point at the identity."""
    offsets = {idx[0]: group.identity()}
    offsets.update(zip(idx[1:], weights))
    return offsets


def merge_offsets(group, off_a, off_b):
    """Union of two overlapping offset dicts; None when they contradict.

    Offsets are only defined up to a common shift, so off_b is shifted to
    agree with off_a at their smallest shared index; the union exists when
    the shifted off_b agrees with off_a at every shared index.  When the
    two already agree at that index the shift is the identity and is
    skipped.
    """
    common = off_a.keys() & off_b.keys()
    pin = min(common)
    if off_a[pin] == off_b[pin]:
        for q in common:
            if off_a[q] != off_b[q]:
                return None
        return {**off_b, **off_a}
    shift = group.subtract(off_a[pin], off_b[pin])
    for q in common:
        if off_a[q] != group.add(off_b[q], shift):
            return None
    merged = dict(off_a)
    for k, v in off_b.items():
        if k not in merged:
            merged[k] = group.add(v, shift)
    return merged


def rebase_offsets(group, offsets):
    """(indices, weights) of a block re-based on its minimal index.

    ``offsets`` holds (index, offset) pairs.  When the minimal index
    already sits at the identity the offsets are the weights as they
    stand; otherwise each is shifted by ``subtract``.
    """
    # indices are distinct, so sorting the pairs compares indices only
    idx, offs = zip(*sorted(offsets))
    base = offs[0]
    if not any(base):
        return idx, offs[1:]
    return idx, tuple([group.subtract(off, base) for off in offs[1:]])


def relabel(partition, sigma):
    """Push a deck-weighted partition forward along a permutation of {1..r}.

    Weights are offsets against the block's base point (its minimal
    index), so after relabeling the base point of each image block is
    re-normalized to the new minimum: with old offset function w
    (w(base) = 0), the new offsets are w'(sigma(i)) = w(i) - w(i0) where
    i0 is the preimage of the new base.  This is the unique rule
    consistent with reading the j-th weight as the deck translation from
    the base marked point to the (j+1)-st; no other convention is
    supported.  A singleton block has no weights and moves as it is.  A
    block {i < j} with weight w keeps w when sigma(i) < sigma(j) and
    otherwise becomes {sigma(j) < sigma(i)} with weight -w, computed as
    ``subtract(identity, w)``.  Only a larger block is re-based by
    ``rebase_offsets``.
    """
    group = partition.group
    # image[i] is sigma(i) for the 1-based indices of the blocks
    image = (0,) + validate_permutation(sigma, partition.r)
    identity = group.identity()
    base_offset = (identity,)
    moved = []
    for idx, weights in partition.blocks:
        if not weights:
            moved.append(((image[idx[0]],), ()))
        elif len(weights) == 1:
            i = image[idx[0]]
            j = image[idx[1]]
            if i < j:
                moved.append(((i, j), weights))
            else:
                moved.append(((j, i), (group.subtract(identity, weights[0]),)))
        else:
            pairs = zip(map(image.__getitem__, idx), base_offset + weights)
            moved.append(rebase_offsets(group, pairs))
    # blocks are disjoint, so sorting them compares first indices only
    moved.sort()
    return DWeightedPartition._trusted(group, tuple(moved), partition.r)


def format_partition(partition):
    """Text form, e.g. "{1<2:d=(0,1)}|{3}"."""
    parts = []
    for idx, weights in partition.blocks:
        body = "<".join(map(str, idx))
        if len(idx) >= 2:
            body += ":d=" + ",".join(map(format_element, weights))
        parts.append("{" + body + "}")
    return "|".join(parts) if parts else "{}"


_BLOCK_RE = re.compile(r"\{(\d+(?:<\d+)*)(?::d=(.*))?\}")
_TUPLE_RE = re.compile(r"\(([^()]*)\)")


def parse_block(token, group):
    """Parse one "{i1<i2:d=(..),(..)}" block into (indices, weights)."""
    _check_concrete(group)
    token = token.strip()
    m = _BLOCK_RE.fullmatch(token)
    if not m:
        raise ParseError("unrecognized block token %r" % (token,))
    idx = tuple(int(i) for i in m.group(1).split("<"))
    weights = ()
    if m.group(2) is not None:
        tuples = _TUPLE_RE.findall(m.group(2))
        rebuilt = ",".join("(%s)" % body for body in tuples)
        if rebuilt.replace(" ", "") != m.group(2).replace(" ", ""):
            raise ParseError("malformed weight list %r in %r" % (m.group(2), token))
        try:
            residues = [
                [int(x) for x in body.split(",")] if body.strip() else []
                for body in tuples
            ]
        except ValueError:
            raise ParseError("non-integer residue in %r" % (token,)) from None
        arity = len(group.cyclic_factors)
        if any(len(x) != arity for x in residues):
            raise ParseError("block %r needs %d residues per weight" % (token, arity))
        weights = tuple(map(group.element, residues))
    elif len(idx) >= 2 and group.cyclic_factors:
        raise ParseError("block %r is missing its weight list" % (token,))
    if len(idx) >= 2 and not group.cyclic_factors and not weights:
        weights = (group.identity(),) * (len(idx) - 1)
    if len(weights) != len(idx) - 1:
        raise ParseError(
            "block %r needs %d weights, got %d" % (token, len(idx) - 1, len(weights))
        )
    return idx, weights


def parse_partition(text, group):
    """Inverse of format_partition; raises ParseError naming the bad token."""
    t = text.strip()
    if t == "{}":
        return DWeightedPartition(group, ())
    blocks = [parse_block(token, group) for token in t.split("|")]
    blocks.sort(key=lambda b: b[0][0])
    return DWeightedPartition(group, tuple(blocks))


def integer_partitions(n):
    """Partitions of n as descending tuples, in reverse lexicographic order."""
    if n < 0:
        raise InvalidParameterError("n must be >= 0")
    if n == 0:
        return [()]
    result = []

    def extend(remaining, maxpart, prefix):
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for part in range(min(remaining, maxpart), 0, -1):
            prefix.append(part)
            extend(remaining - part, part, prefix)
            prefix.pop()

    extend(n, n, [])
    return result


@functools.cache
def stirling2_no_singletons(n, k):
    """S2(n, k): set partitions of an n-set into k blocks, none a singleton.

    S2(n, k) = k S2(n-1, k) + (n-1) S2(n-2, k-1): element n either joins
    one of the k blocks of such a partition of the rest, or forms a pair
    with one of the other n-1 elements (Comtet, Advanced Combinatorics,
    1974).
    """
    if n == 0:
        return 1 if k == 0 else 0
    if k <= 0 or 2 * k > n:
        return 0
    joins = k * stirling2_no_singletons(n - 1, k)
    pairs = (n - 1) * stirling2_no_singletons(n - 2, k - 1)
    return joins + pairs


@functools.cache
def block_singleton_counts(r):
    """Set partitions of {1..r} counted by (blocks b, singletons s).

    Returns the nonzero (b, s, count) triples, b and s ascending, with
    count = C(r, s) * S2(r - s, b - s): choose the singletons, then split
    the rest into b - s blocks of size >= 2.
    """
    if r < 0:
        raise InvalidParameterError("r must be >= 0")
    triples = []
    for b in range(r + 1):
        for s in range(b + 1):
            count = math.comb(r, s) * stirling2_no_singletons(r - s, b - s)
            if count:
                triples.append((b, s, count))
    return tuple(triples)
