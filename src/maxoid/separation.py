"""Separation in weighted DAGs via critical paths.

The critical DAG of (G, C) given a blocking set L keeps an edge k->l exactly
when some directed k->l path exists and no maximum-weight k->l path passes
through L (interior nodes only).  So it depends on the weights only through
the blocker sets B_kl, the interior nodes of the critical k->l paths: k->l
is kept exactly when L misses B_kl.  Two nodes i, j outside L are separated
given L when the critical DAG contains none of five connecting shapes
between them, all through edges whose tail lies outside L: (a) an edge
between i and j; (b) a common parent p; (c) a common child l in L;
(d) p -> i, p -> l <- j with l in L, or its mirror image; (e) p -> i,
p -> l <- q, q -> j with l in L.  The set of all such statements (i, j | L)
is the CI structure of the weighted DAG, a Maxoid: one int with a bit per
statement on 1..n in sort_key order.

maxoid_from_blockers decides every L at once.  A family of subsets L of
1..n is a 2^n-bit int, and each quantity below is such a family:

    K_kl = the sets that miss B_kl | {k}   (k -> l kept, its tail outside L)
    I_l  = the sets that contain l
    R_il = I_l & (K_il | OR_p K_pi & K_pl)

R_il holds the sets in which l is a collider in L below i or below a parent
of i.  The pair (i, j) is then separated exactly on the sets that miss i
and j and avoid

    K_ij | K_ji | OR_p K_pi & K_pj | OR_l R_il & R_jl:

the first two terms are shape (a), the third (b), and R_il & R_jl covers
(c), (d) and its mirror, and (e), as each side of the collider l is a child
of i (j) or of a parent of i (j).  The shapes' distinctness conditions need
no test: i, j and the parents lie outside L and the colliders inside it,
p = j or q = i would be shape (a), and p = q shape (b).

The families of one node are packed into one word of n blocks of 2^n bits,
block l (bits (l - 1)·2^n up) holding the family of node l, so that one
int operation acts on all n at once.  Node k's word holds K_kl in block l.
The parent term is one step per edge p -> i: K_pi, copied into every block
by shift-or doubling (log2 n steps), meets p's word blockwise, which gives
K_pi & K_pl in each block l; OR-ed into i's word over the parents of i, it
gives the near word, block l = K_il | OR_p K_pi & K_pl.  One AND with the
packed word of the I_l turns that into the R_il.  For a pair, the AND of
the R words of i and j holds R_il & R_jl in block l, and log2 n shift-or
steps, each halving the blocks left, fold their OR into block 1; block j
of i's near word and block i of j's word add the other three terms.  That
is O(n^2 log n) operations on words of n·2^n bits per structure, where the
loop over the blocks one by one took O(n^3) operations on 2^n-bit ints.
Each set bit of a separated family then becomes one statement bit through
the pair's rank list.

maxoids_from_blockers runs that arithmetic once for a batch of blocker
collections keyed by the same pairs, one row of masks per system.  Each
system gets one lane of max(2^n, 8) bits, byte-aligned, in every block:
a block holds one lane per system, a word n such blocks, and each of the
O(n^2 log n) word operations serves the whole batch (bit-slicing, as in
Biham, "A fast new DES implementation in software", FSE 1997).  The masks
become lanes through a bytes table indexed by the raw mask, so a word is
one join and one from_bytes; the separated families of every pair come
back in one buffer, out of which each system's lanes are copied by
strided memoryview slices and scattered once, as one int, through a table
of every pair's rank list.  A batch runs in chunks of _CHUNK_BITS lane
bits a block, a measured budget.  A chunk of one row takes the one-lane
route, maxoid_from_blockers: blocks of 2^n bits, the spread K_pi from a
cache and one scatter per pair.  So does every row above _BATCH_NODES
nodes, where scattering a system's statements off one int of all its
lanes costs more than the batch saves.  Both routes run the one body of
word arithmetic, _separated.

maxoid reads the blocker sets off the Kleene star once and takes the
one-lane route.  The fan, the census and the polytope pass batches: every
cone's chosen paths, each class's restricted systems and the distinct
unions of a face lattice's vertices' paths.  Everything here is exact and
valid for arbitrary (also tied) weights.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from typing import Iterable, Iterator, Mapping

from .graph import Dag, Path, enumerate_paths, transitive_closure
from .tropical import WeightedDag, critical_paths, kleene_star, path_weight


@dataclass(frozen=True)
class CiStatement:
    """A canonical pairwise statement (i, j | L): i < j, L disjoint from both."""

    i: int
    j: int
    L: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("statement endpoints must be distinct")
        if self.i > self.j:
            i, j = self.j, self.i
            object.__setattr__(self, "i", i)
            object.__setattr__(self, "j", j)
        L = frozenset(self.L)
        if self.i in L or self.j in L:
            raise ValueError("conditioning set must be disjoint from the endpoints")
        object.__setattr__(self, "L", L)

    @property
    def sort_key(self) -> tuple:
        return (self.i, self.j, tuple(sorted(self.L)))

    def __str__(self) -> str:
        return f"{self.i},{self.j}|{','.join(str(k) for k in sorted(self.L))}"

    def __repr__(self) -> str:
        return f"CiStatement({self})"


_COMPACT_RE = re.compile(r"^(\d{2})\|(\d*)$")


def parse_ci_statement(text: str, n: int | None = None) -> CiStatement:
    """Parse "i,j|k1,k2,..." (empty conditioning side allowed) or, for node
    counts up to 9, the compact digit form "ij|kl"."""
    s = text.strip()
    if "|" not in s:
        raise ValueError(f"malformed CI statement {text!r}: missing '|'")
    left, right = s.split("|", 1)
    m = _COMPACT_RE.match(s.replace(" ", ""))
    if "," not in left and m and (n is None or n <= 9):
        i, j = int(m.group(1)[0]), int(m.group(1)[1])
        L = [int(c) for c in m.group(2)]
    else:
        try:
            i, j = (int(t) for t in left.split(","))
            L = [int(t) for t in right.split(",")] if right.strip() else []
        except ValueError:
            raise ValueError(f"malformed CI statement {text!r}") from None
    if n is not None:
        for v in (i, j, *L):
            if not 1 <= v <= n:
                raise ValueError(f"node {v} out of range 1..{n}")
    if len(L) != len(set(L)):
        raise ValueError(f"repeated conditioning node in {text!r}")
    return CiStatement(i, j, frozenset(L))


def _pair_subsets(n: int, i: int, j: int) -> list[tuple[int, ...]]:
    """The sets L of 1..n that miss i and j, as sorted tuples in the order
    of the statements (i, j | L)."""
    rest = [v for v in range(1, n + 1) if v != i and v != j]
    return sorted(L for size in range(len(rest) + 1) for L in combinations(rest, size))


class _StatementTable:
    """Every statement on 1..n in sort_key order: statement k is bit k of a
    Maxoid's int, so ascending bits walk the statements in that order.
    Built on first use, one per n (see _statement_tables)."""

    __slots__ = ("statements", "texts", "bit")

    def __init__(self, n: int):
        statements = [CiStatement(i, j, frozenset(L))
                      for i, j in combinations(range(1, n + 1), 2)
                      for L in _pair_subsets(n, i, j)]
        self.statements = tuple(statements)
        self.texts = tuple(map(str, statements))
        self.bit = {s: k for k, s in enumerate(statements)}


class _PerN(dict):
    """key -> table(key), each table built on its first lookup; a dict, so
    a lookup in Maxoid.__contains__ makes no function call."""

    __slots__ = ("table",)

    def __init__(self, table):
        super().__init__()
        self.table = table

    def __missing__(self, key):
        built = self[key] = self.table(key)
        return built


_statement_tables = _PerN(_StatementTable)


def _bit_indices(bits: int) -> Iterator[int]:
    """The indices of the set bits of bits, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _mapped_bits(bits: int, table) -> int:
    """The int with bit table[k] set for each set bit k of bits."""
    out = 0
    while bits:
        low = bits & -bits
        out |= 1 << table[low.bit_length() - 1]
        bits ^= low
    return out


class Maxoid:
    """A set of pairwise CI statements on 1..n, held as one int with a bit
    per statement on 1..n in sort_key order (see _statement_tables)."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, statements: Iterable[CiStatement]):
        bit = _statement_tables[n].bit
        bits = 0
        for s in statements:
            k = bit.get(s)
            if k is None:
                raise ValueError(f"statement {s} exceeds ground set 1..{n}")
            bits |= 1 << k
        self.n = n
        self.bits = bits

    @classmethod
    def from_bits(cls, n: int, bits: int) -> "Maxoid":
        """The structure whose statements are the set bits of bits."""
        m = cls.__new__(cls)
        m.n = n
        m.bits = bits
        return m

    @property
    def stmts(self) -> frozenset[CiStatement]:
        """The statements as a frozenset."""
        return frozenset(self)

    def __contains__(self, s: CiStatement) -> bool:
        k = _statement_tables[self.n].bit.get(s)
        return k is not None and self.bits >> k & 1 == 1

    def __iter__(self) -> Iterator[CiStatement]:
        statements = _statement_tables[self.n].statements
        return (statements[k] for k in _bit_indices(self.bits))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __eq__(self, other) -> bool:
        return isinstance(other, Maxoid) and self.n == other.n and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __or__(self, other: "Maxoid") -> "Maxoid":
        if self.n != other.n:
            raise ValueError("ground sets differ")
        return Maxoid.from_bits(self.n, self.bits | other.bits)

    def __repr__(self) -> str:
        return f"Maxoid(n={self.n}, {{{', '.join(str(s) for s in self)}}})"

    def to_json(self) -> list[str]:
        texts = _statement_tables[self.n].texts
        return [texts[k] for k in _bit_indices(self.bits)]

    @classmethod
    def from_json(cls, n: int, items: Iterable[str]) -> "Maxoid":
        return cls(n, (parse_ci_statement(text, n) for text in items))


def node_mask(nodes: Iterable[int]) -> int:
    """Bitmask of a node set: bit v set for node v."""
    return sum(1 << v for v in nodes)


def _blocker_sets(wd: WeightedDag) -> dict[tuple[int, int], int]:
    """B_kl for every connected pair k->l, as a node_mask: the nodes m
    with A_km + A_ml = A_kl, A the proper Kleene star, i.e. the interior
    nodes of the critical k->l paths (the star's -inf diagonal leaves k and
    l out)."""
    rows = kleene_star(wd, proper=True).rows
    nodes = wd.g.nodes
    blockers = {}
    for k in nodes:
        row = rows[k - 1]
        for l in wd.g.descendants(k):
            akl = row[l - 1]
            blockers[(k, l)] = node_mask(m for m in nodes
                                         if row[m - 1] + rows[m - 1][l - 1] == akl)
    return blockers


class _SubsetTables:
    """Tables of the all-subsets engine on 1..n, built on first use, one per
    n (see _subset_tables).  A family of subsets L of 1..n is a 2^n-bit int,
    with bit node_mask(L) >> 1 standing for L.  A packed word holds one
    family per node l in its block l, bits (l - 1)·2^n to l·2^n - 1.

    missing[b >> 1]: the sets that miss the node_mask b.
    shift[l]: the offset (l - 1)·2^n of block l (shift[0] = 0, unused).
    member: the packed word whose block l holds the sets that contain l.
    copies: the shifts 2^n, 2·2^n, 4·2^n, ... that copy a family in block 1
    into blocks 1..n and beyond by doubling; one multiplication by the
    block repunit does it too, but is the slower from n = 10 on, a product
    of 2^n by n·2^n bits.
    spread[m]: missing[m] copied so into every block, filled when its mask
    m is first met, so that a graph pays only for the masks of its edges
    (under 2n·4^n bits once every mask is met); 0 until then, which no
    family is, as each holds the empty set.
    halves: the block counts that halve the blocks left, rounded up, down
    to one, so that OR-ing in the shift by each leaves the OR of blocks
    1..n in block 1; folds: those shifts, halves[t]·2^n.
    Per pair t = (i, j) in statement order: ends[t] = (i, j); outside[t],
    the sets that miss i and j; first[t], the pair's first statement bit;
    rank[t], where (i, j | L) is statement rank[t][node_mask(L) >> 1] of
    the pair.
    """

    __slots__ = ("missing", "shift", "member", "copies", "halves", "folds", "ends", "outside",
                 "first", "rank", "spread")

    def __init__(self, n: int):
        size = 1 << n
        shift = [max(l - 1, 0) << n for l in range(n + 1)]
        sets = [0] * (n + 1)
        for v in range(1, n + 1):
            sets[v] = sum(1 << s for s in range(size) if s >> (v - 1) & 1)
        missing = [(1 << size) - 1] * size
        for b in range(1, size):
            missing[b] = missing[b & (b - 1)] & ~sets[(b & -b).bit_length()]
        copies, blocks = [], 1
        while blocks < n:
            copies.append(blocks << n)
            blocks *= 2
        halves, blocks = [], n
        while blocks > 1:
            blocks -= blocks // 2
            halves.append(blocks)
        self.ends = list(combinations(range(1, n + 1), 2))
        self.outside = [missing[(1 << i | 1 << j) >> 1] for i, j in self.ends]
        self.first = [t << max(n - 2, 0) for t in range(len(self.ends))]
        self.rank = []
        for i, j in self.ends:
            rank = [0] * size
            for r, L in enumerate(_pair_subsets(n, i, j)):
                rank[node_mask(L) >> 1] = r
            self.rank.append(rank)
        self.missing = missing
        self.shift = shift
        self.member = sum(f << s for f, s in zip(sets, shift))
        self.copies = copies
        self.halves = halves
        self.folds = [h << n for h in halves]
        self.spread = [0] * size


_subset_tables = _PerN(_SubsetTables)


def _relabeling(key: tuple[int, tuple[int, ...]]) -> tuple[int, ...]:
    """For key (n, label), label a tuple indexed by node with node 0 fixed:
    entry k is the bit of statement k on 1..n with every node v renamed
    label[v].  Read off the subset tables' rank lists."""
    n, label = key
    tables = _subset_tables[n]
    # moved[node_mask(L) >> 1] = node_mask of L renamed, >> 1
    shift = [label[v] - 1 for v in range(1, n + 1)]
    moved = [_mapped_bits(s, shift) for s in range(1 << n)]
    place = dict(zip(tables.ends, zip(tables.first, tables.rank)))
    out = [0] * (len(tables.ends) << max(n - 2, 0))
    for (i, j), outside, first, rank in zip(tables.ends, tables.outside, tables.first,
                                            tables.rank):
        a, b = label[i], label[j]
        to_first, to_rank = place[(a, b) if a < b else (b, a)]
        for s in _bit_indices(outside):
            out[first + rank[s]] = to_first + to_rank[moved[s]]
    return tuple(out)


# (n, label) -> _relabeling((n, label)), built on first use
_relabelings = _PerN(_relabeling)


def _separated(word: list[int], spreads: list[tuple[int, int, int]], member: int,
               shift: list[int], folds: list[int], ends: list[tuple[int, int]],
               outside: list[int]) -> list[int]:
    """The word arithmetic of the module docstring, on blocks of any width:
    per pair (i, j) of ends, the sets L given which i and j are separated,
    in block 1.  word[k] holds K_kl in block l; spreads lists each edge p ->
    i with K_pi copied into every block (its tail may be left out, as
    word[p] has it); member is the packed word of the I_l; shift[l] is the
    offset of block l and folds the shifts that fold every block into
    block 1; outside[t] keeps, in block 1, the sets that miss pair t's
    ends."""
    # near[i]: block l holds K_il | OR_p K_pi & K_pl, l a child of i or of a
    # parent p of i: K_pi copied into every block meets word[p] blockwise
    near = word[:]
    for p, i, K in spreads:
        near[i] |= K & word[p]
    # collide[i]: block l holds R_il, the sets of near[i]'s block l that hold l
    collide = [w & member for w in near]
    separated = []
    for (i, j), out in zip(ends, outside):
        # fold OR_l R_il & R_jl into block 1; out keeps block 1 only
        c = collide[i] & collide[j]
        for s in folds:
            c |= c >> s
        separated.append(out & ~(c | near[i] >> shift[j] | word[j] >> shift[i]))
    return separated


def maxoid_from_blockers(n: int, blockers: Mapping[tuple[int, int], int]) -> Maxoid:
    """All separation statements on 1..n of the critical DAGs whose edges
    k->l are the keys of blockers, each kept given L exactly when L misses
    the bitmask blockers[(k, l)]; every L at once, on packed words, as in
    the module docstring.  This is the one-lane route: _separated on blocks
    of 2^n bits, the K_pi spread from the tables' cache, and each pair's
    family scattered through its rank list."""
    tables = _subset_tables[n]
    missing, shift, spread = tables.missing, tables.shift, tables.spread
    # word[k]: block l holds K_kl, the sets L given which k -> l is a
    # critical edge with its tail outside L
    word = [0] * (n + 1)
    spreads = []
    for (k, l), b in blockers.items():
        m = (b | 1 << k) >> 1
        word[k] |= missing[m] << shift[l]
        K = spread[m]
        if not K:
            K = missing[m]
            for s in tables.copies:
                K |= K << s
            spread[m] = K
        spreads.append((k, l, K))
    bits = 0
    for separated, first, rank in zip(
            _separated(word, spreads, tables.member, shift, tables.folds, tables.ends,
                       tables.outside), tables.first, tables.rank):
        # pairs joined given every L, as each edge's ends are, map nothing
        if separated:
            bits |= _mapped_bits(separated, rank) << first
    return Maxoid.from_bits(n, bits)


class _LaneTables:
    """Tables of the batched kernel on 1..n, built on first use, one per n
    (see _lane_tables).  A lane is one system's family of subsets, in
    size = max(2^n / 8, 1) bytes, little-endian, so lanes are byte-aligned
    and n <= 2 pads to 8 bits; a batch's block holds one lane per system.

    lane[b]: the lane of missing[b >> 1], indexed by the raw node_mask b of
    a blocker set (bit 0 never set), so a row's masks index it directly.
    tail[k]: the lane of the sets that miss k.
    member[l]: the lane of the sets that contain l.
    outside[t]: the lane of the sets that miss the ends of pair t.
    scatter[t·bits + s], bits = 8·size: the statement bit of (i, j | L),
    pair t = (i, j) and s = node_mask(L) >> 1.
    unit, per: a lane is per items of the memoryview format unit.
    """

    __slots__ = ("size", "lane", "tail", "member", "outside", "scatter", "unit", "per")

    def __init__(self, n: int):
        tables = _subset_tables[n]
        size = max(1 << n >> 3, 1)

        def lane(family: int) -> bytes:
            return family.to_bytes(size, "little")

        missing = tables.missing
        self.size = size
        self.lane = [lane(missing[b >> 1]) for b in range(2 << n)]
        self.tail = [lane(missing[1 << k >> 1]) for k in range(n + 1)]
        block = (1 << (1 << n)) - 1
        self.member = [lane(tables.member >> s & block) for s in tables.shift]
        self.outside = [lane(outside) for outside in tables.outside]
        bits = size << 3
        scatter = [0] * (len(tables.ends) * bits)
        for t, (first, rank) in enumerate(zip(tables.first, tables.rank)):
            scatter[t * bits:t * bits + len(rank)] = [first + r for r in rank]
        self.scatter = scatter
        unit = min(size, 8)
        self.unit = {1: "B", 2: "H", 4: "I", 8: "Q"}[unit]
        self.per = size // unit


_lane_tables = _PerN(_LaneTables)

# The lane bits of one block of a chunk, so _CHUNK_BITS / 2^n rows a chunk
# (lanes of at least 8 bits).  Per structure on complete-n's cones (those of
# complete-3 and -4 repeated to about 300), Python 3.11 on a 2-core x86-64
# host, one call each and then chunks of 2/8/32/128/256/512/1024 rows:
#   n = 3:  3.8 µs;  8.4/3.1/2.0/1.5/1.4/1.4/1.4 µs
#   n = 4:  8.1 µs; 13.4/4.9/2.8/2.4/2.3/2.2/2.3 µs
#   n = 5: 13.4 µs; 19.4/8.2/5.5/4.3/4.3/4.5/4.6 µs
#   n = 6: 20.4 µs; 29.3/15.7/14.4/9.2/9.3/9.9/10.6 µs
_CHUNK_BITS = 1 << 14
# Above this many nodes a chunk is one row, and the batch is the one-lane
# route row by row: a row's statements are scattered off one int of all its
# pairs' lanes, which costs each statement a pass over that int, and that
# outgrew the batch's saving.  On 1500 complete-7 and 400 complete-8
# structures of random generic weights, 185 and 555 statements each, every
# chunk size lost (same host and chunk sizes as above):
#   n = 7:  61 µs; 129/86/79/74/77/87/72 µs
#   n = 8: 151 µs; 413/348/348/347/356/350/359 µs
_BATCH_NODES = 6


def _chunk_rows(n: int) -> int:
    """The rows of one chunk on 1..n."""
    return _CHUNK_BITS >> max(n, 3) if n <= _BATCH_NODES else 1


def _lanes(n: int, pairs: tuple[tuple[int, int], ...], rows: list) -> list[int]:
    """The statement bits of each row of masks keyed by pairs: _separated
    once, on blocks of one lane per row (see _LaneTables)."""
    tables, lanes = _subset_tables[n], _lane_tables[n]
    count = len(rows)
    size = count * lanes.size  # bytes per block
    block = size << 3
    # each pair's lanes, one per row: the rows' masks index the lane table
    column = dict(zip(pairs, (b"".join(map(lanes.lane.__getitem__, masks))
                              for masks in zip(*rows))))
    empty = bytes(size)
    nodes = range(1, n + 1)
    word = [0] * (n + 1)
    for k in {k for k, _ in pairs}:
        word[k] = (int.from_bytes(b"".join([column.get((k, l), empty) for l in nodes]), "little")
                   & int.from_bytes(lanes.tail[k] * (n * count), "little"))
    # word[p] has p's tail, so the spread K_pi can leave it out
    spreads = [(p, i, int.from_bytes(column[p, i] * n, "little")) for p, i in pairs]
    member = int.from_bytes(b"".join([lanes.member[l] * count for l in nodes]), "little")
    separated = _separated(word, spreads, member, [max(l - 1, 0) * block for l in range(n + 1)],
                           [h * block for h in tables.halves], tables.ends,
                           [int.from_bytes(out * count, "little") for out in lanes.outside])
    # one buffer, pair by pair, row by row; row r's lanes are every
    # count-th lane from its own, copied out unit by unit
    view = memoryview(b"".join([s.to_bytes(size, "little") for s in separated])).cast(lanes.unit)
    per, scatter = lanes.per, lanes.scatter
    stride = count * per
    out = []
    for r in range(count):
        own = bytearray(len(separated) * lanes.size)
        mine = memoryview(own).cast(lanes.unit)
        for q in range(per):
            mine[q::per] = view[r * per + q::stride]
        out.append(_mapped_bits(int.from_bytes(own, "little"), scatter))
    return out


def maxoids_from_blockers(n: int, pairs: Iterable[tuple[int, int]],
                          rows: Iterable[Iterable[int]]) -> list[int]:
    """maxoid_from_blockers(n, dict(zip(pairs, row))).bits for each row of
    rows, in order: many blocker collections keyed by the same pairs, one
    row of masks per system.  The word arithmetic runs once per chunk of
    rows, on words whose every block holds one lane per row (_lanes); a
    chunk of one takes the one-lane route."""
    pairs = tuple(pairs)
    rows = iter(rows)
    size = _chunk_rows(n)
    out: list[int] = []
    while chunk := list(islice(rows, size)):
        if len(chunk) > 1:
            out += _lanes(n, pairs, chunk)
        else:
            out.append(maxoid_from_blockers(n, dict(zip(pairs, chunk[0]))).bits)
    return out


def critical_dag(wd: WeightedDag, L: Iterable[int]) -> Dag:
    """The critical DAG of (G, C) given the blocking set L."""
    Ls = frozenset(L)
    if not Ls <= set(wd.g.nodes):
        raise ValueError("blocking set must consist of graph nodes")
    mask = node_mask(Ls)
    return Dag(wd.g.n, [e for e, b in _blocker_sets(wd).items() if not b & mask])


def c_star_separated(wd: WeightedDag, s: CiStatement) -> bool:
    """Whether the statement's endpoints are separated given s.L in (G, C):
    whether s lies in maxoid(wd).  ValueError when s leaves 1..n."""
    return Maxoid(wd.g.n, [s]).bits & maxoid(wd).bits != 0


def maxoid(wd: WeightedDag) -> Maxoid:
    """All separation statements of the weighted DAG, over every pair and
    every conditioning subset."""
    return maxoid_from_blockers(wd.g.n, _blocker_sets(wd))


def derive_set_statement(m: Maxoid, I: Iterable[int], J: Iterable[int],
                         L: Iterable[int]) -> bool:
    """Set-valued statement (I, J | L), reduced to the pairwise statements.

    Valid because the structures produced by maxoid() are closed under
    composition and decomposition.  ValueError when a node leaves 1..n.
    """
    Is, Js, Ls = frozenset(I), frozenset(J), frozenset(L)
    if not Is or not Js:
        raise ValueError("I and J must be nonempty")
    if Is & Js or Is & Ls or Js & Ls:
        raise ValueError("I, J, L must be pairwise disjoint")
    wanted = Maxoid(m.n, (CiStatement(i, j, Ls) for i in Is for j in Js)).bits
    return m.bits & wanted == wanted


def weighted_transitive_reduction(wd: WeightedDag) -> WeightedDag:
    """Keep an edge exactly when it is the unique critical path between its
    endpoints, that is when its blocker set is empty; weights are restricted
    to the surviving edges."""
    blockers = _blocker_sets(wd)
    keep = {e: x for e, x in wd.w.items() if not blockers[e]}
    return WeightedDag(Dag(wd.g.n, keep), keep)


def closure_weights(wd: WeightedDag) -> WeightedDag:
    """Extend the weights to the transitive closure without changing any
    critical path: new edges all get one common weight strictly below the
    smallest critical weight (minus one keeps integer inputs integral)."""
    closure = transitive_closure(wd.g)
    new_edges = closure.edges - wd.g.edges
    if not new_edges:
        return WeightedDag(closure, dict(wd.w))
    rows = kleene_star(wd, proper=True).rows
    eps = min(rows[i - 1][j - 1] for i in wd.g.nodes for j in wd.g.descendants(i))
    delta = eps - 1
    w = dict(wd.w)
    for e in new_edges:
        w[e] = delta
    return WeightedDag(closure, w)


def perturb_across_facet(wd: WeightedDag, target: Path) -> WeightedDag:
    """Break a critical-path tie in favour of `target`.

    Adds eps to one edge of target that lies on none of the other tied
    critical paths, where eps is half the minimum nonzero absolute difference
    of parallel-path weights (1 if all parallel paths are tied).  This makes
    target uniquely critical between its endpoints and preserves every strict
    weight comparison elsewhere.
    """
    i, j = target[0], target[-1]
    tied = critical_paths(wd, i, j)
    if tuple(target) not in tied:
        raise ValueError("target path is not critical between its endpoints")
    if len(tied) == 1:
        raise ValueError("target path is already the unique critical path")
    others = [p for p in tied if p != tuple(target)]
    other_edges = {e for p in others for e in zip(p, p[1:])}
    bump = next((e for e in zip(target, target[1:]) if e not in other_edges), None)
    if bump is None:
        raise ValueError("every edge of target lies on another tied critical path")
    gap = _smallest_gap(wd)
    w = dict(wd.w)
    w[bump] += Fraction(1) if gap is None else gap / 2
    return WeightedDag(wd.g, w)


def _smallest_gap(wd: WeightedDag) -> Fraction | None:
    """The least nonzero difference between the weights of two parallel
    paths, None when every two parallel paths tie."""
    gaps = []
    for u in wd.g.nodes:
        for v in wd.g.descendants(u):
            weights = sorted({path_weight(wd, p) for p in enumerate_paths(wd.g, u, v)})
            gaps.extend(b - a for a, b in zip(weights, weights[1:]))
    return min(gaps, default=None)


def break_ties(wd: WeightedDag) -> WeightedDag:
    """Tie-free weights with the same strict comparisons as wd: edge k of
    the sorted edges gains eps * 2**k, eps the smallest nonzero gap between
    parallel-path weights (1 if there is none) over 2**(|E|+1).

    Any two paths' gains differ by less than eps * 2**|E|, half that gap, so
    every strict comparison between parallel paths keeps its sign, and with
    it every critical path of a weighting whose critical paths are unique.
    Two distinct parallel paths have distinct edge sets, so their gains,
    sums of distinct powers of two times eps, differ: no tie is left.
    """
    edges = wd.g.sorted_edges
    eps = (_smallest_gap(wd) or Fraction(1)) / 2 ** (len(edges) + 1)
    return WeightedDag(wd.g, {e: wd.w[e] + eps * 2 ** k for k, e in enumerate(edges)})
