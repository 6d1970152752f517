"""Exhaustive and branch-and-bound searches over transversals and subsets.

The minimum-triple search extends partial permutations column by column in
lexicographic value order.  Each triple is charged to its last column, so
placing (pos, v) adds the number of placed pairs collinear with (pos, v).

Look-ahead bound.  Every search node keeps a cost matrix A, where
A[j*n + w] counts the placed pairs collinear with cell (j, w).  A child
(pos, v) of a node with count cnt gets the bound

    cnt + A[pos*n + v] + sum over j > pos of min over free w of A[j*n + w]

and is pruned when the bound exceeds a limit.  The bound is admissible:
column j eventually takes some value w that is free now, and the triples
charged to it include at least the A[j*n + w] already closed by placed
pairs, since counts only grow.  Taking the minimum over a free set that
still contains v only weakens it.  A node whose own bound, cnt plus all
its rows' minima, exceeds the limit has every child over it.  While the
slack, the limit less cnt, is below _LEVEL_CUT, that test is decided in
the packed matrix by counting rows level by level, a few big-int
operations a level, and a node only unpacks its own row, for its children,
if it survives (see _Placement.bound); most nodes are pruned there.  At a
larger slack every row is unpacked.

The matrix is updated incrementally.  Placing P adds, for each earlier
point Q, 1 to every later cell collinear with Q and P, from one mask per
difference P - Q built once per search: the union of the sets through the
origin that hold the difference (see _origin_sets), the line of that slope
for prime n.  Differences held by the same sets share one mask of n^2
fields: n masks for prime n, at most 754 for composite n <= 128 (n = 120,
unit lines).  Cells of used values, and cells a branch excludes (below),
carry a blocking mark, so a row minimum is a minimum over free values (inf
for a row with none).  A is packed into one int of fields just wide
enough for every count (see _Placement): 8 bits up to n = 17, where
C(n-1, 2) < 2**7, else 16, so a mask takes n^2 or 2n^2 bytes.  An update
is a few big-int operations, and each descent builds a new matrix from
its parent's: backtracking needs no undo.  A node's matrix holds only the
rows of its own and later columns.

One walk, _search_branch, runs every transversal search, under one of
three objectives.  psi runs "min" once over the branches of its symmetry
reduction (below): each completion within the limit is taken and sets the
limit one below its count, so a branch returns its lex-least completion at
its least count, if that is within the limit it started at.  Tie rule: a
branch whose prefix is lex <= the incumbent witness's first cells starts at
the incumbent count, any other one below it, and a merge keeps the lower
count, ties going to the lex-smaller witness; at prime n the self-inverse
map is the first incumbent.  So psi gets the lex-least completion at the
final count V over all branches, in any finishing order (serial, pooled or
resumed): a branch started at the incumbent count returns it, if it has
one; so does a branch started below, if V is below its start, and
otherwise its completions at V come after the incumbent of its start, and
the incumbent only gets smaller.  Since any order will do, psi runs the
branches at composite n, fresh or resumed, in order of their root bound,
the prefix's count plus the row minima after it, so that a good first
incumbent comes early; the sort is stable, so equal bounds keep lex
order.  At prime n the seed is the first incumbent, and lex order is
kept: once the branch holding the lex-least optimum has run, every later
branch runs below the incumbent count, while root-bound order would run
(0, 1, 2) last under "full", and more branches would keep a tie.
lex_least_with_count keeps lex order, which its first-hit rule needs.

The quadruple-free maximum ("max") walks with no limit and takes each
completion with more triples than the last one taken, so the last taken is
the lex-least maximum.  Quadruple-freeness is a blocking mark, not a test
at each node.  Points 0, e, r and s are collinear exactly when one origin
set holds e, r and s (the sets are subgroups: see _origin_sets).  So
if P closes a triple with placed points Q and Q', the cells that would
complete a quadruple are, translated by P, those of the sets in
held[P - Q] & held[P - Q'].  Placing P marks their later cells used, as it
marks used values.  P closes a triple only when its field of A is above 0,
so only those placements pay for the marks.

Symmetry reduction (psi only).  The maps (x, y) -> (ax + b, cy + e)
with units a, c keep transversals and triple counts, in both modes.  psi's
``reduction`` picks the branches: "full" fixes sigma(0) = 0, and also
sigma(1) = 1 at prime n, and "canonical", the default, keeps fewer images
of each transversal, at least one (isomorph rejection by canonical form:
McKay, J. Algorithms 26, 1998):

- Composite n: a floor on unit-pair gcds.  Let d be the least
  gcd(sigma(j) - sigma(i), n) over column pairs with j - i a unit.  The map
  x -> (x - i)/(j - i), y -> c(y - sigma(i)), c a unit with
  c(sigma(j) - sigma(i)) = d, keeps unit distances and gcds, so its image
  starts (0, d) and has no unit-distance pair with a gcd below d.  Branch
  d | n starts so, and placing (pos, v) blocks the later cells (j, w) with
  j - pos a unit and gcd(w - v, n) < d.
- Composite n, floor 1: an adjacent-pair lex leader (Crawford, Ginsberg,
  Luks & Roy, KR 1996).  If columns i and i + e, e = +-1, have a unit value
  step u, the map x -> i + ex, y -> (y - sigma(i))/u sends sigma to
  tau(x) = (sigma(i + ex) - sigma(i))/u, which starts (0, 1) and keeps the
  floor, so it is a member of branch 1 too.  A child is pruned when such
  an image, over the columns placed, is lex-smaller than sigma.  Proof:
  the maps x -> a + ex, y -> cy + f (c a unit) form a group, so the images
  of sigma under them that start (0, 1) form a set S that is the same for
  every member of S.  Every image the prune compares lies in S, so the
  lex-least member of S is never pruned, and it has sigma's count.  The
  +1 images at i >= 1 that tie sigma so far are passed down the walk, each
  compared once per new column; the -1 image of a new column pos is known
  up to x = pos when the column is placed, and is decided then (one still
  tied is dropped).
- Prime n: an anchored triple of the least ratio (the min-ratio rule).
  Every transversal has a collinear triple (Theorem 1), at some columns
  i, j, k.  The map x -> (x - i)/(j - i),
  y -> (y - sigma(i))/(sigma(j) - sigma(i)) sends it to (0, 0), (1, 1) and
  (r, r), r = (k - i)/(j - i); reordering the triple moves r within
  {r, 1-r, 1/r, 1/(1-r), r/(r-1), (r-1)/r}.  Branch r, the least of its
  orbit, starts (0, 1) with the cell (r, r) pinned, and keeps only the
  transversals whose least orbit-min triple ratio is r: placing P = (pos, v)
  after Q = (i, y) blocks the later cells of the line QP at columns pos + t
  whose ratio (dx + t)/dx, dx = pos - i, has an orbit-min below r.  Proof:
  the points of a collinear triple lie on a line y = mx + f with m != 0
  (values are distinct), so its value ratio equals its column ratio, and an
  affine map x -> ax + b scales all column differences alike, so it keeps
  every triple's ratio.  A transversal whose least orbit-min ratio is r has
  an image anchored at a triple of ratio r, in branch r, and no triple of
  that image has a smaller ratio, so no cell of it is blocked.  This is
  canonical augmentation (McKay, J. Algorithms 26, 1998).
- Prime n, the transpose: a lex leader (Crawford et al.) under
  sigma <-> sigma^-1; branch r keeps sigma only when sigma <= sigma^-1.
  Proof: (x, y) -> (y, x) maps sigma's points to sigma^-1's and lines to
  lines, and a triple's value ratio equals its column ratio, so it keeps
  every triple's ratio: the min-ratio rule keeps sigma exactly when it
  keeps sigma^-1.  The pinned cells (0, 0), (1, 1) and (r, r) lie on the
  diagonal, which it fixes, so each branch is closed under it and keeps
  the lesser of sigma and sigma^-1, with their count.  The lex-least
  transversal sigma* of a count has sigma* <= sigma*^-1, so it is kept: the
  tie rule, the lex-least rule and a resume from any version 2 checkpoint
  (whose finished branches lost nothing) still hold.  The walk carries u,
  the first position where sigma and sigma^-1 are not both known and
  equal (see _Placement.transpose).  Composite n is left out: the floor and
  the floor-1 prune are not shown to commute with the transpose.

Canonical branches are split at the third column, so that a pool has work
to share.  verify_theorem1 runs "full": "canonical" assumes Theorem 1.

The lex-least rule.  Let sigma* be the lex-least transversal with a given
count.  A translation and a unit scaling of values make sigma*(0) = 0 and
sigma*(1) = gcd(sigma*(1), n), the images being no larger: so sigma* lies
in the branches of "full", and starts (0, 1) at prime n.  Under
"canonical" at composite n, sigma*(1) is its floor d, or the pair at the
floor would give a smaller image: so sigma* is in branch d, where the
floor-1 prune keeps it, and is the first completion with its count on the
branches in lex order.  At prime n branch r = 2 comes first, has no ratio
rows and holds every transversal that starts (0, 1, 2) up to the
transpose, which keeps sigma*, and every branch r > 2 blocks the cell
(2, 2): so a result that starts (0, 1, 2) is sigma*, and only at prime n
does a result on another branch need the "first" walk from the empty
prefix to the first completion with that count (in psi, for no p <= 17).

Grid searches.  max_triple_free_subset and ct0_subsets run one DFS,
_grid_search, over subsets S of the n^2 cells held as bitmasks.  Both
counts are invariant under translation, so S starts as {(0, 0)}, and
cells join in increasing order, from the later cells not blocked.  Choosing
c takes d_q = held[q - c] for each q in S.  With no collinear triple
allowed ("free"), c blocks the translate by c of the sets in the OR of the
d_q; with no quadruple ("quad"), each nonzero d_q & d_q' closes a triple,
and c blocks the translate of the sets in their OR, as in quad_block.
"free" maximises |S|, takes only larger sets, so keeps the lex-least
maximum, and prunes when |S| plus the candidates left is at most the best.
"quad" maximises triples, ties going to fewer points, then the least mask,
from the empty set; at prime n it prunes when C(m, 2) // 3 is below the
best, m the least of |S| plus the candidates left and 3n.  Proof: each pair
lies on one line; in a quadruple-free set a line closing a triple holds 3
points and 3 pairs, and any other line closes none, so m points close at
most C(m, 2) / 3 triples.  Each row is a line, so m <= 3n.
"""
from __future__ import annotations

# json, multiprocessing and concurrent.futures are imported where pooled or
# checkpointed psi uses them, so that importing the package does not load them
import itertools
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_, or_
from typing import Callable, Optional, Sequence

from .census import count_quadruples, count_triples, transversal_points
from .constructions import inverse_permutation
from .errors import BoundExceeded, CheckpointMismatch, OutOfRange
from .geometry import DEFAULT_MODE, CollinearityMode, Point
from .modring import is_prime, require_prime
from .packing import psi_lower_bound

__all__ = [
    "SEARCH_BOUND",
    "BRUTE_FORCE_BOUND",
    "SearchBudget",
    "SearchOutcome",
    "psi",
    "psi_brute_force",
    "lex_least_with_count",
    "max_triples_quadfree_transversal",
    "ct0_subsets",
    "max_triple_free_subset",
    "verify_theorem1",
]

CHECKPOINT_VERSION = 2


@dataclass
class SearchBudget:
    """Node/time limits and worker count; exceeding a limit ends the search
    with exact = False rather than an error.

    ``max_nodes`` caps the nodes of the whole search, summed over all
    branches and all workers: a search that runs out reports exactly
    ``max_nodes`` nodes explored (a pool can stop a little below).
    ``max_time`` is wall-clock seconds from the start of the call.
    ``workers`` is used by psi only, which runs no more processes than it
    has branches or the machine has cores; every other search runs
    serially.
    """

    max_nodes: Optional[int] = None
    max_time: Optional[float] = None
    workers: int = 1

    def __post_init__(self):
        for name, least in (("max_nodes", 0), ("max_time", 0), ("workers", 1)):
            value = getattr(self, name)
            # a NaN max_time compares false with everything, so it would never expire
            if value is not None and not value >= least:
                raise OutOfRange(f"{name} must be >= {least}, got {value}")


@dataclass
class SearchOutcome:
    value: int
    witness: object
    exact: bool
    nodes_explored: int = 0
    nodes_pruned: int = 0
    elapsed: float = 0.0
    found: bool = True
    note: str = ""


class _BudgetExhausted(Exception):
    pass


# ---------------------------------------------------------------------------
# core branch engine (module level so it can be pickled for worker pools)
# ---------------------------------------------------------------------------

#: nodes a branch takes from the shared budget at a time; the deadline is
#: checked whenever a slice is taken
_GRANT = 4096


class _NodeBudget:
    """The nodes and time left to one search: the only reader of
    ``max_nodes`` and ``max_time``.

    The node count lives in ``left`` (None for no node limit), or, after
    ``share``, in a lock-protected ``multiprocessing.Value`` that pool
    workers draw on.  ``take`` hands out slices of nodes, _GRANT at a time
    to the transversal walk and one at a time to the grid searches, and 0
    when no node or no time is left.
    """

    def __init__(self, budget: Optional[SearchBudget], start: float):
        budget = budget or SearchBudget()
        self.left = budget.max_nodes
        self.deadline = None if budget.max_time is None else start + budget.max_time
        self.shared = None

    def share(self) -> None:
        """Move the node count to shared memory, for a pool to draw on."""
        if self.left is not None:
            import multiprocessing

            self.shared = multiprocessing.Value("q", self.left)

    def expired(self) -> bool:
        return self.deadline is not None and time.perf_counter() > self.deadline

    def take(self, size: int = _GRANT) -> int:
        if self.expired():
            return 0
        if self.shared is not None:
            with self.shared.get_lock():
                grant = min(size, self.shared.value)
                self.shared.value -= grant
            return grant
        if self.left is None:
            return size
        grant = min(size, self.left)
        self.left -= grant
        return grant

    def give_back(self, unused: int) -> None:
        if self.shared is not None:
            with self.shared.get_lock():
                self.shared.value += unused
        elif self.left is not None:
            self.left += unused


#: largest n every search accepts.  Every pair count C(n-1, 2) must stay
#: below the used mark, the top bit of a cost-matrix field: a field is 8 bits
#: while C(n-1, 2) < 2**7 (n <= 17), else 16 bits, which alone would allow
#: n <= 257; 128 bounds the memory of the mask tables
SEARCH_BOUND = 128

#: largest n psi_brute_force accepts: it enumerates all n! transversals
#: without a budget (n = 9 takes about 35 s)
BRUTE_FORCE_BOUND = 9


def _field_bits(n: int) -> int:
    """The cost-matrix field width at n: its top bit is above C(n-1, 2)."""
    return 8 if math.comb(n - 1, 2) < 1 << 7 else 16


#: the least slack at which _Placement.bound unpacks every row rather than
#: count rows level by level.  Measured serially on Python 3.11.7 (2 cores)
#: at 6, 8, 12, 16 and 24.  8-bit fields: 12 runs psi(14) and psi(16) 17-19%
#: faster than 6 and 8-9% faster than 16, and psi(12, any) 4% faster than 16;
#: psi(12) and psi(10, any) are flat.  16-bit fields: 12 runs the first 1.5M
#: nodes of psi(18) 28% faster than 6 and 7% faster than 16, and the first 1M
#: of psi(20) is within 3% of 16
_LEVEL_CUT = 12


def _check_bound(n: int, bound: int = SEARCH_BOUND, least: int = 1) -> None:
    """The entry check of every search: raise OutOfRange for n below
    ``least``, and BoundExceeded for n above ``bound``."""
    if n < least:
        raise OutOfRange(f"n must be >= {least}, got {n}")
    if n > bound:
        raise BoundExceeded(f"search for n={n} exceeds bound {bound}")


def _origin_sets(n: int, mode: CollinearityMode) -> tuple[list[list[Point]], list[int]]:
    """(sets, held): point sets through the origin such that 0, e and r are
    collinear (per mode) iff one set holds both e and r, and the index of
    the differences, bit k of ``held[x*n + y]`` set when set k holds (x, y),
    for all n^2 cells.

    UNIT_LINE: the unit lines through 0, the cyclic subgroups {t*u} of
    primitive u, n * prod(1 + 1/p) over primes p | n of them (Dedekind's
    psi, not the paper's Psi).  ANY_LINE: 0, e, r are collinear iff
    det(e, r) = 0 mod some prime p | n, that is iff e and r fall mod p on
    one of the p + 1 lines through 0 of (Z_p)^2; one set per such line.
    """
    held = [0] * (n * n)
    if mode == CollinearityMode.ANY_LINE:
        candidates = (
            [(x, y) for x in range(n) for y in range(n) if (x * uy - y * ux) % p == 0]
            for p in range(2, n + 1) if n % p == 0 and is_prime(p)
            for ux, uy in [(0, 1)] + [(1, s) for s in range(p)]
        )
    else:
        # every primitive point of a unit line generates it and lies on no
        # other, so one not yet in ``held`` starts a new line
        candidates = ([(t * ux % n, t * uy % n) for t in range(n)]
                      for ux in range(n) for uy in range(n)
                      if not held[ux * n + uy] and math.gcd(n, ux, uy) == 1)
    sets: list[list[Point]] = []
    for cells in candidates:
        for x, y in cells:
            held[x * n + y] |= 1 << len(sets)
        sets.append(cells)
    return sets, held


def _ratio_rows(n: int, anchor: int, field: int) -> list[list[int]]:
    """The min-ratio rule's rows for the branch with anchor r at prime n,
    by depth: ``rows[pos]`` lists, for the earlier points at dx = pos,
    pos - 1, ..., 1, the row R(dx), rows as in _Placement.pairs, with 1 in
    every field of row t - 1 when the ratio (dx + t)/dx has an orbit-min
    below r, in fields of ``field`` bits.  So the mask of the difference
    (dx, dy) ANDed with R(dx) holds the later cells on the line through
    Q = P - (dx, dy) and P that would close a triple of a smaller ratio."""
    omin = _orbit_min(n)
    line = (1).to_bytes(field // 8, sys.byteorder) * n
    width = len(line)
    R = [0]
    for dx in range(1, n):
        buf = bytearray(width * n)
        inv = pow(dx, -1, n)
        # the third column pos + t lies below n, so dx + t < n
        for t in range(1, n - dx):
            if omin[(dx + t) * inv % n] < anchor:
                buf[(t - 1) * width:t * width] = line
        R.append(int.from_bytes(buf, sys.byteorder))
    return [R[pos:0:-1] for pos in range(n)]


class _Placement:
    """Cost matrices of a transversal placed column by column.

    A matrix A is one int of ``field``-bit fields, n to a row, one row for
    each column not yet placed: with pos columns placed, field (j - pos)*n +
    w counts the placed pairs collinear with cell (j, w), plus the top bit,
    ``used``, set with OR on a blocked cell (see ``tables``).  The width, 8
    or 16, keeps every count, at most C(n-1, 2), below the mark (see
    _field_bits), so the mark never meets a carry.

    Placing P = (pos, v) adds one mask per earlier point Q = P - (dx, dy):
    ``pairs[dx*2n + n + e]``, e = dy or dy - n, the cells collinear with Q
    and P, kept for P at (0, 0) with row r standing for column r + 1.  It
    is the union of the origin sets that hold (dx, dy) (see _origin_sets):
    for prime n the one line through 0 of slope dy/dx.  Differences held by
    the same sets share one int.  Rows of 2n entries take e = v - y for Q
    = (i, y) with no reduction mod n, so Q's mask is ``pairs[2n*pos + v +
    o]`` with Q's offset o = n - y - 2n*i (see ``offset``).  The sum of the
    masks is rotated by v within each row and added to A without its first
    row, column pos, so that its row r lands on column pos + 1 + r; every
    row past column n - 1 is cut off, among them row n - dx - 1, which
    holds Q itself (mod n).  The cells P blocks are kept for P at (0, 0)
    too, and ride in the used bits of the sum through the same rotation.
    """

    def __init__(self, n: int, mode: CollinearityMode):
        self.n = n
        self.prime = is_prime(n)
        nn = n * n
        f = self.field = _field_bits(n)
        self.code = "B" if f == 8 else "H"
        self.nbytes = nn * f // 8
        self.full = (1 << (nn * f)) - 1
        self.used = 1 << (f - 1)
        # field_max: all bits of one field
        self.field_max = (1 << f) - 1
        # the used bit of every field, and the count bits below it
        self.marks = self.full // self.field_max * self.used
        self.low = self.full ^ self.marks
        # trunc[pos]: all bits of the rows of columns pos + 1..n-1
        self.trunc = [(1 << (n - 1 - pos) * n * f) - 1 for pos in range(n)]
        # first: all bits of row 0; row_ones: 1 in each field of row 0
        self.first = (1 << n * f) - 1
        self.row_ones = self.first // self.field_max
        # the level tables of each depth, built when first asked for
        self._levels: list[Optional[tuple[int, int, int]]] = [None] * (n + 1)
        # keep[v]: all bits of the fields of columns >= v in rows 0..n-2;
        # wrap[v]: those of the other columns
        self.keep = [self.mask(((r, w) for r in range(n - 1) for w in range(v, n)), self.field_max)
                     for v in range(n)]
        self.wrap = [self.keep[0] ^ k for k in self.keep]
        # the tables of each branch anchor, built when first asked for
        self._tables: dict[int, tuple] = {}
        # inv[u]: the inverse of u, 0 for a non-unit
        self.inv = [pow(u, -1, n) if math.gcd(u, n) == 1 else 0 for u in range(n)]
        # the sets are closed under negation, so Q = -e lies in the same sets
        # as e; column 0 is P's own, so differences with dx = 0 never occur
        sets, self.held = _origin_sets(n, mode)
        self._set_masks = [self.mask((x - 1, y) for x, y in cells if x) for cells in sets]
        self._unions: dict[int, int] = {}
        self.pairs = [0] * (2 * n) + [self.union(self.held[dx * n + e % n])
                                      for dx in range(1, n) for e in range(-n, n)]

    def union(self, h: int) -> int:
        """The union of the origin sets whose bits are set in ``h``, rows as
        in ``pairs``: built once per distinct h."""
        if h not in self._unions:
            self._unions[h] = reduce(
                or_, [m for k, m in enumerate(self._set_masks) if h >> k & 1], 0)
        return self._unions[h]

    def mask(self, cells, value: int = 1) -> int:
        """The matrix holding ``value`` in the fields of ``cells``, 0 elsewhere."""
        buf = bytearray(self.nbytes)
        fields = memoryview(buf).cast(self.code)
        for r, w in cells:
            fields[r * self.n + w] = value
        fields.release()
        return int.from_bytes(buf, sys.byteorder)

    def tables(self, anchor: int) -> tuple[int, int, list, Optional[Callable], object]:
        """(A, block, rows, lex, ties) of the branch with ``anchor`` (see root),
        built when first asked for and kept: at prime n for one anchor at a
        time, at composite n, where the anchor is the floor, for good.

        A is the matrix before the prefix is placed: at prime n, for r =
        ``anchor`` > 0, the used mark on row r and on column r but not on the
        cell (r, r), else 0.  ``block`` holds the cells, rows as in
        ``pairs``, that placing (pos, 0) marks used: value 0 in every later
        column and, under a floor d, the cells (j, w) at a unit column
        distance with gcd(w, n) < d; ``place`` rotates them by v with the
        pair masks.  ``rows`` are the min-ratio rule's rows by depth for
        r > 2 (see _ratio_rows), else empty at every depth (2 is the least
        orbit-min).  ``lex`` is the branch's lex-leader prune, called as
        ``lex(engine, sigma, v, ties)``, and ``ties`` its state before the
        prefix: the adjacent-pair prune on the floor-1 branch, the transpose
        on every prime branch (r >= 2), None on the others."""
        if anchor not in self._tables:
            n = self.n
            A, rows = 0, [()] * n
            lex, ties = ((_Placement.transpose, 0) if self.prime and anchor
                         else (_Placement.lex, []) if anchor == 1 else (None, None))
            if self.prime:
                self._tables.clear()  # free the old rows before the new ones are built
                A = anchor and self.mask([(j, anchor) for j in range(n) if j != anchor]
                                         + [(anchor, w) for w in range(n) if w != anchor],
                                         self.used)
                if anchor > 2:
                    rows = _ratio_rows(n, anchor, self.field)
            below = [0] + [w for w in range(1, n) if not self.prime and math.gcd(w, n) < anchor]
            cells = ((r, w) for r in range(n - 1)
                     for w in (below if math.gcd(r + 1, n) == 1 else [0]))
            self._tables[anchor] = (A, self.mask(cells, self.used), rows, lex, ties)
        return self._tables[anchor]

    def quad_block(self, sigma: Sequence[int], v: int) -> int:
        """The cells that placing (len(sigma), v) marks used in a
        quadruple-free search (see the module docstring), rows as in
        ``pairs``, not yet rotated by v, as ``block`` in ``tables``."""
        n = self.n
        pos = len(sigma)
        d = [self.held[(pos - i) * n + (v - y) % n] for i, y in enumerate(sigma)]
        common = {h & g for h, g in itertools.combinations(d, 2)}
        return reduce(or_, map(self.union, common), 0) << (self.field - 1)

    def offset(self, i: int, y: int) -> int:
        """The offset of the placed point (i, y) in ``pairs`` (see above)."""
        return self.n - y - 2 * self.n * i

    def place(self, A: int, offs: Sequence[int], v: int, block: int,
              ratio: Sequence[int]) -> int:
        """The matrix after adding (len(offs), v) to the placement whose
        points have the offsets ``offs``; ``block`` is the branch's (see
        ``tables``), with ``quad_block`` ORed in for a quadruple-free
        search, and ``ratio`` the branch's ratio rows at this depth.  The
        blocked cells, ``block`` and the masks' cells in ``ratio``, ride in
        the used bits of the masks' sum, above its counts, through its one
        rotation, and are split from the counts after it."""
        n, f = self.n, self.field
        pos = len(offs)
        k = 2 * n * pos + v
        pairs = self.pairs
        masks = [pairs[k + o] for o in offs]
        M = sum(masks) | block | reduce(or_, map(and_, masks, ratio), 0) << (f - 1)
        # every row rotated by v: the field of (r, w) moves to (r, (w + v) % n)
        add = (M << v * f) & self.keep[v] | (M >> (n - v) * f) & self.wrap[v]
        return ((A >> n * f) + (add & self.low) | add & self.marks) & self.trunc[pos]

    def counts(self, A: int, pos: int = 0) -> list[list[int]]:
        """The rows of ``A``, a matrix with ``pos`` columns placed (columns
        pos..n-1), each a list of its n fields."""
        n = self.n
        if pos == n:
            return []
        return memoryview(A.to_bytes((n - pos) * n * self.field // 8, sys.byteorder)
                          ).cast(self.code, [n - pos, n]).tolist()

    def minima(self, A: int, pos: int) -> float:
        """The sum of the row minima of ``A`` with ``pos`` columns placed (see bound)."""
        rest, row = self.bound(A, pos, math.inf) if pos < self.n else (0, [0])
        return rest + min(row)

    def row(self, A: int) -> list[int]:
        """The n fields of the first row of ``A``."""
        return memoryview((A & self.first).to_bytes(self.n * self.field // 8, sys.byteorder)
                          ).cast(self.code).tolist()

    def levels(self, pos: int) -> tuple[int, int, int]:
        """(marks, ones, ends) of a matrix with ``pos`` columns placed: in
        each of its n - pos rows, the used bit of every field, 1 in every
        field, and used - n in the last field; built when first asked for."""
        if self._levels[pos] is None:
            n = self.n
            marks = self.marks & (1 << (n - pos) * n * self.field) - 1
            self._levels[pos] = (marks, marks >> self.field - 1,
                                 self.mask(((r, n - 1) for r in range(n - pos)), self.used - n))
        return self._levels[pos]

    def full_rows(self, U: int, pos: int) -> int:
        """The number of rows of ``U``, a matrix with ``pos`` columns
        placed, whose fields all carry the used bit: the multiply by
        ``row_ones`` sums each row's used bits into its last field (at most
        n, below the mark, so nothing carries), and adding used - n there
        sets the used bit exactly when the sum is n."""
        marks, _, ends = self._levels[pos] or self.levels(pos)
        return (((U & marks) >> self.field - 1) * self.row_ones + ends & marks).bit_count()

    def bound(self, A: int, pos: int, slack: float) -> tuple[float, Optional[list[int]]]:
        """(rest, row) of ``A``, a matrix with ``pos`` columns placed: row
        its first row's fields and rest the sum of its later rows' minima
        over free cells, when the sum of all its row minima is at most
        ``slack`` (>= 0); (0, None) when it is over.  A row with no free cell,
        the only kind whose minimum reaches the used mark, has minimum inf.

        Below _LEVEL_CUT the sum is decided in the packed matrix, level by
        level: it is over slack s exactly when the sum of min(row minimum,
        s + 1) over the rows is, and that is the sum over k = 1..s + 1 of
        the rows whose free cells all hold at least k.  Subtracting k from
        every field of A | marks leaves the used bit on a cell that holds
        at least k (no borrow crosses a field: counts stay below it), so
        after an OR with A, which keeps a blocked cell's mark, such a row is
        a full row (see full_rows); a fully blocked row counts at every
        level.  The sum stops once it passes s, and once a level has no
        row, when it is exact.  Only then is the first row unpacked."""
        if slack >= _LEVEL_CUT:
            rows = self.counts(A, pos)
            mins = list(map(min, rows))
            total = sum(mins)
            if total >= self.used and max(mins) >= self.used:
                total = math.inf
            return (total - mins[0], rows[0]) if total <= slack else (0, None)
        marks, ones, _ = self._levels[pos] or self.levels(pos)
        full_rows = self.full_rows
        X = A | marks
        total = 0
        for _ in range(slack + 1):
            X -= ones
            k = full_rows(A | X, pos)
            if not k:
                break
            total += k
            if total > slack:
                return 0, None
        row = self.row(A)
        return total - min(row), row

    def lex(self, sigma: Sequence[int], v: int, ties: list) -> Optional[list]:
        """The +1 images still tied after adding (len(sigma), v) to ``sigma``
        on the floor-1 branch, or None when an adjacent image beats it (see
        the module docstring).  ``ties`` holds (i, c) for each +1 image
        tau(x) = c(sigma(i + x) - sigma(i)) that equals sigma so far."""
        n, inv = self.n, self.inv
        pos = len(sigma)
        kept = []
        for i, c in ties:
            t, s = c * (v - sigma[i]) % n, sigma[pos - i]
            if t < s:
                return None
            if t == s:
                kept.append((i, c))
        c = inv[(sigma[pos - 1] - v) % n] if pos >= 2 else 0
        if c:
            # the -1 image at pos, tau(x) = c(sigma(pos - x) - v), is known
            # up to x = pos; tau(1) = 1 = sigma(1)
            for x in range(2, pos + 1):
                t, s = c * (sigma[pos - x] - v) % n, sigma[x] if x < pos else v
                if t != s:
                    if t < s:
                        return None
                    break
            # the +1 image at pos - 1: its step v - sigma(pos - 1) is -1/c
            kept.append((pos - 1, n - c))
        return kept

    def transpose(self, sigma: Sequence[int], v: int, u: int) -> Optional[int]:
        """The state u after adding (len(sigma), v) to ``sigma`` on a prime
        branch, or None when sigma^-1 is then lex-smaller: the first position
        where sigma and sigma^-1 are not both known and equal, n once sigma <
        sigma^-1 is decided.  Only a child at column u or of value u moves it."""
        pos = len(sigma)
        if u != pos and u != v:
            return u
        t = [*sigma, v]
        while u <= pos:
            s = t[u]
            if u not in t:
                # sigma^-1(u) lies past column pos
                return u if s > pos else self.n
            w = t.index(u)
            if s != w:
                return self.n if s < w else None
            u += 1
        return u

    def root(self, prefix: Sequence[int], anchor: int = 0,
             quad: bool = False) -> tuple[int, list[int], int, Optional[list]]:
        """(A, sigma, count, ties) after placing ``prefix`` in a branch with
        ``anchor`` (see _psi_branches), from the anchor's ``tables``: at
        prime n the diagonal cell (r, r) pinned, at composite n the floor d;
        0 for neither.  ``quad`` blocks the cells that would complete a
        collinear quadruple.  ``ties`` is the state of the branch's
        lex-leader prune (see tables), None where there is none.  A blocked
        cell in ``prefix``, or one that the prune rejects, makes ``count``
        infinite."""
        A, block, ratios, lex, ties = self.tables(anchor)
        sigma: list[int] = []
        offs: list[int] = []
        count: float = 0
        for pos, v in enumerate(prefix):
            a = A >> v * self.field & self.field_max
            if ties is not None:
                kept = lex(self, sigma, v, ties)
                if kept is None:
                    a |= self.used
                else:
                    ties = kept
            count += math.inf if a & self.used else a
            A = self.place(A, offs, v, block | self.quad_block(sigma, v) if quad and a else block,
                           ratios[pos])
            sigma.append(v)
            offs.append(self.offset(pos, v))
        return A, sigma, count, ties

    def root_bounds(self, branches: Sequence[tuple[int, tuple[int, ...]]]) -> dict:
        """The look-ahead bound at the root of each (anchor, prefix) branch,
        the test _search_branch makes at its entry."""
        bounds = {}
        for anchor, prefix in branches:
            A, _, count, _ = self.root(prefix, anchor)
            bounds[anchor, prefix] = count + self.minima(A, len(prefix))
        return bounds


def _search_branch(
    engine: _Placement,
    prefix: Sequence[int],
    limit: float,
    budget: _NodeBudget,
    objective: str = "min",
    anchor: int = 0,
) -> tuple[Optional[int], Optional[list[int]], int, int, bool]:
    """Walk the completions of ``prefix`` in lexicographic value order,
    pruning every child whose look-ahead bound exceeds ``limit`` (blocked
    cells include those of the branch's ``anchor``: see _Placement.root).

    "min": each completion lowers ``limit`` to its count - 1, so the last
    completion taken is an optimum of the branch, if any completion has at
    most ``limit`` triples.  "first": the walk stops at the first completion
    with exactly ``limit`` triples, the lex-least one.  "max": cells that
    would complete a collinear quadruple are blocked, and each completion
    with more triples than the last one taken is taken, so the last is the
    lex-least maximum; a node with a fully blocked later column is pruned
    (see _Placement.full_rows), and with no limit to test, a node unpacks
    only its own row.  Every free cell of a node's column is a child and
    counts as a node; a child over the limit, or one that the branch's
    lex-leader prune rejects (see _Placement.tables), is pruned.  When the
    node's own bound, its count plus its rows' minima, is over the limit
    (see _Placement.bound), so is every child: they are counted as nodes
    and pruned in one step, if the slice of the budget already granted
    holds them all, and one by one otherwise, so that ``max_nodes`` stays
    an exact cap.  Returns (count, witness, nodes, pruned, aborted), with
    count and witness None when no completion was taken.
    """
    n = engine.n
    place, bound, used_at = engine.place, engine.bound, engine.used
    first_marks = engine.marks & engine.first
    quad = objective == "max"
    _, block, ratios, lex, _ = engine.tables(anchor)
    A0, sigma, count, ties0 = engine.root(prefix, anchor, quad)
    offs = [engine.offset(i, y) for i, y in enumerate(sigma)]
    start_pos = len(prefix)
    nodes = granted = pruned = 0
    value: Optional[int] = None
    witness: Optional[list[int]] = None

    def finish(cnt: int) -> bool:
        """Take the completion sigma if it counts; True ends the walk."""
        nonlocal limit, value, witness
        if objective == "first" and cnt != limit or quad and value is not None and cnt <= value:
            return False
        value, witness = cnt, sigma.copy()
        if objective == "min":
            limit = cnt - 1
        return objective == "first"

    def rec(pos: int, cnt: int, A: int, ties: Optional[list]) -> bool:
        nonlocal nodes, granted, pruned
        if not quad:
            rest, row = bound(A, pos, limit - cnt)
        elif engine.full_rows(A >> n * engine.field, pos + 1):
            # a later column has no free cell, so no completion lies below
            pruned += 1
            return False
        else:
            # no limit, so the children need only the first row: the rest
            # is 0 at the last column, where it is taken
            rest, row = 0, engine.row(A)
        if row is None:
            # every free child is over the limit
            free = n - (A & first_marks).bit_count()
            if nodes + free <= granted:
                nodes += free
                pruned += free
                return False
            # the slice granted ends inside this node: its children are
            # counted and pruned one by one
            rest, row = math.inf, engine.row(A)
        base = cnt + rest
        ratio, off = ratios[pos], n - 2 * n * pos  # offset(pos, 0)
        for v, a in enumerate(row):
            if a >= used_at:
                continue
            nodes += 1
            if nodes > granted:
                grant = budget.take()
                if not grant:
                    nodes -= 1
                    raise _BudgetExhausted
                granted += grant
            kept = ties
            if base + a > limit or (ties is not None
                                    and (kept := lex(engine, sigma, v, ties)) is None):
                pruned += 1
                continue
            if pos + 1 == n:
                sigma.append(v)
                done = finish(base + a)
            else:
                child = place(A, offs, v,
                              block | engine.quad_block(sigma, v) if quad and a else block, ratio)
                sigma.append(v)
                offs.append(off - v)
                done = rec(pos + 1, cnt + a, child, kept)
                offs.pop()
            if done:
                return True
            sigma.pop()
        return False

    aborted = False
    # a prefix already past the bound, or one that root flags (under any
    # limit, inf included), is a single pruned node
    if count == math.inf or count + engine.minima(A0, start_pos) > limit:
        pruned += 1
    elif start_pos == n:
        finish(count)
    else:
        try:
            rec(start_pos, count, A0, ties0)
        except _BudgetExhausted:
            aborted = True
        finally:
            budget.give_back(granted - nodes)
    return value, witness, nodes, pruned, aborted


#: the engine and the node budget of a pool worker's psi call, set once per
#: worker by _init_pool
_pool_engine: Optional[_Placement] = None
_pool_budget: Optional[_NodeBudget] = None


def _init_pool(engine: _Placement, budget: _NodeBudget) -> None:
    global _pool_engine, _pool_budget
    _pool_engine, _pool_budget = engine, budget


def _pool_branch(branch, limit):
    return _search_branch(_pool_engine, branch[1], limit, _pool_budget, anchor=branch[0])


#: psi's reductions; "auto" is "canonical", or on resume the checkpoint's
_REDUCTIONS = ("auto", "canonical", "full")


def _orbit_min(p: int) -> list[int]:
    """m[x]: the least element of the orbit of x under x -> 1 - x and
    x -> 1/x, {x, 1-x, 1/x, 1/(1-x), x/(x-1), (x-1)/x}, for x in 2..p-1
    (p prime); 0 at 0 and 1."""
    m = [0] * p
    for x in range(2, p):
        inv, co = pow(x, -1, p), pow(1 - x, -1, p)
        m[x] = min(y % p for y in (x, 1 - x, inv, co, -x * co, 1 - inv))
    return m


def _psi_branches(engine: _Placement, reduction: str) -> list[tuple[int, tuple[int, ...]]]:
    """psi's branches, as (anchor, prefix) pairs (see
    _Placement.root), for n >= 3."""
    n = engine.n
    if reduction == "full":
        if engine.prime:
            return [(0, (0, 1, v)) for v in range(2, n)]
        return [(0, (0, v)) for v in range(1, n)]
    if engine.prime:
        # the least r of each orbit (see _orbit_min) on 2..n-1
        roots = [(r, (0, 1)) for r, m in enumerate(_orbit_min(n)) if r >= 2 and m == r]
    else:
        roots = [(d, (0, d)) for d in range(1, n) if n % d == 0]
    # split at the third column, so that a pool has work to share
    branches = []
    for anchor, prefix in roots:
        third = engine.counts(engine.root(prefix, anchor)[0], 2)[0]
        branches += [(anchor, prefix + (v,)) for v, a in enumerate(third) if a < engine.used]
    return branches


def _load_checkpoint(path: str, n: int, mode: CollinearityMode, reduction: str) -> dict:
    """The checkpoint at ``path``; CheckpointMismatch for one that does not
    parse, does not match the call or does not hold together."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # a file nested too deep overflows the parser's recursion
        except (ValueError, RecursionError):
            data = None
    if not isinstance(data, dict) or data.get("version") != CHECKPOINT_VERSION:
        raise CheckpointMismatch(f"{path} is not a version {CHECKPOINT_VERSION} checkpoint")
    if data.get("n") != n or data.get("mode") != mode.value:
        raise CheckpointMismatch(
            f"checkpoint {path} is for n={data.get('n')}, mode={data.get('mode')}"
        )
    recorded = data.get("reduction")
    if recorded not in _REDUCTIONS[1:] or reduction not in ("auto", recorded):
        raise CheckpointMismatch(f"checkpoint {path} used a different symmetry reduction")

    def distinct(values) -> bool:
        return all(type(v) is int and 0 <= v < n for v in values) and len(set(values)) == len(values)

    try:
        data["remaining"] = [(e["anchor"], tuple(e["prefix"])) for e in data["remaining"]]
        # a non-null witness is a transversal with ``best`` triples; a null
        # one stands for no completion yet, which rules out a best value and
        # a finished run
        witness = data["witness"]
        sound = all(distinct([a]) and distinct(p) for a, p in data["remaining"]) and (
            witness is None and data["best"] is None and data["remaining"]
            or witness is not None and len(witness) == n and distinct(witness)
            and count_triples(transversal_points(witness), n, mode) == data["best"])
    except (KeyError, TypeError):
        sound = False
    if not sound:
        raise CheckpointMismatch(f"checkpoint {path} is malformed or inconsistent")
    return data


def psi(
    n: int,
    mode: CollinearityMode = DEFAULT_MODE,
    budget: Optional[SearchBudget] = None,
    checkpoint: Optional[str] = None,
    reduction: str = "auto",
) -> SearchOutcome:
    """Minimum collinear-triple count over all transversals of Z_n, with the
    lexicographically least transversal attaining it.

    One branch-and-bound over the branches of ``reduction`` ("canonical",
    or "full"; "auto" is the checkpoint's on resume, else "canonical"), in
    root-bound order at composite n, serial or pooled, under the tie rule
    and the lex-least rule (see the module docstring).  Budget exhaustion
    yields exact = False with the best value found so far (an upper bound)
    and its witness; the checkpoint then keeps every branch not yet
    finished, so a resumed run gives the uninterrupted result.
    """
    _check_bound(n)
    if reduction not in _REDUCTIONS:
        raise OutOfRange(f"reduction must be one of {_REDUCTIONS}, got {reduction!r}")
    budget = budget or SearchBudget()
    start = time.perf_counter()
    if n <= 2:
        return SearchOutcome(0, list(range(n)), True, elapsed=time.perf_counter() - start)

    engine = _Placement(n, mode)
    best: float = math.inf
    witness: Optional[list[int]] = None
    if engine.prime:
        # the self-inverse construction is the first incumbent
        witness = inverse_permutation(n)
        best = count_triples(transversal_points(witness), n, mode)

    if checkpoint and os.path.exists(checkpoint):
        data = _load_checkpoint(checkpoint, n, mode, reduction)
        red, branches = data["reduction"], data["remaining"]
        # a null witness stands for no completion yet
        if data["witness"] is not None and (data["best"], data["witness"]) < (best, witness):
            best, witness = data["best"], list(data["witness"])
    else:
        red = "canonical" if reduction == "auto" else reduction
        branches = _psi_branches(engine, red)
    if not engine.prime:
        # with no seed, the branch of the least root bound first
        branches.sort(key=engine.root_bounds(branches).__getitem__)

    remaining = list(branches)

    def save() -> None:
        """Write the incumbent and the branches not yet finished."""
        import json

        data = {
            "version": CHECKPOINT_VERSION,
            "n": n,
            "mode": mode.value,
            "reduction": red,
            "best": None if best == math.inf else int(best),
            "witness": witness,
            "remaining": [{"anchor": a, "prefix": list(p)} for a, p in remaining],
        }
        tmp = checkpoint + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        os.replace(tmp, checkpoint)

    if checkpoint:
        # an unwritable path fails here, before any branch is searched
        save()

    nodes_left = _NodeBudget(budget, start)
    nodes_total = 0
    pruned_total = 0
    aborted = False

    def bound(branch) -> float:
        """The tie rule's limit: ``best`` for a prefix lex <= the incumbent's
        first cells, else best - 1."""
        return best - (witness is not None and list(branch[1]) > witness[:len(branch[1])])

    def merge(branch, result) -> None:
        """Fold one branch result in; a branch that did not finish stays
        in ``remaining``."""
        nonlocal best, witness, nodes_total, pruned_total, aborted
        b, w, nodes, pruned, ab = result
        nodes_total += nodes
        pruned_total += pruned
        if w is not None and (b < best or b == best and w < witness):
            best, witness = b, w
        if ab:
            aborted = True
        else:
            remaining.remove(branch)
        if checkpoint:
            save()

    workers = min(budget.workers, len(branches), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        nodes_left.share()
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_pool, initargs=(engine, nodes_left)
        ) as pool:
            # at most one branch per worker in flight, so each new branch
            # starts from the best value known when it is submitted
            todo = iter(branches)
            running: dict = {}

            def submit() -> None:
                branch = next(todo, None)
                if branch is not None and not aborted:
                    running[pool.submit(_pool_branch, branch, bound(branch))] = branch

            for _ in range(workers):
                submit()
            while running:
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for fut in done:
                    merge(running.pop(fut), fut.result())
                    submit()
    else:
        for branch in branches:
            merge(branch, _search_branch(engine, branch[1], bound(branch), nodes_left,
                                         anchor=branch[0]))
            if aborted:
                break

    if not aborted and red == "canonical":
        w, nodes, pruned, aborted = _lex_least(engine, witness, best, nodes_left)
        nodes_total, pruned_total, witness = nodes_total + nodes, pruned_total + pruned, w or witness
    exact = not aborted
    if witness is None and exact:
        # a fresh run's branches hold a transversal: only a resumed one ends here
        raise CheckpointMismatch(f"no transversal lies in the branches left in {checkpoint}")
    elapsed = time.perf_counter() - start
    note = "" if exact else "upper bound: search budget exhausted"
    if witness is None:
        return SearchOutcome(
            -1, None, exact, nodes_total, pruned_total, elapsed,
            found=False, note="budget exhausted before any completion",
        )
    check = count_triples(transversal_points(witness), n, mode)
    if check != best:
        raise AssertionError(f"witness recount {check} != reported value {best}")
    return SearchOutcome(int(best), witness, exact, nodes_total, pruned_total, elapsed, note=note)


def _lex_least(engine: _Placement, witness, count: float, budget: _NodeBudget) -> tuple:
    """The lex-least rule's last step (see the module docstring), as (witness,
    nodes, pruned, aborted); the witness is None if the walk was cut."""
    if not engine.prime or witness[:3] == [0, 1, 2]:
        return witness, 0, 0, False
    return _search_branch(engine, (), count, budget, "first")[1:]


def psi_brute_force(n: int, mode: CollinearityMode = DEFAULT_MODE) -> SearchOutcome:
    """Plain enumeration of all n! transversals (oracle for n <= 9)."""
    _check_bound(n, BRUTE_FORCE_BOUND)
    start = time.perf_counter()
    if n <= 2:
        return SearchOutcome(0, list(range(n)), True, elapsed=time.perf_counter() - start)
    # ties go to the lex-least permutation
    best, witness = min((count_triples(list(enumerate(perm)), n, mode), list(perm))
                        for perm in itertools.permutations(range(n)))
    return SearchOutcome(best, witness, True, math.factorial(n), 0, time.perf_counter() - start)


def lex_least_with_count(
    n: int,
    target: Optional[int] = None,
    budget: Optional[SearchBudget] = None,
    mode: CollinearityMode = DEFAULT_MODE,
) -> SearchOutcome:
    """Lexicographically least transversal with exactly ``target`` triples:
    the "first" walk of ``_search_branch`` on psi's canonical branches in
    order, under the lex-least rule (see the module docstring); found =
    False when none has it, at once for a target outside 0..C(n, 3)."""
    _check_bound(n)
    if target is None:
        target = (n - 1) // 2
    start = time.perf_counter()
    result, aborted, nodes, pruned = None, False, 0, 0
    # the identity lies on the diagonal, a line in both modes, so no count
    # is above C(n, 3)
    if 0 <= target <= math.comb(n, 3):
        engine, nodes_left = _Placement(n, mode), _NodeBudget(budget, start)
        for a, p in _psi_branches(engine, "canonical") if n > 2 else [(0, tuple(range(n)))]:
            _, result, p_nodes, p_pruned, aborted = _search_branch(
                engine, p, target, nodes_left, "first", anchor=a)
            nodes, pruned = nodes + p_nodes, pruned + p_pruned
            if result is not None or aborted:
                break
        if result is not None:
            result, w_nodes, w_pruned, aborted = _lex_least(engine, result, target, nodes_left)
            nodes, pruned = nodes + w_nodes, pruned + w_pruned
    elapsed = time.perf_counter() - start
    if result is not None:
        check = count_triples(transversal_points(result), n, mode)
        if check != target:
            raise AssertionError(f"witness recount {check} != target {target}")
        return SearchOutcome(target, result, True, nodes, pruned, elapsed)
    note = "budget exhausted" if aborted else "no permutation attains the target"
    return SearchOutcome(target, None, not aborted, nodes, pruned, elapsed,
                         found=False, note=note)


def max_triples_quadfree_transversal(
    n: int,
    mode: CollinearityMode = DEFAULT_MODE,
    budget: Optional[SearchBudget] = None,
) -> SearchOutcome:
    """Maximum triple count over transversals with no collinear quadruple.

    The "max" walk of ``_search_branch`` from the prefix (0,) (a translation
    fixes sigma(0) = 0), with no limit: the cells that would complete a
    quadruple are blocked, so the walk visits only quadruple-free partial
    transversals, and the witness is the lex-least maximum.  A blocked cell
    is not a node, and a node with a fully blocked later column is pruned.
    """
    _check_bound(n)
    start = time.perf_counter()
    if n <= 2:
        return SearchOutcome(0, list(range(n)), True, elapsed=time.perf_counter() - start)
    best, witness, nodes, pruned, aborted = _search_branch(
        _Placement(n, mode), (0,), math.inf, _NodeBudget(budget, start), "max")
    elapsed = time.perf_counter() - start
    if witness is None:
        note = ("budget exhausted before any completion" if aborted
                else "no quadruple-free transversal")
        return SearchOutcome(-1, None, not aborted, nodes, pruned, elapsed,
                             found=False, note=note)
    pts = transversal_points(witness)
    if count_triples(pts, n, mode) != best or count_quadruples(pts, n, mode) != 0:
        raise AssertionError("quadfree witness failed recount")
    note = "" if not aborted else "lower bound: search budget exhausted"
    return SearchOutcome(best, witness, not aborted, nodes, pruned, elapsed, note=note)


# ---------------------------------------------------------------------------
# grid searches
# ---------------------------------------------------------------------------


def _grid_step(n: int, mode: CollinearityMode) -> Callable[..., tuple[int, int]]:
    """step(cells, c, quad): (triples, block) when the cell c joins
    ``cells``, the triples closed (with ``quad`` only) and the mask, bit
    x*n + y for (x, y), of the cells blocked (see the module docstring)."""
    nn = n * n
    full = (1 << nn) - 1
    # keep[y]: the cells of columns >= y in every row
    keep = [sum(((1 << n) - (1 << y)) << (x * n) for x in range(n)) for y in range(n)]
    sets, held = _origin_sets(n, mode)
    set_masks = [sum(1 << (x * n + y) for x, y in cells) for cells in sets]

    @lru_cache(maxsize=None)
    def union(h: int) -> int:
        return reduce(or_, [m for k, m in enumerate(set_masks) if h >> k & 1], 0)

    def step(cells: Sequence[Point], c: int, quad: bool) -> tuple[int, int]:
        x, y = divmod(c, n)
        d = [held[(qx - x) % n * n + (qy - y) % n] for qx, qy in cells]
        if quad:
            d = [g for g in itertools.starmap(and_, itertools.combinations(d, 2)) if g]
        h = reduce(or_, d, 0)
        # the union translated by c: all bits rotated by x*n, then each row by y
        M = union(h)
        M = ((M << x * n) | (M >> (nn - x * n))) & full
        M = ((M << y) & keep[y]) | ((M >> (n - y)) & (full ^ keep[y]))
        return len(d) if quad else 0, M

    return step


def _grid_search(
    n: int, mode: CollinearityMode, quad: bool, budget: Optional[SearchBudget]
) -> SearchOutcome:
    """The DFS of the grid searches: "quad" with ``quad``, else "free"."""
    _check_bound(n, least=1 if quad else 2)
    start = time.perf_counter()
    if n == 1:
        return SearchOutcome(0, [(0, 0)], True, elapsed=time.perf_counter() - start)
    step = _grid_step(n, mode)
    nodes_left = _NodeBudget(budget, start)
    # the prime bound's cap on |S|: each row is a line, with at most 3 points
    cap = 3 * n if quad and is_prime(n) else 0
    # free: (size, 0, 0); quad: (triples, -size, -mask), the empty set first
    best: tuple = (0, 0, 0)
    best_mask = nodes = pruned = 0
    cells: list[Point] = []

    def rec(cand: int, mask: int, triples: int) -> None:
        nonlocal best, best_mask, nodes, pruned
        size = len(cells) + 1
        while cand:
            m = size - 1 + cand.bit_count()
            if (cap and math.comb(min(m, cap), 2) // 3 < best[0]) if quad else m <= best[0]:
                pruned += 1
                return
            low = cand & -cand
            cand ^= low
            if not nodes_left.take(1):
                raise _BudgetExhausted
            nodes += 1
            c = low.bit_length() - 1
            t, block = step(cells, c, quad)
            key = (triples + t, -size, -(mask | low)) if quad else (size, 0, 0)
            if key > best:
                best, best_mask = key, mask | low
            cells.append(divmod(c, n))
            rec(cand & ~block, mask | low, triples + t)
            cells.pop()
            if size == 1:
                # a translation takes every set to one holding (0, 0)
                return

    aborted = False
    try:
        rec((1 << n * n) - 1, 0, 0)
    except _BudgetExhausted:
        aborted = True
    witness = [divmod(i, n) for i in range(n * n) if best_mask >> i & 1]
    # (value, forbidden subsets) of the witness
    recount = ((count_triples(witness, n, mode), count_quadruples(witness, n, mode)) if quad
               else (len(witness), count_triples(witness, n, mode)))
    if recount != (best[0], 0):
        raise AssertionError("grid search witness failed recount")
    note = "lower bound: search budget exhausted" if aborted else ""
    return SearchOutcome(best[0], witness, not aborted, nodes, pruned,
                         time.perf_counter() - start, note=note)


def ct0_subsets(
    n: int,
    mode: CollinearityMode = DEFAULT_MODE,
    budget: Optional[SearchBudget] = None,
) -> SearchOutcome:
    """Maximum triple count over the quadruple-free subsets of the grid.

    The "quad" grid search (see the module docstring), exact when it
    finishes: ct0(5) = 16 in under a second.  The witness holds (0, 0), or
    is empty when no set has a triple.  Prime n >= 7 and composite n >= 6
    (unit lines) need a budget; on exhaustion the best set so far is
    returned with exact = False, a lower bound.
    """
    return _grid_search(n, mode, True, budget)


def max_triple_free_subset(
    n: int,
    mode: CollinearityMode = DEFAULT_MODE,
    budget: Optional[SearchBudget] = None,
) -> SearchOutcome:
    """Maximum size of a subset of the grid with no collinear triple.

    The "free" grid search, exact when it finishes; the witness is the
    lex-least maximum.  At prime p the value is p + 1, an arc of AG(2, p).
    n >= 9 needs a budget; on exhaustion the best set so far is returned
    with exact = False, a lower bound.
    """
    return _grid_search(n, mode, False, budget)


def verify_theorem1(n: int) -> bool:
    """Every transversal of a prime grid has a collinear triple.

    Exhaustive (via psi) for n <= 11; beyond, the proved lower bound
    psi(p) >= ceil((p-1)/4) >= 1 (``psi_lower_bound``).  The search runs
    the "full" reduction: the canonical one visits only transversals that
    have a triple, so it would assume the theorem.
    """
    require_prime(n, "verify_theorem1", odd=True)
    if n <= 11:
        return psi(n, reduction="full").value >= 1
    return psi_lower_bound(n) >= 1
