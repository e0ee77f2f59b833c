"""Graphs, the graph6 codec, graph matrices, and small-n enumeration.

Vertices are 0-based.  Adjacency is stored as one int bitmask per vertex,
which keeps the canonical-form search and the enumeration fast.  The ideals
are built from integer matrices (`smith.char_minors` packs and peels x*I - M
itself); `char_matrix` (x*I - M) and `generalized_char_matrix`
(diag(x0..x_{n-1}) - M) are inputs of the tests' oracles only, and the
package does not export them.

One isomorphism search, `_lexmin`, serves both the canonical form and the
enumeration.  `canonical_columns` is the lexicographically least
upper-triangle bit string over all labelings; it fixes each class's
representative and the order of the output (and of `canonical_graph`).  The
search explores only the vertices of least column, carried down in cells of
equal column; the plain depth-first search it replaced is its test oracle.
Enumeration is orderly generation (`_all_columns`): every lex-min string on
n - 1 vertices is extended by one new column, and a child is kept iff it is
its own lex-min string, a test that stops at the first smaller column.
graph6 is the column order of `canonical_columns` in six-bit characters:
the codec converts through `_columns` and `_rows_from_columns`, the one
inverse pair between columns and adjacency rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .polyring import RING_Z, MultiPoly, UniPoly, exact_int

MATRIX_KINDS = ("adjacency", "laplacian", "distance", "distlap")


class InputError(ValueError):
    """Bad input: a malformed graph or graph6 string, an invalid corpus, an
    unknown matrix kind, ring or mode, or a size outside a supported range.
    The command line exits 2 on it; any other exception is a fault and surfaces."""


class Graph6Error(InputError):
    pass


class DisconnectedGraphError(InputError):
    pass


def _int(value, what: str) -> int:
    """value as an int under `polyring.exact_int`'s rule; InputError for
    anything else (a float or a string is not read as an integer).  An int
    is returned at once: every vertex count and `from_edges` endpoint passes
    here, and `exact_int`'s `numbers.Integral` test took relabelling the
    `critical-n6` corpus through `from_edges` from 13 to 16 ms."""
    if type(value) is int:
        return value
    try:
        return exact_int(value, what)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _vertex_count(n) -> int:
    """n as an int; InputError unless it is an integer in 1..62."""
    n = _int(n, "vertex count")
    if not 1 <= n <= 62:
        raise InputError("vertex count must be between 1 and 62")
    return n


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 (1 <= n <= 62).  InputError
    for a vertex count, row or endpoint that is not an integer, or any other
    input that is not such a graph."""

    n: int
    rows: tuple[int, ...]

    def __init__(self, n: int, rows: Sequence[int]):
        n = _vertex_count(n)
        try:
            rows = tuple(rows)
        except TypeError:
            raise InputError(f"adjacency rows are not a sequence: {rows!r}") from None
        if not all(type(r) is int for r in rows):
            rows = tuple(_int(r, f"adjacency row {i}") for i, r in enumerate(rows))
        if len(rows) != n:
            raise InputError("adjacency row count does not match n")
        for i, r in enumerate(rows):
            if r >> n:
                raise InputError("adjacency bit outside the vertex range")
            if (r >> i) & 1:
                raise InputError("loops are not allowed")
        # symmetric iff every bit j > i of row i has bit i of row j set and
        # the bits above the diagonal are half of all bits: O(edges)
        upper = 0
        for i, r in enumerate(rows):
            bit = 1 << i
            r >>= i + 1
            upper += r.bit_count()
            while r:
                low = r & -r
                r ^= low
                if not rows[low.bit_length() + i] & bit:
                    raise InputError("adjacency must be symmetric")
        if 2 * upper != sum(map(int.bit_count, rows)):
            raise InputError("adjacency must be symmetric")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __reduce__(self):
        # the parent of a pooled survey pickles every graph before it reads a
        # key.  As this constructor call the 853-graph n = 7 corpus pickles in
        # 0.6 ms against 1.7 ms as the dataclass state, and `table1-n7`
        # cpu_s is 18% lower (10 of 10 pairs); the workers then re-validate
        # each graph (unpickling 3.9 ms against 1.4 ms), and wall_s is 4%
        # higher (9 of 10 pairs, within the spread between runs)
        return (Graph, (self.n, self.rows))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph on vertices 0..n-1 with `edges`; InputError for a vertex
        count outside 1..62, an edge that is not a pair, an endpoint that is
        not an integer in 0..n-1 or a loop."""
        n = _vertex_count(n)
        rows = [0] * n
        try:  # the unpacking is the shape check: no work per edge is added
            for u, v in edges:
                u, v = _int(u, "edge endpoint"), _int(v, "edge endpoint")
                if not (0 <= u < n and 0 <= v < n):
                    raise InputError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        except InputError:
            raise
        except (TypeError, ValueError) as exc:
            raise InputError(f"edges are not pairs of endpoints: {exc}") from None
        return cls(n, rows)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n) if self.has_edge(i, j)]

    def __repr__(self) -> str:
        return f"Graph({write_graph6(self)!r})"


# ---------------------------------------------------------------------------
# graph6 codec (n <= 62: single size byte n+63; upper triangle column-major)

_G6_HEADER = ">>graph6<<"


def parse_graph6(data) -> Graph:
    """Decode one graph6 string (optionally prefixed with >>graph6<<): the
    size character n + 63, then columns 1..n-1 concatenated, zero-padded and
    cut into six-bit characters (value + 63).  Graph6Error for anything else."""
    if isinstance(data, (bytes, bytearray)):
        try:
            s = bytes(data).decode("ascii")
        except UnicodeDecodeError as exc:
            raise Graph6Error("graph6 data is not ASCII") from exc
    else:
        s = str(data)
    s = s.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :]
    if not s:
        raise Graph6Error("empty graph6 string")
    first = ord(s[0])
    if first == 126:
        raise Graph6Error("graphs with more than 62 vertices are not supported")
    n = first - 63
    if not 1 <= n <= 62:
        raise Graph6Error(f"invalid graph6 size byte {s[0]!r}")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = s[1:]
    if len(body) != nbytes:
        raise Graph6Error(f"graph6 body has {len(body)} bytes, expected {nbytes}")
    bits = 0
    for ch in body:
        v = ord(ch) - 63
        if not 0 <= v < 64:
            raise Graph6Error(f"invalid graph6 character {ch!r}")
        bits = (bits << 6) | v
    pad = 6 * nbytes - nbits
    if pad and bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    cols = []
    for p in range(1, n):
        nbits -= p
        cols.append((bits >> (pad + nbits)) & ((1 << p) - 1))
    return _graph_from_columns(n, cols)


def write_graph6(g: Graph) -> str:
    """The graph6 string of g in its own labelling (see `parse_graph6`)."""
    n = g.n
    bits = 0
    for p, col in enumerate(_columns(n, g.rows), 1):
        bits = (bits << p) | col
    nbits = n * (n - 1) // 2
    shift = 6 * ((nbits + 5) // 6)
    bits <<= shift - nbits
    out = [chr(n + 63)]
    while shift:
        shift -= 6
        out.append(chr(((bits >> shift) & 63) + 63))
    return "".join(out)


def read_graph6_lines(lines: Iterable[str]) -> Iterator[Graph]:
    for line in lines:
        line = line.strip()
        if not line or line == _G6_HEADER:
            continue
        yield parse_graph6(line)


# ---------------------------------------------------------------------------
# matrices


def _layers(g: Graph, s: int) -> Iterator[int]:
    """Breadth-first search from s: the bitmask of the vertices at distance
    0, 1, 2, ... from s, up to the last nonempty layer."""
    seen = frontier = 1 << s
    while frontier:
        yield frontier
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= g.rows[low.bit_length() - 1]
        frontier = nxt & ~seen
        seen |= nxt


def is_connected(g: Graph) -> bool:
    return sum(_layers(g, 0)) == (1 << g.n) - 1


def distance_matrix(g: Graph) -> list[list[int]]:
    """All-pairs shortest paths, a breadth-first search (`_layers`) per
    source; DisconnectedGraphError on a disconnected graph, where a vertex
    the search does not reach keeps the 0 that only the source may have."""
    dist = []
    for s in range(g.n):
        row = [0] * g.n
        for d, layer in enumerate(_layers(g, s)):
            while layer:
                low = layer & -layer
                layer ^= low
                row[low.bit_length() - 1] = d
        if row.count(0) > 1:
            raise DisconnectedGraphError("distance matrix of a disconnected graph")
        dist.append(row)
    return dist


def build_matrix(g: Graph, kind: str) -> list[list[int]]:
    """The adjacency, Laplacian, distance or distance Laplacian matrix."""
    rows, cols = g.rows, range(g.n)
    if kind == "adjacency":
        return [[r >> j & 1 for j in cols] for r in rows]
    if kind == "laplacian":
        out = [[-(r >> j & 1) for j in cols] for r in rows]
        for i, r in enumerate(rows):
            out[i][i] = r.bit_count()
        return out
    if kind == "distance":
        return distance_matrix(g)
    if kind == "distlap":
        out = distance_matrix(g)
        for i, row in enumerate(out):
            t = sum(row)
            out[i] = row = [-v for v in row]
            row[i] = t
        return out
    raise InputError(f"unknown matrix kind {kind!r}")


def char_matrix(g: Graph, kind: str) -> list[list[UniPoly]]:
    """x*I - M over Z[x], entry by entry as UniPoly.  The Z[x] profiles build
    its minors from M itself (`smith.char_minors`); this matrix is the input
    of the `delta_bruteforce` oracle and of the tests of those minors."""
    m = build_matrix(g, kind)
    n = g.n
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(UniPoly((-m[i][j], 1), RING_Z))
            else:
                row.append(UniPoly((-m[i][j],), RING_Z))
        out.append(row)
    return out


def multivariate_matrix(g: Graph, kind: str) -> list[list[int]]:
    """The M of diag(x0..x_{n-1}) - M: the adjacency matrix (critical ideals)
    or the distance matrix (distance ideals); InputError for any other kind."""
    if kind not in ("adjacency", "distance"):
        raise InputError("generalized characteristic matrices use the adjacency or distance matrix")
    return build_matrix(g, kind)


def generalized_char_matrix(g: Graph, kind: str) -> list[list[MultiPoly]]:
    """diag(x0..x_{n-1}) - M over Z[x0..x_{n-1}], entry by entry as MultiPoly,
    for the M of `multivariate_matrix`.  The Z[X] profiles build its minors
    from M itself (`smith.char_minors`); this matrix is the input of the tests
    of those minors."""
    m = multivariate_matrix(g, kind)
    n = g.n
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                # diagonal of A and D is zero, so the entry is exactly x_i
                row.append(MultiPoly.variable(i, n) + MultiPoly.const(-m[i][j], n))
            else:
                row.append(MultiPoly.const(-m[i][j], n))
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# named families


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices total: center 0, leaves 1..n-1 (K_{1,n-1})."""
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise InputError("part sizes must be positive")
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


# ---------------------------------------------------------------------------
# canonical form and exhaustive enumeration

MAX_GENERATED_N = 9


def canonical_columns(g: Graph) -> tuple[int, ...]:
    """Lexicographically minimal upper-triangle bit string over all labelings.

    Returned per column: entry p-1 holds the p bits of column p (adjacency of
    position p to positions 0..p-1, position 0 in the highest bit), so tuple
    comparison equals bit-string comparison.  The search is `_lexmin`.
    """
    n = g.n
    if n == 1:
        return ()
    # sentinel value 2^p is larger than any real p-bit column
    best = [1 << p for p in range(1, n)]
    _lexmin(n, g.rows, best, False)
    return tuple(best)


def _lexmin(n: int, rows: Sequence[int], best: list[int], stop: bool) -> bool:
    """The lex-min search of the graph on n >= 2 vertices with adjacency
    `rows`.  `best` holds n - 1 columns: sentinels or the columns of one
    labeling.  Without `stop`, lower `best` to the least string and return
    False.  With `stop`, leave `best` as it is and return True at the first
    column found below it, that is iff some labeling gives a smaller string.

    A depth-first search places vertices at positions 0, 1, ... and keeps
    `best`, the least string seen, so that the placed prefix always equals
    the prefix of `best`.  The unplaced vertices are kept in cells of equal
    column, in increasing column order; placing v splits each cell into its
    non-neighbours of v (column shifted left by one bit) and its neighbours
    (shifted, plus one).  Only the first cell can take the next position: a
    vertex of larger column makes the string larger than `best` once the
    first cell has been tried.  A child is cut before it is built when its
    own first column exceeds `best`.  Among unplaced twins only the lowest
    is tried, since swapping two of them is an automorphism that fixes every
    placed vertex (twins also share their column).  u and v are twins iff
    they have the same neighbours apart from each other; this covers true
    and false twins, and is an equivalence, since no vertex has a twin of
    each kind.
    """
    below = [0] * n  # the twins of v with a smaller label
    for v in range(n):
        for u in range(v):
            if (rows[u] & ~(1 << v)) == (rows[v] & ~(1 << u)):
                below[v] |= 1 << u
    top = [1 << p for p in range(1, n)]
    last = n - 1

    def place(p: int, free: int, cells: list[tuple[int, int]]) -> bool:
        # positions 0..p-1 are placed and `free` is the unplaced set; the
        # vertices of cells[0], whose column is best[p-1], can take position p
        col, first = cells[0]
        b = best[p]
        rest = first
        while rest:
            vb = rest & -rest
            rest ^= vb
            v = vb.bit_length() - 1
            if below[v] & free:
                continue
            rv = rows[v]
            # the least column at position p + 1 once v is placed
            c, m = (col, first ^ vb) if first ^ vb else cells[1]
            c = c << 1 if m & ~rv else (c << 1) | 1
            if c > b:
                continue
            if c < b:
                if stop:
                    return True
                best[p] = b = c
                best[p + 1 :] = top[p + 1 :]
            if p + 1 == last:
                continue
            child = []
            for c, m in cells:
                m &= ~vb
                x = m & ~rv
                if x:
                    child.append((c << 1, x))
                if m ^ x:
                    child.append(((c << 1) | 1, m ^ x))
            if place(p + 1, free ^ vb, child):
                return True
        return False

    return place(0, (1 << n) - 1, [(0, (1 << n) - 1)])


def _column_mask(m: int, col: int) -> int:
    """The neighbourhood bitmask of an m-bit column: bit m-1-i of `col` is
    position i.  This reverses m bits, so it is its own inverse and also
    turns the neighbours of position m below m into its column."""
    mask = 0
    while col:
        low = col & -col
        col ^= low
        mask |= 1 << (m - low.bit_length())
    return mask


def _rows_from_columns(n: int, cols: Sequence[int]) -> list[int]:
    """The adjacency rows of the graph whose columns 1..n-1 are `cols`."""
    rows = [0] * n
    for j in range(1, n):
        mask = _column_mask(j, cols[j - 1])
        rows[j] |= mask
        while mask:
            low = mask & -mask
            mask ^= low
            rows[low.bit_length() - 1] |= 1 << j
    return rows


def _columns(n: int, rows: Sequence[int]) -> tuple[int, ...]:
    """Columns 1..n-1 of the adjacency `rows` in their own labelling, the
    inverse of `_rows_from_columns`."""
    return tuple(_column_mask(j, rows[j] & ((1 << j) - 1)) for j in range(1, n))


def _graph_from_columns(n: int, cols: Sequence[int]) -> Graph:
    return Graph(n, _rows_from_columns(n, cols))


def canonical_graph(g: Graph) -> Graph:
    return _graph_from_columns(g.n, canonical_columns(g))


@lru_cache(maxsize=None)
def _all_columns(n: int) -> tuple[tuple[int, ...], ...]:
    """The `canonical_columns` of every graph on n vertices, connected or
    not, one per isomorphism class, in increasing order.

    Orderly generation (Read, "Every one a winner", Ann. Discrete Math.
    1978): each lex-min string on n - 1 vertices is extended by every new
    column, and a child is kept iff it is its own lex-min string.  The first
    n - 2 columns of a lex-min string are the lex-min string of the graph
    without its last-placed vertex (a smaller one would extend, with that
    vertex last, to a smaller whole string), so each class is kept exactly
    once, from its canonical parent.  Parents and columns are tried in
    increasing order, so the output is sorted.  A new column whose first
    n - 2 bits fall below the parent's last column is never canonical
    (swapping the last two positions gives a smaller string), so the
    columns start at the parent's last column shifted left by one bit.
    """
    if n == 1:
        return ((),)
    m = n - 1  # the new vertex, and the bit count of its column
    masks = [_column_mask(m, c) for c in range(1 << m)]
    out = []
    for cols in _all_columns(m):
        prows = _rows_from_columns(m, cols)
        for c in range(cols[-1] << 1 if cols else 0, 1 << m):
            mask = masks[c]
            rows = [r | ((mask >> i) & 1) << m for i, r in enumerate(prows)]
            rows.append(mask)
            child = cols + (c,)
            if not _lexmin(n, rows, list(child), True):
                out.append(child)
    return tuple(out)


@lru_cache(maxsize=None)
def _connected_cache(n: int) -> tuple[Graph, ...]:
    every = (_graph_from_columns(n, cols) for cols in _all_columns(n))
    return tuple(g for g in every if is_connected(g))


def enumerate_connected(n: int) -> tuple[Graph, ...]:
    """All connected graphs on n vertices, one canonical representative per
    isomorphism class, in a deterministic order (built-in generator, n <= 9;
    n = 9 gives 261,080 graphs and takes about a minute).

    The representatives are the connected members of `_all_columns(n)`, the
    lex-min strings of every graph on n vertices made by orderly generation,
    each turned into the graph whose columns it holds; so each is its own
    `canonical_graph`, and they come sorted by `canonical_columns`.
    """
    if not 1 <= n <= MAX_GENERATED_N:
        raise InputError(f"built-in generation supports 1 <= n <= {MAX_GENERATED_N}")
    return _connected_cache(n)
