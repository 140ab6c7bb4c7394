"""Problem instances and the per-node string bookkeeping the search needs.

An Instance owns the alphabet, the input strings, and two precomputed
lookup tables per string:

- next occurrence: first index >= pos holding a given symbol
- suffix count:    occurrences of a given symbol in the suffix from pos

The next-occurrence table, the string lengths and every cursor of the
search share one dtype, ``table_dtype(max_len)``: ``uint16`` while every
position and advanced cursor (at most max_len) stays below the 16-bit
sentinel, ``int32`` for longer strings.  The sentinel for "no occurrence"
is the dtype's largest value, ``Instance.no_occurrence``.  The suffix
counts are ``uint8`` when no symbol occurs more than 255 times in any
string, and then, for an alphabet of at most FAST_TAKE_BYTES symbols,
each row is padded with zero columns to the next of 1, 2, 4, 8, 16 or 32
bytes; any other count table has the table dtype and sigma columns.
Both tables are checked against the memory budget of
``probability.check_budget`` before they are allocated, by
``check_table_budget``, which the generators also call before they draw
a symbol; it charges both tables at the table dtype's width, which bounds
the count table in either layout, and what the build holds beside them.
The build's largest temporaries, one string's running index and slots,
are made once for the longest string and reused for every string.

Search nodes are cursor vectors (one index per string) plus a parent
chain; the remainder strings are implicit.  Symbols are mapped to small
integer codes internally so the tables are flat arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .probability import check_budget

# numpy's `take` copies rows of 1, 2, 4, 8, 16 or 32 bytes with typed
# loops and rows of any other width with memmove, at about twice the cost
# (a 40-byte row of 20 uint16 counts); a uint8 count row of up to this
# many symbols is padded with zero columns to the next of those widths
FAST_TAKE_BYTES = 32


def table_dtype(max_len: int) -> np.dtype:
    """The dtype of the tables, lengths and cursors of strings up to `max_len`.

    ``uint16`` while max_len < 65535: a position is then at most 65533, an
    advanced cursor or a count at most max_len, and the sentinel 65535
    stays free.  Longer strings use ``int32``.
    """
    return np.dtype(np.uint16 if max_len < np.iinfo(np.uint16).max else np.int32)


@dataclass(frozen=True)
class NodeState:
    """A partial solution: one cursor per string plus the parent chain."""

    cursors: tuple[int, ...]
    depth: int
    last_symbol: str | None = None
    parent: "NodeState | None" = None


class Instance:
    """Immutable LCS problem instance with successor/count tables."""

    def __init__(self, alphabet, strings):
        symbols = list(alphabet)
        if not symbols:
            raise ValueError("alphabet must not be empty")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        if any(len(s) != 1 for s in symbols):
            raise ValueError("alphabet symbols must be single characters")
        strings = [str(s) for s in strings]
        if len(strings) < 2:
            raise ValueError(f"need at least 2 strings, got {len(strings)}")
        self.alphabet: str = "".join(symbols)
        self.strings: tuple[str, ...] = tuple(strings)
        self.sigma_size = len(symbols)
        self.n_strings = len(strings)
        self._code = {ch: c for c, ch in enumerate(symbols)}
        codes = self._symbol_codes()
        lengths = [len(s) for s in strings]
        self.max_len = max(lengths)
        dtype = table_dtype(self.max_len)
        # "symbol does not occur at or after pos"; no position or cursor reaches it
        self.no_occurrence = int(np.iinfo(dtype).max)
        self.lengths = np.array(lengths, dtype=dtype)
        self._build_tables(codes, dtype)

    def _symbol_codes(self) -> list[np.ndarray]:
        """Each string as an int32 array of symbol codes.

        A string's code points are looked up among the alphabet's sorted
        code points; one that is not found raises ValueError.
        """
        points = _code_points(self.alphabet)
        by_point = np.argsort(points).astype(np.int32)
        sorted_points = points[by_point]
        last = len(points) - 1
        out = []
        for idx, s in enumerate(self.strings):
            cp = _code_points(s)
            pos = np.minimum(np.searchsorted(sorted_points, cp), last)
            if (sorted_points[pos] != cp).any():
                raise ValueError(
                    f"string {idx} contains symbols outside the alphabet: "
                    f"{sorted(set(s) - set(self.alphabet))}"
                )
            out.append(by_point[pos])
        return out

    def _build_tables(self, codes: list[np.ndarray], dtype: np.dtype):
        n, sigma, width = self.n_strings, self.sigma_size, self.max_len + 1
        check_table_budget(n, self.max_len, sigma)
        # each string's symbol totals, its counts at position 0
        tallies = [np.bincount(string_codes, minlength=sigma) for string_codes in codes]
        count_dtype, count_cols = dtype, sigma
        if max(int(totals.max()) for totals in tallies) <= np.iinfo(np.uint8).max:
            count_dtype = np.dtype(np.uint8)
            if sigma <= FAST_TAKE_BYTES:
                count_cols = 1 << (sigma - 1).bit_length()
        nxt = np.full((n, width, sigma), self.no_occurrence, dtype=dtype)
        # the padding columns stay 0, which changes no minimum and no sum
        cnt = np.zeros((n, width, count_cols), dtype=count_dtype)
        # one string's running index and slots, made once for the longest
        # string and reused: a fresh array of that size page-faults again for
        # every string.  The index is intp, so `np.take` reads it without a copy
        idx_cells = np.empty((width, sigma), dtype=np.intp)
        slot_cells = np.empty(self.max_len + sigma, dtype=dtype)
        for i, (string_codes, totals) in enumerate(zip(codes, tallies)):
            length = len(string_codes)
            rows = slice(0, length + 1)  # rows past the string keep the sentinel and 0
            # `slots` lists the string's positions symbol by symbol, each
            # symbol's run followed by one sentinel slot; c's run starts at
            # idx[0, c].  Row p + 1 of `idx` adds 1 at the symbol of position
            # p, so after the running sum idx[p, c] is the slot of c's next
            # occurrence at or after p, and idx[length, c] is c's sentinel slot.
            idx = idx_cells[rows]
            idx.fill(0)
            np.cumsum(totals[:-1] + 1, out=idx[0, 1:])
            own = np.arange(0, length * sigma, sigma, dtype=np.intp)  # cell (p, symbol of p)
            own += string_codes
            idx.reshape(-1)[sigma:][own] = 1
            np.cumsum(idx, axis=0, out=idx)
            # in the count dtype: a slot may wrap there, but the difference of
            # two, a count, does not, and cast inputs buffer less than a cast output
            np.subtract(idx[length], idx, out=cnt[i, rows, :sigma], dtype=count_dtype,
                        casting="unsafe")
            own = idx.reshape(-1).take(own)  # each position's slot
            slots = slot_cells[: length + sigma]
            slots.fill(self.no_occurrence)
            slots[own] = np.arange(length, dtype=dtype)
            np.take(slots, idx, out=nxt[i, rows], mode="clip")
        nxt.setflags(write=False)
        cnt.setflags(write=False)
        self.next_table = nxt       # [i, pos, code] -> index or no_occurrence
        self.suffix_table = cnt     # [i, pos, code] -> count in suffix (0 past sigma)

    # -- scalar API ---------------------------------------------------------

    def symbol_code(self, symbol: str) -> int:
        try:
            return self._code[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in alphabet {self.alphabet!r}")

    def next_occurrence(self, i: int, pos: int, symbol: str):
        """First index >= pos of symbol in string i, or None."""
        val = int(self.next_table[i, pos, self.symbol_code(symbol)])
        return None if val == self.no_occurrence else val

    def suffix_count(self, i: int, pos: int, symbol: str) -> int:
        """Occurrences of symbol in string i at or after pos."""
        return int(self.suffix_table[i, pos, self.symbol_code(symbol)])

    def root(self) -> NodeState:
        return NodeState(cursors=(0,) * self.n_strings, depth=0)

    def successor(self, state: NodeState, symbol: str):
        """Child state after appending symbol, or None if infeasible."""
        code = self.symbol_code(symbol)
        new_cursors = []
        for i, pos in enumerate(state.cursors):
            nxt = int(self.next_table[i, pos, code])
            if nxt == self.no_occurrence:
                return None
            new_cursors.append(nxt + 1)
        return NodeState(
            cursors=tuple(new_cursors),
            depth=state.depth + 1,
            last_symbol=symbol,
            parent=state,
        )

    def remaining_lengths(self, state: NodeState) -> tuple[int, ...]:
        return tuple(int(l) - c for l, c in zip(self.lengths, state.cursors))

    def upper_bound(self, state: NodeState) -> int:
        """Sum over symbols of the minimum suffix count at the cursors.

        Admissible bound on how much common subsequence can still be built.
        """
        idx = np.arange(self.n_strings)
        counts = self.suffix_table[idx, np.asarray(state.cursors)]  # (N, padded sigma)
        return int(counts.min(axis=0).sum())

    def stats(self, state: NodeState) -> tuple[float, float]:
        """Sample mean and sample variance (n-1 denominator) of remainders."""
        rem = self.remaining_lengths(state)
        n = len(rem)
        mean = sum(rem) / n
        var = sum((r - mean) ** 2 for r in rem) / (n - 1)
        return mean, var


def table_budget_bytes(n_strings: int, max_len: int, sigma_size: int) -> int:
    """The bytes `check_table_budget` charges for building such an instance.

    - Both tables at sigma cells of the table dtype a row, which is what
      the next table takes and at least what the count table takes: a
      padded uint8 row of sigma <= FAST_TAKE_BYTES counts is narrower than
      2 * sigma bytes.
    - Each string's int32 symbol codes and int64 symbol totals, held until
      the tables are built, and 512 bytes of their array objects.
    - One string's build temporaries.  The running index, intp with sigma
      cells a row (8 bytes a cell), and the slots, one entry of the table
      dtype a position and a symbol, are made once for the longest string
      and reused.  Beside them the build holds at most two intp vectors
      of one entry a position (each position's cell, then its slot), or
      one of them and the buffers numpy casts the count subtraction's two
      inputs through, each of at most 8192 entries of the table dtype.
    - 8 KiB for the instance's other fixed objects.

    It reads only the shape, so a generator can check it before it draws
    a symbol.
    """
    width, item = max_len + 1, table_dtype(max_len).itemsize
    tables = 2 * n_strings * width * sigma_size * item
    per_string = 4 * max_len + 8 * sigma_size + 512
    cells = width * sigma_size
    one_string = (8 * cells + item * (max_len + sigma_size)
                  + max(16 * max_len, 8 * max_len + 2 * item * min(cells, 8192)))
    return tables + n_strings * per_string + one_string + 8192


def check_table_budget(n_strings: int, max_len: int, sigma_size: int) -> None:
    """CapacityError if building such an instance's tables exceeds the budget."""
    check_budget(
        table_budget_bytes(n_strings, max_len, sigma_size),
        f"instance tables for N={n_strings}, max_len={max_len}, sigma={sigma_size}",
    )


def _code_points(s: str) -> np.ndarray:
    """The code points of `s` as a uint32 array (lone surrogates included)."""
    return np.frombuffer(s.encode("utf-32-le", "surrogatepass"), dtype="<u4")


def build_instance(alphabet, strings) -> Instance:
    return Instance(alphabet, strings)


def reconstruct_solution(state: NodeState) -> str:
    """Concatenate the chosen symbols along the parent chain."""
    parts = []
    node = state
    while node is not None and node.last_symbol is not None:
        parts.append(node.last_symbol)
        node = node.parent
    parts.reverse()
    return "".join(parts)
