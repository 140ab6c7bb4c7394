"""Problem instances and the per-node string bookkeeping the search needs.

An Instance owns the alphabet, the input strings, and two precomputed
lookup tables per string:

- next occurrence: first index >= pos holding a given symbol
- suffix count:    occurrences of a given symbol in the suffix from pos

Both tables are checked against the memory budget of
``probability.check_budget`` before they are allocated.

Search nodes are cursor vectors (one index per string) plus a parent
chain; the remainder strings are implicit.  Symbols are mapped to small
integer codes internally so the tables are flat arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .probability import check_budget

# Sentinel for "symbol does not occur at or after pos"; large enough to
# stay distinguishable after the +1 cursor advance.
NO_OCCURRENCE = 1 << 30


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
        for idx, s in enumerate(strings):
            bad = set(s) - set(symbols)
            if bad:
                raise ValueError(
                    f"string {idx} contains symbols outside the alphabet: "
                    f"{sorted(bad)}"
                )
        self.lengths = np.array([len(s) for s in strings], dtype=np.int32)
        self.max_len = int(self.lengths.max())
        self._build_tables()

    def _build_tables(self):
        n, sigma, width = self.n_strings, self.sigma_size, self.max_len + 1
        check_budget(
            2 * n * width * sigma * np.dtype(np.int32).itemsize,
            f"instance tables for N={n}, max_len={self.max_len}, sigma={sigma}",
        )
        nxt = np.full((n, width, sigma), NO_OCCURRENCE, dtype=np.int32)
        cnt = np.zeros((n, width, sigma), dtype=np.int32)
        symbols = np.arange(sigma, dtype=np.int32)
        for i, s in enumerate(self.strings):
            length = len(s)
            if not length:
                continue  # row 0 keeps NO_OCCURRENCE and 0, like every end row
            codes = np.fromiter((self._code[ch] for ch in s), dtype=np.int32, count=length)
            # one (length, sigma) block per string, last position first; the
            # scans run from the end, so they write the rows in reverse
            hit = codes[::-1, None] == symbols
            pos = np.arange(length - 1, -1, -1, dtype=np.int32)[:, None]
            np.minimum.accumulate(
                np.where(hit, pos, np.int32(NO_OCCURRENCE)), axis=0,
                out=nxt[i, length - 1 :: -1],
            )
            np.cumsum(hit, axis=0, dtype=np.int32, out=cnt[i, length - 1 :: -1])
        nxt.setflags(write=False)
        cnt.setflags(write=False)
        self.next_table = nxt       # [i, pos, code] -> index or NO_OCCURRENCE
        self.suffix_table = cnt     # [i, pos, code] -> count in suffix

    # -- scalar API ---------------------------------------------------------

    def symbol_code(self, symbol: str) -> int:
        try:
            return self._code[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in alphabet {self.alphabet!r}")

    def next_occurrence(self, i: int, pos: int, symbol: str):
        """First index >= pos of symbol in string i, or None."""
        val = int(self.next_table[i, pos, self.symbol_code(symbol)])
        return None if val == NO_OCCURRENCE else val

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
            if nxt == NO_OCCURRENCE:
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
        counts = self.suffix_table[idx, np.asarray(state.cursors)]  # (N, sigma)
        return int(counts.min(axis=0).sum())

    def stats(self, state: NodeState) -> tuple[float, float]:
        """Sample mean and sample variance (n-1 denominator) of remainders."""
        rem = self.remaining_lengths(state)
        n = len(rem)
        mean = sum(rem) / n
        var = sum((r - mean) ** 2 for r in rem) / (n - 1)
        return mean, var


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
