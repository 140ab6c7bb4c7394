"""Ground-truth LCS solvers for testing: exact DP for 2-3 strings and
exhaustive enumeration for tiny many-string cases.

These are referees for the beam search, kept deliberately independent of
the instance tables (plain string scans only).  The DP rows and planes are
charged to ``probability.check_budget`` before they are allocated; two work
caps bound the rest, and every refusal is a ``CapacityError``."""

from __future__ import annotations

import itertools
import sys

import numpy as np

from .probability import CapacityError, check_budget

DP3_CELL_CAP = 25_000_000  # cells the 3-string DP visits, (l1+1)·(l2+1)·(l3+1)
ENUM_LEN_CAP = 20          # longest shortest string to enumerate: 2**20 subsets


def lcs2_bytes(l1: int, l2: int) -> int:
    """What `exact_lcs2` charges: l1+5 ints of l2+1 bits (rows, masks and temporaries)
    sized from ``sys.int_info``, with list slots; 24 bytes a witness symbol; and 2 KiB."""
    info = sys.int_info  # ints of at most 8 bits are cached
    row = 0 if l2 <= 8 else sys.getsizeof(1) + info.sizeof_digit * (l2 // info.bits_per_digit)
    return (l1 + 5) * (8 + row) + 24 * min(l1, l2) + 2048


def lcs3_bytes(l2: int, l3: int) -> int:
    """What `exact_lcs3` charges: its (l2+1)·(l3+1) planes at the 13 bytes a
    cell it holds (three int32 planes and a bool mask), 16 bytes a symbol
    for the codes, and 4 KiB."""
    return 13 * (l2 + 1) * (l3 + 1) + 16 * (l2 + l3) + 4096


def exact_lcs2(s1: str, s2: str):
    """Two-string LCS by bit-vector rows (Allison & Dix 1986; Hyyrö 2004): bit j
    of row i is set where dp(i, j+1) = dp(i, j).  Returns (length, one witness)."""
    l1, l2 = len(s1), len(s2)
    check_budget(lcs2_bytes(l1, l2), f"2-string DP of {l1} x {l2}")
    last = {ch: i for i, ch in enumerate(s1)}
    masks = dict.fromkeys(last, 0)  # a symbol absent from s2 keeps the cached 0
    for j, ch in enumerate(s2):
        if ch in masks:
            masks[ch] |= 1 << j
    rows = [(1 << l2) - 1] * (l1 + 1)  # row 0 is all ones; every row is kept
    # a mask goes at its symbol's last use, so live masks never outnumber rows to come
    for i, ch in enumerate(s1):
        u = rows[i] & (masks[ch] if last[ch] > i else masks.pop(ch))
        rows[i + 1] = ((rows[i] + u) | (rows[i] - u)) & rows[0]

    def dp(i, j):
        return j - (rows[i] & ((1 << j) - 1)).bit_count()

    witness, i, j = [], l1, l2
    while i > 0 and j > 0:
        if s1[i - 1] == s2[j - 1]:  # a match extends the diagonal: dp(i-1, j-1) + 1
            witness.append(s1[i - 1])
            i, j = i - 1, j - 1
        else:
            i, j = (i - 1, j) if dp(i - 1, j) >= dp(i, j - 1) else (i, j - 1)
    return dp(l1, l2), "".join(reversed(witness))


def exact_lcs3(s1: str, s2: str, s3: str) -> int:
    """Exact three-string LCS length by 3-D DP (no witness)."""
    l2, l3 = len(s2), len(s3)
    cells = (len(s1) + 1) * (l2 + 1) * (l3 + 1)
    if cells > DP3_CELL_CAP:
        raise CapacityError(f"3-string DP needs {cells} cells, cap is {DP3_CELL_CAP}")
    check_budget(lcs3_bytes(l2, l3), f"3-string DP planes of {l2} x {l3}")
    # the previous and current planes, the diagonal step and the match mask,
    # made once and written in place for each symbol of s1, each by a step
    # that numpy runs without a buffer (a 1-D shift, a masked copy, a
    # masked maximum over whole planes)
    prev = np.zeros((l2 + 1, l3 + 1), dtype=np.int32)
    cur = np.empty_like(prev)
    take = np.zeros_like(prev)
    eq23 = np.zeros((l2 + 1, l3 + 1), dtype=bool)  # row and column 0 stay False
    match = eq23[1:, 1:]
    # take[i, j] = prev[i-1, j-1] + 1 is a shift by l3 + 2 cells of the flat
    # planes; column 0 gets the last cell of row i-2, which the mask never reads
    shift = l3 + 2
    b = np.array(list(s2))
    c = np.array(list(s3)) if s3 else np.array([], dtype="<U1")
    for ch1 in s1:
        if l2 and l3:
            match.fill(False)
            np.copyto(match, c == ch1, where=(b == ch1)[:, None])
        np.add(prev.reshape(-1)[:-shift], 1, out=take.reshape(-1)[shift:])
        np.copyto(cur, prev)
        np.maximum(cur, take, out=cur, where=eq23)
        np.maximum.accumulate(cur, axis=0, out=cur)
        np.maximum.accumulate(cur, axis=1, out=cur)
        prev, cur = cur, prev
    return int(prev[l2, l3])


def _is_subsequence(pattern: str, s: str) -> bool:
    it = iter(s)
    return all(ch in it for ch in pattern)


def exhaustive_lcs(strings) -> int:
    """Brute-force referee: try subsequences of the shortest string,
    longest first, and return the first length common to all strings."""
    strings = list(strings)
    if not strings:
        raise ValueError("need at least one string")
    shortest = min(strings, key=len)
    if len(shortest) > ENUM_LEN_CAP:
        raise CapacityError(f"enumeration over a length-{len(shortest)} string exceeds "
                            f"the cap of {ENUM_LEN_CAP}")
    others = [s for s in strings if s is not shortest]
    for size in range(len(shortest), 0, -1):
        seen = set()
        for positions in itertools.combinations(range(len(shortest)), size):
            cand = "".join(shortest[p] for p in positions)
            if cand in seen:
                continue
            seen.add(cand)
            if all(_is_subsequence(cand, s) for s in others):
                return size
    return 0
