"""Ground-truth LCS solvers for testing: exact DP for 2-3 strings and
exhaustive enumeration for tiny many-string cases.

These are referees for the beam search, kept deliberately independent of
the instance tables (plain string scans only).  The DP planes are charged
to ``probability.check_budget`` before they are allocated; two work caps
bound the rest, and every refusal is a ``CapacityError``."""

from __future__ import annotations

import itertools

import numpy as np

from .probability import CapacityError, check_budget

DP3_CELL_CAP = 25_000_000  # cells the 3-string DP visits, (l1+1)·(l2+1)·(l3+1)
ENUM_LEN_CAP = 20          # longest shortest string to enumerate: 2**20 subsets


def lcs2_bytes(l1: int, l2: int) -> int:
    """What `exact_lcs2` charges: its (l1+1)·(l2+1) int32 plane, 16 bytes a
    symbol for a row's temporaries, the codes and the witness, and 4 KiB."""
    return 4 * (l1 + 1) * (l2 + 1) + 16 * (l1 + l2) + 4096


def lcs3_bytes(l2: int, l3: int) -> int:
    """What `exact_lcs3` charges: its (l2+1)·(l3+1) planes at the 13 bytes a
    cell it holds (three int32 planes and a bool mask), 16 bytes a symbol
    for the codes, and 4 KiB."""
    return 13 * (l2 + 1) * (l3 + 1) + 16 * (l2 + l3) + 4096


def exact_lcs2(s1: str, s2: str):
    """Classical two-string DP; returns (length, one witness)."""
    check_budget(lcs2_bytes(len(s1), len(s2)), f"2-string DP of {len(s1)} x {len(s2)}")
    a = np.frombuffer(s1.encode("utf-8"), dtype=np.uint8)
    b = np.frombuffer(s2.encode("utf-8"), dtype=np.uint8)
    if a.size != len(s1) or b.size != len(s2):
        # non-ASCII symbols: fall back to per-character integer codes
        pool = {ch: i for i, ch in enumerate(dict.fromkeys(s1 + s2))}
        a = np.array([pool[ch] for ch in s1], dtype=np.int32)
        b = np.array([pool[ch] for ch in s2], dtype=np.int32)
    dp = np.zeros((len(s1) + 1, len(s2) + 1), dtype=np.int32)
    for i in range(1, len(s1) + 1):
        eq = (b == a[i - 1]).astype(np.int32)
        np.maximum.accumulate(
            np.maximum(dp[i - 1, 1:], dp[i - 1, :-1] + eq), out=dp[i, 1:]
        )
    length = int(dp[len(s1), len(s2)])
    # traceback for one witness
    witness = []
    i, j = len(s1), len(s2)
    while i > 0 and j > 0:
        if s1[i - 1] == s2[j - 1] and dp[i, j] == dp[i - 1, j - 1] + 1:
            witness.append(s1[i - 1])
            i -= 1
            j -= 1
        elif dp[i - 1, j] >= dp[i, j - 1]:
            i -= 1
        else:
            j -= 1
    witness.reverse()
    return length, "".join(witness)


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
