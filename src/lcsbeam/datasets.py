"""Benchmark dataset loading, saving, and synthetic generation.

On-disk container for string sets ("plain" format):

    line 1:  N sigma            (string count, alphabet size)
    line 2:  the alphabet as one contiguous string
    then N lines, each:  length<space>string

FASTA input is supported for genome-style data, with an optional prefix
truncation to match fixed-length benchmark protocols.

Synthetic generators draw every symbol from SplitMix64, a fixed named
64-bit generator, so instances are byte-identical for a given seed on
every platform.  The uncorrelated family is i.i.d. uniform; the
correlated family mutates a common base string position-wise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .instance import Instance, build_instance

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"


class DatasetError(Exception):
    """Problem with dataset content (I/O level, not solver level)."""


class ParseError(DatasetError):
    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class Family(Enum):
    UNCORRELATED = "uncorr"
    CORRELATED = "corr"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class DatasetDescriptor:
    """Provenance of one instance: where it came from and its shape."""

    name: str
    family: Family
    sigma_size: int
    n_strings: int
    lengths: tuple[int, ...]
    source: str
    generator: dict | None = field(default=None)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "family": self.family.value,
            "sigma_size": self.sigma_size,
            "n_strings": self.n_strings,
            "lengths": list(self.lengths),
            "source": self.source,
            "generator": self.generator,
        }


# --------------------------------------------------------------------------
# plain container format
# --------------------------------------------------------------------------


def load_plain(path, family: Family = Family.UNKNOWN):
    """Parse the plain container format; whitespace-tolerant."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}")
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError(path, 1, "empty file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(path, 1, f"expected 'N sigma', got {lines[0]!r}")
    try:
        n_strings, sigma_size = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(path, 1, f"expected two integers, got {lines[0]!r}")
    if len(lines) < 2:
        raise ParseError(path, 2, "missing alphabet line")
    alphabet = lines[1].strip()
    if len(alphabet) != sigma_size:
        raise ParseError(
            path, 2, f"alphabet has {len(alphabet)} symbols, header declares {sigma_size}"
        )
    if len(set(alphabet)) != len(alphabet):
        raise ParseError(path, 2, "alphabet symbols must be distinct")
    strings = []
    line_no = 2
    for raw in lines[2:]:
        line_no += 1
        if not raw.strip():
            continue
        parts = raw.split()
        if parts == ["0"] and raw[-1].isspace():
            parts.append("")  # `0 ` is the empty string, as dump_plain writes it
        if len(parts) == 1:
            declared, s = None, parts[0]
        elif len(parts) == 2:
            try:
                declared = int(parts[0])
            except ValueError:
                raise ParseError(path, line_no, f"bad length field {parts[0]!r}")
            s = parts[1]
        else:
            raise ParseError(path, line_no, f"expected 'length string', got {raw!r}")
        if declared is not None and declared != len(s):
            raise ParseError(
                path, line_no, f"declared length {declared} but string has {len(s)} symbols"
            )
        bad = set(s) - set(alphabet)
        if bad:
            raise ParseError(
                path, line_no, f"symbols outside declared alphabet: {sorted(bad)}"
            )
        strings.append(s)
    if len(strings) != n_strings:
        raise ParseError(
            path, line_no, f"header declares {n_strings} strings, found {len(strings)}"
        )
    try:
        inst = build_instance(alphabet, strings)
    except ValueError as exc:
        raise DatasetError(f"{path}: {exc}")
    desc = DatasetDescriptor(
        name=path.stem,
        family=family,
        sigma_size=sigma_size,
        n_strings=n_strings,
        lengths=tuple(len(s) for s in strings),
        source=str(path),
    )
    return inst, desc


def dump_plain(instance: Instance) -> str:
    lines = [f"{instance.n_strings} {instance.sigma_size}", instance.alphabet]
    lines.extend(f"{len(s)} {s}" for s in instance.strings)
    return "\n".join(lines) + "\n"


def save_plain(instance: Instance, path) -> None:
    """Write the canonical plain form (load/save round-trips bytewise)."""
    Path(path).write_text(dump_plain(instance))


# --------------------------------------------------------------------------
# FASTA
# --------------------------------------------------------------------------


def load_fasta(path, alphabet: str, truncate: int | None = None):
    """One string per FASTA record, uppercased, restricted to `alphabet`.

    With `truncate`, each record is cut to its prefix of that length first
    (fixed-length genome benchmark protocols).  Records containing symbols
    outside the alphabet are rejected naming the offending header.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}")
    records: list[tuple[str, str]] = []
    header = None
    chunks: list[str] = []
    line_no = 0
    for raw in text.splitlines():
        line_no += 1
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            if header is not None:
                records.append((header, "".join(chunks)))
            header = line[1:].strip() or f"record-{len(records) + 1}"
            chunks = []
        else:
            if header is None:
                raise ParseError(path, line_no, "sequence data before any FASTA header")
            chunks.append(line)
    if header is not None:
        records.append((header, "".join(chunks)))
    if not records:
        raise ParseError(path, 1, "no FASTA records found")
    allowed = set(alphabet)
    strings = []
    for name, seq in records:
        seq = seq.upper()
        if truncate is not None:
            seq = seq[:truncate]
        bad = set(seq) - allowed
        if bad:
            raise DatasetError(
                f"{path}: record {name!r} contains symbols outside "
                f"alphabet {alphabet!r}: {sorted(bad)}"
            )
        strings.append(seq)
    try:
        inst = build_instance(alphabet, strings)
    except ValueError as exc:
        raise DatasetError(f"{path}: {exc}")
    desc = DatasetDescriptor(
        name=path.stem,
        family=Family.UNKNOWN,
        sigma_size=len(alphabet),
        n_strings=len(strings),
        lengths=tuple(len(s) for s in strings),
        source=str(path),
        generator={"headers": [name for name, _ in records], "truncate": truncate},
    )
    return inst, desc


# --------------------------------------------------------------------------
# deterministic generation
# --------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Fixed, portable 64-bit generator; streams split off deterministically."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def split(self) -> "SplitMix64":
        return SplitMix64(self.next_u64())

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by power-of-two rejection."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        mask = (1 << bound.bit_length()) - 1
        while True:
            v = self.next_u64() & mask
            if v < bound:
                return v

    def next_unit(self) -> float:
        """Uniform float in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) / float(1 << 53)


def _alphabet_for(sigma_size: int) -> str:
    if not 1 <= sigma_size <= len(_LETTERS):
        raise ValueError(
            f"generated alphabets support 1..{len(_LETTERS)} symbols, got {sigma_size}"
        )
    return _LETTERS[:sigma_size]


def gen_uncorrelated(sigma_size: int, n_strings: int, length: int, seed: int):
    """N i.i.d. uniform strings of the given length; deterministic per seed."""
    if n_strings < 2:
        raise ValueError(f"need at least 2 strings, got {n_strings}")
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    alphabet = _alphabet_for(sigma_size)
    master = SplitMix64(seed)
    strings = []
    for _ in range(n_strings):
        rng = master.split()
        strings.append("".join(alphabet[rng.next_below(sigma_size)] for _ in range(length)))
    inst = build_instance(alphabet, strings)
    params = {
        "kind": "uncorr",
        "sigma": sigma_size,
        "n": n_strings,
        "len": length,
        "seed": seed,
    }
    desc = DatasetDescriptor(
        name=f"uncorr-s{sigma_size}-n{n_strings}-l{length}-seed{seed}",
        family=Family.UNCORRELATED,
        sigma_size=sigma_size,
        n_strings=n_strings,
        lengths=(length,) * n_strings,
        source=f"gen:seed={seed}",
        generator=params,
    )
    return inst, desc


def gen_correlated(
    sigma_size: int,
    n_strings: int,
    length: int,
    mutation_rate: float,
    seed: int,
):
    """Mutated copies of one uniform base string.

    Each output position is redrawn uniformly (possibly to the same
    symbol) with probability mutation_rate, so rate 0 gives identical
    strings and rate 1 degenerates to the uncorrelated family.
    """
    if n_strings < 2:
        raise ValueError(f"need at least 2 strings, got {n_strings}")
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if not 0.0 <= mutation_rate <= 1.0:
        raise ValueError(f"mutation_rate must be in [0, 1], got {mutation_rate}")
    alphabet = _alphabet_for(sigma_size)
    master = SplitMix64(seed)
    base_rng = master.split()
    base = [base_rng.next_below(sigma_size) for _ in range(length)]
    strings = []
    for _ in range(n_strings):
        rng = master.split()
        chars = []
        for pos in range(length):
            code = base[pos]
            if mutation_rate > 0.0 and rng.next_unit() < mutation_rate:
                code = rng.next_below(sigma_size)
            chars.append(alphabet[code])
        strings.append("".join(chars))
    inst = build_instance(alphabet, strings)
    params = {
        "kind": "corr",
        "sigma": sigma_size,
        "n": n_strings,
        "len": length,
        "rate": mutation_rate,
        "seed": seed,
    }
    desc = DatasetDescriptor(
        name=f"corr-s{sigma_size}-n{n_strings}-l{length}-r{mutation_rate}-seed{seed}",
        family=Family.CORRELATED,
        sigma_size=sigma_size,
        n_strings=n_strings,
        lengths=(length,) * n_strings,
        source=f"gen:seed={seed}",
        generator=params,
    )
    return inst, desc
