"""GF(2) linear algebra on bit-packed vectors.

Bit-strings are plain Python ints. Bit j of the int, i.e. ``(x >> j) & 1``,
is coordinate x_{j+1} of the string. All linear-algebra routines work on
lists of such ints plus an explicit length n. A string of m copies of a
q-bit register holds copy j's digit at bits [j q, (j + 1) q);
`split_digits` and `join_digits` convert between the two forms.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional, Sequence

import numpy as np


def dot(a: int, b: int) -> int:
    """Inner product a·b over GF(2)."""
    return (a & b).bit_count() & 1


def split_digits(x: int, width: int, count: int) -> list[int]:
    """The `count` width-bit digits of x, digit j from bits [j width,
    (j + 1) width); x must lie below 2^(width count), width below 64. One
    digit, or none, takes no numpy call."""
    if count <= 1:
        return [x] if count else []
    nbits = width * count
    raw = np.frombuffer(x.to_bytes((nbits + 7) // 8, "little"), dtype=np.uint8)
    bits = np.unpackbits(raw, count=nbits, bitorder="little").reshape(count, width)
    return (bits @ (1 << np.arange(width))).tolist()


def join_digits(digits, width: int) -> int:
    """The int whose digit j, at bits [j width, (j + 1) width), is digits[j];
    each digit must lie in [0, 2^width), width at most 64. One digit, or
    none, takes no numpy call."""
    if len(digits) <= 1:
        return int(digits[0]) if len(digits) else 0
    words = np.asarray(digits).astype("<u8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(words, axis=1, count=width, bitorder="little")
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def row_echelon(rows: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    """Row-reduce over GF(2). Returns (reduced rows, pivot columns).

    Output rows are in reduced row-echelon form (each pivot column is
    cleared in every other row); zero rows are dropped.
    """
    mat = [r for r in rows]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot = None
        for i in range(r, len(mat)):
            if (mat[i] >> col) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(len(mat)):
            if i != r and (mat[i] >> col) & 1:
                mat[i] ^= mat[r]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(vectors: Sequence[int], n: int) -> int:
    return len(row_echelon(vectors, n)[0])


def nullspace_basis(vectors: Sequence[int], n: int) -> list[int]:
    """Basis of {t : v·t = 0 for all v} as bit-packed ints."""
    rows, pivots = row_echelon(vectors, n)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        t = 1 << fc
        # back-substitute: pivot coordinate p of row i must cancel row i's
        # free-column contribution
        for i, p in enumerate(pivots):
            if (rows[i] >> fc) & 1:
                t |= 1 << p
        basis.append(t)
    return basis


@dataclass(frozen=True)
class AffineSubspaceGF2:
    """Affine subspace offset + span(basis) of GF(2)^n.

    basis vectors are linearly independent; the member count is 2^dim.
    """

    n: int
    offset: int
    basis: tuple[int, ...]

    def __post_init__(self):
        if rank(self.basis, self.n) != len(self.basis):
            raise ValueError("basis is linearly dependent")

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def __len__(self) -> int:
        return 1 << len(self.basis)

    def members(self) -> Iterator[int]:
        k = len(self.basis)
        for mask in range(1 << k):
            t = self.offset
            for i in range(k):
                if (mask >> i) & 1:
                    t ^= self.basis[i]
            yield t

    def __contains__(self, t: int) -> bool:
        # t is a member iff t ^ offset lies in the span
        span_rows, pivots = row_echelon(self.basis, self.n)
        v = t ^ self.offset
        for row, p in zip(span_rows, pivots):
            if (v >> p) & 1:
                v ^= row
        return v == 0

    def sample(self, rng) -> int:
        t = self.offset
        for b in self.basis:
            if rng.integers(2):
                t ^= b
        return t


def solve_affine(
    equations: Sequence[tuple[int, int]], n: int
) -> Optional[AffineSubspaceGF2]:
    """Solve {t in GF(2)^n : a·t = b for all (a, b)}.

    Returns the solution set as an affine subspace, or None when the system
    is inconsistent. An empty equation list yields the full space.
    """
    # augmented rows [a | b] with b in bit position n
    aug = [(a & ((1 << n) - 1)) | (b & 1) << n for a, b in equations]
    rows, pivots = row_echelon(aug, n + 1)
    if pivots and pivots[-1] == n:
        return None  # 0 = 1 row: inconsistent
    offset = 0
    for row, p in zip(rows, pivots):
        if (row >> n) & 1:
            offset |= 1 << p
    basis = nullspace_basis([r & ((1 << n) - 1) for r in rows], n)
    return AffineSubspaceGF2(n=n, offset=offset, basis=tuple(basis))


def solve_consistent_parities(
    samples: Sequence[tuple[int, int]], n: int
) -> Optional[AffineSubspaceGF2]:
    """Set {t : t·x_i = b_i for all samples (x_i, b_i)}; None if inconsistent."""
    return solve_affine([(x, b) for x, b in samples], n)


def solve_simon_nullspace(
    orthogonal_samples: Sequence[int], n: int
) -> Optional[int]:
    """Unique nonzero s' orthogonal to all samples, or None if underdetermined.

    Raises ValueError when the samples span all of GF(2)^n, which is
    inconsistent with the promise that a nonzero period exists.
    """
    basis = nullspace_basis(orthogonal_samples, n)
    if len(basis) == 0:
        raise ValueError("samples span the full space; no nonzero period exists")
    if len(basis) > 1:
        return None
    return basis[0]


def offdiag_pair_index(n: int) -> list[tuple[int, int]]:
    """Canonical ordering of the strictly-upper-triangular index pairs."""
    return list(combinations(range(n), 2))


def solve_offdiagonal_quadratic(
    samples: Sequence[tuple[int, int]], n: int
) -> Optional[tuple[int, ...]]:
    """Recover the off-diagonal part of A from pairs (y, z = (A+A^T) y).

    Both y and z are n-bit strings; z is the GF(2) matrix-vector product of
    the symmetric zero-diagonal matrix M = A + A^T with y. When the y's span
    GF(2)^n, M (hence every A_ij with i < j) is determined uniquely and the
    result is returned as n row masks of a strictly-upper-triangular matrix.
    Returns None when the y's do not span; raises ValueError on inconsistent
    samples (impossible for an honest oracle).
    """
    if rank([y for y, _ in samples], n) < n:
        return None
    pairs = offdiag_pair_index(n)
    pos = {p: idx for idx, p in enumerate(pairs)}
    eqs: list[tuple[int, int]] = []
    for y, z in samples:
        for k in range(n):
            # z_k = sum_{j != k} M_{kj} y_j, unknown M_{kj} = u_{(min,max)}
            a = 0
            for j in range(n):
                if j == k:
                    continue
                if (y >> j) & 1:
                    a ^= 1 << pos[(min(k, j), max(k, j))]
            eqs.append((a, (z >> k) & 1))
    sol = solve_affine(eqs, len(pairs))
    if sol is None:
        raise ValueError("inconsistent off-diagonal samples")
    if sol.dimension != 0:
        # cannot happen when the y's span, but guard anyway
        return None
    u = sol.offset
    rows = [0] * n
    for idx, (i, j) in enumerate(pairs):
        if (u >> idx) & 1:
            rows[i] |= 1 << j
    return tuple(rows)


def matvec_sym_offdiag(upper_rows: Sequence[int], y: int, n: int) -> int:
    """(M y) for M = U + U^T built from strictly-upper-triangular row masks."""
    z = 0
    for i in range(n):
        row = upper_rows[i]  # entries j > i
        col = 0
        for k in range(i):
            if (upper_rows[k] >> i) & 1:
                col |= 1 << k
        if dot(row | col, y):
            z |= 1 << i
    return z
