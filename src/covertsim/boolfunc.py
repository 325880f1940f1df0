"""Boolean function families wrapped by every oracle in the library.

A BooleanFunction maps n input bits to w output bits. Inputs and outputs are
bit-packed ints with the convention of :mod:`covertsim.gf2`. Each body is
defined once, by its vectorised formula in `_tabulate`: `evaluate` reads the
truth table that `eval_all` builds from it once per instance. Parity alone is
also evaluated in closed form, as its arity may pass MAX_TABLE_ARITY.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .gf2 import dot

MAX_TABLE_ARITY = 20  # eval_all materializes 2^n entries


@dataclass(frozen=True)
class TruthTable:
    values: tuple[int, ...]  # one w-bit value per input, index = input bits


@dataclass(frozen=True)
class Parity:
    s: int  # f(x) = s·x


@dataclass(frozen=True)
class Quadratic:
    rows: tuple[int, ...]  # row masks of upper-triangular A; f(x) = x^T A x

    def __post_init__(self):
        n = len(self.rows)
        for i, row in enumerate(self.rows):
            if row & ((1 << i) - 1):
                raise ValueError("Quadratic body must be upper-triangular")
            if row >> n:
                raise ValueError("row mask wider than arity")


@dataclass(frozen=True)
class PaddedXor:
    f: "BooleanFunction"  # h(x, y) = f(x) xor g(y), width 1
    g: "BooleanFunction"


@dataclass(frozen=True)
class SimonFunction:
    """Width-n function with f(x) = f(x xor s); injective when s = 0.

    labels[i] is the output attached to the i-th coset representative in
    increasing order (representatives are the x with x <= x xor s). The
    labeling is instance data: the promise fixes only the coset structure.
    """

    s: int
    labels: tuple[int, ...]


Body = Union[TruthTable, Parity, Quadratic, PaddedXor, SimonFunction]


@dataclass(frozen=True)
class BooleanFunction:
    n: int
    w: int
    body: Body

    # truth table built lazily by eval_all, kept for the instance's lifetime
    _table: list = field(default_factory=list, compare=False, hash=False, repr=False)

    def __post_init__(self):
        b = self.body
        if isinstance(b, TruthTable) and len(b.values) != 1 << self.n:
            raise ValueError("truth table length must be 2^n")
        if isinstance(b, (Parity, Quadratic)) and self.w != 1:
            raise ValueError("Parity/Quadratic bodies have width 1")
        if isinstance(b, Quadratic) and len(b.rows) != self.n:
            raise ValueError("Quadratic needs one row mask per input bit")
        if isinstance(b, PaddedXor) and (
            self.w != 1 or self.n != b.f.n + b.g.n or b.f.w != 1 or b.g.w != 1
        ):
            raise ValueError("PaddedXor pads two width-1 functions")
        if isinstance(b, SimonFunction):
            if self.w != self.n:
                raise ValueError("Simon functions have width n")
            if not 0 <= b.s < 1 << self.n:
                raise ValueError(f"Simon period must have at most {self.n} bits")
            n_cosets = 1 << self.n if b.s == 0 else 1 << (self.n - 1)
            if len(b.labels) != n_cosets:
                raise ValueError("labeling must cover every coset")
            if len(set(b.labels)) != n_cosets:
                raise ValueError("Simon labeling must be injective")

    def __call__(self, x: int) -> int:
        return evaluate(self, x)


def evaluate(f: BooleanFunction, x: int) -> int:
    """f(x) as a w-bit int: read from the truth table (built on first use),
    except for a Parity whose table is not built, computed at any arity."""
    if x >> f.n:  # also -1 for any negative x
        raise ValueError(f"input {x} is outside [0, 2^{f.n})")
    if f._table:
        return f._table[0].item(x)  # the Python int, without a numpy scalar between
    if isinstance(f.body, Parity):
        return dot(f.body.s, x)
    return eval_all(f).item(x)


def _tabulate(f: BooleanFunction) -> np.ndarray:
    """The body's formula over every input (uint64, little-endian index)."""
    b = f.body
    if isinstance(b, TruthTable):
        return np.array(b.values, dtype=np.uint64)
    xs = np.arange(1 << f.n, dtype=np.uint64)
    if isinstance(b, Parity):
        return (np.bitwise_count(xs & np.uint64(b.s)) & 1).astype(np.uint64)
    if isinstance(b, Quadratic):
        # bit 0 of acc is the sum over i of x_i (row_i . x); the rest is junk
        acc = np.zeros(1 << f.n, dtype=np.uint64)
        for i, row in enumerate(b.rows):
            acc ^= (xs >> np.uint64(i)) & np.bitwise_count(xs & np.uint64(row))
        return acc & np.uint64(1)
    if isinstance(b, PaddedXor):
        tf = eval_all(b.f)
        tg = eval_all(b.g)
        return tf[xs & np.uint64((1 << b.f.n) - 1)] ^ tg[xs >> np.uint64(b.f.n)]
    if isinstance(b, SimonFunction):
        labels = np.array(b.labels, dtype=np.uint64)
        if b.s == 0:
            return labels
        # a representative has bit h, the top bit of s, clear: its rank is
        # itself with bit h removed
        h = b.s.bit_length() - 1
        rep = np.minimum(xs, xs ^ np.uint64(b.s))
        low = rep & np.uint64((1 << h) - 1)
        return labels[(rep >> np.uint64(h + 1) << np.uint64(h)) | low]
    raise TypeError(f"unknown body {type(b)}")


def eval_all(f: BooleanFunction) -> np.ndarray:
    """Vector of f(x) over all 2^n inputs (little-endian index)."""
    if not f._table:
        if f.n > MAX_TABLE_ARITY:
            raise ValueError(f"arity {f.n} too large to tabulate")
        f._table.append(_tabulate(f))
    return f._table[0]


def sign_vector(f: BooleanFunction) -> np.ndarray:
    """(-1)^f(x) over all inputs; requires width 1."""
    if f.w != 1:
        raise ValueError("sign vector requires a width-1 function")
    return 1.0 - 2.0 * eval_all(f).astype(np.float64)


# --- constructors -----------------------------------------------------------


def truth_table(values: Sequence[int], w: int = 1) -> BooleanFunction:
    n = (len(values) - 1).bit_length()
    return BooleanFunction(n=n, w=w, body=TruthTable(values=tuple(int(v) for v in values)))


def parity_fn(s: int, n: int) -> BooleanFunction:
    return BooleanFunction(n=n, w=1, body=Parity(s=s))


def quadratic_fn(rows: Sequence[int], n: int) -> BooleanFunction:
    return BooleanFunction(n=n, w=1, body=Quadratic(rows=tuple(rows)))


def padded_xor(f: BooleanFunction, g: BooleanFunction) -> BooleanFunction:
    return BooleanFunction(n=f.n + g.n, w=1, body=PaddedXor(f=f, g=g))


def constant_fn(n: int) -> BooleanFunction:
    return truth_table([0] * (1 << n), w=1)


def simon_fn(s: int, labels: Sequence[int], n: int) -> BooleanFunction:
    return BooleanFunction(n=n, w=n, body=SimonFunction(s=s, labels=tuple(labels)))


def random_truth_table(n: int, rng, w: int = 1) -> BooleanFunction:
    if n > MAX_TABLE_ARITY:
        raise ValueError(f"arity {n} is above the table cap of {MAX_TABLE_ARITY}")
    return truth_table(rng.integers(0, 1 << w, size=1 << n), w=w)


def random_simon_fn(n: int, s: int, rng) -> BooleanFunction:
    """Uniformly random injective labeling for the given period (0 = 1-to-1)."""
    n_cosets = 1 << n if s == 0 else 1 << (n - 1)
    labels = rng.permutation(1 << n)[:n_cosets]
    return simon_fn(s, [int(v) for v in labels], n)


# --- Walsh-Hadamard and Forrelation -----------------------------------------


def walsh_hadamard(v: np.ndarray) -> np.ndarray:
    """Unnormalized transform W[x] = sum_y (-1)^{x·y} v[y] (in O(n 2^n))."""
    out = np.array(v, dtype=np.float64, copy=True)
    h = 1
    while h < len(out):
        out = out.reshape(-1, 2 * h)
        a = out[:, :h].copy()
        b = out[:, h:].copy()
        out[:, :h] = a + b
        out[:, h:] = a - b
        out = out.reshape(-1)
        h *= 2
    return out


def forrelation_phi(f: BooleanFunction, g: BooleanFunction) -> float:
    """Phi(f, g) = 2^{-3n/2} sum_{x,y} (-1)^{f(x) + x·y + g(y)}, exactly: the
    numerator sum_x (-1)^{f(x)} W[x] of g's Walsh transform W is an integer
    below 2^53 (n <= 14), so the float sum is exact."""
    if f.n != g.n:
        raise ValueError("arity mismatch")
    if f.w != 1 or g.w != 1:
        raise ValueError("forrelation takes width-1 functions")
    if f.n > 14:
        raise ValueError("brute-force bound is n <= 14")
    return float(sign_vector(f) @ walsh_hadamard(sign_vector(g))) / 2 ** (3 * f.n / 2)
