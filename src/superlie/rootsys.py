"""Super root systems in epsilon-delta coordinates.

Weights carry exact rational coordinates: an ``eps`` block paired by a
symmetric form F_eps and a ``delta`` block paired by F_delta (cross terms
vanish).  The classical families use (eps_i, eps_j) = delta_ij and
(delta_i, delta_j) = -delta_ij; the exceptional types carry their own form
matrices.  Simple systems, even and odd reflections, rho, and the factored
irreducibility polynomial all live here; structure constants do not.

Simple systems work on root indices, the positions in ``all_roots``.
Scaled by one common denominator, the roots become the integer rows of one
array.  A simple system keeps the indices of its simple roots, and the
coordinates of every root in them come from one small float solve, rounded
to integers and certified exactly: coordinates x simple roots == roots, in
int64.  Each row of coordinates must be all >= 0 or all <= 0; the
nonnegative rows are the positive roots, their sums the heights, and their
signed sum 2 rho.

Reflections run on tables that a root system builds on first use: the
negation of each root, the reflection at each non-isotropic root as a
permutation of root indices, and the pairs g + h = b that decide which
positive roots are indecomposable.  An odd isotropic reflection at d swaps
d and -d in the positive set; every other reflection permutes it.
``all_simple_systems`` searches breadth first on (simple indices, bitmask
of positive indices) and checks three identities on every reflection: the
mapped simple roots are the indecomposable positive roots, -delta* is
positive, and the old and new positive sets share N - |delta*| roots.  A
broken identity raises ``InvariantViolation``.

Values in a finite field are integer codes of a ``gf.Field``: rationals
reduce to codes through ``fraction_to_field``, and the polynomial is
evaluated on a mapping from positive roots to codes.
"""

from __future__ import annotations

import math
import re
from collections import deque
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .gf import Field

Rational = Union[int, Fraction]

# The most simple systems ``all_simple_systems`` collects before it raises.
MAX_SIMPLE_SYSTEMS = 100000


class InvariantViolation(Exception):
    """An internal cross-check failed; never reported as skipped.

    Not a ``RuntimeError``: that type marks documented scope limits, which
    callers may record as out of scope.
    """


class Weight:
    """An element of the weight space, exact rational coordinates."""

    __slots__ = ("eps", "delta")

    def __init__(self, eps: Sequence[Rational], delta: Sequence[Rational]):
        self.eps = tuple(Fraction(c) for c in eps)
        self.delta = tuple(Fraction(c) for c in delta)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(
            [a + b for a, b in zip(self.eps, other.eps)],
            [a + b for a, b in zip(self.delta, other.delta)],
        )

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(
            [a - b for a, b in zip(self.eps, other.eps)],
            [a - b for a, b in zip(self.delta, other.delta)],
        )

    def __neg__(self) -> "Weight":
        return Weight([-a for a in self.eps], [-a for a in self.delta])

    def scale(self, c: Rational) -> "Weight":
        c = Fraction(c)
        return Weight([c * a for a in self.eps], [c * a for a in self.delta])

    def key(self) -> tuple:
        return (self.eps, self.delta)

    def coords(self) -> tuple[Fraction, ...]:
        return self.eps + self.delta

    def __eq__(self, other) -> bool:
        return isinstance(other, Weight) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return format_weight(self)


def format_weight(w: Weight) -> str:
    """Render a weight as a signed combination of e_i and d_j symbols."""
    coeffs = list(w.eps) + list(w.delta)
    names = [f"e{i + 1}" for i in range(len(w.eps))] + [f"d{j + 1}" for j in range(len(w.delta))]
    denom = 1
    for c in coeffs:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    if denom != 1:
        scaled = Weight([c * denom for c in w.eps], [c * denom for c in w.delta])
        return f"(1/{denom})({format_weight(scaled)})"
    parts = []
    for c, name in zip(coeffs, names):
        if c == 0:
            continue
        mag = abs(c)
        term = name if mag == 1 else f"{mag}{name}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+{term}" if c > 0 else f"-{term}")
    return "".join(parts) if parts else "0"


_TERM_RE = re.compile(r"([+-]?)(\d*)([ed])(\d+)")


def parse_root_label(label: str, m: int, n: int) -> Weight:
    """Parse labels like ``e1-d1``, ``2d1``, ``-e2`` into a Weight."""
    text = label.replace(" ", "")
    eps = [Fraction(0)] * m
    delta = [Fraction(0)] * n
    pos = 0
    for match in _TERM_RE.finditer(text):
        if match.start() != pos:
            raise ValueError(f"cannot parse root label {label!r}")
        pos = match.end()
        sign = -1 if match.group(1) == "-" else 1
        coeff = int(match.group(2)) if match.group(2) else 1
        idx = int(match.group(4)) - 1
        if match.group(3) == "e":
            if not 0 <= idx < m:
                raise ValueError(f"index out of range in {label!r}")
            eps[idx] += sign * coeff
        else:
            if not 0 <= idx < n:
                raise ValueError(f"index out of range in {label!r}")
            delta[idx] += sign * coeff
    if pos != len(text):
        raise ValueError(f"cannot parse root label {label!r}")
    return Weight(eps, delta)


def fraction_to_field(F: Field, x: Rational) -> int:
    """The code of an exact rational in GF(p^k); its denominator must be
    prime to p."""
    x = Fraction(x)
    if x.denominator % F.p == 0:
        raise ValueError(f"denominator of {x} vanishes mod {F.p}")
    return F.div(x.numerator % F.p, x.denominator % F.p)


# ---------------------------------------------------------------------------
# Root system construction
# ---------------------------------------------------------------------------

_LABEL_RE = re.compile(
    r"^(gl|sl)\((\d+)\|(\d+)\)$|^B\((\d+),(\d+)\)$|^C\((\d+)\)$|^D\((\d+),(\d+)\)$"
    r"|^D\(2,1;a\)$|^F\(4\)$|^G\(3\)$"
)


def _units(count: int, index: int) -> list[Fraction]:
    v = [Fraction(0)] * count
    v[index] = Fraction(1)
    return v


def _bits(mask: int) -> Iterable[int]:
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Reflections(NamedTuple):
    """Index tables for reflections; entry i belongs to ``all_roots[i]``."""

    neg: tuple[int, ...]  # the index of -root
    kind: tuple  # (reflection type, delta* indices), None for an even root with an odd half
    mirror: tuple  # the reflection at a non-isotropic root as an index permutation, else None
    gram: np.ndarray  # the form on pairs of roots, times a positive constant
    sums: dict  # (g, h) -> the index of g + h, where that is a root
    splits: tuple  # the bitmasks of the pairs {g, h} with g + h = root


class RootSystem:
    """Even and odd roots of a basic classical type with its invariant form."""

    def __init__(
        self,
        label: str,
        family: str,
        m: int,
        n: int,
        even_roots: Sequence[Weight],
        odd_roots: Sequence[Weight],
        feps: Sequence[Sequence[Rational]],
        fdelta: Sequence[Sequence[Rational]],
        distinguished: Sequence[Weight],
    ):
        self.label = label
        self.family = family
        self.m = m
        self.n = n
        self.even_roots = tuple(even_roots)
        self.odd_roots = tuple(odd_roots)
        self.all_roots = self.even_roots + self.odd_roots
        self.feps = tuple(tuple(Fraction(c) for c in row) for row in feps)
        self.fdelta = tuple(tuple(Fraction(c) for c in row) for row in fdelta)
        self._distinguished = tuple(distinguished)
        self._even_set = frozenset(r.key() for r in self.even_roots)
        self._odd_set = frozenset(r.key() for r in self.odd_roots)
        self._where = {r.key(): i for i, r in enumerate(self.all_roots)}
        self._validate()

    def _validate(self) -> None:
        if self._even_set & self._odd_set:
            raise ValueError("a root cannot be both even and odd")
        for r in self.all_roots:
            if (-r).key() not in self._where:
                raise ValueError(f"root set not closed under negation at {r}")
        # every odd non-isotropic root must have its double among the even roots
        for b in self.odd_roots:
            if not self.is_isotropic(b) and b.scale(2).key() not in self._even_set:
                raise ValueError(f"non-isotropic odd root {b} without even double")

    # -- basic queries ---------------------------------------------------------

    def form(self, u: Weight, v: Weight) -> Fraction:
        total = Fraction(0)
        for i, a in enumerate(u.eps):
            if a == 0:
                continue
            for j, b in enumerate(v.eps):
                if b:
                    total += a * b * self.feps[i][j]
        for i, a in enumerate(u.delta):
            if a == 0:
                continue
            for j, b in enumerate(v.delta):
                if b:
                    total += a * b * self.fdelta[i][j]
        return total

    def is_even_root(self, w: Weight) -> bool:
        return w.key() in self._even_set

    def is_odd_root(self, w: Weight) -> bool:
        return w.key() in self._odd_set

    def parity(self, w: Weight) -> int:
        if self.is_even_root(w):
            return 0
        if self.is_odd_root(w):
            return 1
        raise ValueError(f"{w} is not a root of {self.label}")

    def is_isotropic(self, w: Weight) -> bool:
        return self.form(w, w) == 0

    def validate_prime(self, p: int) -> None:
        """Reject primes excluded for this type."""
        if p <= 2:
            raise ValueError(f"{self.label}: requires p > 2, got {p}")
        if self.family == "sl" and (self.m - self.n) % p == 0:
            raise ValueError(f"sl({self.m}|{self.n}): requires p not dividing m - n = {self.m - self.n}")
        if self.family in ("D21a", "G3") and p <= 3:
            raise ValueError(f"{self.label}: requires p > 3, got {p}")

    # -- root indices ------------------------------------------------------------

    def _index(self, w: Weight) -> int:
        i = self._where.get(w.key())
        if i is None:
            raise ValueError(f"{w} is not a root of {self.label}")
        return i

    @cached_property
    def _integer_roots(self) -> tuple[int, np.ndarray]:
        """(D, X): row i of the int64 array X is D times the coordinates of root i."""
        rows = [r.coords() for r in self.all_roots]
        scale = math.lcm(*(c.denominator for row in rows for c in row))
        X = np.array([[int(c * scale) for c in row] for row in rows], dtype=np.int64)
        return scale, X.reshape(len(rows), self.m + self.n)

    @cached_property
    def _reflections(self) -> _Reflections:
        _, X = self._integer_roots
        count, dim = X.shape
        lookup = {row: i for i, row in enumerate(map(tuple, X.tolist()))}
        form = ([list(row) + [0] * self.n for row in self.feps]
                + [[0] * self.m + list(row) for row in self.fdelta])
        denom = math.lcm(*(Fraction(c).denominator for row in form for c in row))
        G = np.array([[int(c * denom) for c in row] for row in form], dtype=np.int64)
        gram = X @ G.reshape(dim, dim) @ X.T
        neg = tuple(lookup[row] for row in map(tuple, (-X).tolist()))
        kind, mirror = [], []
        for i, r in enumerate(self.all_roots):
            if i < len(self.even_roots):
                kind.append(None if self.is_odd_root(r.scale(Fraction(1, 2))) else ("type_i", (i,)))
            elif gram[i, i] == 0:
                kind.append(("type_ii", (i,)))
            else:
                kind.append(("type_iii", (i, self._where[r.scale(2).key()])))
            if gram[i, i] == 0:
                mirror.append(None)
                continue
            # gram[i, i] s_r(x) = gram[i, i] x - 2 gram[i, x] r, for every root x
            images = gram[i, i] * X - 2 * gram[i][:, None] * X[i]
            perm = tuple(lookup.get(row) for row in map(tuple, (images // gram[i, i]).tolist()))
            if (images % gram[i, i]).any() or None in perm:
                raise ValueError(f"the reflection at {r} does not permute the roots of {self.label}")
            mirror.append(perm)
        sums = {}
        splits = [[] for _ in range(count)]
        pair_rows = (X[:, None, :] + X[None, :, :]).reshape(count * count, dim).tolist()
        for (g, h), row in zip(product(range(count), repeat=2), pair_rows):
            b = lookup.get(tuple(row))
            if b is not None:
                sums[g, h] = b
                if g <= h:
                    splits[b].append(1 << g | 1 << h)
        return _Reflections(neg, tuple(kind), tuple(mirror), gram, sums, tuple(map(tuple, splits)))

    def _kind(self, i: int) -> tuple[str, tuple[int, ...]]:
        kind = self._reflections.kind[i]
        if kind is None:
            raise ValueError(f"even simple root {self.all_roots[i]} has an odd half — invalid system")
        return kind

    def _reflect(self, simple: tuple[int, ...], mask: int, d: int) -> tuple[tuple[int, ...], int]:
        """(simple indices, positive bitmask) of the system reflected at the
        simple root with index d, after checking the reflection identities."""
        t = self._reflections
        kind, star = self._kind(d)
        if kind == "type_ii":  # d and -d swap; b becomes b + d where (d, b) != 0
            new_mask = mask & ~(1 << d) | 1 << t.neg[d]
            images = [t.neg[d] if b == d else t.sums.get((b, d)) if t.gram[d, b] else b
                      for b in simple]
        else:  # the reflection at d, which for type iii is also the one at 2d
            perm = t.mirror[d]
            new_mask = 0
            for i in _bits(mask):
                new_mask |= 1 << perm[i]
            images = [perm[b] for b in simple]
        indecomposable = {b for b in _bits(new_mask)
                          if not any(pair & new_mask == pair for pair in t.splits[b])}
        roots = self.all_roots
        if set(images) != indecomposable:
            shown = [roots[i] if i is not None else "no root" for i in images]
            raise InvariantViolation(
                f"reflection at {roots[d]}: mapped simple roots {shown} do not match "
                f"indecomposables {sorted((roots[i] for i in indecomposable), key=Weight.key)}"
            )
        for s in star:
            if not new_mask >> t.neg[s] & 1:
                raise InvariantViolation(f"reflection postcondition failed: -{roots[s]} not positive")
        overlap, N = (new_mask & mask).bit_count(), mask.bit_count()
        if overlap != N - len(star):
            raise InvariantViolation(
                f"reflection postcondition failed: overlap {overlap} != {N}-{len(star)}")
        return tuple(images), new_mask

    def _system(self, simple: tuple[int, ...], mask: int) -> "SimpleSystem":
        """The simple system on these simple roots, whose positive roots must be mask."""
        ss = SimpleSystem(self, [self.all_roots[i] for i in simple])
        if ss._mask != mask:
            raise InvariantViolation(f"{ss}: its positive roots differ from the reflected ones")
        return ss

    # -- simple systems ------------------------------------------------------------

    def distinguished_simple_system(self) -> "SimpleSystem":
        return SimpleSystem(self, self._distinguished)

    def all_simple_systems(self) -> list["SimpleSystem"]:
        """Breadth-first closure of the distinguished system under reflections."""
        start = self.distinguished_simple_system()
        seen = {start._mask: start._simple}
        queue = deque([(start._simple, start._mask)])
        while queue:
            simple, mask = queue.popleft()
            for d in simple:
                nxt, nxt_mask = self._reflect(simple, mask, d)
                if nxt_mask not in seen:
                    if len(seen) >= MAX_SIMPLE_SYSTEMS:
                        raise RuntimeError(
                            f"simple-system closure exceeded MAX_SIMPLE_SYSTEMS = {MAX_SIMPLE_SYSTEMS}")
                    seen[nxt_mask] = nxt
                    queue.append((nxt, nxt_mask))
        # order the systems by the keys of their simple roots, compared through each root's key rank
        rank = {i: r for r, i in enumerate(sorted(range(len(self.all_roots)),
                                                  key=lambda i: self.all_roots[i].key()))}
        ordered = sorted(seen.items(), key=lambda item: [rank[i] for i in item[1]])
        return [self._system(simple, mask) for mask, simple in ordered]

    def __repr__(self) -> str:
        return f"RootSystem({self.label})"


def build_root_system(type_label: str, alpha: Optional[Rational] = None) -> RootSystem:
    """Construct the root system named by its type label.

    Supported labels: gl(m|n), sl(m|n), B(m,n), C(n), D(m,n), D(2,1;a),
    F(4), G(3).  ``alpha`` is the rational parameter of D(2,1;a), required
    for that type and rejected elsewhere.
    """
    label = type_label.replace(" ", "")
    match = _LABEL_RE.match(label)
    if not match:
        raise ValueError(f"unrecognized type label {type_label!r}")
    if label == "D(2,1;a)":
        return _build_d21a(alpha)
    if alpha is not None:
        raise ValueError("alpha parameter is only meaningful for D(2,1;a)")
    if label == "F(4)":
        return _build_f4()
    if label == "G(3)":
        return _build_g3()
    if match.group(1):  # gl / sl
        fam, m, n = match.group(1), int(match.group(2)), int(match.group(3))
        if m < 1 or n < 1:
            raise ValueError("gl/sl needs m, n >= 1")
        return _build_gl(fam, m, n, label)
    if match.group(4) is not None:  # B(m,n)
        m, n = int(match.group(4)), int(match.group(5))
        if n < 1:
            raise ValueError("B(m,n) needs n >= 1")
        return _build_b(m, n, label)
    if match.group(6) is not None:  # C(n)
        n = int(match.group(6))
        if n < 2:
            raise ValueError("C(n) needs n >= 2")
        return _build_c(n, label)
    m, n = int(match.group(7)), int(match.group(8))  # D(m,n)
    if m < 2 or n < 1:
        raise ValueError("D(m,n) needs m >= 2, n >= 1")
    return _build_d(m, n, label)


def _eps(m: int, n: int, i: int) -> Weight:
    return Weight(_units(m, i), [0] * n)


def _dlt(m: int, n: int, j: int) -> Weight:
    return Weight([0] * m, _units(n, j))


def _pm(weights: Iterable[Weight]) -> list[Weight]:
    """w, -w for each weight, in order."""
    return [x for w in weights for x in (w, -w)]


def _signed_sums(pairs: Iterable[tuple[Weight, Weight]]) -> list[Weight]:
    """s u + t v for each pair (u, v), with s and t running over 1, -1."""
    return [u.scale(s) + v.scale(t) for u, v in pairs for s in (1, -1) for t in (1, -1)]


def _build_gl(fam: str, m: int, n: int, label: str) -> RootSystem:
    even = []
    for i in range(m):
        for j in range(m):
            if i != j:
                even.append(_eps(m, n, i) - _eps(m, n, j))
    for i in range(n):
        for j in range(n):
            if i != j:
                even.append(_dlt(m, n, i) - _dlt(m, n, j))
    odd = []
    for i in range(m):
        for j in range(n):
            odd.append(_eps(m, n, i) - _dlt(m, n, j))
            odd.append(_dlt(m, n, j) - _eps(m, n, i))
    simple = [_eps(m, n, i) - _eps(m, n, i + 1) for i in range(m - 1)]
    simple.append(_eps(m, n, m - 1) - _dlt(m, n, 0))
    simple += [_dlt(m, n, j) - _dlt(m, n, j + 1) for j in range(n - 1)]
    feps = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    fdelta = [[Fraction(-int(i == j)) for j in range(n)] for i in range(n)]
    return RootSystem(label, fam, m, n, even, odd, feps, fdelta, simple)


def _build_b(m: int, n: int, label: str) -> RootSystem:
    eps = [_eps(m, n, i) for i in range(m)]
    dlt = [_dlt(m, n, j) for j in range(n)]
    even = (_signed_sums(combinations(eps, 2)) + _pm(eps)
            + _signed_sums(combinations(dlt, 2)) + _pm(d.scale(2) for d in dlt))
    odd = _pm(dlt) + _signed_sums(product(eps, dlt))
    simple = [_dlt(m, n, j) - _dlt(m, n, j + 1) for j in range(n - 1)]
    if m == 0:
        simple.append(_dlt(m, n, n - 1))
    else:
        simple.append(_dlt(m, n, n - 1) - _eps(m, n, 0))
        simple += [_eps(m, n, i) - _eps(m, n, i + 1) for i in range(m - 1)]
        simple.append(_eps(m, n, m - 1))
    feps = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    fdelta = [[Fraction(-int(i == j)) for j in range(n)] for i in range(n)]
    return RootSystem(label, "B", m, n, even, odd, feps, fdelta, simple)


def _build_c(n: int, label: str) -> RootSystem:
    m, nd = 1, n - 1
    dlt = [_dlt(m, nd, j) for j in range(nd)]
    even = _signed_sums(combinations(dlt, 2)) + _pm(d.scale(2) for d in dlt)
    odd = _signed_sums(product([_eps(m, nd, 0)], dlt))
    simple = [_eps(m, nd, 0) - _dlt(m, nd, 0)]
    simple += [_dlt(m, nd, j) - _dlt(m, nd, j + 1) for j in range(nd - 1)]
    simple.append(_dlt(m, nd, nd - 1).scale(2))
    feps = [[Fraction(1)]]
    fdelta = [[Fraction(-int(i == j)) for j in range(nd)] for i in range(nd)]
    return RootSystem(label, "C", m, nd, even, odd, feps, fdelta, simple)


def _build_d(m: int, n: int, label: str) -> RootSystem:
    eps = [_eps(m, n, i) for i in range(m)]
    dlt = [_dlt(m, n, j) for j in range(n)]
    even = (_signed_sums(combinations(eps, 2)) + _signed_sums(combinations(dlt, 2))
            + _pm(d.scale(2) for d in dlt))
    odd = _signed_sums(product(eps, dlt))
    simple = [_dlt(m, n, j) - _dlt(m, n, j + 1) for j in range(n - 1)]
    simple.append(_dlt(m, n, n - 1) - _eps(m, n, 0))
    simple += [_eps(m, n, i) - _eps(m, n, i + 1) for i in range(m - 1)]
    simple.append(_eps(m, n, m - 2) + _eps(m, n, m - 1))
    feps = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    fdelta = [[Fraction(-int(i == j)) for j in range(n)] for i in range(n)]
    return RootSystem(label, "D", m, n, even, odd, feps, fdelta, simple)


def _build_d21a(alpha: Optional[Rational]) -> RootSystem:
    if alpha is None:
        alpha = Fraction(1)
    alpha = Fraction(alpha)
    if alpha in (0, -1):
        raise ValueError("D(2,1;a) requires alpha not in {0, -1}")
    m, n = 3, 0
    even = _pm(_eps(m, n, i).scale(2) for i in range(3))
    odd = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                odd.append(
                    _eps(m, n, 0).scale(s1) + _eps(m, n, 1).scale(s2) + _eps(m, n, 2).scale(s3)
                )
    feps = [
        [Fraction(1 + alpha, 2), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(-1, 2), Fraction(0)],
        [Fraction(0), Fraction(0), -alpha / 2],
    ]
    simple = [
        _eps(m, n, 0) - _eps(m, n, 1) - _eps(m, n, 2),
        _eps(m, n, 1).scale(2),
        _eps(m, n, 2).scale(2),
    ]
    return RootSystem("D(2,1;a)", "D21a", m, n, even, odd, feps, [], simple)


def _build_f4() -> RootSystem:
    m, n = 3, 1
    eps = [_eps(m, n, i) for i in range(3)]
    even = _signed_sums(combinations(eps, 2)) + _pm(eps) + _pm([_dlt(m, n, 0)])
    odd = []
    half = Fraction(1, 2)
    for s0 in (1, -1):
        for s1 in (1, -1):
            for s2 in (1, -1):
                for s3 in (1, -1):
                    odd.append(
                        Weight(
                            [half * s1, half * s2, half * s3],
                            [half * s0],
                        )
                    )
    feps = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    fdelta = [[Fraction(-3)]]
    simple = [
        Weight([-half, -half, -half], [half]),
        _eps(m, n, 2),
        _eps(m, n, 1) - _eps(m, n, 2),
        _eps(m, n, 0) - _eps(m, n, 1),
    ]
    return RootSystem("F(4)", "F4", m, n, even, odd, feps, fdelta, simple)


def _build_g3() -> RootSystem:
    # eps_i represented as sum-zero 3-vectors: eps_i = unit_i - (1/3, 1/3, 1/3)
    m, n = 3, 1
    third = Fraction(1, 3)

    def ehat(i: int) -> Weight:
        coords = [-third, -third, -third]
        coords[i] += 1
        return Weight(coords, [0])

    dl = Weight([0, 0, 0], [1])
    hats = [ehat(i) for i in range(3)]
    even = _pm(hats)
    for i in range(3):
        for j in range(3):
            if i != j:
                even.append(hats[i] - hats[j])
    even += _pm([dl.scale(2)])
    odd = _pm([dl]) + _signed_sums(product(hats, [dl]))
    feps = [[Fraction(int(i == j)) - Fraction(1, 3) for j in range(3)] for i in range(3)]
    fdelta = [[Fraction(-2, 3)]]
    simple = [dl + ehat(0), ehat(1), ehat(2) - ehat(1)]
    return RootSystem("G(3)", "G3", m, n, even, odd, feps, fdelta, simple)


# ---------------------------------------------------------------------------
# Simple systems
# ---------------------------------------------------------------------------


class SimpleSystem:
    """A simple system Pi of a root system with its positive roots.

    Positive roots are sorted by height, ties broken by descending
    lexicographic order on concatenated (eps, delta) coordinates, so the
    ordering is deterministic and height-compatible.  ``heights`` holds
    their heights as ints, in the same order.
    """

    def __init__(self, rs: RootSystem, simple_roots: Sequence[Weight]):
        self.rs = rs
        self.simple_roots = tuple(simple_roots)
        self._simple = tuple(rs._index(d) for d in self.simple_roots)
        scale, X = rs._integer_roots
        S = X[list(self._simple)]
        solved, _, rank, _ = np.linalg.lstsq(S.T.astype(float), X.T.astype(float), rcond=None)
        if rank < len(S):
            raise ValueError("simple roots are linearly dependent")
        C = np.rint(solved.T).astype(np.int64)  # row i: the coordinates of root i
        if not np.array_equal(C @ S, X):
            raise ValueError(f"{rs.label}: some root is not an integer combination of {self.simple_roots}")
        positive = (C >= 0).all(axis=1)
        mixed = ~positive & ~(C <= 0).all(axis=1)
        if mixed.any():
            raise ValueError(f"root {rs.all_roots[mixed.argmax()]} is neither positive nor negative in Pi")
        pos = np.flatnonzero(positive)
        heights = C[pos].sum(axis=1)
        order = np.lexsort((*(-X[pos]).T[::-1], heights))  # by height, then descending coordinates
        pos = pos[order]
        self.positive_roots = tuple(rs.all_roots[i] for i in pos)
        self.heights = tuple(int(h) for h in heights[order])
        self._mask = sum(1 << int(i) for i in pos)
        # 2 rho: even positive roots minus odd ones
        two_rho = np.where(pos < len(rs.even_roots), 1, -1) @ X[pos]
        coords = [Fraction(int(c), 2 * scale) for c in two_rho]
        self.rho = Weight(coords[:rs.m], coords[rs.m:])

    # -- queries ---------------------------------------------------------------

    def is_positive(self, r: Weight) -> bool:
        i = self.rs._where.get(r.key())
        return i is not None and bool(self._mask >> i & 1)

    @property
    def even_positives(self) -> tuple[Weight, ...]:
        return tuple(r for r in self.positive_roots if self.rs.is_even_root(r))

    @property
    def odd_positives(self) -> tuple[Weight, ...]:
        return tuple(r for r in self.positive_roots if self.rs.is_odd_root(r))

    # -- classification and reflections ---------------------------------------

    def classify(self, d: Weight) -> tuple[str, tuple[Weight, ...]]:
        """Type of a simple root: type_i / type_ii / type_iii, with delta*."""
        if d not in self.simple_roots:
            raise ValueError(f"{d} is not a simple root of this system")
        kind, star = self.rs._kind(self.rs._index(d))
        return kind, tuple(self.rs.all_roots[i] for i in star)

    def reflect(self, d: Weight) -> "SimpleSystem":
        """The simple system r_d Pi obtained by reflecting at simple root d."""
        self.classify(d)
        simple, mask = self.rs._reflect(self._simple, self._mask, self.rs._index(d))
        return self.rs._system(simple, mask)

    def __repr__(self) -> str:
        simples = ", ".join(format_weight(r) for r in self.simple_roots)
        return f"SimpleSystem({self.rs.label}; {simples})"


def phi_prime_eval(ss: SimpleSystem, F: Field, pairing: Mapping[Weight, int]) -> int:
    """The factored irreducibility polynomial evaluated from given pairings.

    Returns the code of prod over even positive roots of ((lam|a)^(p-1) - 1)
    times prod over odd positive roots of (lam|b), where ``pairing`` maps
    each positive root to the code of (lam|.) in F.
    """
    out = 1
    for a in ss.even_positives:
        out = F.mul(out, F.sub(F.pow_int(pairing[a], F.p - 1), 1))
    for b in ss.odd_positives:
        out = F.mul(out, pairing[b])
    return out
