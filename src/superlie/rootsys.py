"""Super root systems in epsilon-delta coordinates.

Weights carry exact rational coordinates: an ``eps`` block paired by a
symmetric form F_eps and a ``delta`` block paired by F_delta (cross terms
vanish).  The classical families use (eps_i, eps_j) = delta_ij and
(delta_i, delta_j) = -delta_ij; the exceptional types carry their own form
matrices.  Simple systems, even and odd reflections, rho, and the factored
irreducibility polynomial all live here; structure constants do not.
Values in a finite field are integer codes of a ``gf.Field``: rationals
reduce to codes through ``fraction_to_field``, and the polynomial is
evaluated on a mapping from positive roots to codes.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .gf import Field

Rational = Union[int, Fraction]

# The most simple systems ``all_simple_systems`` collects before it raises.
MAX_SIMPLE_SYSTEMS = 100000


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

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.eps) and all(a == 0 for a in self.delta)

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
        self.feps = tuple(tuple(Fraction(c) for c in row) for row in feps)
        self.fdelta = tuple(tuple(Fraction(c) for c in row) for row in fdelta)
        self._distinguished = tuple(distinguished)
        self._even_set = frozenset(r.key() for r in self.even_roots)
        self._odd_set = frozenset(r.key() for r in self.odd_roots)
        self._validate()

    def _validate(self) -> None:
        allk = self._even_set | self._odd_set
        if self._even_set & self._odd_set:
            raise ValueError("a root cannot be both even and odd")
        for r in list(self.even_roots) + list(self.odd_roots):
            if (-r).key() not in allk:
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

    def is_root(self, w: Weight) -> bool:
        return self.is_even_root(w) or self.is_odd_root(w)

    def parity(self, w: Weight) -> int:
        if self.is_even_root(w):
            return 0
        if self.is_odd_root(w):
            return 1
        raise ValueError(f"{w} is not a root of {self.label}")

    def is_isotropic(self, w: Weight) -> bool:
        return self.form(w, w) == 0

    @property
    def all_roots(self) -> tuple[Weight, ...]:
        return self.even_roots + self.odd_roots

    def validate_prime(self, p: int) -> None:
        """Reject primes excluded for this type."""
        if p <= 2:
            raise ValueError(f"{self.label}: requires p > 2, got {p}")
        if self.family == "sl" and (self.m - self.n) % p == 0:
            raise ValueError(f"sl({self.m}|{self.n}): requires p not dividing m - n = {self.m - self.n}")
        if self.family in ("D21a", "G3") and p <= 3:
            raise ValueError(f"{self.label}: requires p > 3, got {p}")

    def distinguished_simple_system(self) -> "SimpleSystem":
        return SimpleSystem(self, self._distinguished)

    def all_simple_systems(self) -> list["SimpleSystem"]:
        """Breadth-first closure of the distinguished system under reflections."""
        start = self.distinguished_simple_system()
        seen: dict[frozenset, SimpleSystem] = {start.positive_key(): start}
        queue = [start]
        while queue:
            ss = queue.pop(0)
            for d in ss.simple_roots:
                nxt = ss.reflect(d)
                key = nxt.positive_key()
                if key not in seen:
                    if len(seen) >= MAX_SIMPLE_SYSTEMS:
                        raise RuntimeError(
                            f"simple-system closure exceeded MAX_SIMPLE_SYSTEMS = {MAX_SIMPLE_SYSTEMS}")
                    seen[key] = nxt
                    queue.append(nxt)
        return sorted(seen.values(), key=lambda s: tuple(r.key() for r in s.simple_roots))

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
    even: list[Weight] = []
    odd: list[Weight] = []
    for i in range(m):
        for j in range(i + 1, m):
            for si in (1, -1):
                for sj in (1, -1):
                    even.append(_eps(m, n, i).scale(si) + _eps(m, n, j).scale(sj))
    for i in range(m):
        even.append(_eps(m, n, i))
        even.append(-_eps(m, n, i))
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    even.append(_dlt(m, n, i).scale(si) + _dlt(m, n, j).scale(sj))
    for i in range(n):
        even.append(_dlt(m, n, i).scale(2))
        even.append(_dlt(m, n, i).scale(-2))
    for j in range(n):
        odd.append(_dlt(m, n, j))
        odd.append(-_dlt(m, n, j))
    for i in range(m):
        for j in range(n):
            for si in (1, -1):
                for sj in (1, -1):
                    odd.append(_eps(m, n, i).scale(si) + _dlt(m, n, j).scale(sj))
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
    even: list[Weight] = []
    odd: list[Weight] = []
    for i in range(nd):
        for j in range(i + 1, nd):
            for si in (1, -1):
                for sj in (1, -1):
                    even.append(_dlt(m, nd, i).scale(si) + _dlt(m, nd, j).scale(sj))
    for i in range(nd):
        even.append(_dlt(m, nd, i).scale(2))
        even.append(_dlt(m, nd, i).scale(-2))
    for j in range(nd):
        for se in (1, -1):
            for sd in (1, -1):
                odd.append(_eps(m, nd, 0).scale(se) + _dlt(m, nd, j).scale(sd))
    simple = [_eps(m, nd, 0) - _dlt(m, nd, 0)]
    simple += [_dlt(m, nd, j) - _dlt(m, nd, j + 1) for j in range(nd - 1)]
    simple.append(_dlt(m, nd, nd - 1).scale(2))
    feps = [[Fraction(1)]]
    fdelta = [[Fraction(-int(i == j)) for j in range(nd)] for i in range(nd)]
    return RootSystem(label, "C", m, nd, even, odd, feps, fdelta, simple)


def _build_d(m: int, n: int, label: str) -> RootSystem:
    even: list[Weight] = []
    odd: list[Weight] = []
    for i in range(m):
        for j in range(i + 1, m):
            for si in (1, -1):
                for sj in (1, -1):
                    even.append(_eps(m, n, i).scale(si) + _eps(m, n, j).scale(sj))
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    even.append(_dlt(m, n, i).scale(si) + _dlt(m, n, j).scale(sj))
    for i in range(n):
        even.append(_dlt(m, n, i).scale(2))
        even.append(_dlt(m, n, i).scale(-2))
    for i in range(m):
        for j in range(n):
            for si in (1, -1):
                for sj in (1, -1):
                    odd.append(_eps(m, n, i).scale(si) + _dlt(m, n, j).scale(sj))
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
    even = []
    for i in range(3):
        even.append(_eps(m, n, i).scale(2))
        even.append(_eps(m, n, i).scale(-2))
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
    even: list[Weight] = []
    for i in range(3):
        for j in range(i + 1, 3):
            for si in (1, -1):
                for sj in (1, -1):
                    even.append(_eps(m, n, i).scale(si) + _eps(m, n, j).scale(sj))
    for i in range(3):
        even.append(_eps(m, n, i))
        even.append(-_eps(m, n, i))
    even.append(_dlt(m, n, 0))
    even.append(-_dlt(m, n, 0))
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
    even: list[Weight] = []
    for i in range(3):
        even.append(ehat(i))
        even.append(-ehat(i))
    for i in range(3):
        for j in range(3):
            if i != j:
                even.append(ehat(i) - ehat(j))
    even.append(dl.scale(2))
    even.append(dl.scale(-2))
    odd = [dl, -dl]
    for i in range(3):
        for se in (1, -1):
            for sd in (1, -1):
                odd.append(ehat(i).scale(se) + dl.scale(sd))
    feps = [[Fraction(int(i == j)) - Fraction(1, 3) for j in range(3)] for i in range(3)]
    fdelta = [[Fraction(-2, 3)]]
    simple = [dl + ehat(0), ehat(1), ehat(2) - ehat(1)]
    return RootSystem("G(3)", "G3", m, n, even, odd, feps, fdelta, simple)


# ---------------------------------------------------------------------------
# Exact rational linear solving (small systems)
# ---------------------------------------------------------------------------

def _solve_fraction_many(
    columns: Sequence[tuple[Fraction, ...]], targets: Sequence[tuple[Fraction, ...]]
) -> list[Optional[tuple[Fraction, ...]]]:
    """Solve A c = t for each target t; columns of A given as vectors.

    Returns per-target coefficient tuples, or None when inconsistent.
    Requires the columns to be linearly independent.
    """
    rows = len(columns[0])
    ncols = len(columns)
    ntargets = len(targets)
    aug = [
        [columns[c][r] for c in range(ncols)] + [targets[t][r] for t in range(ntargets)]
        for r in range(rows)
    ]
    pivots = []
    rpos = 0
    for c in range(ncols):
        sel = None
        for r in range(rpos, rows):
            if aug[r][c] != 0:
                sel = r
                break
        if sel is None:
            raise ValueError("simple roots are linearly dependent")
        aug[rpos], aug[sel] = aug[sel], aug[rpos]
        pv = aug[rpos][c]
        aug[rpos] = [x / pv for x in aug[rpos]]
        for r in range(rows):
            if r != rpos and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[rpos])]
        pivots.append(c)
        rpos += 1
    out: list[Optional[tuple[Fraction, ...]]] = []
    for t in range(ntargets):
        col = ncols + t
        consistent = all(aug[r][col] == 0 for r in range(rpos, rows))
        if not consistent:
            out.append(None)
            continue
        coeffs = [Fraction(0)] * ncols
        for r, c in enumerate(pivots):
            coeffs[c] = aug[r][col]
        out.append(tuple(coeffs))
    return out


def _indecomposables(positives: Iterable[Weight]) -> set[Weight]:
    pos = list(positives)
    keys = {r.key() for r in pos}
    out = set()
    for b in pos:
        decomposable = False
        for g in pos:
            rem = b - g
            if not rem.is_zero() and rem.key() in keys:
                decomposable = True
                break
        if not decomposable:
            out.add(b)
    return out


class SimpleSystem:
    """A simple system Pi of a root system with its positive roots.

    Positive roots are sorted by height, ties broken by descending
    lexicographic order on concatenated (eps, delta) coordinates, so the
    ordering is deterministic and height-compatible.
    """

    def __init__(self, rs: RootSystem, simple_roots: Sequence[Weight]):
        self.rs = rs
        self.simple_roots = tuple(simple_roots)
        for d in self.simple_roots:
            if not rs.is_root(d):
                raise ValueError(f"{d} is not a root of {rs.label}")
        cols = [d.coords() for d in self.simple_roots]
        roots = rs.all_roots
        solved = _solve_fraction_many(cols, [r.coords() for r in roots])
        positives = []
        self._coeffs: dict[tuple, tuple[Fraction, ...]] = {}
        for r, coeffs in zip(roots, solved):
            if coeffs is None:
                raise ValueError(f"root {r} outside the span of the simple roots")
            if all(c >= 0 for c in coeffs) and any(c > 0 for c in coeffs):
                if any(c.denominator != 1 for c in coeffs):
                    raise ValueError(f"root {r} has non-integer coefficients in Pi")
                positives.append(r)
                self._coeffs[r.key()] = coeffs
        total = len(rs.all_roots)
        if len(positives) * 2 != total:
            raise ValueError(
                f"{rs.label}: {len(positives)} positive roots from Pi, expected {total // 2}"
            )
        positives.sort(key=lambda r: (self.height(r), tuple(-c for c in r.coords())))
        self.positive_roots = tuple(positives)
        self._pos_keys = frozenset(r.key() for r in positives)
        self.rho = self._compute_rho()

    # -- queries ---------------------------------------------------------------

    def height(self, r: Weight) -> Fraction:
        return sum(self._coeffs[r.key()])

    def is_positive(self, r: Weight) -> bool:
        return r.key() in self._pos_keys

    @property
    def N(self) -> int:
        return len(self.positive_roots)

    @property
    def even_positives(self) -> tuple[Weight, ...]:
        return tuple(r for r in self.positive_roots if self.rs.is_even_root(r))

    @property
    def odd_positives(self) -> tuple[Weight, ...]:
        return tuple(r for r in self.positive_roots if self.rs.is_odd_root(r))

    def positive_key(self) -> frozenset:
        return self._pos_keys

    def _compute_rho(self) -> Weight:
        total = Weight([0] * self.rs.m, [0] * self.rs.n)
        for r in self.even_positives:
            total = total + r
        for r in self.odd_positives:
            total = total - r
        return total.scale(Fraction(1, 2))

    # -- classification and reflections ---------------------------------------

    def classify(self, d: Weight) -> tuple[str, tuple[Weight, ...]]:
        """Type of a simple root: type_i / type_ii / type_iii, with delta*."""
        if d not in self.simple_roots:
            raise ValueError(f"{d} is not a simple root of this system")
        rs = self.rs
        if rs.is_even_root(d):
            if d.scale(Fraction(1, 2)).key() in rs._odd_set:
                raise ValueError(f"even simple root {d} has an odd half — invalid system")
            return "type_i", (d,)
        if rs.is_isotropic(d):
            return "type_ii", (d,)
        dd = d.scale(2)
        if not rs.is_even_root(dd):
            raise ValueError(f"non-isotropic odd simple root {d} lacks even double")
        return "type_iii", (d, dd)

    def _even_reflect(self, through: Weight, x: Weight) -> Weight:
        c = Fraction(2) * self.rs.form(through, x) / self.rs.form(through, through)
        return x - through.scale(c)

    def reflect(self, d: Weight) -> "SimpleSystem":
        """The simple system r_d Pi obtained by reflecting at simple root d."""
        kind, delta_star = self.classify(d)
        old_pos = list(self.positive_roots)
        if kind == "type_ii":
            new_pos = [r for r in old_pos if r != d] + [-d]
            candidate = []
            for b in self.simple_roots:
                if b == d:
                    candidate.append(-d)
                elif self.rs.form(d, b) != 0:
                    candidate.append(b + d)
                else:
                    candidate.append(b)
        else:
            mirror = d if kind == "type_i" else d.scale(2)
            new_pos = [self._even_reflect(mirror, r) for r in old_pos]
            candidate = [self._even_reflect(mirror, b) for b in self.simple_roots]
        inde = _indecomposables(new_pos)
        if set(candidate) != inde:
            raise RuntimeError(
                f"reflection at {d}: mapped simple roots {candidate} do not match "
                f"indecomposables {sorted(inde, key=lambda w: w.key())}"
            )
        new_ss = SimpleSystem(self.rs, candidate)
        # postconditions of the reflection
        new_keys = new_ss._pos_keys
        for ds in delta_star:
            if (-ds).key() not in new_keys:
                raise RuntimeError(f"reflection postcondition failed: -{ds} not positive")
        overlap = len(new_keys & self._pos_keys)
        if overlap != self.N - len(delta_star):
            raise RuntimeError(
                f"reflection postcondition failed: overlap {overlap} != {self.N}-{len(delta_star)}"
            )
        return new_ss

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
