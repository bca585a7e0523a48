"""Reference root data and simple systems in ``Fraction`` arithmetic.

``Weight`` holds exact rational (eps, delta) coordinates, and
``reference_root_system`` builds each type the way ``superlie`` once did:
Fraction weights with the form given by the matrices F_eps and F_delta.
The package keeps every root as an integer row in units of one
denominator per type, with one integer form matrix; the tests check that
both give the same roots in the same order, the same parities and labels,
and Gram matrices that differ by one positive factor.  Root i of a
``RootSystem`` is then ``all_roots[i]`` of the reference.

``ReferenceSimpleSystem`` builds a simple system the way ``superlie`` once
did: one exact rational solve for the coordinates of every root in the
simple roots, and a reflection that maps every positive root through the
reflection formula and finds the new simple roots by a quadratic scan for
indecomposables.  ``reference_simple_systems`` is the breadth-first
closure on top of it.  The package works on root indices and integer
coordinates instead; the tests compare the two system for system.

``superlie`` pairs weights with coroots through the matrix model of an
algebra (``LieSuperalgebra.coroot_value``).  The exceptional and large
types are root combinatorics only, so their tests pair through the
invariant form of the root system instead: (lam | a) = c_a * (lam, a),
with c_a = 2 / (a, a) for a non-isotropic root and 1 for an isotropic one.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Optional, Sequence, Union

from superlie.gf import Field
from superlie.rootsys import MAX_SIMPLE_SYSTEMS, RootSystem, SimpleSystem

Rational = Union[int, Fraction]


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


def fraction_to_field(F: Field, x: Rational) -> int:
    """The code of an exact rational in GF(p^k); its denominator must be
    prime to p."""
    x = Fraction(x)
    if x.denominator % F.p == 0:
        raise ValueError(f"denominator of {x} vanishes mod {F.p}")
    return F.div(x.numerator % F.p, x.denominator % F.p)


def as_weight(rs: RootSystem, row: Sequence[int], denominator: Optional[int] = None) -> Weight:
    """The Fraction weight of an integer row of rs, over rs.denominator by default."""
    den = rs.denominator if denominator is None else denominator
    coords = [Fraction(int(c), den) for c in row]
    return Weight(coords[:rs.m], coords[rs.m:])


# ---------------------------------------------------------------------------
# Fraction root systems
# ---------------------------------------------------------------------------


class ReferenceRootSystem:
    """Even and odd roots as Fraction weights with the invariant form."""

    def __init__(self, label: str, m: int, n: int, even_roots: Sequence[Weight],
                 odd_roots: Sequence[Weight], feps: Sequence[Sequence[Rational]],
                 fdelta: Sequence[Sequence[Rational]], distinguished: Sequence[Weight]):
        self.label = label
        self.m = m
        self.n = n
        self.even_roots = tuple(even_roots)
        self.odd_roots = tuple(odd_roots)
        self.all_roots = self.even_roots + self.odd_roots
        self.feps = tuple(tuple(Fraction(c) for c in row) for row in feps)
        self.fdelta = tuple(tuple(Fraction(c) for c in row) for row in fdelta)
        self.distinguished = tuple(distinguished)
        self._even_set = frozenset(r.key() for r in self.even_roots)
        self._odd_set = frozenset(r.key() for r in self.odd_roots)
        if self._even_set & self._odd_set:
            raise ValueError("a root cannot be both even and odd")
        for r in self.all_roots:
            if (-r).key() not in self._even_set | self._odd_set:
                raise ValueError(f"root set not closed under negation at {r}")
        for b in self.odd_roots:
            if not self.is_isotropic(b) and b.scale(2).key() not in self._even_set:
                raise ValueError(f"non-isotropic odd root {b} without even double")

    def form(self, u: Weight, v: Weight) -> Fraction:
        total = Fraction(0)
        for i, a in enumerate(u.eps):
            for j, b in enumerate(v.eps):
                total += a * b * self.feps[i][j]
        for i, a in enumerate(u.delta):
            for j, b in enumerate(v.delta):
                total += a * b * self.fdelta[i][j]
        return total

    def is_even_root(self, w: Weight) -> bool:
        return w.key() in self._even_set

    def is_odd_root(self, w: Weight) -> bool:
        return w.key() in self._odd_set

    def is_isotropic(self, w: Weight) -> bool:
        return self.form(w, w) == 0


_REFERENCE_LABEL_RE = re.compile(r"(gl|sl)\((\d+)\|(\d+)\)|B\((\d+),(\d+)\)|C\((\d+)\)|D\((\d+),(\d+)\)")


def reference_root_system(type_label: str, alpha: Optional[Rational] = None) -> ReferenceRootSystem:
    """The Fraction root system of a type label; ``alpha`` for D(2,1;a)."""
    label = type_label.replace(" ", "")
    if label == "D(2,1;a)":
        return _build_d21a(alpha)
    if label == "F(4)":
        return _build_f4()
    if label == "G(3)":
        return _build_g3()
    match = _REFERENCE_LABEL_RE.fullmatch(label)
    if match is None:
        raise ValueError(f"unrecognized type label {type_label!r}")
    if match.group(1):
        return _build_gl(int(match.group(2)), int(match.group(3)), label)
    if match.group(4) is not None:
        return _build_b(int(match.group(4)), int(match.group(5)), label)
    if match.group(6) is not None:
        return _build_c(int(match.group(6)), label)
    return _build_d(int(match.group(7)), int(match.group(8)), label)


def _units(count: int, index: int) -> list[Fraction]:
    v = [Fraction(0)] * count
    v[index] = Fraction(1)
    return v


def _eps(m: int, n: int, i: int) -> Weight:
    return Weight(_units(m, i), [0] * n)


def _dlt(m: int, n: int, j: int) -> Weight:
    return Weight([0] * m, _units(n, j))


def _pm(weights: Iterable[Weight]) -> list[Weight]:
    return [x for w in weights for x in (w, -w)]


def _signed_sums(pairs: Iterable[tuple[Weight, Weight]]) -> list[Weight]:
    return [u.scale(s) + v.scale(t) for u, v in pairs for s in (1, -1) for t in (1, -1)]


def _classical(m: int, n: int) -> tuple[list, list]:
    feps = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    fdelta = [[Fraction(-int(i == j)) for j in range(n)] for i in range(n)]
    return feps, fdelta


def _build_gl(m: int, n: int, label: str) -> ReferenceRootSystem:
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
    return ReferenceRootSystem(label, m, n, even, odd, *_classical(m, n), simple)


def _build_b(m: int, n: int, label: str) -> ReferenceRootSystem:
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
    return ReferenceRootSystem(label, m, n, even, odd, *_classical(m, n), simple)


def _build_c(n: int, label: str) -> ReferenceRootSystem:
    m, nd = 1, n - 1
    dlt = [_dlt(m, nd, j) for j in range(nd)]
    even = _signed_sums(combinations(dlt, 2)) + _pm(d.scale(2) for d in dlt)
    odd = _signed_sums(product([_eps(m, nd, 0)], dlt))
    simple = [_eps(m, nd, 0) - _dlt(m, nd, 0)]
    simple += [_dlt(m, nd, j) - _dlt(m, nd, j + 1) for j in range(nd - 1)]
    simple.append(_dlt(m, nd, nd - 1).scale(2))
    return ReferenceRootSystem(label, m, nd, even, odd, *_classical(m, nd), simple)


def _build_d(m: int, n: int, label: str) -> ReferenceRootSystem:
    eps = [_eps(m, n, i) for i in range(m)]
    dlt = [_dlt(m, n, j) for j in range(n)]
    even = (_signed_sums(combinations(eps, 2)) + _signed_sums(combinations(dlt, 2))
            + _pm(d.scale(2) for d in dlt))
    odd = _signed_sums(product(eps, dlt))
    simple = [_dlt(m, n, j) - _dlt(m, n, j + 1) for j in range(n - 1)]
    simple.append(_dlt(m, n, n - 1) - _eps(m, n, 0))
    simple += [_eps(m, n, i) - _eps(m, n, i + 1) for i in range(m - 1)]
    simple.append(_eps(m, n, m - 2) + _eps(m, n, m - 1))
    return ReferenceRootSystem(label, m, n, even, odd, *_classical(m, n), simple)


def _build_d21a(alpha: Optional[Rational]) -> ReferenceRootSystem:
    alpha = Fraction(1 if alpha is None else alpha)
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
    return ReferenceRootSystem("D(2,1;a)", m, n, even, odd, feps, [], simple)


def _build_f4() -> ReferenceRootSystem:
    m, n = 3, 1
    eps = [_eps(m, n, i) for i in range(3)]
    even = _signed_sums(combinations(eps, 2)) + _pm(eps) + _pm([_dlt(m, n, 0)])
    odd = []
    half = Fraction(1, 2)
    for s0 in (1, -1):
        for s1 in (1, -1):
            for s2 in (1, -1):
                for s3 in (1, -1):
                    odd.append(Weight([half * s1, half * s2, half * s3], [half * s0]))
    feps = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    fdelta = [[Fraction(-3)]]
    simple = [
        Weight([-half, -half, -half], [half]),
        _eps(m, n, 2),
        _eps(m, n, 1) - _eps(m, n, 2),
        _eps(m, n, 0) - _eps(m, n, 1),
    ]
    return ReferenceRootSystem("F(4)", m, n, even, odd, feps, fdelta, simple)


def _build_g3() -> ReferenceRootSystem:
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
    return ReferenceRootSystem("G(3)", m, n, even, odd, feps, fdelta, simple)


# ---------------------------------------------------------------------------
# Fraction simple systems
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
            if g != b and (b - g).key() in keys:
                decomposable = True
                break
        if not decomposable:
            out.add(b)
    return out


class ReferenceSimpleSystem:
    """A simple system Pi with its positive roots, in Fraction arithmetic.

    Positive roots are sorted by height, ties broken by descending
    lexicographic order on concatenated (eps, delta) coordinates.
    """

    def __init__(self, rs: ReferenceRootSystem, simple_roots: Sequence[Weight]):
        self.rs = rs
        self.simple_roots = tuple(simple_roots)
        for d in self.simple_roots:
            if not (rs.is_even_root(d) or rs.is_odd_root(d)):
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

    def height(self, r: Weight) -> Fraction:
        return sum(self._coeffs[r.key()])

    @property
    def N(self) -> int:
        return len(self.positive_roots)

    def _compute_rho(self) -> Weight:
        total = Weight([0] * self.rs.m, [0] * self.rs.n)
        for r in self.positive_roots:
            total = total + r if self.rs.is_even_root(r) else total - r
        return total.scale(Fraction(1, 2))

    def classify(self, d: Weight) -> tuple[str, tuple[Weight, ...]]:
        """Type of a simple root: type_i / type_ii / type_iii, with delta*."""
        if d not in self.simple_roots:
            raise ValueError(f"{d} is not a simple root of this system")
        rs = self.rs
        if rs.is_even_root(d):
            if rs.is_odd_root(d.scale(Fraction(1, 2))):
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

    def reflect(self, d: Weight) -> "ReferenceSimpleSystem":
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
        new_ss = ReferenceSimpleSystem(self.rs, candidate)
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
        return f"ReferenceSimpleSystem({self.rs.label}; {simples})"


def reference_simple_systems(rs: ReferenceRootSystem) -> list[ReferenceSimpleSystem]:
    """Breadth-first closure of the distinguished system under reflections,
    building every reflected system in full."""
    start = ReferenceSimpleSystem(rs, rs.distinguished)
    seen: dict[frozenset, ReferenceSimpleSystem] = {start._pos_keys: start}
    queue = [start]
    while queue:
        ss = queue.pop(0)
        for d in ss.simple_roots:
            nxt = ss.reflect(d)
            key = nxt._pos_keys
            if key not in seen:
                if len(seen) >= MAX_SIMPLE_SYSTEMS:
                    raise RuntimeError(
                        f"simple-system closure exceeded MAX_SIMPLE_SYSTEMS = {MAX_SIMPLE_SYSTEMS}")
                seen[key] = nxt
                queue.append(nxt)
    return sorted(seen.values(), key=lambda s: tuple(r.key() for r in s.simple_roots))


def coroot_pairing(
    ss: SimpleSystem, ref: ReferenceRootSystem, F: Field, lam_eps: Sequence[int],
    lam_delta: Sequence[int]
) -> list[int]:
    """Pairings (lam | a) = c_a * (lam, a) for all positive roots of ss, as
    codes aligned with ``ss.positive_roots``.

    ``ref`` is the Fraction root system of ss, whose ``all_roots[i]`` is
    root i of ss.  ``lam`` is given by the codes of its coordinates over F
    against the same eps/delta coordinate basis used by the root system;
    the form matrices and coroot normalization factors are reduced into F.
    """
    out = []
    for a in (ref.all_roots[i] for i in ss.positive_roots):
        total = 0
        for i, le in enumerate(lam_eps):
            for j, c in enumerate(a.eps):
                if c:
                    total = F.add(total, F.mul(le, fraction_to_field(F, ref.feps[i][j] * c)))
        for i, ld in enumerate(lam_delta):
            for j, c in enumerate(a.delta):
                if c:
                    total = F.add(total, F.mul(ld, fraction_to_field(F, ref.fdelta[i][j] * c)))
        scale = Fraction(1) if ref.is_isotropic(a) else Fraction(2) / ref.form(a, a)
        out.append(F.mul(total, fraction_to_field(F, scale)))
    return out
