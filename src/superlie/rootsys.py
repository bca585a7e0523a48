"""Super root systems in epsilon-delta coordinates, as integer rows.

A root is its index in a ``RootSystem``.  Every weight is a row of int64
coordinates in units of one denominator per type: 1 for the classical
families, 2 for F(4), whose odd roots have half-integer coordinates, and 3
for G(3), whose eps_i are sum-zero vectors with thirds.  Row i of
``roots`` is that denominator times the (eps, delta) coordinates of root i,
even roots first.  One integer form matrix, a positive multiple of the
invariant form in these units, gives the Gram matrix of all roots, and
isotropy, the kind of each reflection and the reflections themselves read
that one matrix.  A root's label (``e1-d1``, ``2d1``, ``(1/2)(e1+e2+e3+d1)``)
is formatted from its row, and ``index`` maps an integer label back to
its root.
Simple systems, even and odd reflections, rho, and the factored
irreducibility polynomial all live here; structure constants do not.

A simple system keeps the indices of its simple roots, and the coordinates
of every root in them come from one small float solve, rounded to integers
and certified exactly: coordinates x simple roots == roots, in int64.  Each
row of coordinates must be all >= 0 or all <= 0; the nonnegative rows are
the positive roots, their sums the heights, and their signed sum 2 rho.
So rho is a row with the denominator twice the type's.

Reflections run on tables that a root system builds on first use: the
reflection at each non-isotropic root as a permutation of root indices,
and the pairs g + h = b that decide which positive roots are
indecomposable.  An odd isotropic reflection at d swaps d and -d in the
positive set; every other reflection permutes it.  ``all_simple_systems``
searches breadth first on (simple indices, bitmask of positive indices)
and checks three identities on every reflection: the mapped simple roots
are the indecomposable positive roots, -delta* is positive, and the old
and new positive sets share N - |delta*| roots.  A broken identity raises
``InvariantViolation``.

Values in a finite field are integer codes of a ``gf.Field``: the
polynomial is evaluated on the codes of the pairings with the positive
roots.
"""

from __future__ import annotations

import math
import re
from collections import deque
from functools import cached_property
from itertools import combinations, permutations, product
from numbers import Rational
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .gf import Field
from .linalg import InvariantViolation

# The most simple systems ``all_simple_systems`` collects before it raises.
MAX_SIMPLE_SYSTEMS = 100000


def _label(row: Sequence[int], m: int, denominator: int) -> str:
    """row / denominator as a signed combination of e_i and d_j symbols,
    with a common fraction written as (1/k)(...)."""
    common = math.gcd(denominator, *row)
    parts = []
    for i, c in enumerate(row):
        c //= common
        if c:
            name = f"e{i + 1}" if i < m else f"d{i - m + 1}"
            term = name if abs(c) == 1 else f"{abs(c)}{name}"
            parts.append(("-" if c < 0 else "+" if parts else "") + term)
    text = "".join(parts) or "0"
    return text if common == denominator else f"(1/{denominator // common})({text})"


_TERM_RE = re.compile(r"([+-]?)(\d*)([ed])(\d+)")

# ---------------------------------------------------------------------------
# Root system construction
# ---------------------------------------------------------------------------

_LABEL_RE = re.compile(
    r"^(gl|sl)\((\d+)\|(\d+)\)$|^B\((\d+),(\d+)\)$|^C\((\d+)\)$|^D\((\d+),(\d+)\)$"
    r"|^D\(2,1;a\)$|^F\(4\)$|^G\(3\)$"
)


def _bits(mask: int) -> Iterable[int]:
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Reflections(NamedTuple):
    """Index tables for reflections; entry i belongs to root i."""

    kind: tuple  # (reflection type, delta* indices), None for an even root with an odd half
    mirror: tuple  # the reflection at a non-isotropic root as an index permutation, else None
    sums: dict  # (g, h) -> the index of g + h, where that is a root
    splits: tuple  # the bitmasks of the pairs {g, h} with g + h = root


class RootSystem:
    """Even and odd roots of a basic classical type, with its invariant form.

    ``roots[i]`` is ``denominator`` times the (eps, delta) coordinates of
    root i, and the first ``n_even`` roots are even.  ``gram`` is the form
    on pairs of roots, times one positive constant.  ``neg[i]`` is the
    index of -root i and ``labels[i]`` its label.
    """

    def __init__(
        self,
        label: str,
        family: str,
        m: int,
        n: int,
        even: Sequence[np.ndarray],
        odd: Sequence[np.ndarray],
        form: np.ndarray,
        denominator: int,
        distinguished: Sequence[np.ndarray],
    ):
        self.label = label
        self.family = family
        self.m = m
        self.n = n
        self.denominator = denominator
        self.roots = np.array([*even, *odd], dtype=np.int64).reshape(-1, m + n)
        self.n_even = len(even)
        self.parities = (0,) * len(even) + (1,) * len(odd)
        self.gram = self.roots @ np.asarray(form, dtype=np.int64) @ self.roots.T
        rows = [tuple(row) for row in self.roots.tolist()]
        self._rows = rows
        self._where = {row: i for i, row in enumerate(rows)}
        self.labels = tuple(_label(row, m, denominator) for row in rows)
        if len(self._where) != len(rows):
            raise ValueError("a root cannot be both even and odd")
        neg = [self._where.get(tuple(-c for c in row)) for row in rows]
        if None in neg:
            raise ValueError(f"root set not closed under negation at {self.labels[neg.index(None)]}")
        self.neg = tuple(neg)
        # every odd non-isotropic root must have its double among the even roots
        for i in range(self.n_even, len(rows)):
            double = self._where.get(tuple(2 * c for c in rows[i]))
            if self.gram[i, i] and (double is None or self.parities[double]):
                raise ValueError(f"non-isotropic odd root {self.labels[i]} without even double")
        self._distinguished = tuple(self._where[tuple(row)] for row in np.asarray(distinguished).tolist())

    def index(self, label: str) -> int:
        """The index of the root with a label such as ``e1-d1``, ``2d1`` or ``-e2``."""
        text = label.replace(" ", "")
        coeffs = [0] * (self.m + self.n)
        pos = 0
        for match in _TERM_RE.finditer(text):
            if match.start() != pos:
                raise ValueError(f"cannot parse root label {label!r}")
            pos = match.end()
            sign = -1 if match.group(1) == "-" else 1
            coeff = int(match.group(2)) if match.group(2) else 1
            idx = int(match.group(4)) - 1
            size, offset = (self.m, 0) if match.group(3) == "e" else (self.n, self.m)
            if not 0 <= idx < size:
                raise ValueError(f"index out of range in {label!r}")
            coeffs[offset + idx] += sign * coeff * self.denominator
        if pos != len(text):
            raise ValueError(f"cannot parse root label {label!r}")
        found = self._where.get(tuple(coeffs))
        if found is None:
            raise ValueError(f"{label} is not a root of {self.label}")
        return found

    def validate_prime(self, p: int) -> None:
        """Reject primes excluded for this type."""
        if p <= 2:
            raise ValueError(f"{self.label}: requires p > 2, got {p}")
        if self.family == "sl" and (self.m - self.n) % p == 0:
            raise ValueError(f"sl({self.m}|{self.n}): requires p not dividing m - n = {self.m - self.n}")
        if self.family in ("D21a", "G3") and p <= 3:
            raise ValueError(f"{self.label}: requires p > 3, got {p}")

    # -- reflections ---------------------------------------------------------------

    @cached_property
    def _reflections(self) -> _Reflections:
        X, gram, lookup = self.roots, self.gram, self._where
        count, dim = X.shape
        kind, mirror = [], []
        for i, row in enumerate(self._rows):
            if i < self.n_even:
                half = None if any(c % 2 for c in row) else lookup.get(tuple(c // 2 for c in row))
                kind.append(None if half is not None and self.parities[half] else ("type_i", (i,)))
            elif gram[i, i] == 0:
                kind.append(("type_ii", (i,)))
            else:
                kind.append(("type_iii", (i, lookup[tuple(2 * c for c in row)])))
            if gram[i, i] == 0:
                mirror.append(None)
                continue
            # gram[i, i] s_r(x) = gram[i, i] x - 2 gram[i, x] r, for every root x
            images = gram[i, i] * X - 2 * gram[i][:, None] * X[i]
            perm = tuple(lookup.get(row) for row in map(tuple, (images // gram[i, i]).tolist()))
            if (images % gram[i, i]).any() or None in perm:
                raise ValueError(f"the reflection at {self.labels[i]} does not permute the roots of {self.label}")
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
        return _Reflections(tuple(kind), tuple(mirror), sums, tuple(map(tuple, splits)))

    def _kind(self, i: int) -> tuple[str, tuple[int, ...]]:
        kind = self._reflections.kind[i]
        if kind is None:
            raise ValueError(f"even simple root {self.labels[i]} has an odd half — invalid system")
        return kind

    def _label_list(self, indices: Iterable[Optional[int]]) -> str:
        return ", ".join("no root" if i is None else self.labels[i] for i in indices)

    def _reflect(self, simple: tuple[int, ...], mask: int, d: int) -> tuple[tuple[int, ...], int]:
        """(simple indices, positive bitmask) of the system reflected at the
        simple root with index d, after checking the reflection identities."""
        t, neg = self._reflections, self.neg
        kind, star = self._kind(d)
        if kind == "type_ii":  # d and -d swap; b becomes b + d where (d, b) != 0
            new_mask = mask & ~(1 << d) | 1 << neg[d]
            images = [neg[d] if b == d else t.sums.get((b, d)) if self.gram[d, b] else b
                      for b in simple]
        else:  # the reflection at d, which for type iii is also the one at 2d
            perm = t.mirror[d]
            new_mask = 0
            for i in _bits(mask):
                new_mask |= 1 << perm[i]
            images = [perm[b] for b in simple]
        indecomposable = {b for b in _bits(new_mask)
                          if not any(pair & new_mask == pair for pair in t.splits[b])}
        if set(images) != indecomposable:
            raise InvariantViolation(
                f"reflection at {self.labels[d]}: mapped simple roots [{self._label_list(images)}] "
                f"do not match indecomposables "
                f"[{self._label_list(sorted(indecomposable, key=self._rows.__getitem__))}]"
            )
        for s in star:
            if not new_mask >> neg[s] & 1:
                raise InvariantViolation(f"reflection postcondition failed: -{self.labels[s]} not positive")
        overlap, N = (new_mask & mask).bit_count(), mask.bit_count()
        if overlap != N - len(star):
            raise InvariantViolation(
                f"reflection postcondition failed: overlap {overlap} != {N}-{len(star)}")
        return tuple(images), new_mask

    def _system(self, simple: tuple[int, ...], mask: int) -> "SimpleSystem":
        """The simple system on these simple roots, whose positive roots must be mask."""
        ss = SimpleSystem(self, simple)
        if ss._mask != mask:
            raise InvariantViolation(f"{ss}: its positive roots differ from the reflected ones")
        return ss

    # -- simple systems ------------------------------------------------------------

    def distinguished_simple_system(self) -> "SimpleSystem":
        return SimpleSystem(self, self._distinguished)

    def all_simple_systems(self) -> list["SimpleSystem"]:
        """Breadth-first closure of the distinguished system under reflections."""
        start = self.distinguished_simple_system()
        seen = {start._mask: start.simple_roots}
        queue = deque([(start.simple_roots, start._mask)])
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
        # order the systems by the rows of their simple roots, compared through each row's rank
        rows = self._rows
        rank = {i: r for r, i in enumerate(sorted(range(len(rows)), key=rows.__getitem__))}
        ordered = sorted(seen.items(), key=lambda item: [rank[i] for i in item[1]])
        return [self._system(simple, mask) for mask, simple in ordered]

    def __repr__(self) -> str:
        return f"RootSystem({self.label})"


def build_root_system(type_label: str, alpha: Optional[Rational] = None) -> RootSystem:
    """Construct the root system named by its type label.

    Supported labels: gl(m|n), sl(m|n), B(m,n), C(n), D(m,n), D(2,1;a),
    F(4), G(3).  ``alpha`` is the rational parameter of D(2,1;a) (an int or
    a ``Fraction``), required for that type and rejected elsewhere.
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


def _units(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of eps_1..eps_m and of delta_1..delta_n, in units of 1."""
    E = np.eye(m + n, dtype=np.int64)
    return E[:m], E[m:]


def _classical_form(m: int, n: int) -> np.ndarray:
    """(eps_i, eps_j) = delta_ij and (delta_i, delta_j) = -delta_ij."""
    return np.diag([1] * m + [-1] * n)


def _pm(rows: Iterable[np.ndarray]) -> list[np.ndarray]:
    """w, -w for each row, in order."""
    return [x for w in rows for x in (w, -w)]


def _signed_sums(pairs: Iterable[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    """s u + t v for each pair (u, v), with s and t running over 1, -1."""
    return [s * u + t * v for u, v in pairs for s in (1, -1) for t in (1, -1)]


def _build_gl(fam: str, m: int, n: int, label: str) -> RootSystem:
    eps, dlt = _units(m, n)
    even = [eps[i] - eps[j] for i, j in permutations(range(m), 2)]
    even += [dlt[i] - dlt[j] for i, j in permutations(range(n), 2)]
    odd = [x for i in range(m) for j in range(n) for x in (eps[i] - dlt[j], dlt[j] - eps[i])]
    simple = [eps[i] - eps[i + 1] for i in range(m - 1)] + [eps[m - 1] - dlt[0]]
    simple += [dlt[j] - dlt[j + 1] for j in range(n - 1)]
    return RootSystem(label, fam, m, n, even, odd, _classical_form(m, n), 1, simple)


def _build_b(m: int, n: int, label: str) -> RootSystem:
    eps, dlt = _units(m, n)
    even = (_signed_sums(combinations(eps, 2)) + _pm(eps)
            + _signed_sums(combinations(dlt, 2)) + _pm(2 * d for d in dlt))
    odd = _pm(dlt) + _signed_sums(product(eps, dlt))
    simple = [dlt[j] - dlt[j + 1] for j in range(n - 1)]
    if m == 0:
        simple.append(dlt[n - 1])
    else:
        simple.append(dlt[n - 1] - eps[0])
        simple += [eps[i] - eps[i + 1] for i in range(m - 1)]
        simple.append(eps[m - 1])
    return RootSystem(label, "B", m, n, even, odd, _classical_form(m, n), 1, simple)


def _build_c(n: int, label: str) -> RootSystem:
    m, nd = 1, n - 1
    (e,), dlt = _units(m, nd)
    even = _signed_sums(combinations(dlt, 2)) + _pm(2 * d for d in dlt)
    odd = _signed_sums(product([e], dlt))
    simple = [e - dlt[0]] + [dlt[j] - dlt[j + 1] for j in range(nd - 1)] + [2 * dlt[nd - 1]]
    return RootSystem(label, "C", m, nd, even, odd, _classical_form(m, nd), 1, simple)


def _build_d(m: int, n: int, label: str) -> RootSystem:
    eps, dlt = _units(m, n)
    even = (_signed_sums(combinations(eps, 2)) + _signed_sums(combinations(dlt, 2))
            + _pm(2 * d for d in dlt))
    odd = _signed_sums(product(eps, dlt))
    simple = [dlt[j] - dlt[j + 1] for j in range(n - 1)]
    simple.append(dlt[n - 1] - eps[0])
    simple += [eps[i] - eps[i + 1] for i in range(m - 1)]
    simple.append(eps[m - 2] + eps[m - 1])
    return RootSystem(label, "D", m, n, even, odd, _classical_form(m, n), 1, simple)


def _build_d21a(alpha: Optional[Rational]) -> RootSystem:
    num, den = (1, 1) if alpha is None else (alpha.numerator, alpha.denominator)
    if num == 0 or num == -den:
        raise ValueError("D(2,1;a) requires alpha not in {0, -1}")
    eps, _ = _units(3, 0)
    even = _pm(2 * e for e in eps)
    odd = [s1 * eps[0] + s2 * eps[1] + s3 * eps[2] for s1, s2, s3 in product((1, -1), repeat=3)]
    # 2 den times the form diag((1 + alpha) / 2, -1/2, -alpha / 2)
    form = np.diag([den + num, -den, -num])
    simple = [eps[0] - eps[1] - eps[2], 2 * eps[1], 2 * eps[2]]
    return RootSystem("D(2,1;a)", "D21a", 3, 0, even, odd, form, 1, simple)


def _build_f4() -> RootSystem:
    # units of 1/2: the odd roots are (1/2)(+-e1 +- e2 +- e3 +- d1)
    eps, (dl,) = (2 * u for u in _units(3, 1))
    even = _signed_sums(combinations(eps, 2)) + _pm(eps) + _pm([dl])
    odd = [np.array([s1, s2, s3, s0]) for s0, s1, s2, s3 in product((1, -1), repeat=4)]
    simple = [np.array([-1, -1, -1, 1]), eps[2], eps[1] - eps[2], eps[0] - eps[1]]
    return RootSystem("F(4)", "F4", 3, 1, even, odd, np.diag([1, 1, 1, -3]), 2, simple)


def _build_g3() -> RootSystem:
    # units of 1/3: eps_i is the sum-zero vector unit_i - (1/3, 1/3, 1/3)
    units, (dl,) = _units(3, 1)
    hats = [3 * u - (1, 1, 1, 0) for u in units]
    dl = 3 * dl
    even = _pm(hats) + [hats[i] - hats[j] for i, j in permutations(range(3), 2)] + _pm([2 * dl])
    odd = _pm([dl]) + _signed_sums(product(hats, [dl]))
    # 3 times the form (eps_i, eps_j) = delta_ij - 1/3, (delta, delta) = -2/3
    form = np.array([[2, -1, -1, 0], [-1, 2, -1, 0], [-1, -1, 2, 0], [0, 0, 0, -2]])
    simple = [dl + hats[0], hats[1], hats[2] - hats[1]]
    return RootSystem("G(3)", "G3", 3, 1, even, odd, form, 3, simple)


# ---------------------------------------------------------------------------
# Simple systems
# ---------------------------------------------------------------------------


class SimpleSystem:
    """A simple system Pi of a root system with its positive roots.

    Roots are indices into ``rs``.  Positive roots are sorted by height,
    ties broken by descending lexicographic order on concatenated (eps,
    delta) coordinates, so the ordering is deterministic and
    height-compatible.  ``heights`` holds their heights as ints, in the
    same order.  ``rho`` is (row, denominator), with the denominator twice
    the root system's.
    """

    def __init__(self, rs: RootSystem, simple_roots: Sequence[int]):
        self.rs = rs
        self.simple_roots = tuple(int(i) for i in simple_roots)
        X = rs.roots
        S = X[list(self.simple_roots)]
        solved, _, rank, _ = np.linalg.lstsq(S.T.astype(float), X.T.astype(float), rcond=None)
        if rank < len(S):
            raise ValueError("simple roots are linearly dependent")
        C = np.rint(solved.T).astype(np.int64)  # row i: the coordinates of root i
        if not np.array_equal(C @ S, X):
            raise ValueError(f"{rs.label}: some root is not an integer combination of "
                             f"{rs._label_list(self.simple_roots)}")
        positive = (C >= 0).all(axis=1)
        mixed = ~positive & ~(C <= 0).all(axis=1)
        if mixed.any():
            raise ValueError(f"root {rs.labels[mixed.argmax()]} is neither positive nor negative in Pi")
        pos = np.flatnonzero(positive)
        heights = C[pos].sum(axis=1)
        order = np.lexsort((*(-X[pos]).T[::-1], heights))  # by height, then descending coordinates
        pos = pos[order]
        self.positive_roots = tuple(int(i) for i in pos)
        self.heights = tuple(int(h) for h in heights[order])
        self._mask = sum(1 << i for i in self.positive_roots)
        # 2 rho: even positive roots minus odd ones
        two_rho = np.where(pos < rs.n_even, 1, -1) @ X[pos]
        self.rho = (tuple(int(c) for c in two_rho), 2 * rs.denominator)

    # -- queries ---------------------------------------------------------------

    def is_positive(self, r: int) -> bool:
        return bool(self._mask >> r & 1)

    # -- classification and reflections ---------------------------------------

    def classify(self, d: int) -> tuple[str, tuple[int, ...]]:
        """Type of a simple root: type_i / type_ii / type_iii, with delta*."""
        if d not in self.simple_roots:
            raise ValueError(f"{self.rs.labels[d]} is not a simple root of this system")
        return self.rs._kind(d)

    def reflect(self, d: int) -> "SimpleSystem":
        """The simple system r_d Pi obtained by reflecting at simple root d."""
        self.classify(d)
        return self.rs._system(*self.rs._reflect(self.simple_roots, self._mask, d))

    def __repr__(self) -> str:
        return f"SimpleSystem({self.rs.label}; {self.rs._label_list(self.simple_roots)})"


def phi_prime_eval(ss: SimpleSystem, F: Field, pairing: Sequence[int]) -> int:
    """The factored irreducibility polynomial evaluated from given pairings.

    Returns the code of prod over even positive roots of ((lam|a)^(p-1) - 1)
    times prod over odd positive roots of (lam|b), where ``pairing`` holds
    the code of (lam|.) in F of each positive root, aligned with
    ``ss.positive_roots``.
    """
    out = 1
    for a, v in zip(ss.positive_roots, pairing):
        out = F.mul(out, v if ss.rs.parities[a] else F.sub(F.pow_int(v, F.p - 1), 1))
    return out
