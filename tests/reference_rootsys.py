"""Reference simple systems in ``Fraction`` arithmetic, and root-data pairings.

``ReferenceSimpleSystem`` builds a simple system the way ``superlie`` once
did: one exact rational solve for the coordinates of every root in the
simple roots, and a reflection that maps every positive root through the
reflection formula and finds the new simple roots by a quadratic scan for
indecomposables.  ``reference_simple_systems`` is the breadth-first
closure on top of it.  The package works on root indices and integer
coordinates instead; the tests compare the two system for system.

``superlie`` pairs weights with coroots through the matrix model of an
algebra (``verma.pairing_at``).  The exceptional and large types are root
combinatorics only, so their tests pair through the invariant form of the
root system instead: (lam | a) = c_a * (lam, a), with c_a = 2 / (a, a) for
a non-isotropic root and 1 for an isotropic one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from superlie.gf import Field
from superlie.rootsys import (
    MAX_SIMPLE_SYSTEMS,
    RootSystem,
    SimpleSystem,
    Weight,
    format_weight,
    fraction_to_field,
)


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

    def __init__(self, rs: RootSystem, simple_roots: Sequence[Weight]):
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


def reference_simple_systems(rs: RootSystem) -> list[ReferenceSimpleSystem]:
    """Breadth-first closure of the distinguished system under reflections,
    building every reflected system in full."""
    start = ReferenceSimpleSystem(rs, rs.distinguished_simple_system().simple_roots)
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
    ss: SimpleSystem, F: Field, lam_eps: Sequence[int], lam_delta: Sequence[int]
) -> dict[Weight, int]:
    """Pairings (lam | a) = c_a * (lam, a) for all positive roots, as codes.

    ``lam`` is given by the codes of its coordinates over F against the same
    eps/delta coordinate basis used by the root system; the form matrices
    and coroot normalization factors are reduced into F.
    """
    rs = ss.rs
    out = {}
    for a in ss.positive_roots:
        total = 0
        for i, le in enumerate(lam_eps):
            for j, c in enumerate(a.eps):
                if c:
                    total = F.add(total, F.mul(le, fraction_to_field(F, rs.feps[i][j] * c)))
        for i, ld in enumerate(lam_delta):
            for j, c in enumerate(a.delta):
                if c:
                    total = F.add(total, F.mul(ld, fraction_to_field(F, rs.fdelta[i][j] * c)))
        scale = Fraction(1) if rs.is_isotropic(a) else Fraction(2) / rs.form(a, a)
        out[a] = F.mul(total, fraction_to_field(F, scale))
    return out
