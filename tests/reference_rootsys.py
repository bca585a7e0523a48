"""Root-data pairings, for the types that have no structure constants.

``superlie`` pairs weights with coroots through the matrix model of an
algebra (``verma.pairing_at``).  The exceptional and large types are root
combinatorics only, so their tests pair through the invariant form of the
root system instead: (lam | a) = c_a * (lam, a), with c_a = 2 / (a, a) for
a non-isotropic root and 1 for an isotropic one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from superlie.gf import Field
from superlie.rootsys import SimpleSystem, Weight, fraction_to_field


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
