"""Dimension-divisibility verification for simple heads of baby Vermas.

For a p-character chi, the graded codimension pair (d0, d1) of its
stabilizer determines the divisor p^(d0/2) * 2^(floor(d1/2)); the
super Kac-Weisfeiler statement is that this divides the dimension of
every finite-dimensional module with that character.  This module
harvests the simple heads produced by the Verma machinery across the
full weight set of each character, classifies each head as Walls type M
or Q by solving for an odd module endomorphism, and reports exact
integer divisibility, including the ceiling-variant bookkeeping used for
type-Q heads (dim/2 divisible by p^(d0/2) * 2^(ceil(d1/2) - 1)).  Each head
is Z / rad Z with rad Z read off the module's pairing matrix
(``verma.BabyVerma.maximal_submodule``), the computation the irreducibility
oracle reads too.  Head dimensions and Walls types are constant along the
Frobenius orbits of the weight set, since the module at sigma(lambda) is
the module at lambda with sigma applied to every matrix entry: the ledger
computes them at one weight per orbit, p times fewer heads wherever chi is
nonzero on the Cartan, and every weight still reports its own head.

Characters outside the reach of the Verma pipeline are skipped with an
explicit reason rather than silently dropped: chi must vanish on the
positive nilradical of the chosen Borel, and reducible modules need a
certified unique maximal submodule for the head to be well defined.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .liesuper import LieSuperalgebra, PCharacter
from .verma import BabyVerma, IncompatibleBorel, VermaLedger
from .verma import walls_type  # noqa: F401 (re-exported)


class KWReport:
    """Divisibility evidence for one (algebra, chi) pair."""

    def __init__(self, g: LieSuperalgebra, chi: PCharacter, *,
                 skipped: Optional[str] = None):
        self.algebra = g.label
        self.p = g.p
        self.chi_values = [int(v) for v in chi.values]
        self.chi_cartan = list(chi.cartan_values())
        self.standard_form = chi.is_standard_form()
        self.skipped = skipped
        if skipped is None:
            cent = g.centralizer(chi)  # raises when d0 is odd
            self.d0, self.d1 = cent.d0, cent.d1
            # p^(d0/2) * 2^(floor(d1/2)) and the ceiling variant p^(d0/2) * 2^(ceil(d1/2))
            even = g.p ** (cent.d0 // 2)
            self.divisor = even * 2 ** (cent.d1 // 2)
            self.divisor_ceiling = even * 2 ** ((cent.d1 + 1) // 2)
        else:
            self.d0 = self.d1 = self.divisor = self.divisor_ceiling = None
        self.simple_dims: list[tuple[tuple, int, str]] = []
        self.all_divisible: Optional[bool] = None
        self.accounting_ok: Optional[bool] = None

    def add_head(self, lam: tuple, head_dim: int, wtype: str) -> None:
        self.simple_dims.append((tuple(int(v) for v in lam), int(head_dim), wtype))

    def finalize(self) -> None:
        if self.skipped is not None:
            return
        self.simple_dims.sort()
        self.all_divisible = all(d % self.divisor == 0 for _, d, _ in self.simple_dims)
        half = self.divisor_ceiling // 2 if self.divisor_ceiling > 1 else 1
        ok = True
        for _, d, wtype in self.simple_dims:
            if wtype == "M":
                ok = ok and d % self.divisor == 0
            else:
                ok = ok and d % 2 == 0 and (d // 2) % half == 0
        self.accounting_ok = ok

    def to_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "p": self.p,
            "chi": self.chi_values,
            "chi_cartan": self.chi_cartan,
            "standard_form": self.standard_form,
            "skipped": self.skipped,
            "d0": self.d0,
            "d1": self.d1,
            "divisor": self.divisor,
            "divisor_ceiling": self.divisor_ceiling,
            "simple_dims": [[list(l), d, t] for l, d, t in self.simple_dims],
            "all_divisible": self.all_divisible,
            "accounting_ok": self.accounting_ok,
        }


def verify_superkw_sweep(ledgers: Sequence[VermaLedger]) -> list[KWReport]:
    """One KWReport per ledger's chi, harvesting heads over the whole weight set.

    The sweep is deterministic: weight sets are enumerated in sorted
    order and each report's entries are sorted by lambda.
    """
    reports = []
    for ledger in ledgers:
        g, chi = ledger.g, ledger.chi
        try:
            ledger.system  # built here to refuse chi nonzero on n^+
        except IncompatibleBorel as exc:
            reports.append(KWReport(g, chi, skipped=f"no compatible Borel: {exc}"))
            continue
        rep = KWReport(g, chi)
        try:
            for lam in ledger.lset:
                rep.add_head(lam, *ledger.facts(lam, BabyVerma.head_dim, BabyVerma.head_type))
        except RuntimeError as exc:
            reports.append(KWReport(g, chi, skipped=str(exc)))
            continue
        rep.finalize()
        reports.append(rep)
    return reports


def summary_table(reports: Sequence[KWReport]) -> str:
    """Aggregate table, one line per (algebra, chi)."""
    lines = ["algebra      p  chi                divisor  heads                verdict"]
    for rep in reports:
        chi = ",".join(str(v) for v in rep.chi_cartan)
        if not rep.standard_form:
            chi += "*"
        if rep.skipped is not None:
            lines.append(
                f"{rep.algebra:<12} {rep.p}  {chi:<18} {'-':<8} "
                f"{'-':<20} skipped: {rep.skipped}"
            )
            continue
        dims = sorted({d for _, d, _ in rep.simple_dims})
        heads = ",".join(str(d) for d in dims)
        verdict = "pass" if rep.all_divisible and rep.accounting_ok else "FAIL"
        lines.append(
            f"{rep.algebra:<12} {rep.p}  {chi:<18} {rep.divisor:<8} "
            f"{heads:<20} {verdict}"
        )
    return "\n".join(lines)
