"""Slow reference for the field tables, kept as an oracle for ``gf.Field``.

This is the original construction: the generator is the first candidate
code whose orbit, walked one polynomial product at a time, has length
q − 1, and the exp table is q − 1 further products by it.  It uses only the
polynomial helpers of ``superlie.gf``, so it is independent of the doubling
construction and of the reduction tensor that replaced it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from superlie.gf import poly_mod, poly_mul


def _digits(code: int, p: int, k: int) -> list[int]:
    return [(code // p ** i) % p for i in range(k)]


def _encode(poly: Sequence[int], p: int) -> int:
    return sum((c % p) * p ** i for i, c in enumerate(poly))


def orbit_walk_tables(p: int, k: int, modulus: Sequence[int]):
    """(generator, exp, log) of GF(p^k) = GF(p)[x]/(modulus), codes as in gf."""
    q = p ** k

    def times(poly, factor):
        return poly_mod(poly_mul(poly, factor, p), modulus, p)

    gen = None
    for cand in range(2, q):
        factor = poly_mod(_digits(cand, p, k), modulus, p)
        cur = factor
        order = 1
        while cur != [1]:
            cur = times(cur, factor)
            order += 1
            if order > q - 1:
                break
        if order == q - 1:
            gen = factor
            break
    if gen is None:
        raise RuntimeError("no multiplicative generator found")
    exp = np.empty(q - 1, dtype=np.int64)
    cur = [1]
    for i in range(q - 1):
        exp[i] = _encode(cur, p)
        cur = times(cur, gen)
    log = np.full(q, -1, dtype=np.int64)
    log[exp] = np.arange(q - 1)
    return _encode(gen, p), exp, log
