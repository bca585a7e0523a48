"""The whole-array construction of the algebras against the loop reference."""

import numpy as np
import pytest

from superlie.gf import field_create
from superlie.liesuper import build_algebra

from reference_liesuper import ReferenceLieSuperalgebra, loop_validate
from tooling import corrupted

TYPES = ["gl(1|1)", "gl(2|1)", "gl(1|2)", "gl(2|2)", "gl(3|1)",
         "sl(2|1)", "sl(1|2)", "sl(3|1)", "osp(1|2)", "osp(2|2)"]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("label", TYPES)
def test_structure_arrays_match_reference(label, p):
    F = field_create(p, 1)
    g = build_algebra(label, F)
    ref = ReferenceLieSuperalgebra(label, F)
    for name in ("bracket_tensor", "p_map", "form", "parities"):
        assert np.array_equal(getattr(g, name), getattr(ref, name)), name
    assert len(g.matrices) == len(ref.matrices)
    assert all(np.array_equal(a, b) for a, b in zip(g.matrices, ref.matrices))
    assert all(np.array_equal(a, b) for a, b in zip(g.ad_matrices, ref.ad_matrices))
    assert g.basis_names == ref.basis_names
    assert g.basis_roots == ref.basis_roots
    assert (g.cartan, g.rank, g.dim_even, g.dim_odd) == (ref.cartan, ref.rank, ref.dim_even, ref.dim_odd)
    assert list(g.root_index.items()) == list(ref.root_index.items())
    assert np.array_equal(g.coroots, ref.coroots)
    assert np.array_equal(g.root_weights, ref.root_weights)
    for row in g.rs.roots:
        assert np.array_equal(g.weight_on_cartan(row, g.rs.denominator),
                              ref.weight_on_cartan(row, g.rs.denominator))
    rho = g.distinguished.rho
    assert np.array_equal(g.weight_on_cartan(*rho), ref.weight_on_cartan(*rho))


@pytest.mark.parametrize("label,p", [("gl(1|1)", 5), ("osp(1|2)", 3), ("sl(2|1)", 5)])
def test_validate_failures_match_loop_reference(label, p):
    F = field_create(p, 1)
    g = build_algebra(label, F)
    assert g.validate() == loop_validate(g) == {"passed": True, "failures": []}
    rng = np.random.default_rng(3)
    for name in ("bracket_tensor", "p_map", "form"):
        for _ in range(6):
            index = tuple(rng.integers(0, n) for n in getattr(g, name).shape)
            h = corrupted(g, name, index, rng)
            assert h.validate() == loop_validate(h), (name, index)
