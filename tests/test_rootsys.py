"""Tests for super root systems, simple systems, and reflections."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from reference_rootsys import (
    ReferenceSimpleSystem,
    as_weight,
    coroot_pairing,
    format_weight,
    fraction_to_field,
    reference_root_system,
    reference_simple_systems,
)
from superlie.gf import field_create
from superlie.liesuper import build_algebra
from superlie.rootsys import InvariantViolation, SimpleSystem, build_root_system, phi_prime_eval
from tooling import gl21_with_corrupt_reflection, random_codes


def root_system(label):
    """The named root system; D(2,1;a) at alpha = 3."""
    return build_root_system(label, alpha=Fraction(3) if label == "D(2,1;a)" else None)


def labels(rs, roots):
    return [rs.labels[r] for r in roots]


def even_labels(rs):
    return set(rs.labels[:rs.n_even])


def odd_labels(rs):
    return set(rs.labels[rs.n_even:])


def isotropic(rs, r):
    return rs.gram[r, r] == 0


def values(weight):
    """The rational coordinates of a (row, denominator) weight."""
    row, den = weight
    return tuple(Fraction(c, den) for c in row)


# ---------------------------------------------------------------------------
# Root enumeration oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_gl_roots_match_supermatrix_enumeration(m, n):
    """Oracle: weights of off-diagonal matrix units of gl(m|n) under the torus."""
    rs = build_root_system(f"gl({m}|{n})")
    expected_even = set()
    expected_odd = set()
    for i in range(m + n):
        for j in range(m + n):
            if i == j:
                continue
            eps = [0] * m
            delta = [0] * n
            for idx, s in ((i, 1), (j, -1)):
                if idx < m:
                    eps[idx] += s
                else:
                    delta[idx - m] += s
            root = tuple(eps + delta)
            if (i < m) == (j < m):
                expected_even.add(root)
            else:
                expected_odd.add(root)
    rows = [tuple(row) for row in rs.roots.tolist()]
    assert rs.denominator == 1
    assert set(rows[:rs.n_even]) == expected_even
    assert set(rows[rs.n_even:]) == expected_odd


def test_gl11_roots():
    rs = build_root_system("gl(1|1)")
    assert rs.n_even == 0
    assert odd_labels(rs) == {"e1-d1", "-e1+d1"}
    for b in range(rs.n_even, len(rs.roots)):
        assert isotropic(rs, b)


def test_gl21_roots():
    rs = build_root_system("gl(2|1)")
    assert even_labels(rs) == {"e1-e2", "-e1+e2"}
    assert odd_labels(rs) == {"e1-d1", "-e1+d1", "e2-d1", "-e2+d1"}


def test_osp12_roots():
    rs = build_root_system("B(0,1)")
    assert even_labels(rs) == {"2d1", "-2d1"}
    assert odd_labels(rs) == {"d1", "-d1"}
    for b in range(rs.n_even, len(rs.roots)):
        assert not isotropic(rs, b)  # (d1, d1) = -1


def test_root_counts_all_types():
    expected = {
        "B(1,1)": (4, 6),
        "B(2,1)": (10, 10),
        "C(2)": (2, 4),
        "C(3)": (8, 8),
        "D(2,1)": (6, 8),
        "F(4)": (20, 16),
        "G(3)": (14, 14),
    }
    for label, (ne, no) in expected.items():
        rs = build_root_system(label)
        assert (rs.n_even, len(rs.roots) - rs.n_even) == (ne, no), label
        # closed under negation, disjoint parities (constructor validates too)
        allr = {tuple(row) for row in rs.roots.tolist()}
        assert len(allr) == len(rs.roots)
        assert {tuple(row) for row in (-rs.roots).tolist()} == allr
        assert all(np.array_equal(rs.roots[rs.neg[i]], -rs.roots[i]) for i in range(len(rs.roots)))


def test_d21a_roots_and_isotropy():
    rs = build_root_system("D(2,1;a)", alpha=Fraction(2))
    assert rs.n_even == 6 and len(rs.roots) - rs.n_even == 8
    for b in range(rs.n_even, len(rs.roots)):
        assert isotropic(rs, b)
    with pytest.raises(ValueError):
        build_root_system("D(2,1;a)", alpha=Fraction(-1))
    with pytest.raises(ValueError):
        build_root_system("gl(1|1)", alpha=Fraction(2))


def test_f4_odd_roots_isotropic():
    rs = build_root_system("F(4)")
    for b in range(rs.n_even, len(rs.roots)):
        assert isotropic(rs, b)
        assert abs(Fraction(int(rs.roots[b, 3]), rs.denominator)) == Fraction(1, 2)


def test_g3_delta_type_iii_geometry():
    rs = build_root_system("G(3)")
    dl = rs.index("d1")
    assert rs.parities[dl] == 1
    assert not isotropic(rs, dl)
    assert rs.parities[rs.index("2d1")] == 0
    # hatted eps vectors are sum-zero
    for row in rs.roots:
        assert row[:3].sum() == 0


# ---------------------------------------------------------------------------
# Distinguished systems, heights, rho
# ---------------------------------------------------------------------------


def test_distinguished_systems_frozen():
    rs = build_root_system("gl(1|1)")
    ss = rs.distinguished_simple_system()
    assert labels(rs, ss.simple_roots) == ["e1-d1"]
    assert labels(rs, ss.positive_roots) == ["e1-d1"]

    rs = build_root_system("B(0,1)")
    ss = rs.distinguished_simple_system()
    assert labels(rs, ss.simple_roots) == ["d1"]
    assert labels(rs, ss.positive_roots) == ["d1", "2d1"]

    rs = build_root_system("gl(2|1)")
    ss = rs.distinguished_simple_system()
    assert labels(rs, ss.simple_roots) == ["e1-e2", "e2-d1"]
    assert labels(rs, ss.positive_roots) == ["e1-e2", "e2-d1", "e1-d1"]

    rs = build_root_system("C(2)")
    ss = rs.distinguished_simple_system()
    assert labels(rs, ss.simple_roots) == ["e1-d1", "2d1"]
    assert labels(rs, ss.positive_roots) == ["e1-d1", "2d1", "e1+d1"]


def test_positive_roots_height_sorted_with_integer_coefficients():
    for label in ["gl(2|2)", "B(1,1)", "C(3)", "D(2,1)", "F(4)", "G(3)"]:
        rs = build_root_system(label)
        ss = rs.distinguished_simple_system()
        assert len(ss.positive_roots) * 2 == len(rs.roots)
        heights = list(ss.heights)
        assert len(heights) == len(ss.positive_roots)
        assert heights == sorted(heights)
        assert all(type(h) is int and h >= 1 for h in heights)
        height = dict(zip(ss.positive_roots, heights))
        for d in ss.simple_roots:
            assert height[d] == 1


def test_rho_frozen_values():
    rs = build_root_system("gl(1|1)")
    ss = rs.distinguished_simple_system()
    beta = ss.simple_roots[0]
    assert values(ss.rho) == tuple(Fraction(-int(c), 2) for c in rs.roots[beta])

    ss = build_root_system("B(0,1)").distinguished_simple_system()
    assert values(ss.rho) == (Fraction(1, 2),)

    ss = build_root_system("gl(2|1)").distinguished_simple_system()
    # half sum of {e1-e2} minus half sum of {e1-d1, e2-d1}
    assert values(ss.rho) == (0, -1, 1)


# ---------------------------------------------------------------------------
# Classification and reflections
# ---------------------------------------------------------------------------


def test_classify_spec_examples():
    ss = build_root_system("gl(2|1)").distinguished_simple_system()
    kind, star = ss.classify(ss.simple_roots[0])
    assert kind == "type_i" and star == (ss.simple_roots[0],)
    kind, star = ss.classify(ss.simple_roots[1])
    assert kind == "type_ii" and star == (ss.simple_roots[1],)

    rs = build_root_system("B(0,1)")
    ss = rs.distinguished_simple_system()
    d = ss.simple_roots[0]
    kind, star = ss.classify(d)
    assert kind == "type_iii" and star == (d, rs.index("2d1"))

    with pytest.raises(ValueError):
        ss.classify(rs.index("2d1"))


def test_reflect_frozen_examples():
    # rank-1 gl: odd reflection flips the only simple root
    rs = build_root_system("gl(1|1)")
    ss = rs.distinguished_simple_system()
    new = ss.reflect(ss.simple_roots[0])
    assert labels(rs, new.simple_roots) == ["-e1+d1"]

    # gl(2|1): odd reflection at e2-d1 sends e1-e2 to e1-d1 and flips e2-d1
    rs = build_root_system("gl(2|1)")
    ss = rs.distinguished_simple_system()
    new = ss.reflect(ss.simple_roots[1])
    assert labels(rs, new.simple_roots) == ["e1-d1", "-e2+d1"]

    # osp(1|2): type-iii reflection through 2d1 negates d1
    rs = build_root_system("B(0,1)")
    ss = rs.distinguished_simple_system()
    new = ss.reflect(ss.simple_roots[0])
    assert labels(rs, new.simple_roots) == ["-d1"]


def test_reflect_requires_simple_root():
    rs = build_root_system("gl(2|1)")
    ss = rs.distinguished_simple_system()
    with pytest.raises(ValueError):
        ss.reflect(rs.index("e1-d1"))  # positive but not simple


def test_reflect_inverse_and_overlap_postconditions():
    for label in ["gl(2|1)", "B(0,1)", "B(1,1)", "C(2)", "G(3)", "D(2,1;a)", "F(4)"]:
        rs = root_system(label)
        for ss in rs.all_simple_systems():
            positives = frozenset(ss.positive_roots)
            for d in ss.simple_roots:
                _, star = ss.classify(d)
                new = ss.reflect(d)
                # -delta* became positive; overlap dropped by exactly |delta*|
                for ds in star:
                    assert new.is_positive(rs.neg[ds])
                overlap = len(frozenset(new.positive_roots) & positives)
                assert overlap == len(positives) - len(star)
                # reflecting back at -d restores the original positive system
                back = new.reflect(rs.neg[d])
                assert frozenset(back.positive_roots) == positives


def test_all_simple_systems_counts():
    assert len(build_root_system("gl(1|1)").all_simple_systems()) == 2
    assert len(build_root_system("B(0,1)").all_simple_systems()) == 2
    assert len(build_root_system("gl(2|1)").all_simple_systems()) == 6
    assert len(build_root_system("C(2)").all_simple_systems()) == 6
    assert len(build_root_system("B(1,1)").all_simple_systems()) == 8
    assert len(build_root_system("D(2,1;a)", alpha=Fraction(3)).all_simple_systems()) == 32
    assert len(build_root_system("G(3)").all_simple_systems()) == 96
    # 3! 3! C(6,3) = 720 and |W(B2)| |W(C2)| C(4,2) = 384; D(3,2) as the
    # Fraction closure counts it
    assert len(build_root_system("gl(3|3)").all_simple_systems()) == 720
    assert len(build_root_system("B(2,2)").all_simple_systems()) == 384
    assert len(build_root_system("D(3,2)").all_simple_systems()) == 2688


def test_gl21_simple_system_count_sign_oracle():
    """Independent count: positive systems of {a, b, a+b} = sign assignments.

    A positive system assigns a sign to each of the three root pairs such
    that sign(a) = sign(b) = s forces sign(a+b) = s; of the 8 assignments
    exactly the 2 with sign(a+b) opposing equal signs of a, b die.
    """
    valid = 0
    for sa, sb, sc in itertools.product((1, -1), repeat=3):
        if sa == sb and sc != sa:
            continue
        valid += 1
    assert valid == 6


def test_all_simple_systems_traversal_independent():
    rs = build_root_system("gl(2|1)")
    systems = rs.all_simple_systems()
    keysets = {frozenset(s.positive_roots) for s in systems}
    # restart the closure from a different system: same collection
    other = systems[3]
    seen = {frozenset(other.positive_roots)}
    queue = [other]
    while queue:
        ss = queue.pop()
        for d in ss.simple_roots:
            nxt = ss.reflect(d)
            if frozenset(nxt.positive_roots) not in seen:
                seen.add(frozenset(nxt.positive_roots))
                queue.append(nxt)
    assert seen == keysets


def test_odd_reflection_rho_shift():
    """For an isotropic odd simple root d: rho(r_d Pi) = rho(Pi) + d."""
    for label in ["gl(1|1)", "gl(2|1)", "C(2)", "B(1,1)", "G(3)", "D(2,1;a)", "F(4)"]:
        rs = root_system(label)
        shifts = 0
        for ss in rs.all_simple_systems():
            for d in ss.simple_roots:
                kind, _ = ss.classify(d)
                if kind != "type_ii":
                    continue
                new = ss.reflect(d)
                shifted = tuple(x + Fraction(int(c), rs.denominator)
                                for x, c in zip(values(ss.rho), rs.roots[d]))
                assert values(new.rho) == shifted, (label, rs.labels[d])
                shifts += 1
        assert shifts > 0, label


def test_odd_reflection_case_formula():
    """Cross-check the reflect implementation against the case-by-case rule."""
    rs = build_root_system("gl(2|1)")
    X = rs.roots
    for ss in rs.all_simple_systems():
        for d in ss.simple_roots:
            if ss.classify(d)[0] != "type_ii":
                continue
            new = ss.reflect(d)
            expected = []
            for b in ss.simple_roots:
                if b == d:
                    expected.append(-X[d])
                elif rs.gram[d, b] != 0:
                    expected.append(X[b] + X[d])
                else:
                    expected.append(X[b])
            assert np.array_equal(X[list(new.simple_roots)], expected)


# ---------------------------------------------------------------------------
# Prime validation
# ---------------------------------------------------------------------------


def test_validate_prime_table():
    build_root_system("gl(1|1)").validate_prime(3)
    build_root_system("sl(2|1)").validate_prime(3)
    with pytest.raises(ValueError):
        build_root_system("sl(1|1)").validate_prime(3)  # p | m-n = 0
    with pytest.raises(ValueError):
        build_root_system("sl(3|1)").validate_prime(2)
    with pytest.raises(ValueError):
        build_root_system("gl(1|1)").validate_prime(2)
    with pytest.raises(ValueError):
        build_root_system("G(3)").validate_prime(3)
    build_root_system("G(3)").validate_prime(5)
    with pytest.raises(ValueError):
        build_root_system("D(2,1;a)", alpha=Fraction(1)).validate_prime(3)
    build_root_system("F(4)").validate_prime(3)


# ---------------------------------------------------------------------------
# Phi' evaluation and cross-system proportionality
# ---------------------------------------------------------------------------


def test_fraction_to_field_codes():
    F = field_create(5)
    assert fraction_to_field(F, Fraction(1, 2)) == 3
    assert fraction_to_field(F, Fraction(-3, 4)) == 3  # -3/4 = 2/4 = 3
    assert fraction_to_field(field_create(5, 2), 7) == 2  # prime-field codes embed
    with pytest.raises(ValueError):
        fraction_to_field(F, Fraction(1, 10))


def test_phi_prime_eval_spec_examples():
    F = field_create(3, 2)
    ss = build_root_system("gl(1|1)").distinguished_simple_system()
    assert phi_prime_eval(ss, F, [0]) == 0
    assert phi_prime_eval(ss, F, [2]) == 2

    rs = build_root_system("B(0,1)")
    ss = rs.distinguished_simple_system()
    assert labels(rs, ss.positive_roots) == ["d1", "2d1"]  # d1 odd, 2d1 even
    x = 3  # the code of an element outside GF(3), so x^2 != 1
    y = 1
    val = phi_prime_eval(ss, F, [y, x])
    assert val == F.mul(F.sub(F.mul(x, x), 1), y) and val != 0

    # unit even pairing kills the product
    ss = build_root_system("gl(2|1)").distinguished_simple_system()
    pairing = [1] * len(ss.positive_roots)
    assert phi_prime_eval(ss, F, pairing) == 0


@pytest.mark.parametrize("label,p", [("gl(2|1)", 3), ("B(0,1)", 3), ("C(2)", 3), ("gl(1|1)", 5)])
def test_phi_prime_proportional_across_simple_systems(label, p):
    """phi' of two simple systems differ by one constant (in fact a sign)."""
    rs = build_root_system(label)
    ref = reference_root_system(label)
    F = field_create(p, 2)
    systems = rs.all_simple_systems()
    base = systems[0]
    rng = np.random.default_rng(2024)
    for other in systems[1:]:
        ratio = None
        for _ in range(50):
            lam_eps = random_codes(F, rng, rs.m).tolist()
            lam_delta = random_codes(F, rng, rs.n).tolist()
            v1 = phi_prime_eval(base, F, coroot_pairing(base, ref, F, lam_eps, lam_delta))
            v2 = phi_prime_eval(other, F, coroot_pairing(other, ref, F, lam_eps, lam_delta))
            assert (v1 == 0) == (v2 == 0)
            if v1 != 0:
                r = F.div(v2, v1)
                if ratio is None:
                    ratio = r
                assert r == ratio
        assert ratio is not None and ratio in (1, F.neg(1))


def test_coroot_pairing_normalization():
    # (lam | a) = 2 (lam, a) / (a, a) for non-isotropic a: check against a
    # hand computation in C(2) over GF(5)
    rs = build_root_system("C(2)")
    ss = rs.distinguished_simple_system()
    F = field_create(5)
    pairing = dict(zip(ss.positive_roots, coroot_pairing(ss, reference_root_system("C(2)"), F, [2], [3])))
    # (lam, 2d1) = 3 * 2 * (-1) = -6 = 4; (2d1,2d1) = -4; value = 2*4/(-4) = -2 = 3
    assert pairing[rs.index("2d1")] == 3
    # isotropic: (lam, e1-d1) = 2*1 + 3*(-1)*(-1) = 5 = 0
    assert pairing[rs.index("e1-d1")] == 0


# ---------------------------------------------------------------------------
# Labels and serialization
# ---------------------------------------------------------------------------


def test_parse_format_roundtrip():
    for label, type_label in [("e1-d1", "gl(2|2)"), ("2d1", "B(0,1)"), ("-e2+d2", "gl(2|2)"),
                              ("d1", "B(1,1)")]:
        rs = build_root_system(type_label)
        assert rs.labels[rs.index(label)] == label
    # every integer label maps back to its root, in units of any denominator
    for type_label in ["gl(2|2)", "B(0,1)", "B(1,1)", "F(4)", "G(3)", "D(2,1;a)"]:
        rs = build_root_system(type_label)
        whole = [i for i, label in enumerate(rs.labels) if not label.startswith("(")]
        assert whole and [rs.index(rs.labels[i]) for i in whole] == whole
    rs = build_root_system("gl(2|1)")
    with pytest.raises(ValueError, match="index out of range"):
        rs.index("e9")
    with pytest.raises(ValueError, match="cannot parse"):
        rs.index("x1+e1")
    with pytest.raises(ValueError, match="not a root"):
        rs.index("2e1")


def test_f4_simple_system_count():
    # Weyl group of so(7) x sl(2) has order 96; six diagram classes
    assert len(build_root_system("F(4)").all_simple_systems()) == 576


# ---------------------------------------------------------------------------
# Integer root data against the Fraction reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label,alpha", [
    (label, None) for label in ["B(1,1)", "B(2,1)", "C(2)", "C(3)", "D(2,1)", "F(4)", "G(3)",
                                "gl(1|1)", "gl(2|1)", "gl(2|2)", "sl(2|1)", "B(0,1)"]
] + [("D(2,1;a)", alpha) for alpha in (1, 3, Fraction(1, 2), Fraction(-2, 3))])
def test_root_data_matches_fraction_reference(label, alpha):
    """The same roots in the same order with the same parities and labels,
    and an integer Gram matrix that is one positive multiple of the form."""
    rs = build_root_system(label, alpha=alpha)
    ref = reference_root_system(label, alpha=alpha)
    assert [as_weight(rs, row) for row in rs.roots] == list(ref.all_roots)
    assert rs.parities == (0,) * len(ref.even_roots) + (1,) * len(ref.odd_roots)
    assert list(rs.labels) == [format_weight(r) for r in ref.all_roots]
    ratios = set()
    for i, a in enumerate(ref.all_roots):
        for j, b in enumerate(ref.all_roots):
            form = ref.form(a, b)
            assert (rs.gram[i, j] == 0) == (form == 0)
            if form:
                ratios.add(Fraction(int(rs.gram[i, j])) / form)
    if label == "gl(1|1)":  # the form vanishes on every pair of its two roots
        assert not ratios
    else:
        (ratio,) = ratios
        assert ratio > 0
    distinguished = rs.distinguished_simple_system().simple_roots
    assert [ref.all_roots[i] for i in distinguished] == list(ref.distinguished)


# ---------------------------------------------------------------------------
# Index-based simple systems against the Fraction reference
# ---------------------------------------------------------------------------


def assert_same_system(ss, ref):
    roots = ref.rs.all_roots  # root i of ss.rs is roots[i]
    assert tuple(roots[i] for i in ss.simple_roots) == ref.simple_roots
    assert tuple(roots[i] for i in ss.positive_roots) == ref.positive_roots
    assert list(ss.heights) == [ref.height(roots[i]) for i in ss.positive_roots]
    assert values(ss.rho) == ref.rho.coords()


def reference_for(label):
    """The Fraction root system of ``root_system(label)``."""
    return reference_root_system(label, alpha=Fraction(3) if label == "D(2,1;a)" else None)


@pytest.mark.parametrize("label", ["gl(1|1)", "gl(2|1)", "gl(2|2)", "sl(2|1)", "B(0,1)",
                                   "B(1,1)", "C(2)", "C(3)", "D(2,1)", "D(2,1;a)", "G(3)"])
def test_simple_systems_match_reference_closure(label):
    """The same systems in the same order, with the same simple roots,
    positive roots, heights and rho."""
    rs = root_system(label)
    systems = rs.all_simple_systems()
    reference = reference_simple_systems(reference_for(label))
    assert len(systems) == len(reference)
    for ss, ref in zip(systems, reference):
        assert_same_system(ss, ref)


def test_f4_simple_systems_match_reference_constructor():
    """Every 23rd of the 576 systems of F(4) against the Fraction constructor,
    and each of its reflections against the reference reflection."""
    rs = build_root_system("F(4)")
    roots = reference_for("F(4)").all_roots
    systems = rs.all_simple_systems()
    for ss in systems[::23]:
        ref = ReferenceSimpleSystem(reference_for("F(4)"), [roots[i] for i in ss.simple_roots])
        assert_same_system(ss, ref)
        for d in ss.simple_roots:
            assert_same_system(ss.reflect(d), ref.reflect(roots[d]))


def test_simple_system_rejects_a_non_basis():
    rs = build_root_system("gl(2|1)")
    with pytest.raises(ValueError, match="not a root"):
        SimpleSystem(rs, [rs.index("e1-e2"), rs.index("2e2-2d1")])
    with pytest.raises(ValueError, match="linearly dependent"):
        SimpleSystem(rs, [rs.index("e1-e2"), rs.index("-e1+e2")])
    with pytest.raises(ValueError, match="integer combination"):
        SimpleSystem(rs, [rs.index("e1-e2")])
    # e2-d1 = (e1-d1) - (e1-e2) has coordinates of both signs
    with pytest.raises(ValueError, match="neither positive nor negative"):
        SimpleSystem(rs, [rs.index("e1-e2"), rs.index("e1-d1")])


def test_corrupt_reflection_table_raises_invariant_violation():
    rs = gl21_with_corrupt_reflection()
    with pytest.raises(InvariantViolation):
        rs.all_simple_systems()
    ss = rs.distinguished_simple_system()
    with pytest.raises(InvariantViolation):
        ss.reflect(ss.simple_roots[0])
    # an untouched reflection still passes
    assert ss.reflect(ss.simple_roots[1]).simple_roots == (rs.index("e1-d1"), rs.index("-e2+d1"))


def test_reflection_tables_are_lazy():
    """Building a root system and its distinguished system, or an algebra on
    it, does not build the reflection tables; the first reflection does."""
    assert "_reflections" not in vars(build_algebra("gl(2|1)", field_create(5)).rs)
    rs = build_root_system("gl(2|1)")
    ss = rs.distinguished_simple_system()
    assert "_reflections" not in vars(rs)
    ss.reflect(ss.simple_roots[0])
    assert "_reflections" in vars(rs)
