"""Character tables, Fourier transforms, positive definiteness, and duals."""

import itertools

import numpy as np
import pytest

from character_oracle import scheme_eigenvector_residual
from hypergroups import catalog, harmonic
from hypergroups.catalog import cyclic_scheme
from hypergroups.errors import DegenerateSplitFailure, DualNotPositive, NotCommutative
from hypergroups.harmonic import (
    SEED,
    CharacterTable,
    character_table,
    dual_convolution,
    dual_hypergroup,
    fourier,
    is_positive_definite,
    orthogonality_residual,
)
from hypergroups.hypergroup import hypergroup_from_scheme, make_hypergroup, verify_hypergroup
from hypergroups.schemes import build_scheme, scheme_from_distance_regular_graph

COS72 = (np.sqrt(5) - 1) / 4  # = cos(2 pi / 5)
COS144 = -(np.sqrt(5) + 1) / 4


def test_pentagon_characters_pinned(pentagon):
    h = hypergroup_from_scheme(pentagon)
    tbl = character_table(h)
    assert tbl.residual <= 1e-8
    vals = sorted(tbl.chars[:, 1].real)
    np.testing.assert_allclose(vals, [COS144, COS72, 1.0], rtol=0, atol=1e-12)
    # second coordinate is determined: a(2) = 2 a(1)^2 - 1
    for row in tbl.chars:
        assert row[2].real == pytest.approx(2 * row[1].real ** 2 - 1, abs=1e-12)
        assert np.abs(row.imag).max() < 1e-12
    np.testing.assert_allclose(sorted(tbl.plancherel), [0.2, 0.4, 0.4],
                               rtol=0, atol=1e-11)
    assert tbl.positive_index == 0
    np.testing.assert_allclose(tbl.chars[0].real, 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(tbl.haar, [1.0, 2.0, 2.0], rtol=0, atol=0)


def test_cyclic_characters_are_roots_of_unity(z4):
    tbl = character_table(hypergroup_from_scheme(z4))
    expected = {tuple(np.round([1j ** (j * k) for k in range(4)], 9)) for j in range(4)}
    got = {tuple(np.round(row, 9)) for row in tbl.chars}
    assert got == expected
    np.testing.assert_allclose(tbl.plancherel, 0.25, rtol=0, atol=1e-12)
    # gap[a, b]: how far chi_b lies from the complex conjugate of chi_a
    gap = np.abs(tbl.chars[None, :] - np.conjugate(tbl.chars)[:, None]).max(axis=2)
    assert np.argwhere(gap <= 1e-8).tolist() == [[0, 0], [1, 2], [2, 1], [3, 3]]


def test_character_table_quality_all_fixtures(commutative_schemes):
    for name, s in commutative_schemes.items():
        h = hypergroup_from_scheme(s)
        tbl = character_table(h)
        assert tbl.chars.shape == (h.n_classes, h.n_classes), name
        assert tbl.residual <= 1e-8, name
        assert orthogonality_residual(tbl) <= 1e-7, name
        assert tbl.plancherel.sum() == pytest.approx(1.0, abs=1e-10), name
        assert (tbl.plancherel > 0).all(), name
        # exactly one strictly positive character, first in table order
        pos = [r for r in range(h.n_classes)
               if tbl.chars[r].real.min() > 1e-10
               and np.abs(tbl.chars[r].imag).max() < 1e-10]
        assert pos == [tbl.positive_index], name
        assert scheme_eigenvector_residual(s, tbl) <= 1e-7, name
        # characters are bounded by their value at the identity
        assert np.abs(tbl.chars).max() <= 1.0 + 1e-10, name


def test_character_table_deterministic_across_calls(petersen):
    h = hypergroup_from_scheme(petersen)
    t1 = character_table(h)
    t2 = character_table(h)
    np.testing.assert_array_equal(t1.chars, t2.chars)
    np.testing.assert_array_equal(t1.plancherel, t2.plancherel)


def per_row_characters(h, seed):
    """The characters built one row at a time, the reference: each
    eigenvector normalized through its own QR call and divided by its value at
    the identity, then sorted by the tuples (-re_0, -im_0, -re_1, ...) of its
    1e-9-rounded values, against the stacked normalization and the lexsort."""
    mu = np.random.default_rng(seed).uniform(0.5, 1.5, size=h.n_classes)
    V = np.linalg.eig(np.tensordot(mu, h.conv_float.astype(complex), axes=([0], [0])))[1]
    rows = []
    for r in range(h.n_classes):
        v = np.linalg.qr(V[:, [r]])[0][:, 0]
        rows.append(v / v[h.identity])

    def sort_key(row):
        re, im = np.round(row.real, 9), np.round(row.imag, 9)
        return tuple(x for pair in zip(-re, -im) for x in pair)

    return np.array(sorted(rows, key=sort_key))


@pytest.mark.parametrize("orders", [(12,), (2, 6)], ids=["Z12", "Z2xZ6"])
@pytest.mark.parametrize("seed", [SEED, 1])
def test_character_rows_match_the_per_row_reference_bitwise(orders, seed):
    elements = list(itertools.product(*map(range, orders)))
    s = build_scheme(elements, elements,
                     lambda x, y: tuple((b - a) % m for a, b, m in zip(x, y, orders)))
    h = hypergroup_from_scheme(s)
    tbl, want = character_table(h, seed=seed), per_row_characters(h, seed)
    assert tbl.chars.tobytes() == want.tobytes()
    # some neighbouring rows first differ in an imaginary part: a tie on a real part
    keys = np.stack((tbl.chars.real, tbl.chars.imag), axis=2).round(9).reshape(len(want), -1)
    assert any(np.argmax(keys[r] != keys[r + 1]) % 2 for r in range(len(keys) - 1))


def test_noncommutative_rejected(s3_regular):
    with pytest.raises(NotCommutative):
        character_table(hypergroup_from_scheme(s3_regular))


def test_absurd_cluster_gap_fails_loudly(pentagon, monkeypatch):
    """No draw clears this gap: the first close eigenvalue pair is the witness,
    and the one-line message names the seed that another one would replace."""
    monkeypatch.setattr(harmonic, "CLUSTER_GAP", 10.0)
    for seed in (7, 0xC0FFEE):
        with pytest.raises(DegenerateSplitFailure) as failure:
            character_table(hypergroup_from_scheme(pentagon), seed=seed)
        assert failure.value.witness == (0, 1)
        assert f"seed {seed} " in str(failure.value) and "\n" not in str(failure.value)


def _two_class_table(square):
    """The character table of classes e, g with g * g = square[0] e + square[1] g."""
    conv = np.zeros((2, 2, 2))
    conv[0] = conv[:, 0] = np.eye(2)
    conv[1, 1] = square
    return character_table(make_hypergroup((0, 1), conv))


@pytest.mark.parametrize("square, count, witness", [
    ([-0.5, 1.5], 2, [0, 1]),  # chi(g) = 1 and 0.5, the roots of x^2 = 1.5 x - 0.5
    ([-2.0, -3.0], 0, []),     # chi(g) = -1 and -2: no positive character
], ids=["two", "none"])
def test_a_table_needs_exactly_one_positive_character(square, count, witness):
    with pytest.raises(DegenerateSplitFailure) as failure:
        _two_class_table(square)
    assert str(failure.value) == (
        f"{count} strictly positive characters found, expected exactly one")
    assert failure.value.witness == witness


def test_eigenvectors_of_a_nonassociative_tensor_are_no_characters():
    conv = np.zeros((3, 3, 3))
    conv[0] = conv[:, 0] = np.eye(3)
    conv[1, 1] = [0.5, 0.5, 0.0]
    conv[1, 2] = conv[2, 1] = [0.0, 0.3, 0.7]
    conv[2, 2] = [0.4, 0.2, 0.4]
    with pytest.raises(DegenerateSplitFailure,
                       match=r"^multiplicativity residual \S+ exceeds 1\.0e-08$"):
        character_table(make_hypergroup((0, 1, 2), conv))


@pytest.mark.parametrize("seed", [1, 2])
def test_an_overflowing_combination_names_its_seed(seed):
    """With x * y = y * y = 1e308 x + ..., entry (y, x) of T = sum_i mu_i M_i is
    (mu_x + mu_y) 1e308, past float64 for the draws of seeds 1 and 2."""
    conv = np.zeros((3, 3, 3))
    conv[0] = conv[:, 0] = np.eye(3)
    conv[1, 1, 0] = conv[2, 2, 0] = 1.0
    conv[1, 2, 1] = conv[2, 1, 1] = conv[2, 2, 1] = 1e308
    with pytest.raises(DegenerateSplitFailure) as failure:
        character_table(make_hypergroup((0, 1, 2), conv), seed=seed)
    assert str(failure.value) == (
        f"the combination drawn with seed {seed} overflows float64; redraw with another seed")


def test_fourier_roundtrip_and_parseval(commutative_schemes, rng):
    for name, s in commutative_schemes.items():
        h = hypergroup_from_scheme(s)
        tbl = character_table(h)
        f = rng.standard_normal(h.n_classes) + 1j * rng.standard_normal(h.n_classes)
        fhat = fourier(tbl, f)
        # inversion: f(i) = sum_a plancherel(a) fhat(a) a(i)
        np.testing.assert_allclose((tbl.plancherel * fhat) @ tbl.chars, f,
                                   rtol=0, atol=1e-9, err_msg=name)
        lhs = float((tbl.haar * np.abs(f) ** 2).sum())
        rhs = float((tbl.plancherel * np.abs(fhat) ** 2).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10), name


def test_characters_are_positive_definite(commutative_schemes):
    for name, s in commutative_schemes.items():
        h = hypergroup_from_scheme(s)
        tbl = character_table(h)
        for a in range(h.n_classes):
            ok, cert = is_positive_definite(h, tbl.chars[a], tbl=tbl)
            assert ok, (name, a, cert)
            assert cert["bochner_positive"], (name, a, cert)


def test_sign_flip_not_positive_definite(pentagon):
    h = hypergroup_from_scheme(pentagon)
    tbl = character_table(h)
    ok, cert = is_positive_definite(h, np.array([1.0, -1.0, 1.0]), tbl=tbl)
    assert not ok
    assert not cert["bochner_positive"]
    assert cert["min_eigenvalue"] < -1e-3
    assert cert["fourier_min"] < -1e-3


def test_matrix_and_fourier_verdicts_agree(commutative_schemes, rng):
    """Random involution-symmetric functions: the two positivity routes
    must give the same answer away from the decision boundary."""
    for name, s in commutative_schemes.items():
        h = hypergroup_from_scheme(s)
        tbl = character_table(h)
        d = h.n_classes
        for _ in range(200):
            f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            f = (f + np.conjugate(f[h.involution])) / 2  # hermitian symmetry
            ok, cert = is_positive_definite(h, f, tbl=tbl)
            if min(abs(cert["min_eigenvalue"]), abs(cert["fourier_min"])) < 1e-8:
                continue
            assert ok == cert["bochner_positive"], (name, cert)


def test_dual_convolution_pentagon_pinned(pentagon):
    h = hypergroup_from_scheme(pentagon)
    tbl = character_table(h)
    # chi1 chi1 = 1/2 chi0 + 1/2 chi2 in table order (0 trivial, 1, 2)
    rows = sorted(range(3), key=lambda r: -tbl.chars[r, 1].real)
    one = rows[1]  # character with a(1) = cos 72
    two = rows[2]
    dm = dual_convolution(h, tbl, one, one)
    expected = np.zeros(3)
    expected[tbl.positive_index] = 0.5
    expected[two] = 0.5
    np.testing.assert_allclose(dm.raw.real, expected, rtol=0, atol=1e-11)
    assert dm.max_abs_imag <= 1e-12
    assert dm.positive
    np.testing.assert_allclose(dm.weights, expected, rtol=0, atol=1e-11)


def test_dual_convolution_structure(commutative_schemes):
    for name, s in commutative_schemes.items():
        h = hypergroup_from_scheme(s)
        tbl = character_table(h)
        m = h.n_classes
        for a in range(m):
            for b in range(m):
                dm = dual_convolution(h, tbl, a, b)
                assert dm.positive, (name, a, b, dm.min_raw_real)
                assert dm.sum_raw.real == pytest.approx(1.0, abs=1e-10), (name, a, b)
                assert abs(dm.sum_raw.imag) <= 1e-10
                assert dm.weights.sum() == pytest.approx(1.0, abs=1e-12)
                # mass at the trivial character detects orthogonality:
                # nonzero only when b is the conjugate of a
                triv = dm.raw.real[tbl.positive_index]
                if np.abs(tbl.chars[b] - np.conjugate(tbl.chars[a])).max() <= 1e-8:
                    assert triv > 1e-3, (name, a, b)
                else:
                    assert abs(triv) <= 1e-10, (name, a, b)


def test_dual_hypergroup_verifies(commutative_schemes):
    for name, s in commutative_schemes.items():
        h = hypergroup_from_scheme(s)
        tbl = character_table(h)
        dual = dual_hypergroup(h, tbl)
        rep = verify_hypergroup(dual, tol=1e-9)
        assert rep["all_hold"], (name, rep)
        assert dual.identity == tbl.positive_index, name


def test_cyclic_dual_is_the_group_again(z4):
    h = hypergroup_from_scheme(z4)
    dual = dual_hypergroup(h, character_table(h))
    conv = np.real(dual.conv)
    # a group table: every product is a point mass
    assert conv.max() == pytest.approx(1.0, abs=1e-10)
    mass = conv.round(6).astype(bool).sum(axis=2)
    np.testing.assert_array_equal(mass, 1)


def test_dual_of_dual_is_isomorphic_to_original(pentagon):
    h = hypergroup_from_scheme(pentagon)
    tbl = character_table(h)
    dd = dual_hypergroup(dual_hypergroup(h, tbl), character_table(dual_hypergroup(h, tbl)))
    base = h.conv_float
    cand = np.real(dd.conv)
    d = h.n_classes
    assert any(
        np.abs(cand[np.ix_(p, p, p)] - base).max() < 1e-8
        for p in (list(q) for q in itertools.permutations(range(d)))
        if p[h.identity] == dd.identity
    )


# A 3-class commutative structure whose character products leave the cone
# of positive measures: built spectrally (rows below are the characters,
# weights make them orthogonal), which guarantees associativity, while the
# primal convolution stays nonnegative and the dual one does not.
NEG_DUAL_CHARS = np.array([
    [1.0, 1.0, 1.0],
    [1.0, 0.4515356339101362, -0.7228151681653499],
    [1.0, -0.15750419611221544, 0.06484801858483283],
])
NEG_DUAL_WEIGHTS = np.array([1.0, 9.314267567317367, 7.202012270481875])


def _negative_dual_hypergroup():
    C, w = NEG_DUAL_CHARS, NEG_DUAL_WEIGHTS
    pi = 1.0 / ((C ** 2) @ w)
    conv = np.einsum("g,gi,gj,gk->ijk", pi, C, C, C) * w[None, None, :]
    return make_hypergroup((0, 1, 2), np.maximum(conv, 0.0), tol=1e-9)


def test_negative_dual_example_is_a_hypergroup():
    h = _negative_dual_hypergroup()
    rep = verify_hypergroup(h, tol=1e-9)
    assert rep["all_hold"], rep


def test_negative_dual_detected():
    h = _negative_dual_hypergroup()
    tbl = character_table(h)
    mins = [dual_convolution(h, tbl, a, b).min_raw_real
            for a in range(3) for b in range(3)]
    assert min(mins) < -0.1
    with pytest.raises(DualNotPositive) as exc:
        dual_hypergroup(h, tbl)
    assert exc.value.witness is not None


def test_dual_convolution_without_positive_mass():
    """A product whose coefficients are all nonpositive has no mass to
    renormalize: DualNotPositive with the (a, b, argmin) witness, not nan."""
    h = hypergroup_from_scheme(cyclic_scheme(2))
    chars = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    tbl = CharacterTable(classes=h.classes, chars=chars, plancherel=np.array([-0.5, -0.25]),
                         haar=np.array([1.0, 1.0]), positive_index=0, residual=0.0)
    with pytest.raises(DualNotPositive) as exc:
        dual_convolution(h, tbl, 0, 1)
    assert exc.value.witness == (0, 1, 1)


def _per_pair_raw(tbl, a, b):
    """Raw coefficients of one pair by the formula the batched table replaced."""
    return tbl.plancherel * (np.conjugate(tbl.chars) @ (tbl.haar * (tbl.chars[a] * tbl.chars[b])))


def _per_pair_dual(tbl, a, b, tol=1e-9):
    """Every DualMeasure field of one pair, computed for that pair alone."""
    raw = _per_pair_raw(tbl, a, b)
    re = raw.real
    min_re = float(re.min())
    weights = np.where(re > 0.0, re, 0.0)
    return (raw, weights / weights.sum(), min_re, float(np.abs(raw.imag).max()),
            complex(raw.sum()), min_re >= -tol, bool((re < 0.0).any() and min_re >= -tol))


def _hamming_4_2():
    digits = (np.arange(16)[:, None] >> np.arange(4)) & 1
    adjacency = ((digits[:, None, :] != digits[None, :, :]).sum(-1) == 1).astype(np.int64)
    return scheme_from_distance_regular_graph(adjacency)


DUAL_FIXTURES = {
    "pentagon": catalog.pentagon_scheme, "k4": catalog.k4_scheme,
    "petersen": catalog.petersen_scheme, "s3_mod_h": catalog.s3_mod_transposition,
    "s4_mod_s3": catalog.s4_mod_s3, "H(4,2)": _hamming_4_2,
    **{f"Z{n}": (lambda n=n: cyclic_scheme(n)) for n in range(1, 25)},
}


@pytest.mark.parametrize("name", DUAL_FIXTURES)
def test_dual_measure_matches_per_pair_formula_bitwise(name):
    h = hypergroup_from_scheme(DUAL_FIXTURES[name]())
    tbl = character_table(h)
    fields = ("raw", "weights", "min_raw_real", "max_abs_imag", "sum_raw", "positive", "clamped")
    for a in range(tbl.n_characters):
        for b in range(tbl.n_characters):
            dm = dual_convolution(h, tbl, a, b)
            for field, want in zip(fields, _per_pair_dual(tbl, a, b)):
                got = getattr(dm, field)
                assert type(got) is type(want), (name, a, b, field)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (name, a, b, field)


def test_dual_arrays_are_read_only(pentagon):
    h = hypergroup_from_scheme(pentagon)
    tbl = character_table(h)
    dm = dual_convolution(h, tbl, 1, 2)
    for array in (dm.raw, dm.weights, *vars(tbl.duals).values()):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        dm.weights[0] = 1.0
    assert dual_convolution(h, tbl, 1, 2).weights.tobytes() == dm.weights.tobytes()


def _first_dual_failure(tbl, tol=1e-9):
    """Message and witness of the first pair a <= b that a per-pair scan rejects."""
    m = tbl.n_characters
    for a in range(m):
        for b in range(a, m):
            re = _per_pair_raw(tbl, a, b).real
            g = int(re.argmin())
            if not np.where(re > 0.0, re, 0.0).sum() > 0.0:
                return (f"(chi{a} chi{b}) has no positive coefficient; the lowest is "
                        f"{re.min():.6e} at chi{g}"), (a, b, g)
            if not re.min() >= -tol:
                return f"(chi{a} chi{b}) has coefficient {re.min():.6e} at chi{g}", (a, b, g)
    return None


@pytest.mark.parametrize("chars, plancherel, kind", [
    # (0, 2) has no mass; (1, 1) has a negative coefficient and (1, 2) no mass later
    ([[1, 1, 1], [1, 1, -2], [1, -2, 0]], [0.5, 0.25, -0.5], "no positive coefficient"),
    # (0, 1) has a negative coefficient; (1, 2) has no mass later
    ([[1, 1, 1], [1, 2, -1], [1, -1, 2]], [0.5, 1.0, 0.25], "has coefficient"),
])
def test_dual_hypergroup_names_the_first_failing_pair(chars, plancherel, kind):
    h = hypergroup_from_scheme(cyclic_scheme(3))
    tbl = CharacterTable(classes=h.classes, chars=np.array(chars, dtype=complex),
                         plancherel=np.array(plancherel), haar=np.ones(3),
                         positive_index=0, residual=0.0)
    message, witness = _first_dual_failure(tbl)
    assert kind in message and witness[:2] != (0, 0)
    with pytest.raises(DualNotPositive) as exc:
        dual_hypergroup(h, tbl)
    assert str(exc.value) == message
    assert exc.value.witness == witness
