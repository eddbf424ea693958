import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit.embedding import EmbeddingMap, differing_bits, embed_points, sample_map
from onebit.geometry import (
    DimensionMismatchError,
    PointSet,
    PointSetParseError,
    UnitVector,
    geodesic_distance,
    orthonormal_set,
    read_point_set,
    write_point_set,
)


def unit(*comps) -> UnitVector:
    return UnitVector(np.array(comps, dtype=float))


def basis(i: int, dim: int) -> UnitVector:
    v = np.zeros(dim)
    v[i] = 1.0
    return UnitVector(v)


def separated(x: UnitVector, y: UnitVector, theta: UnitVector) -> bool:
    """Does the one-direction map {theta} give x and y different bits?"""
    codes = embed_points(EmbeddingMap(theta.components[None, :], seed=0), PointSet.from_vectors([x, y]))
    return bool(next(differing_bits(codes))[0])


class TestUnitVector:
    def test_rejects_non_unit_norm(self):
        with pytest.raises(ValueError, match="norm"):
            unit(1.0, 1.0)

    def test_rejects_dim_one(self):
        with pytest.raises(ValueError, match="dimension"):
            UnitVector(np.array([1.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            unit(math.nan, 0.0)

    def test_components_read_only(self):
        v = basis(0, 3)
        with pytest.raises(ValueError):
            v.components[0] = 0.5

    def test_negation(self):
        v = unit(0.6, 0.8)
        w = -v
        assert w.components[0] == -0.6 and w.components[1] == -0.8

    def test_dot_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            basis(0, 3).dot(basis(0, 4))


class TestPointSet:
    def test_from_vectors_and_accessors(self):
        ps = PointSet.from_vectors([basis(0, 3), basis(1, 3)])
        assert ps.n == 2 and ps.dim == 3 and len(ps) == 2
        assert ps.point(1).components[1] == 1.0

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionMismatchError):
            PointSet.from_vectors([basis(0, 3), basis(0, 4)])

    def test_non_unit_row_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            PointSet(np.array([[1.0, 0.0], [0.5, 0.0]]))


class TestSampleDirection:
    """The directions of sample_map are uniform on the sphere."""

    def test_unit_norm(self):
        for dim in (2, 3, 50):
            v = UnitVector(sample_map(1, dim, seed=1).directions[0])
            assert abs(np.linalg.norm(v.components) - 1.0) <= 1e-9
            assert v.dim == dim

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            sample_map(1, 1, seed=0)

    def test_coordinate_means_and_sign_fair_dim50(self):
        # Rotational invariance: each coordinate has mean 0 (variance 1/dim),
        # and the first-coordinate sign is a fair coin.
        trials = 100_000
        dim = 50
        rows = sample_map(trials, dim, seed=7).directions
        acc = rows.sum(axis=0)
        positive = int(np.count_nonzero(rows[:, 0] >= 0))
        means = acc / trials
        se = math.sqrt(1.0 / dim / trials)
        assert np.all(np.abs(means) <= 4.0 * se)
        sign_se = math.sqrt(0.25 / trials)
        assert abs(positive / trials - 0.5) <= 4.0 * sign_se

    def test_positive_first_coordinate_dim2(self):
        trials = 100_000
        positive = int(np.count_nonzero(sample_map(trials, 2, seed=13).directions[:, 0] > 0))
        assert abs(positive / trials - 0.5) <= 4.0 * math.sqrt(0.25 / trials)


class TestGeodesicDistance:
    def test_identical_points(self):
        v = unit(0.6, 0.8)
        assert geodesic_distance(v, v) == 0.0

    def test_orthogonal_is_half(self):
        assert geodesic_distance(basis(0, 3), basis(1, 3)) == pytest.approx(0.5, abs=1e-15)

    def test_dot_half_is_third(self):
        x = unit(1.0, 0.0)
        y = unit(0.5, math.sqrt(3.0) / 2.0)
        assert geodesic_distance(x, y) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_antipodal_is_one(self):
        v = unit(0.6, 0.8)
        assert geodesic_distance(v, -v) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            geodesic_distance(basis(0, 3), basis(0, 4))

    @pytest.mark.parametrize("dim", [2, 3, 50])
    def test_metric_axioms_on_random_triples(self, dim):
        rng = np.random.default_rng(100 + dim)
        trials = 10_000
        raw = rng.standard_normal((3 * trials, dim))
        raw /= np.linalg.norm(raw, axis=1)[:, None]
        pts = [UnitVector(row) for row in raw]
        for t in range(trials):
            x, y, z = pts[3 * t], pts[3 * t + 1], pts[3 * t + 2]
            dxy = geodesic_distance(x, y)
            dyz = geodesic_distance(y, z)
            dxz = geodesic_distance(x, z)
            assert 0.0 <= dxy <= 1.0
            assert abs(dxy - geodesic_distance(y, x)) <= 1e-12
            # The self-dot of a float64 unit vector rounds to 1 - O(ulp), and
            # arccos amplifies that to sqrt(2 ulp)/pi ~ 1e-8; that is the
            # attainable floor for the self-distance in double precision.
            assert geodesic_distance(x, x) <= 5e-8
            assert dxz <= dxy + dyz + 1e-12


class TestInWedge:
    """A direction separates two points exactly when their one-bit codes differ in its bit."""

    def test_separating_direction(self):
        x, y = basis(0, 3), basis(1, 3)
        theta = unit(1.0 / math.sqrt(2), -1.0 / math.sqrt(2), 0.0)
        assert separated(x, y, theta) is True

    def test_direction_equal_to_both(self):
        v = unit(0.6, 0.8)
        assert separated(v, v, v) is False

    def test_sign_convention_at_zero(self):
        # x.theta == 0 counts as +1, same as y.theta > 0: not separated.
        x, y, theta = basis(0, 3), basis(1, 3), basis(1, 3)
        assert x.dot(theta) == 0.0
        assert separated(x, y, theta) is False

    @pytest.mark.parametrize(
        "make_pair,exact",
        [
            (lambda: (basis(0, 50), basis(1, 50)), 0.5),
            (lambda: (basis(0, 50), unit(*([1 / math.sqrt(2), 1 / math.sqrt(2)] + [0.0] * 48))), 0.25),
        ],
    )
    def test_crofton_fraction_matches_geodesic(self, make_pair, exact):
        # The fraction of separating directions of a random map estimates the
        # geodesic distance; the oracle is the arccos formula.
        x, y = make_pair()
        assert geodesic_distance(x, y) == pytest.approx(exact, abs=1e-12)
        trials = 100_000
        codes = embed_points(sample_map(trials, 50, seed=29), PointSet.from_vectors([x, y]))
        hits = int(next(differing_bits(codes))[0])
        tol = 4.0 * math.sqrt(exact * (1.0 - exact) / trials)
        assert abs(hits / trials - exact) <= tol


class TestOrthonormalSet:
    def test_standard_basis(self):
        ps = orthonormal_set(3, 5)
        assert ps.n == 3 and ps.dim == 5
        gram = ps.matrix @ ps.matrix.T
        assert np.allclose(gram, np.eye(3))

    def test_two_in_two_distance_half(self):
        ps = orthonormal_set(2, 2)
        assert geodesic_distance(ps.point(0), ps.point(1)) == pytest.approx(0.5, abs=1e-15)

    def test_too_many_points(self):
        with pytest.raises(ValueError):
            orthonormal_set(6, 5)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            orthonormal_set(1, 5)


class TestReadPointSet:
    def test_basic_rows(self):
        ps = read_point_set(io.BytesIO(b"1,0,0\n0,1,0\n"), normalize=False)
        assert ps.n == 2
        assert np.allclose(ps.matrix, np.eye(2, 3))

    def test_normalize_rescales(self):
        ps = read_point_set(io.StringIO("2,0\n"), normalize=True)
        assert np.allclose(ps.matrix, [[1.0, 0.0]])

    def test_zero_norm_under_normalize(self):
        with pytest.raises(PointSetParseError, match="row 1"):
            read_point_set(io.StringIO("0,0,0\n"), normalize=True)

    def test_ragged_rows_named(self):
        with pytest.raises(PointSetParseError, match="row 2"):
            read_point_set(io.StringIO("1,0,0\n0,1\n"))

    def test_non_unit_row_without_normalize(self):
        with pytest.raises(PointSetParseError, match="row 2"):
            read_point_set(io.StringIO("1,0\n0.5,0.5\n"))

    def test_unparseable_component(self):
        with pytest.raises(PointSetParseError, match="row 1"):
            read_point_set(io.StringIO("1,zebra\n"))

    def test_single_component_row(self):
        with pytest.raises(PointSetParseError, match="at least 2"):
            read_point_set(io.StringIO("1\n"))

    def test_empty_file(self):
        with pytest.raises(PointSetParseError, match="empty"):
            read_point_set(io.StringIO(""))

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((5, 4))
        raw /= np.linalg.norm(raw, axis=1)[:, None]
        path = tmp_path / "pts.csv"
        write_point_set(PointSet(raw), path)
        back = read_point_set(path)
        assert np.array_equal(back.matrix, raw)


@given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([2, 3, 7, 50]))
@settings(max_examples=40)
def test_geodesic_range_and_symmetry_random(seed, dim):
    x, y = (UnitVector(row) for row in sample_map(2, dim, seed).directions)
    d = geodesic_distance(x, y)
    assert 0.0 <= d <= 1.0
    assert geodesic_distance(y, x) == d
