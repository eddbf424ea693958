import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit.embedding import embed_points, pair_stream, sample_map
from onebit.geometry import PointSet, geodesic_matrix, read_point_set
from reference import code_set, usage_error


def unit(*comps) -> np.ndarray:
    return np.array(comps, dtype=float)


def basis(i: int, dim: int) -> np.ndarray:
    return np.eye(dim)[i]


def geodesic(x: np.ndarray, y: np.ndarray) -> float:
    """geodesic_matrix's distance between the two points of the set {x, y}."""
    return float(geodesic_matrix(PointSet([x, y]), 0, 2)[0, 1])


def separated(x: np.ndarray, y: np.ndarray, theta: np.ndarray) -> bool:
    """Does the one-direction map {theta} give x and y different bits?"""
    points = PointSet([x, y])
    return bool(next(pair_stream(code_set(embed_points(theta[None, :], points)), points))[1][0, 1])


class TestUnitVector:
    """A single sphere point, a one-row PointSet: read_point_set checks its row (TestReadPointSet)."""

    def test_components_read_only(self):
        ps = PointSet([basis(0, 3)])
        with pytest.raises(ValueError):
            ps.matrix[0, 0] = 0.5


class TestPointSet:
    def test_from_vectors_and_accessors(self):
        ps = PointSet([basis(0, 3), basis(1, 3)])
        assert ps.n == 2 and ps.dim == 3
        assert ps.matrix[1, 1] == 1.0

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError):
            PointSet([basis(0, 3), basis(0, 4)])


class TestSampleDirection:
    """The directions of sample_map are uniform on the sphere."""

    def test_unit_norm(self):
        for dim in (2, 3, 50):
            v = sample_map(1, dim, seed=1)[0]
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-9
            assert v.size == dim

    def test_invalid_dimension(self, tmp_path, capsys):
        # a map's dimension is its points': embed refuses a points file of one component per row
        (tmp_path / "pts.csv").write_text("1\n-1\n")
        err = usage_error(capsys, "embed", "--points", str(tmp_path / "pts.csv"), "--m", "1", "--codes", str(tmp_path / "c.bin"))
        assert "row 1: need at least 2 components, got 1" in err

    def test_coordinate_means_and_sign_fair_dim50(self):
        # Rotational invariance: each coordinate has mean 0 (variance 1/dim),
        # and the first-coordinate sign is a fair coin.
        trials = 100_000
        dim = 50
        rows = sample_map(trials, dim, seed=7)
        acc = rows.sum(axis=0)
        positive = int(np.count_nonzero(rows[:, 0] >= 0))
        means = acc / trials
        se = math.sqrt(1.0 / dim / trials)
        assert np.all(np.abs(means) <= 4.0 * se)
        sign_se = math.sqrt(0.25 / trials)
        assert abs(positive / trials - 0.5) <= 4.0 * sign_se

    def test_positive_first_coordinate_dim2(self):
        trials = 100_000
        positive = int(np.count_nonzero(sample_map(trials, 2, seed=13)[:, 0] > 0))
        assert abs(positive / trials - 0.5) <= 4.0 * math.sqrt(0.25 / trials)


class TestGeodesicDistance:
    """Normalized geodesic distances as geodesic_matrix computes them for check, embed and the simulator."""

    def test_identical_points(self):
        v = unit(0.6, 0.8)
        assert geodesic(v, v) == 0.0

    def test_orthogonal_is_half(self):
        assert geodesic(basis(0, 3), basis(1, 3)) == pytest.approx(0.5, abs=1e-15)

    def test_dot_half_is_third(self):
        x = unit(1.0, 0.0)
        y = unit(0.5, math.sqrt(3.0) / 2.0)
        assert geodesic(x, y) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_antipodal_is_one(self):
        v = unit(0.6, 0.8)
        assert geodesic(v, -v) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 50])
    def test_metric_axioms_on_random_triples(self, dim):
        rng = np.random.default_rng(100 + dim)
        trials = 10_000
        raw = rng.standard_normal((3 * trials, dim))
        raw /= np.linalg.norm(raw, axis=1)[:, None]
        geo = np.stack([geodesic_matrix(PointSet(raw[3 * t : 3 * t + 3]), 0, 3) for t in range(trials)])
        assert np.all((0.0 <= geo) & (geo <= 1.0))
        assert np.all(np.abs(geo - geo.transpose(0, 2, 1)) <= 1e-12)
        # The self-dot of a float64 unit vector rounds to 1 - O(ulp), and
        # arccos amplifies that to sqrt(2 ulp)/pi ~ 1e-8; that is the
        # attainable floor for the self-distance in double precision.
        assert np.all(np.diagonal(geo, axis1=1, axis2=2) <= 5e-8)
        assert np.all(geo[:, 0, 2] <= geo[:, 0, 1] + geo[:, 1, 2] + 1e-12)


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
        assert x @ theta == 0.0
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
        assert geodesic(x, y) == pytest.approx(exact, abs=1e-12)
        trials = 100_000
        points = PointSet([x, y])
        hits = int(next(pair_stream(code_set(embed_points(sample_map(trials, 50, seed=29), points)), points))[1][0, 1])
        tol = 4.0 * math.sqrt(exact * (1.0 - exact) / trials)
        assert abs(hits / trials - exact) <= tol


class TestOrthonormalSet:
    """Standard basis vectors, the explicit-path stand-in for the orthogonal fast path."""

    def test_standard_basis(self):
        ps = PointSet(np.eye(3, 5))
        assert ps.n == 3 and ps.dim == 5
        geo = geodesic_matrix(ps, 0, ps.n)
        assert np.array_equal(geo, np.where(np.eye(3) == 1, 0.0, 0.5))

    def test_two_in_two_distance_half(self):
        geo = geodesic_matrix(PointSet(np.eye(2)), 0, 2)
        assert geo[0, 1] == pytest.approx(0.5, abs=1e-15)


def _points_file(tmp_path, data: bytes):
    path = tmp_path / "points.csv"
    path.write_bytes(data)
    return path


class TestReadPointSet:
    def test_basic_rows(self, tmp_path):
        ps = read_point_set(_points_file(tmp_path, b"1,0,0\n0,1,0\n"), normalize=False)
        assert ps.n == 2
        assert np.allclose(ps.matrix, np.eye(2, 3))

    def test_normalize_rescales(self, tmp_path):
        ps = read_point_set(_points_file(tmp_path, b"2,0\n"), normalize=True)
        assert np.allclose(ps.matrix, [[1.0, 0.0]])

    def test_zero_norm_under_normalize(self, tmp_path):
        with pytest.raises(ValueError, match="^row 1: zero-norm vector cannot be normalized$"):
            read_point_set(_points_file(tmp_path, b"0,0,0\n"), normalize=True)

    def test_ragged_rows_named(self, tmp_path):
        with pytest.raises(ValueError, match="^row 2: ragged row, expected 3 components, got 2$"):
            read_point_set(_points_file(tmp_path, b"1,0,0\n0,1\n"))

    def test_non_unit_row_without_normalize(self, tmp_path):
        with pytest.raises(ValueError, match=r"^row 2: norm 0\.7071\d* is not 1 within 1e-09"):
            read_point_set(_points_file(tmp_path, b"1,0\n0.5,0.5\n"))

    def test_unparseable_component(self, tmp_path):
        with pytest.raises(ValueError, match="^row 1: cannot parse components '1,zebra'$"):
            read_point_set(_points_file(tmp_path, b"1,zebra\n"))

    def test_single_component_row(self, tmp_path):
        with pytest.raises(ValueError, match="^row 1: need at least 2 components, got 1$"):
            read_point_set(_points_file(tmp_path, b"1\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="^empty points file$"):
            read_point_set(_points_file(tmp_path, b""))

    @pytest.mark.parametrize("token", ["inf", "nan", "1e400"])
    def test_non_finite_component_named(self, tmp_path, token):
        with pytest.raises(ValueError, match="row 2: components must be finite"):
            read_point_set(_points_file(tmp_path, f"1,0\n0,{token}\n".encode()))

    def test_non_finite_reported_before_later_ragged_row(self, tmp_path):
        with pytest.raises(ValueError, match="row 2: components must be finite"):
            read_point_set(_points_file(tmp_path, b"1,0\nnan,0\n1,0,0\n"))

    def test_components_parse_as_float_does(self, tmp_path):
        ps = read_point_set(_points_file(tmp_path, b"1_0,0\n 0.5 , 0.5 \n"), normalize=True)
        raw = np.array([[float("1_0"), float("0")], [float(" 0.5 "), float(" 0.5 ")]])
        assert np.array_equal(ps.matrix, raw / np.linalg.norm(raw, axis=1)[:, None])

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((5, 4))
        raw /= np.linalg.norm(raw, axis=1)[:, None]
        path = tmp_path / "pts.csv"
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in raw), encoding="utf-8")
        back = read_point_set(path)
        assert np.array_equal(back.matrix, raw)

    def test_byte_order_mark_dropped(self, tmp_path):
        # A UTF-8 byte-order mark, as spreadsheets write before a "CSV UTF-8" file, is not part of row 1.
        data = b"1.0,0.0\r\n0.6,0.8\r\n"
        plain = read_point_set(_points_file(tmp_path, data)).matrix
        marked = read_point_set(_points_file(tmp_path, b"\xef\xbb\xbf" + data)).matrix
        assert np.array_equal(marked, plain)


#: Each (name, file) malformed in some row, and the exact message the float()-per-row reader gives it.
MALFORMED = [
    ("blank middle line", b"1,0\n\n0,1\n", "row 2: cannot parse components ''"),
    ("whitespace-only line", b"1,0\n \t\n0,1\n", "row 2: cannot parse components ' \\t'"),
    ("trailing comma", b"1,0,\n", "row 1: cannot parse components '1,0,'"),
    ("comment mark", b"1,0\n0,1 # note\n", "row 2: cannot parse components '0,1 # note'"),
    ("quotes", b'1,0\n"0","1"\n', "row 2: cannot parse components '\"0\",\"1\"'"),
    ("non-ascii digits", "0,١\n٢,0\n".encode(), "row 2: norm 2.0 is not 1 within 1e-09 (pass normalize to rescale)"),
    ("underscores", b"1_0,0\n", "row 1: norm 10.0 is not 1 within 1e-09 (pass normalize to rescale)"),
    ("U+001C padding", b"1,0\n0,1\x1c\n", "row 2: cannot parse components '0,1\\x1c'"),
    ("inf", b"1,0\n0,inf\n", "row 2: components must be finite"),
    ("nan", b"1,0\nnan,0\n", "row 2: components must be finite"),
    ("1e400", b"1,0\n1e400,0\n", "row 2: components must be finite"),
    ("ragged row", b"1,0\n0,1,0\n", "row 2: ragged row, expected 2 components, got 3"),
    ("one component", b"1\n0\n", "row 1: need at least 2 components, got 1"),
    ("empty file", b"", "empty points file"),
    ("newlines only", b"\n\n\n", "empty points file"),
    ("crlf", b"1,0\r\n0,1\r\n0.6,0.6\r\n", "row 3: norm 0.848528137423857 is not 1 within 1e-09 (pass normalize to rescale)"),
    ("lone cr", b"1,0\r0,1\r1,0,0\r", "row 3: ragged row, expected 2 components, got 3"),
]


@pytest.mark.parametrize("data, message", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED])
def test_malformed_file_message(tmp_path, data, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_point_set(_points_file(tmp_path, data))


#: Characters str.isspace counts and float() strips around a number: all lie below U+3001.  Newlines end a
#: row, and float() refuses U+001C..U+001F.
_PADDING = "".join(c for c in map(chr, range(0x3001)) if c.isspace() and c not in "\n\r\x1c\x1d\x1e\x1f")


@st.composite
def _token(draw, bound):
    """A component as a file may write it, of magnitude at most bound: repr, %.Ne or a long mantissa,
    with an optional + sign, a _ between two digits and whitespace padding."""
    value = draw(st.floats(-bound, bound))
    form = draw(st.sampled_from(["repr", "e", "digits"]))
    if form == "repr":
        text = repr(value)
    elif form == "e":
        text = f"{value:.{draw(st.integers(0, 25))}e}"
    else:
        digits = draw(st.text("0123456789", min_size=1, max_size=40))
        text = f"{draw(st.sampled_from(['', '-']))}0.{digits}e{draw(st.integers(-345, math.floor(math.log10(bound))))}"
    if draw(st.booleans()) and not text.startswith("-"):
        text = "+" + text
    joints = [i for i in range(1, len(text)) if text[i - 1].isdigit() and text[i].isdigit()]
    if joints and draw(st.booleans()):
        i = draw(st.sampled_from(joints))
        text = text[:i] + "_" + text[i:]
    pad = st.text(_PADDING, max_size=2)
    return draw(pad) + text + draw(pad)


@given(data=st.data(), width=st.integers(1, 3), n=st.integers(1, 6), newline=st.sampled_from(["\n", "\r\n", "\r"]))
@settings(max_examples=300, deadline=None)
def test_components_bit_identical_to_float(tmp_path_factory, data, width, n, newline):
    # Rows of at most 3 components below 1/2 in magnitude, completed to unit norm, pass the norm check
    # unscaled: the matrix is the file's values.
    rows = [data.draw(st.lists(_token(0.5), min_size=width, max_size=width)) for _ in range(n)]
    rows = [row + [repr(math.sqrt(max(0.0, 1.0 - sum(float(t) ** 2 for t in row))))] for row in rows]
    path = _points_file(tmp_path_factory.mktemp("pts"), "".join(",".join(row) + newline for row in rows).encode())
    expected = np.array([[float(t) for t in row] for row in rows])
    assert read_point_set(path).matrix.tobytes() == expected.tobytes()


@given(data=st.data(), width=st.integers(1, 3), n=st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_normalized_components_bit_identical_to_float(tmp_path_factory, data, width, n):
    # Up to 1e150 in magnitude, rows led by a 1 so that no norm is zero, rescaled as read_point_set rescales.
    rows = [["1"] + data.draw(st.lists(_token(1e150), min_size=width, max_size=width)) for _ in range(n)]
    path = _points_file(tmp_path_factory.mktemp("pts"), "".join(",".join(row) + "\n" for row in rows).encode())
    raw = np.array([[float(t) for t in row] for row in rows])
    expected = raw / np.linalg.norm(raw, axis=1)[:, None]
    assert read_point_set(path, normalize=True).matrix.tobytes() == expected.tobytes()


@given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([2, 3, 7, 50]))
@settings(max_examples=40)
def test_geodesic_range_and_symmetry_random(seed, dim):
    geo = geodesic_matrix(PointSet(sample_map(2, dim, seed)), 0, 2)
    assert 0.0 <= geo[0, 1] <= 1.0
    assert geo[1, 0] == geo[0, 1]
