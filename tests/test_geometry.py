import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubspoke.geometry import (
    FLOAT_TOL,
    MAX_DIMENSION,
    MAX_POINTS,
    MAX_RESOLUTION,
    SENSES,
    GridPoint,
    InvalidArgument,
    LatticeSpace,
    LinearConstraint,
    LinearFunctional,
    _as_fraction,
    enumerate_simplex,
    eval_functional,
    expected_simplex_size,
    grid_point_from_vector,
    parse_constraint,
    parse_step,
    restrict,
    snap_rows,
)


def c(text, n=3):
    return parse_constraint(text, n)


class TestEnumerate:
    def test_published_counts(self):
        assert len(enumerate_simplex(2, 100)) == 5151
        assert len(enumerate_simplex(2, 20)) == 231
        assert len(enumerate_simplex(0, 10)) == 1

    def test_zero_resolution_rejected(self):
        with pytest.raises(InvalidArgument):
            enumerate_simplex(2, 0)

    def test_cap_enforced(self):
        with pytest.raises(InvalidArgument):
            enumerate_simplex(7, 4)
        with pytest.raises(InvalidArgument):
            enumerate_simplex(1, 401)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 4), N=st.integers(1, 30))
    def test_binomial_oracle(self, n, N):
        assert len(enumerate_simplex(n, N)) == math.comb(N + n, n)

    def test_lexicographic_order_and_dedup(self):
        pts = enumerate_simplex(2, 5).points
        assert list(pts) == sorted(set(pts))

    def test_all_points_sum_to_resolution(self):
        for p in enumerate_simplex(3, 7):
            assert sum(p.coords) == 7


class TestRestrict:
    def test_published_counts(self):
        amb = enumerate_simplex(2, 100)
        assert len(restrict(amb, [c("x1<=0.6")])) == 4331
        amb50 = enumerate_simplex(2, 50)
        assert len(restrict(amb50, [c("x1<=0.4")])) == 861

    def test_vacuous_constraint_is_identity(self):
        amb = enumerate_simplex(2, 10)
        vac = LinearConstraint((0, 0, 0), 1, "<=")
        assert restrict(amb, [vac]).points == amb.points

    def test_boundary_points_kept(self):
        # closedness: <=-boundaries are included
        amb = enumerate_simplex(2, 10)
        sub = restrict(amb, [c("x1<=0.5")])
        assert GridPoint((5, 5, 0), 10) in sub.points

    def test_dimension_mismatch(self):
        amb = enumerate_simplex(2, 10)
        with pytest.raises(InvalidArgument):
            restrict(amb, [parse_constraint("x1<=0.5", 2)])

    @settings(max_examples=25, deadline=None)
    @given(N=st.integers(2, 15),
           b1=st.sampled_from([0.2, 0.4, 0.5, 0.7]),
           b2=st.sampled_from([0.3, 0.6, 0.8]))
    def test_monotone_idempotent_commutative(self, N, b1, b2):
        amb = enumerate_simplex(2, N)
        c1, c2 = c(f"x1<={b1}"), c(f"x2<={b2}")
        once = restrict(amb, [c1])
        assert len(once) <= len(amb)
        assert restrict(once, [c1]).points == once.points
        ab = restrict(restrict(amb, [c1]), [c2])
        ba = restrict(restrict(amb, [c2]), [c1])
        both = restrict(amb, [c1, c2])
        assert ab.points == ba.points == both.points

    def test_every_point_satisfies_stored_constraints(self):
        amb = enumerate_simplex(2, 30)
        sub = restrict(amb, [c("x1<=0.35"), c("x3>=0.1")])
        for k in sub.constraints:
            assert k.satisfied_by_holdings(sub.holdings, sub.N).all()


class TestContains:
    def test_boundary_inclusion(self):
        # a <=-constraint keeps its boundary (closedness)
        hub = restrict(enumerate_simplex(2, 100), [c("x1<=0.6")])
        assert hub.index_holdings([[60, 40, 0]])[0] >= 0

    def test_violation_by_one_step(self):
        hub = restrict(enumerate_simplex(2, 100), [c("x1<=0.6")])
        assert hub.index_holdings([[61, 30, 9]])[0] == -1

    def test_ambient_contains_everything(self):
        amb = enumerate_simplex(2, 10)
        assert amb.index_holdings(amb.holdings).tolist() == list(range(len(amb)))

    def test_resolution_mismatch(self):
        # the holdings of a 1/20 point are no point of the 1/10 lattice
        amb = enumerate_simplex(2, 10)
        assert amb.index_holdings([[5, 5, 10]])[0] == -1
        with pytest.raises(InvalidArgument):
            amb.indices_of([GridPoint((5, 5, 10), 20)])


def contains_vector_oracle(space, v, tol=FLOAT_TOL):
    """The per-vector membership rule that contains_rows batches, kept as the oracle."""
    v = np.asarray(v, dtype=float)
    if v.shape != (space.n + 1,):
        return False
    if space.explicit:
        if not space.points:
            return False
        return bool(np.min(np.abs(space.array - v).max(axis=1)) <= tol)
    if np.any(v < -tol) or abs(float(v.sum()) - 1.0) > tol:
        return False
    for k in space.constraints:
        lhs = float(np.dot([float(a) for a in k.coeffs], v))
        rhs = float(k.bound)
        if k.sense == "<=":
            ok = lhs <= rhs + tol
        elif k.sense == ">=":
            ok = lhs >= rhs - tol
        else:
            ok = abs(lhs - rhs) <= tol
        if not ok:
            return False
    return True


# Offsets around the 1e-9 tolerance: inside it, on it, and past it.
NUDGES = (0.0, 0.5e-9, -0.5e-9, 1e-9, -1e-9, 1.5e-9, -1.5e-9, 2e-9, -2e-9)


@st.composite
def spaces_and_rows(draw):
    """A constraint or explicit space on a small lattice, and rows near its points.

    Constraints are often tight at a lattice point, so nudged rows land
    0.5e-9 inside or 2e-9 outside a bound; a nudge on one coordinate also
    moves the row sum, and on a zero coordinate it makes a small negative
    holding.  A nudge moved between two coordinates keeps the sum.
    """
    n = draw(st.integers(1, 3))
    N = draw(st.integers(1, 12))
    amb = enumerate_simplex(n, N)
    pick = st.integers(0, len(amb) - 1)
    if draw(st.booleans()):
        chosen = draw(st.lists(pick, max_size=len(amb)))
        space = LatticeSpace.from_points(n, N, [amb.points[i] for i in chosen])
    else:
        cons = []
        for _ in range(draw(st.integers(0, 3))):
            coeffs = tuple(draw(st.lists(
                st.fractions(-3, 3, max_denominator=4), min_size=n + 1, max_size=n + 1)))
            tight = amb.points[draw(pick)]
            bound = draw(st.one_of(
                st.just(sum(a * w for a, w in zip(coeffs, tight.weights))),
                st.fractions(-1, 2, max_denominator=N)))
            cons.append(LinearConstraint(coeffs, bound, draw(st.sampled_from(SENSES))))
        space = restrict(amb, cons)
    rows = []
    for i, a, b, nudge, moved in draw(st.lists(
            st.tuples(pick, st.integers(0, n), st.integers(0, n),
                      st.sampled_from(NUDGES), st.booleans()),
            min_size=1, max_size=40)):
        v = amb.array[i].copy()
        v[a] += nudge
        if moved:
            v[b] -= nudge
        rows.append(v)
    return space, np.asarray(rows)


class TestContainsRows:
    @settings(max_examples=300, deadline=None)
    @given(spaces_and_rows())
    def test_matches_per_vector_oracle(self, case):
        space, V = case
        expected = [contains_vector_oracle(space, v) for v in V]
        assert space.contains_rows(V).tolist() == expected
        assert [space.contains_vector(v) for v in V] == expected

    @settings(max_examples=50, deadline=None)
    @given(spaces_and_rows(), st.sampled_from([-1, 1]))
    def test_wrong_width_is_all_false(self, case, extra):
        space, V = case
        W = V[:, :extra] if extra < 0 else np.hstack([V, np.zeros((len(V), 1))])
        assert space.contains_rows(W).tolist() == [False] * len(V)
        assert not any(space.contains_vector(w) for w in W)
        assert not space.contains_vector(V)

    def test_tolerance_edges(self):
        hub = restrict(enumerate_simplex(2, 10), [c("x1<=0.5"), c("x2>=0.2")])
        rows = np.array([
            [0.5 + 0.5e-9, 0.3, 0.2 - 0.5e-9],   # on both bounds, within tol
            [0.5 + 2e-9, 0.3, 0.2 - 2e-9],       # past the x1 cap
            [0.3, 0.2 - 2e-9, 0.5 + 2e-9],       # past the x2 floor
            [0.5, 0.5 + 0.5e-9, -0.5e-9],        # small negative holding
            [0.5, 0.5 + 2e-9, -2e-9],            # negative past tol
            [0.5, 0.3, 0.2 + 0.5e-9],            # sum within tol
            [0.5, 0.3, 0.2 + 2e-9],              # sum past tol
        ])
        assert hub.contains_rows(rows).tolist() == [
            True, False, False, True, False, True, False]
        assert hub.contains_rows(rows).tolist() == [
            contains_vector_oracle(hub, v) for v in rows]
        plane = restrict(enumerate_simplex(2, 10), [c("x3=0.2")])
        rows = np.array([[0.4, 0.4 - 0.5e-9, 0.2 + 0.5e-9],
                         [0.4, 0.4 - 1.5e-9, 0.2 + 1.5e-9]])
        assert plane.contains_rows(rows).tolist() == [True, False]

    @pytest.mark.parametrize("d", range(2, 8))
    def test_dot_products_are_single_vector_ones(self, d):
        # At tol 0 an equality constraint through row i's own dot product
        # admits row i only if the batched dot product matches it bit for bit.
        # Rows are multiples of 1/1024, so they sum to exactly 1.
        rng = np.random.default_rng(d)
        V = rng.multinomial(1024, np.ones(d) / d, size=200) / 1024
        coeffs = tuple(Fraction(x) for x in rng.normal(size=d))
        amb = enumerate_simplex(d - 1, 2)
        for i in range(20):
            bound = Fraction(float(np.dot([float(a) for a in coeffs], V[i])))
            space = restrict(amb, [LinearConstraint(coeffs, bound, "==")])
            got = space.contains_rows(V, tol=0.0)
            assert got[i]
            assert got.tolist() == [contains_vector_oracle(space, v, tol=0.0) for v in V]

    def test_explicit_space_in_several_blocks(self):
        amb = enumerate_simplex(3, 20)
        space = LatticeSpace.from_points(3, 20, amb.points[::2])
        rng = np.random.default_rng(0)
        V = amb.array + rng.choice(NUDGES, size=amb.array.shape)
        assert space.contains_rows(V).tolist() == [
            contains_vector_oracle(space, v) for v in V]

    def test_non_finite_rows_match_oracle(self):
        amb = enumerate_simplex(2, 10)
        spaces = [amb, restrict(amb, [c("x1<=0.5")]),
                  LatticeSpace.from_points(2, 10, amb.points[:5]),
                  LatticeSpace.from_points(2, 10, [])]
        rows = np.array([[np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0],
                         [np.nan] * 3, [0.0, 0.0, 1.0]])
        for space in spaces:
            assert space.contains_rows(rows).tolist() == [
                contains_vector_oracle(space, v) for v in rows]


class TestFunctional:
    def test_fee_at_pure_assets(self):
        fee = LinearFunctional((10, 5, 0), units="bps")
        assert eval_functional(fee, GridPoint((0, 100, 0), 100)) == 5
        assert eval_functional(fee, GridPoint((100, 0, 0), 100)) == 10
        assert eval_functional(fee, GridPoint((0, 0, 100), 100)) == 0

    def test_exact_rational(self):
        fee = LinearFunctional((Fraction(1, 3), Fraction(1, 7), 0))
        v = eval_functional(fee, GridPoint((1, 1, 1), 3))
        assert v == Fraction(1, 9) + Fraction(1, 21)

    def test_dimension_mismatch(self):
        fee = LinearFunctional((1, 2))
        with pytest.raises(InvalidArgument):
            eval_functional(fee, GridPoint((1, 1, 1), 3))


class TestParsing:
    def test_step(self):
        assert parse_step("1/100") == 100
        assert parse_step("0.01") == 100
        with pytest.raises(InvalidArgument):
            parse_step("0.3")

    def test_sugar_names_first_coordinate(self):
        k = parse_constraint("x1<=0.6", 3)
        assert k.coeffs == (Fraction(1), Fraction(0), Fraction(0))

    def test_coefficient_form(self):
        k = parse_constraint("1,0,-2>=0", 3)
        assert k.sense == ">=" and k.coeffs[2] == Fraction(-2)

    def test_roundtrip_dict(self):
        k = parse_constraint("x2<=3/7", 3)
        assert LinearConstraint.from_dict(k.to_dict()) == k

    def test_float_reads_as_a_simple_fraction_only_when_it_rounds_back(self):
        # 0.3 and float(1/3) round back from 3/10 and 1/3; 5.9999999999
        # rounds back from no fraction of denominator <= 10^9 and stays below 6
        assert _as_fraction(0.3) == Fraction(3, 10)
        assert _as_fraction(1 / 3) == Fraction(1, 3)
        assert _as_fraction(6.0) == 6
        assert _as_fraction(5.9999999999) == Fraction(5.9999999999) < 6
        assert _as_fraction(6 - 2e-10) < 6


class TestPointsAndSnap:
    def test_grid_point_invariants(self):
        with pytest.raises(InvalidArgument):
            GridPoint((1, 2), 4)
        with pytest.raises(InvalidArgument):
            GridPoint((-1, 5), 4)

    def test_from_vector(self):
        p = grid_point_from_vector([0.25, 0.75], 4)
        assert p.coords == (1, 3)
        with pytest.raises(InvalidArgument):
            grid_point_from_vector([0.3, 0.7], 4)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 20), st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3))
    def test_snap_lands_on_lattice(self, N, raw):
        total = sum(raw)
        v = [x / total for x in raw]
        H = snap_rows(np.array([v]), N)
        assert H.dtype == np.int64 and H.sum() == N and (H >= 0).all()

    def test_snap_exact_point_is_fixed(self):
        p = GridPoint((3, 7, 10), 20)
        assert snap_rows(p.to_array()[None], 20)[0].tolist() == [3, 7, 10]

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), d=st.integers(2, 6), N=st.integers(1, 100),
           kind=st.sampled_from(["tie", "near_tie", "trim", "off_simplex", "any"]))
    def test_snap_rows_matches_per_vector_oracle(self, data, d, N, kind):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        M = 200
        if kind == "tie":          # half-steps: fractions of exactly 0 and 1/2
            V = rng.multinomial(2 * N, np.ones(d) / d, size=M) / (2 * N)
        elif kind == "near_tie":   # half-steps moved by up to 1e-9 per coordinate
            V = (rng.multinomial(2 * N, np.ones(d) / d, size=M) / (2 * N)
                 + rng.uniform(-1e-9, 1e-9, size=(M, d)))
        elif kind == "trim":       # coordinates the FLOAT_TOL nudge floors one step up
            V = (rng.multinomial(N, np.ones(d) / d, size=M) / N
                 + (rng.random((M, d)) < 0.5) / N - rng.uniform(0, FLOAT_TOL, size=(M, d)))
        elif kind == "off_simplex":  # near-lattice rows of any sum: trims left unfinished
            V = (rng.integers(-1, N + 2, size=(M, d)) / N
                 + rng.uniform(-1e-9, 1e-9, size=(M, d)))
        else:
            V = rng.uniform(-0.2, 0.8, size=(M, d))
        want = np.array([snap_to_lattice_oracle(v, N) for v in V]).reshape(M, d)
        assert np.array_equal(snap_rows(V, N), want)

    def test_explicit_space_round_trip(self):
        amb = enumerate_simplex(1, 5)
        sub = LatticeSpace.from_points(1, 5, amb.points[:3])
        d = sub.to_dict()
        back = LatticeSpace.from_dict(d)
        assert back.points == sub.points


# -- the holdings core against the per-point rules it replaced -------------------


def snap_to_lattice_oracle(v, N):
    """The per-vector snapping loop snap_rows replaced, kept as the oracle."""
    v = np.asarray(v, dtype=float)
    scaled = v * N
    base = np.floor(scaled + FLOAT_TOL).astype(int)
    base = np.maximum(base, 0)
    deficit = N - int(base.sum())
    if deficit < 0:
        # Over-allocated by the tolerance nudge; trim from the smallest fractions.
        order = np.argsort(scaled - base, kind="stable")
        for i in order:
            if deficit == 0:
                break
            if base[i] > 0:
                base[i] -= 1
                deficit += 1
    elif deficit > 0:
        frac = scaled - base
        # Largest fractional part first; ties go to the later coordinate.
        order = sorted(range(len(frac)), key=lambda i: (-frac[i], -i))
        for i in order[:deficit]:
            base[i] += 1
    return tuple(int(c) for c in base)


def compositions_oracle(total, parts):
    """The recursive enumeration the vectorized one replaced, kept as the oracle."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions_oracle(total - first, parts - 1):
            yield (first,) + rest


def satisfied_by_oracle(k, p):
    """The per-point Fraction rule the integer one replaced, kept as the oracle."""
    lhs = sum(a * h for a, h in zip(k.coeffs, p.coords))
    rhs = k.bound * p.resolution
    return {"<=": lhs <= rhs, ">=": lhs >= rhs, "==": lhs == rhs}[k.sense]


# Primes near 10^9: three such denominators clear to integers A of about
# 10^18, so h.A overflows int64 at any N and only the object dtype is exact.
BIG_PRIMES = (999_999_937, 999_999_929, 999_999_893, 999_999_883)


class TestHoldingsCore:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 4), N=st.integers(1, 30))
    def test_enumeration_matches_recursive_oracle(self, n, N):
        space = enumerate_simplex(n, N)
        assert space.holdings.dtype == np.int64
        assert space.holdings.tolist() == [list(c) for c in compositions_oracle(N, n + 1)]
        assert [p.coords for p in space.points] == list(compositions_oracle(N, n + 1))

    @pytest.mark.parametrize("n,N", [(6, 400), (5, 400), (3, 400)])
    def test_point_budget_rejects_before_allocating(self, n, N):
        assert n <= MAX_DIMENSION and N <= MAX_RESOLUTION
        assert expected_simplex_size(n, N) > MAX_POINTS
        with pytest.raises(InvalidArgument, match="points"):
            enumerate_simplex(n, N)

    def test_holdings_are_read_only(self):
        space = enumerate_simplex(2, 5)
        with pytest.raises(ValueError):
            space.holdings[0, 0] = 1

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(0, 3), N=st.integers(1, 12),
           sense=st.sampled_from(SENSES), kind=st.sampled_from(["small", "float", "big"]))
    def test_integer_rule_matches_fraction_oracle(self, data, n, N, sense, kind):
        amb = enumerate_simplex(n, N)
        if kind == "small":
            coeffs = data.draw(st.lists(st.fractions(-5, 5, max_denominator=7),
                                        min_size=n + 1, max_size=n + 1))
        elif kind == "float":
            # limit_denominator(10**9) floats: mostly object dtype
            coeffs = data.draw(st.lists(st.floats(-3, 3, allow_nan=False),
                                        min_size=n + 1, max_size=n + 1))
        else:
            coeffs = [Fraction(data.draw(st.integers(-10**9, 10**9)), q)
                      for q in BIG_PRIMES[:n + 1]]
        tight = amb.points[data.draw(st.integers(0, len(amb) - 1))]
        k = LinearConstraint(tuple(coeffs), 0, sense)
        # a bound through a lattice point, or a step either side of it
        bound = sum(a * w for a, w in zip(k.coeffs, tight.weights))
        bound += data.draw(st.sampled_from([0, 0, Fraction(1, N), -Fraction(1, N)]))
        k = LinearConstraint(k.coeffs, bound, sense)
        expected = [satisfied_by_oracle(k, p) for p in amb.points]
        got = k.satisfied_by_holdings(amb.holdings, N)
        assert got.dtype == bool and got.tolist() == expected
        assert [bool(k.satisfied_by_holdings(h[None], N)[0]) for h in amb.holdings] == expected
        assert restrict(amb, [k]).points == tuple(
            p for p, e in zip(amb.points, expected) if e)

    def test_object_dtype_where_int64_would_overflow(self):
        # A ~ 10^18 fits int64, but h.A at N = 30 does not
        amb = enumerate_simplex(2, 30)
        coeffs = (Fraction(999_999_000, BIG_PRIMES[0]), Fraction(-999_999_000, BIG_PRIMES[1]),
                  Fraction(1))
        for sense in SENSES:
            k = LinearConstraint(coeffs, Fraction(1, 2), sense)
            A, _ = k._cleared
            assert max(map(abs, A)) < 2**63 <= max(map(abs, A)) * 30
            assert k.satisfied_by_holdings(amb.holdings, 30).tolist() == [
                satisfied_by_oracle(k, p) for p in amb.points]

    def test_integer_rule_shape_checked(self):
        k = c("x1<=0.5")
        with pytest.raises(InvalidArgument):
            k.satisfied_by_holdings(np.zeros((2, 2), dtype=np.int64), 10)
        with pytest.raises(InvalidArgument):
            k.satisfied_by_holdings([[1, 1]], 2)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(0, 3), N=st.integers(1, 9))
    def test_index_matches_dict_oracle(self, data, n, N):
        amb = enumerate_simplex(n, N)
        if data.draw(st.booleans()):
            chosen = data.draw(st.lists(st.integers(0, len(amb) - 1), max_size=len(amb)))
            space = LatticeSpace.from_points(n, N, [amb.points[i] for i in chosen])
        else:
            space = restrict(amb, [c(f"x1<={data.draw(st.integers(0, N))}/{N}", n + 1)])
        oracle = {p.coords: i for i, p in enumerate(space.points)}
        rows = [list(p.coords) for p in amb.points]
        for r in list(rows):
            for i in range(n):
                # the same base-(N+1) key as r, with a holding below 0 or above N
                if r[i] <= N:
                    rows.append(r[:i] + [r[i] - 1, r[i + 1] + N + 1] + r[i + 2:])
        rows += data.draw(st.lists(st.lists(st.integers(-2, N + 2), min_size=n + 1,
                                            max_size=n + 1), max_size=20))
        C = np.asarray(rows, dtype=np.int64).reshape(-1, n + 1)
        want = [oracle.get(tuple(r), -1) for r in C.tolist()]
        assert space.index_holdings(C).tolist() == want
        V = C / N
        assert space.index_vectors(V).tolist() == want
        assert space.index_vectors(V + 0.5 / N).tolist() == [-1] * len(V)
        for p in amb.points:
            if p.coords in oracle:
                assert space.indices_of([p]).tolist() == [oracle[p.coords]]
            else:
                with pytest.raises(InvalidArgument):
                    space.indices_of([p])
        assert space.index_holdings(C[:, :n]).tolist() == [-1] * len(C)

    def test_index_rejects_wrong_width_points(self):
        space = enumerate_simplex(2, 4)
        with pytest.raises(InvalidArgument):
            space.indices_of([GridPoint((1, 3), 4)])
        assert space.indices_of([]).tolist() == []

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_same_points_matches_tuple_equality(self, data):
        def draw_space():
            n, N = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 4))
            amb = enumerate_simplex(n, N)
            keep = data.draw(st.lists(st.booleans(), min_size=len(amb), max_size=len(amb)))
            return LatticeSpace.from_points(n, N, [p for p, k in zip(amb.points, keep) if k])
        a, b = draw_space(), draw_space()
        if len(a) or len(b) or (a.n, a.N) == (b.n, b.N):
            assert a.same_points(b) == (a.points == b.points)
        else:
            # empty spaces of different lattices: equal tuples, different spaces
            assert not a.same_points(b)
        assert a.same_points(a) and a.same_points(LatticeSpace.from_points(a.n, a.N, a.points))

    def test_explicit_rows_need_a_tolerance_below_a_quarter_step(self):
        space = LatticeSpace.from_points(2, 10, enumerate_simplex(2, 10).points[:5])
        assert space.contains_rows(space.array, tol=0.024).all()
        with pytest.raises(InvalidArgument):
            space.contains_rows(space.array, tol=0.025)

    def test_from_points_sorts_and_dedups(self):
        pts = [GridPoint((2, 0, 1), 3), GridPoint((0, 3, 0), 3), GridPoint((1, 1, 1), 3),
               GridPoint((0, 3, 0), 3), GridPoint((0, 0, 3), 3)]
        space = LatticeSpace.from_points(2, 3, pts)
        assert space.points == tuple(sorted(set(pts)))
        assert LatticeSpace.from_points(2, 3, []).holdings.shape == (0, 3)
