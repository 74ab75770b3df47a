import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubspoke.geometry import (
    FLOAT_TOL,
    SENSES,
    GridPoint,
    InvalidArgument,
    LatticeSpace,
    LinearConstraint,
    LinearFunctional,
    contains,
    enumerate_simplex,
    eval_functional,
    grid_point_from_vector,
    parse_constraint,
    parse_step,
    restrict,
    snap_to_lattice,
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
        for p in sub.points:
            assert all(k.satisfied_by(p) for k in sub.constraints)


class TestContains:
    def test_boundary_inclusion(self):
        # a <=-constraint keeps its boundary (closedness)
        hub = restrict(enumerate_simplex(2, 100), [c("x1<=0.6")])
        assert contains(hub, GridPoint((60, 40, 0), 100))

    def test_violation_by_one_step(self):
        hub = restrict(enumerate_simplex(2, 100), [c("x1<=0.6")])
        assert not contains(hub, GridPoint((61, 30, 9), 100))

    def test_ambient_contains_everything(self):
        amb = enumerate_simplex(2, 10)
        for p in amb.points:
            assert contains(amb, p)

    def test_resolution_mismatch(self):
        amb = enumerate_simplex(2, 10)
        with pytest.raises(InvalidArgument):
            contains(amb, GridPoint((5, 5, 10), 20))


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
        p = snap_to_lattice(v, N)
        assert sum(p.coords) == N

    def test_snap_exact_point_is_fixed(self):
        p = GridPoint((3, 7, 10), 20)
        assert snap_to_lattice(p.to_array(), 20) == p

    def test_explicit_space_round_trip(self):
        amb = enumerate_simplex(1, 5)
        sub = LatticeSpace.from_points(1, 5, amb.points[:3])
        d = sub.to_dict()
        back = LatticeSpace.from_dict(d)
        assert back.points == sub.points
