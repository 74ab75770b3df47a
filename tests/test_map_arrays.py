"""Differential tests: maps as image arrays and pushforward as one index product.

The oracles are the per-point implementations that the array forms
replaced: a map stored as a coords -> GridPoint table and evaluated one
point at a time, a pushforward that rounds two vectors per pair into a
dict-keyed pair set, the per-hub optimizer, fiber and square loops, and
the float-tolerance matches that the point-index lookups of lattice
points (`ReimplMap.img`, `PairSet.test`, the Beck-Chevalley checks)
replaced.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hubspoke.geometry import (
    GridPoint,
    InvalidArgument,
    enumerate_simplex,
    parse_constraint,
    restrict,
)
from hubspoke.optimize import (
    Infeasible,
    ObjectiveSpec,
    ReimplMap,
    ValueFunction,
    _fiber_max,
    build_constrained_reimpl,
    build_metric_reimpl,
    check_square_commutes,
    compose_maps,
    identity_map,
    objective_function,
)
from hubspoke.relations import (
    Relation,
    _attr_matrix,
    _same,
    build_relation,
    empty_relation,
)
from hubspoke.transport import (
    CommutingSquare,
    PairSet,
    _group_or,
    _late_audit_pairs,
    _within,
    pointwise_cartesian,
    pullback,
    pushforward,
    verify_strict_bc,
)

FLOAT_TOL = 1e-9
MAX_WITNESSES = 10


# -- the per-point oracles ------------------------------------------------------


def grid_point_from_vector(v, N, tol=FLOAT_TOL):
    """The GridPoint a float vector denotes, or InvalidArgument if it is off
    the 1/N lattice: the per-vector rule the point-index lookups replaced."""
    v = np.asarray(v, dtype=float)
    scaled = v * N
    coords = np.rint(scaled)
    if np.max(np.abs(scaled - coords)) > tol * N:
        raise InvalidArgument(f"{v.tolist()} is not on the 1/{N} lattice")
    return GridPoint(tuple(int(c) for c in coords), N)


def _key(v):
    return tuple(np.round(np.asarray(v, dtype=float), 9).tolist())


class OraclePairSet:
    """Pairs keyed by rounded coordinates; the last pair with a key wins."""

    def __init__(self, pairs):
        self.entries = {}
        for a, b in pairs:
            av = np.asarray(a if not isinstance(a, GridPoint) else a.to_array(), dtype=float)
            bv = np.asarray(b if not isinstance(b, GridPoint) else b.to_array(), dtype=float)
            self.entries[(_key(av), _key(bv))] = (av, bv)

    def __len__(self):
        return len(self.entries)

    def keys(self):
        return set(self.entries)

    def contains(self, a, b, tol=FLOAT_TOL):
        if (_key(a), _key(b)) in self.entries:
            return True
        av, bv = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return any(np.abs(left - av).max() <= tol and np.abs(right - bv).max() <= tol
                   for left, right in self.entries.values())

    def witnesses_not_in(self, other, tol=FLOAT_TOL):
        out = []
        for k in sorted(self.entries):
            a, b = self.entries[k]
            if not other.contains(a, b, tol):
                out.append((tuple(a.tolist()), tuple(b.tolist())))
            if len(out) >= MAX_WITNESSES:
                break
        return out


class OracleMap:
    """A map evaluated one point at a time: affine, a coords table, or a chain."""

    def __init__(self, domain, codomain, rule, matrix=None, offset=None,
                 table=None, parts=()):
        self.domain, self.codomain, self.rule = domain, codomain, rule
        self.matrix, self.offset, self.table, self.parts = matrix, offset, table, parts

    def evaluate(self, x):
        if self.rule == "affine":
            v = x.to_array() if isinstance(x, GridPoint) else np.asarray(x, dtype=float)
            return self.matrix @ v + self.offset
        if self.rule == "lattice_argmin":
            if not isinstance(x, GridPoint):
                x = grid_point_from_vector(x, self.domain.N)
            return self.table[x.coords].to_array()
        v = x
        for part in self.parts:
            v = part.evaluate(v)
        return v


def oracle_image_holdings(f):
    """The float rule `is_lattice_valued` used to follow: integer holdings
    of the images, or None if one is not within FLOAT_TOL of a lattice point."""
    N = f.codomain.N
    C = np.rint(f.images * N)
    on = ((np.abs(f.images * N - C) <= FLOAT_TOL * N).all()
          and (C >= 0).all() and (C.sum(axis=1) == N).all())
    return C.astype(np.int64) if on else None


def oracle_pair_test(ps: PairSet, X, Y):
    """PairSet.test as float matches on both sides."""
    hits = _same(X, ps.left).astype(np.float32) @ ps.mask.astype(np.float32)
    return (hits @ _same(Y, ps.right).T.astype(np.float32)) > 0


def oracle_late_audit_mask(square, R):
    """h*(f_! R) over K_C x Z with images matched by float tolerance."""
    match = _same(square.h.images, square.f.images)
    return (match.astype(np.float32) @ R.mask().astype(np.float32)) > 0


def oracle_pointwise_cartesian(square):
    K_B, K_C = square.g.codomain, square.fp.codomain
    consistent = _same(square.f.images, square.h.images)
    g_hits = _same(square.g.images, K_B.array)
    fp_hits = _same(square.fp.images, K_C.array)
    lifted = (g_hits.astype(np.float32).T @ fp_hits.astype(np.float32)) > 0
    i, j = np.nonzero(consistent & ~lifted)
    failures = [(tuple(K_B.array[a].tolist()), tuple(K_C.array[b].tolist()))
                for a, b in zip(i[:MAX_WITNESSES], j[:MAX_WITNESSES])]
    return not failures, failures


def oracle_pushforward(f: OracleMap, R: Relation) -> OraclePairSet:
    images = {p.coords: f.evaluate(p) for p in f.domain.points}
    return OraclePairSet((images[x.coords], z.to_array()) for x, z in R.pairs)


def oracle_metric_table(K1, K2, spec):
    gA = _attr_matrix(spec.gA, K1.n + 1)
    gB = _attr_matrix(spec.gB, K2.n + 1)
    B = K2.array @ gB.T
    penalty = (-spec.lam * np.asarray(spec.u(B), dtype=float) if spec.lam > 0
               else np.zeros(len(K2)))
    table = {}
    for p in K1.points:
        diff = B - gA @ p.to_array()
        if spec.norm == "L2":
            dist = np.sqrt((diff ** 2).sum(axis=1))
        else:
            dist = np.abs(diff).sum(axis=1)
        table[p.coords] = K2.points[int(np.argmin(dist ** spec.p + penalty))]
    return table


def oracle_constrained(K1, K2, R, vals):
    mask, table, kept = R.mask(), {}, []
    for i, p in enumerate(K1.points):
        row = np.nonzero(mask[i])[0]
        if len(row):
            table[p.coords] = K2.points[row[int(np.argmax(vals[row]))]]
            kept.append(p)
    return kept, table


def oracle_fiber_max(vals, R):
    mask, table = R.mask(), {}
    for i, p in enumerate(R.domain.points):
        row = np.nonzero(mask[i])[0]
        if len(row) == 0:
            raise Infeasible(f"empty forward fiber at {p}")
        table[p.coords] = float(vals[row].max())
    return table


def oracle_square(f, g, fp, gp):
    worst, witness = 0.0, None
    for x in f.domain.points:
        gap = float(np.abs(fp.evaluate(g.evaluate(x)) - gp.evaluate(f.evaluate(x))).max())
        if gap > worst:
            worst, witness = gap, x
    return worst, None if worst <= FLOAT_TOL else witness


# -- instances -------------------------------------------------------------------


def lattice(draw, n, N):
    amb = enumerate_simplex(n, N)
    cap = draw(st.sampled_from([None, 0.0, 0.3, 0.5, 0.7]))
    if cap is None:
        return amb
    i = draw(st.integers(1, n + 1))
    return restrict(amb, [parse_constraint(f"x{i}<={cap}", n + 1)])


def table_map(K1, K2, table):
    return OracleMap(K1, K2, "lattice_argmin", table=table)


def metric_pair(draw, K1, K2):
    """build_metric_reimpl and its oracle, with small integer attributes so
    that ties are common."""
    k = draw(st.integers(1, 3))
    ints = st.integers(-2, 2)
    gA = np.array(draw(st.lists(st.lists(ints, min_size=K1.n + 1, max_size=K1.n + 1),
                                min_size=k, max_size=k)), dtype=float)
    gB = np.array(draw(st.lists(st.lists(ints, min_size=K2.n + 1, max_size=K2.n + 1),
                                min_size=k, max_size=k)), dtype=float)
    lam = draw(st.sampled_from([0.0, 0.0, 0.5]))
    u = objective_function({"kind": "linear", "coeffs": [1.0] + [0.0] * (k - 1)})
    spec = ObjectiveSpec(gA=gA, gB=gB, u=u, lam=lam, p=draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])),
                         norm=draw(st.sampled_from(["L1", "L2"])))
    f = build_metric_reimpl(K1, K2, spec)
    return f, table_map(K1, K2, oracle_metric_table(K1, K2, spec))


def affine_pair(K1, K2, M, offset=None):
    f = ReimplMap(K1, K2, "affine", matrix=M, offset=offset)
    return f, OracleMap(K1, K2, "affine", matrix=f.matrix, offset=f.offset)


MERGES = [[[1, 1, 0], [0, 0, 1]], [[1, 0, 1], [0, 1, 0]], [[0, 1, 1], [1, 0, 0]]]


@st.composite
def maps(draw, compose=True):
    """(f, oracle f) over a restricted or full lattice, n in {1, 2}, N <= 10."""
    n, N = draw(st.integers(1, 2)), draw(st.integers(1, 10))
    K1 = lattice(draw, n, N)
    amb = enumerate_simplex(n, N)
    d = n + 1
    kind = draw(st.sampled_from(["argmin", "merge", "perm", "identity", "inclusion",
                                 "shrink", "barycenter"]))
    if kind == "argmin":
        pair = metric_pair(draw, K1, lattice(draw, draw(st.integers(1, 2)), N))
    elif kind == "merge" and n == 2:
        pair = affine_pair(K1, enumerate_simplex(1, N),
                           np.array(draw(st.sampled_from(MERGES)), float))
    elif kind == "perm":
        pair = affine_pair(K1, amb, np.eye(d)[draw(st.permutations(range(d)))])
    elif kind == "inclusion":
        pair = affine_pair(K1, amb, np.eye(d))
    elif kind == "shrink":
        a = draw(st.sampled_from([0.5, 0.8, 0.9]))
        pair = affine_pair(K1, amb, a * np.eye(d), np.full(d, (1 - a) / d))
    elif kind == "barycenter":
        pair = affine_pair(K1, amb, np.zeros((d, d)), np.full(d, 1 / d))
    else:
        pair = affine_pair(K1, K1, np.eye(d))
    f, of = pair
    if compose and draw(st.booleans()):
        K2 = f.codomain
        lattice_valued = kind not in ("shrink", "barycenter")
        if lattice_valued and draw(st.booleans()):
            g, og = metric_pair(draw, K2, lattice(draw, draw(st.integers(1, 2)), N))
        else:
            dd = K2.n + 1
            a = draw(st.sampled_from([0.5, 1.0]))
            g, og = affine_pair(K2, enumerate_simplex(K2.n, N),
                                a * np.eye(dd)[::-1], np.full(dd, (1 - a) / dd))
        f = compose_maps(g, f)
        of = OracleMap(f.domain, f.codomain, "composite", parts=(of, og))
    return f, of


def random_relation(draw, K, Z):
    roll = draw(st.sampled_from(["empty", "explicit", "explicit", "track", "turnover"]))
    if roll == "empty":
        return empty_relation(K, Z)
    if roll == "track":
        return build_relation(K, Z, "track", epsilon=draw(st.sampled_from([0.1, 0.25, 0.5])),
                              gA=None if K.n == Z.n else np.ones((1, K.n + 1)),
                              gB=None if K.n == Z.n else np.ones((1, Z.n + 1)))
    if roll == "turnover" and K.n == Z.n:
        return build_relation(K, Z, "turnover", kappa=draw(st.sampled_from([0.2, 0.5])))
    seed = draw(st.integers(0, 2**16))
    density = draw(st.sampled_from([0.0, 0.1, 0.4, 1.0]))
    mask = np.random.default_rng(seed).random((len(K), len(Z))) < density
    return Relation.from_mask(K, Z, mask)


@st.composite
def squares(draw):
    """A lattice-valued commuting square and R on K_B, N <= 10.

    g aggregates by a merge matrix or is a metric map, f is a permutation
    or a metric map; either f' = f.g and h = id, or f' = g and h = f.  One
    affine map, g or f, may be nudged off its lattice points by +-7e-10 in
    each coordinate.
    """
    N = draw(st.integers(1, 10))
    nudged = draw(st.sampled_from([None, "g", "f"]))
    sign = draw(st.sampled_from([7e-10, -7e-10]))

    def affine(name, K1, K2, M):
        offset = sign * (-1.0) ** np.arange(K2.n + 1) if name == nudged else None
        return ReimplMap(K1, K2, "affine", matrix=M, offset=offset)

    if draw(st.booleans()):
        A, B = lattice(draw, 2, N), enumerate_simplex(1, N)
        g = affine("g", A, B, np.array(draw(st.sampled_from(MERGES)), float))
    else:
        A, B = lattice(draw, draw(st.integers(1, 2)), N), lattice(draw, 1, N)
        g = metric_pair(draw, A, B)[0]
    if draw(st.booleans()):
        f = affine("f", B, enumerate_simplex(1, N),
                   np.eye(2)[draw(st.permutations(range(2)))])
    else:
        f = metric_pair(draw, B, lattice(draw, draw(st.integers(1, 2)), N))[0]
    if draw(st.booleans()):
        sq = CommutingSquare(g=g, fp=compose_maps(f, g), f=f, h=identity_map(f.codomain))
    else:
        sq = CommutingSquare(g=g, fp=g, f=f, h=f)
    return sq, random_relation(draw, B, enumerate_simplex(1, N))


# -- maps as image arrays ----------------------------------------------------------


class TestImages:
    @settings(max_examples=150, deadline=None)
    @given(maps(), st.integers(0, 2**16))
    def test_images_and_rows_match_per_point_evaluation(self, pair, seed):
        f, of = pair
        per_point = np.asarray([of.evaluate(p) for p in f.domain.points],
                               dtype=float).reshape(len(f.domain), -1)
        assert np.array_equal(f.images, per_point)
        rows = np.random.default_rng(seed).permutation(len(f.domain))
        V = f.domain.array[rows]
        assert np.array_equal(f.evaluate_rows(V), per_point[rows])
        for i in rows[:3]:
            assert np.array_equal(f.evaluate(f.domain.points[i]), per_point[i])

    def test_affine_rows_are_bitwise_per_vector_products(self):
        # V @ M.T differs from M @ v in the last bits for a random M
        K = restrict(enumerate_simplex(2, 100), [parse_constraint("x1<=0.6", 3)])
        rng = np.random.default_rng(0)
        M, off = rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, 3)
        f = ReimplMap(K, K, "affine", matrix=M, offset=off, check_into=False)
        assert np.array_equal(f.images, np.asarray([M @ v + off for v in K.array]))

    def test_lattice_map_rejects_vectors_off_its_domain(self):
        K = enumerate_simplex(1, 4)
        f = build_metric_reimpl(K, K, ObjectiveSpec())
        with pytest.raises(InvalidArgument, match="outside the map's domain"):
            f.evaluate_rows(np.array([[0.5, 0.5], [0.1, 0.9]]))

    @settings(max_examples=80, deadline=None)
    @given(maps())
    def test_image_points_and_lattice_valued_views(self, pair):
        f, of = pair
        try:
            want = tuple(sorted({grid_point_from_vector(of.evaluate(p), f.codomain.N)
                                 for p in f.domain.points}))
        except Exception:
            want = None
        assert f.is_lattice_valued() == (want is not None)
        if want is not None:
            assert f.image_points() == want


    @settings(max_examples=100, deadline=None)
    @given(maps())
    def test_img_matches_the_float_lattice_rule(self, pair):
        f, _ = pair
        want = oracle_image_holdings(f)
        assert f.is_lattice_valued() == (want is not None)
        if want is not None:
            assert np.array_equal(f.codomain.holdings[f.img], want)
        assert f.img.dtype == np.intp and not f.img.flags.writeable


# -- pushforward as one index product ------------------------------------------


class TestPushforward:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_per_pair_oracle(self, data):
        f, of = data.draw(maps())
        Z = enumerate_simplex(1, f.domain.N)
        R = random_relation(data.draw, f.domain, Z)
        ps, want = pushforward(f, R), oracle_pushforward(of, R)
        assert ps.keys() == want.keys()
        assert len(ps) == len(want)
        # canonical form: ascending distinct rounded rows, no empty row or column
        for side in (ps.left, ps.right):
            keys = [tuple(r) for r in np.round(side, 9).tolist()]
            assert keys == sorted(set(keys))
        assert ps.mask.any(axis=1).all() and ps.mask.any(axis=0).all()
        assert ps == PairSet.from_mask(ps.left, ps.space, ps.mask, ps.cols)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_witnesses_and_membership_match_oracle_on_lattice_maps(self, data):
        n, N = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 8))
        K1, K2 = lattice(data.draw, n, N), lattice(data.draw, n, N)
        Z = enumerate_simplex(1, N)
        f, of = metric_pair(data.draw, K1, K2)
        g, og = metric_pair(data.draw, K1, K2)
        R = random_relation(data.draw, K1, Z)
        ps, qs = pushforward(f, R), pushforward(g, R)
        ops, oqs = oracle_pushforward(of, R), oracle_pushforward(og, R)
        assert ps.witnesses_not_in(qs) == ops.witnesses_not_in(oqs)
        assert qs.witnesses_not_in(ps) == oqs.witnesses_not_in(ops)
        assert (ps == qs) == (ops.keys() == oqs.keys())
        for y in K2.points[:4]:
            for z in Z.points[:4]:
                assert ps.test(y.to_array()[None], z.to_array()[None])[0, 0] \
                    == ops.contains(y.to_array(), z.to_array())

    @settings(max_examples=100, deadline=None)
    @given(width=st.sampled_from([0, 1, 7, 8, 9, 17]), rows=st.integers(0, 12),
           size=st.integers(1, 6), seed=st.integers(0, 2**16))
    def test_packed_group_or_matches_logical_or_at(self, width, rows, size, seed):
        rng = np.random.default_rng(seed)
        M = rng.random((rows, width)) < 0.3
        group = rng.integers(0, size, rows)          # groups no row falls in stay empty
        want = np.zeros((size, width), dtype=bool)
        np.logical_or.at(want, group, M)
        got = _group_or(M, group, size)
        assert got.dtype == bool and np.array_equal(got, want)
        # rows taken by index: repeated and unsorted
        take = rng.integers(0, max(rows, 1), rows and rows + 3)
        group = rng.integers(0, size, len(take))
        want = np.zeros((size, width), dtype=bool)
        np.logical_or.at(want, group, M[take])
        assert np.array_equal(_group_or(M, group, size, take), want)
        assert _group_or(M[:0], group[:0], 0).shape == (0, width)

    def test_representative_is_the_last_related_hub_of_its_image(self):
        # (x0 + x1, x2) gives 3/10 as 0.1 + 0.2 and as 0.3 + 0.0: one rounded
        # image, different bits; the pair set keeps the last related hub's
        K, line = enumerate_simplex(2, 10), enumerate_simplex(1, 10)
        f, of = affine_pair(K, line, np.array(MERGES[0], float))
        related = K.holdings[:, 0] % 2 == 1
        R = Relation.from_mask(K, line, np.repeat(related[:, None], len(line), axis=1))
        ps, want = pushforward(f, R), oracle_pushforward(of, R)
        lefts = {k[0]: v[0] for k, v in want.entries.items()}
        assert np.array_equal(ps.left, np.asarray([lefts[k] for k in sorted(lefts)]))
        firsts = {}
        for v in f.images[related]:
            firsts.setdefault(_key(v), v)
        assert any(not np.array_equal(firsts[k], lefts[k]) for k in lefts)

    def test_law_equality_is_on_rounded_keys_not_tolerance(self):
        # f' moves every image 7e-10: inside the 1e-9 tolerance, so no
        # witness, but across a 9-decimal rounding step, so not equal
        K = enumerate_simplex(1, 4)
        i = identity_map(K)
        nudge = ReimplMap(K, K, "affine", matrix=np.eye(2), offset=[7e-10, -7e-10])
        rep = verify_strict_bc(CommutingSquare(g=i, fp=nudge, f=i, h=i),
                               build_relation(K, K, "turnover", kappa=0.5))
        assert not rep.holds and rep.witnesses == () and rep.lhs_count == rep.rhs_count

    def test_empty_pair_sets_are_equal(self):
        K = enumerate_simplex(1, 3)
        f = ReimplMap(K, K, "affine", matrix=np.eye(2))
        ps = pushforward(f, empty_relation(K, K))
        assert len(ps) == 0 and ps.keys() == set()
        assert ps == PairSet.from_mask(np.zeros((0, 3)), K, np.zeros((0, len(K))))


# -- lattice-valued transport by point index -------------------------------------


class TestPointIndices:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_pair_set_test_matches_float_matches(self, data):
        f, _ = data.draw(maps())
        N = f.domain.N
        Z = lattice(data.draw, 1, N)
        ps = pushforward(f, random_relation(data.draw, f.domain, Z))
        amb = enumerate_simplex(1, N).array
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        # lattice points in and out of Z and of the pair set, points moved
        # within and beyond the tolerance, and rows off the lattice
        Y = np.vstack([amb, amb + 0.5e-9, amb - 2e-9 * (-1.0) ** np.arange(2),
                       amb[::-1] + 2e-9, rng.dirichlet(np.ones(2), 5),
                       np.arange(2 * N + 1)[:, None] / (2 * N) * [1, -1] + [0, 1]])
        X = np.vstack([ps.left, f.images, f.images + 2e-9, f.codomain.array])
        assert np.array_equal(ps.test(X, Y), oracle_pair_test(ps, X, Y))
        wide = np.hstack([Y, np.zeros((len(Y), 1))])
        assert not ps.test(X, wide).any() and not oracle_pair_test(ps, X, wide).any()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_pair_set_test_by_key_matches_float_matches(self, data):
        n, N = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 10))
        K, Z = lattice(data.draw, n, N), lattice(data.draw, 1, N)
        H = enumerate_simplex(n, N).holdings
        amb = H / N
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        nudge = data.draw(st.sampled_from([7e-10, -7e-10])) * (-1.0) ** np.arange(n + 1)
        off = rng.dirichlet(np.ones(n + 1), 6)
        lefts = {"lattice": K.array, "nudged": K.array + nudge, "off": off,
                 "mixed": np.vstack([K.array, off])}
        left_kind = data.draw(st.sampled_from(sorted(lefts)))
        left = lefts[left_kind]
        density = data.draw(st.sampled_from([0.0, 0.3, 1.0]))
        ps = PairSet.from_mask(left, Z, rng.random((len(left), len(Z))) < density)
        Y = np.vstack([enumerate_simplex(1, N).array, rng.dirichlet(np.ones(2), 3)])
        # grid rows off the simplex whose base-(N+1) digits carry into the
        # key of a lattice point: (h0 - 1, h1 + N + 1, ...), (h0 + 1, h1 - N - 1, ...)
        carry = np.r_[-1, N + 1, np.zeros(n - 1, int)]
        xs = {"lattice": amb, "nudged": amb - nudge, "same_nudge": amb + nudge,
              "off": off, "finer": enumerate_simplex(n, 2 * N).array,
              "mixed": np.vstack([amb, amb + nudge]),
              "carry_up": (H[H[:, 0] > 0] + carry) / N,
              "carry_down": (H[H[:, 0] < N] - carry) / N}
        for x_kind, X in xs.items():
            # both sides bitwise grid points: the key lookup, with no float match
            keyed = left_kind == "lattice" and x_kind == "lattice"
            with (mock.patch("hubspoke.transport._same", side_effect=AssertionError) if keyed
                  else contextlib.nullcontext()):
                got = ps.test(X, Y)
            assert np.array_equal(got, oracle_pair_test(ps, X, Y)), x_kind

    @settings(max_examples=100, deadline=None)
    @given(squares())
    def test_late_audit_pairs_and_cartesian_match_float_matches(self, case):
        sq, R = case
        for m in (sq.g, sq.fp, sq.f, sq.h):
            assert m.is_lattice_valued() and oracle_image_holdings(m) is not None
        got = _late_audit_pairs(sq, R)
        want = PairSet.from_mask(sq.h.domain.array, R.codomain, oracle_late_audit_mask(sq, R))
        for a, b in ((got.left, want.left), (got.cols, want.cols), (got.mask, want.mask)):
            assert np.array_equal(a, b)
        assert pointwise_cartesian(sq) == oracle_pointwise_cartesian(sq)


    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_pullback_matches_the_float_rule(self, data):
        f, _ = data.draw(maps())
        Z = lattice(data.draw, 1, f.domain.N)
        S = random_relation(data.draw, f.codomain, Z)
        if data.draw(st.booleans()):
            S.mask()                        # rows from the cached mask
        # the float rule pullback used on every map; off the lattice it still does
        want = S.test(f.images, Z.array)
        assert np.array_equal(pullback(f, S).mask(), want)
        if f.is_lattice_valued():
            assert np.array_equal(want, S.test(f.codomain.array[f.img], Z.array))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_pullback_of_a_nudged_map_decides_at_its_points(self, data):
        N = data.draw(st.integers(1, 10))
        K = lattice(data.draw, 2, N)
        sign = data.draw(st.sampled_from([7e-10, -7e-10]))
        if data.draw(st.booleans()):
            M, B = np.array(data.draw(st.sampled_from(MERGES)), float), enumerate_simplex(1, N)
        else:
            M, B = np.eye(3)[data.draw(st.permutations(range(3)))], enumerate_simplex(2, N)
        f = ReimplMap(K, B, "affine", matrix=M, offset=sign * (-1.0) ** np.arange(B.n + 1))
        assert f.is_lattice_valued()
        Z = lattice(data.draw, 1, N)
        S = random_relation(data.draw, B, Z)
        assert np.array_equal(pullback(f, S).mask(),
                              S.test(f.codomain.array[f.img], Z.array))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_within_matches_the_float_filter(self, data):
        f, _ = data.draw(maps())
        N = f.domain.N
        Z = lattice(data.draw, 1, N)
        ps = pushforward(f, random_relation(data.draw, f.domain, Z))
        assume(len(ps))
        # S's spaces may differ from the pair set's: lattice rows that are
        # not points of S's domain, or spoke points of another lattice
        S = random_relation(data.draw, lattice(data.draw, f.codomain.n, N),
                            data.draw(st.sampled_from([Z, ps.space, lattice(data.draw, 1, N)])))
        if data.draw(st.booleans()):
            S.mask()
        got = _within(ps, S)
        want = PairSet.from_mask(ps.left, ps.space, ps.mask & S.test(ps.left, ps.right), ps.cols)
        for a, b in ((got.left, want.left), (got.cols, want.cols), (got.mask, want.mask)):
            assert np.array_equal(a, b)


# -- optimizers, fibers and squares --------------------------------------------------


class TestOptimizers:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_metric_reimpl_matches_per_hub_argmin(self, data):
        N = data.draw(st.integers(1, 10))
        K1 = lattice(data.draw, data.draw(st.integers(1, 2)), N)
        K2 = lattice(data.draw, data.draw(st.integers(1, 2)), N)
        f, of = metric_pair(data.draw, K1, K2)
        assert [tuple(h) for h in K2.holdings[f.img].tolist()] \
            == [of.table[p.coords].coords for p in K1.points]

    def test_metric_reimpl_blocks_match_per_hub_argmin(self):
        # more hub rows than one block of the scan holds
        K1 = enumerate_simplex(2, 60)
        K2 = enumerate_simplex(2, 40)
        rng = np.random.default_rng(3)
        spec = ObjectiveSpec(gA=rng.uniform(-1, 1, (2, 3)), gB=rng.uniform(-1, 1, (2, 3)))
        f = build_metric_reimpl(K1, K2, spec)
        table = oracle_metric_table(K1, K2, spec)
        assert [tuple(h) for h in K2.holdings[f.img].tolist()] \
            == [table[p.coords].coords for p in K1.points]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_constrained_reimpl_matches_per_hub_argmax(self, data):
        n, N = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 10))
        K1, K2 = lattice(data.draw, n, N), lattice(data.draw, n, N)
        R = random_relation(data.draw, K1, K2)
        vals = np.asarray(data.draw(st.lists(st.integers(0, 3), min_size=len(K2),
                                             max_size=len(K2))), dtype=float)
        u = ValueFunction(K2, vals)
        kept, table = oracle_constrained(K1, K2, R, vals)
        if not kept:
            with pytest.raises(Infeasible):
                build_constrained_reimpl(K1, K2, R, u)
            return
        f = build_constrained_reimpl(K1, K2, R, u)
        assert f.domain.points == tuple(kept)
        assert [tuple(h) for h in K2.holdings[f.img].tolist()] \
            == [table[p.coords].coords for p in kept]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_fiber_max_matches_per_hub_loop(self, data):
        n, N = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 10))
        K1, K2 = lattice(data.draw, n, N), lattice(data.draw, n, N)
        R = random_relation(data.draw, K1, K2)
        vals = np.asarray(data.draw(st.lists(st.floats(-5, 5), min_size=len(K2),
                                             max_size=len(K2))), dtype=float)
        try:
            want = oracle_fiber_max(vals, R)
        except Infeasible as e:
            with pytest.raises(Infeasible, match=str(e).replace("(", r"\(").replace(")", r"\)")):
                _fiber_max(ValueFunction(K2, vals), R)
            return
        got = _fiber_max(ValueFunction(K2, vals), R)
        assert got.values().tolist() == [want[p.coords] for p in K1.points]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_square_check_matches_per_point_loop(self, data):
        N = data.draw(st.integers(1, 8))
        K = enumerate_simplex(1, N)
        built = []
        for _ in range(4):
            # fibers always hold x itself, so every map is total on K
            seed = data.draw(st.integers(0, 2**16))
            mask = np.random.default_rng(seed).random((len(K), len(K))) < 0.4
            R = Relation.from_mask(K, K, mask | np.eye(len(K), dtype=bool))
            vals = np.asarray(data.draw(st.lists(st.integers(0, 2), min_size=len(K),
                                                 max_size=len(K))), dtype=float)
            f = build_constrained_reimpl(K, K, R, ValueFunction(K, vals))
            built.append((f, table_map(K, K, oracle_constrained(K, K, R, vals)[1])))
        (f, of), (g, og), (fp, ofp), (gp, ogp) = built
        rep = check_square_commutes(f, g, fp, gp)
        worst, witness = oracle_square(of, og, ofp, ogp)
        assert rep.max_discrepancy == worst
        assert rep.witness == witness
        assert rep.commutes == (worst <= FLOAT_TOL)
