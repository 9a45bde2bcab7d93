import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from distp import (
    Coupling,
    DimensionMismatchError,
    DistributionPair,
    DistributionPairRelation,
    FiniteDistribution,
    GroundMetric,
    GroundMismatchError,
    PointRelation,
    StochasticKernel,
    UnknownLabelError,
    ValidationError,
    event_probability,
    lift,
    pair_label,
    point_distribution,
    product_distribution,
    split_pair_label,
    stability_check,
    uniform_distribution,
)
from distp.finite_prob import _lifted_probs
from distp.tolerances import TAU_NUM
from conftest import euclidean_metric, labels, rand_dist, rand_kernel


class TestFiniteDistribution:
    def test_basic_construction(self):
        d = FiniteDistribution(("a", "b"), np.array([0.25, 0.75]))
        assert d["a"] == 0.25
        assert d["b"] == 0.75
        assert len(d) == 2

    def test_rejects_off_mass(self):
        with pytest.raises(ValidationError, match="mass 0.9 outside tolerance"):
            FiniteDistribution(("a", "b"), np.array([0.4, 0.5]))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="negative"):
            FiniteDistribution(("a", "b"), np.array([-0.2, 1.2]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            FiniteDistribution(("a", "b"), np.array([np.inf, 0.5]))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError, match="duplicate"):
            FiniteDistribution(("a", "a"), np.array([0.5, 0.5]))

    def test_rejects_empty_ground(self):
        with pytest.raises(ValidationError):
            FiniteDistribution((), np.array([]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            FiniteDistribution(("a", "b"), np.array([1.0]))

    def test_never_renormalizes(self):
        # sum is within tolerance of 1 but not exactly 1; stored as given
        probs = np.array([0.3, 0.7]) + np.array([2e-10, -1e-10])
        d = FiniteDistribution(("a", "b"), probs)
        assert d.probs[0] == probs[0]

    def test_immutable(self):
        d = uniform_distribution(("a", "b"))
        with pytest.raises(ValueError):
            d.probs[0] = 0.9

    def test_unknown_label(self):
        d = uniform_distribution(("a", "b"))
        with pytest.raises(UnknownLabelError):
            d["c"]

    def test_support(self):
        d = FiniteDistribution(("a", "b", "c"), np.array([0.5, 0.0, 0.5]))
        assert d.support() == ("a", "c")
        assert list(d.support_indices()) == [0, 2]

    def test_is_close(self):
        d = uniform_distribution(("a", "b"))
        e = FiniteDistribution(("a", "b"), np.array([0.5 + 1e-12, 0.5 - 1e-12]))
        assert d.is_close(e)
        assert not d.is_close(point_distribution("a", ("a", "b")))


def test_point_distribution():
    d = point_distribution("b", ("a", "b", "c"))
    assert d.probs.tolist() == [0.0, 1.0, 0.0]
    with pytest.raises(UnknownLabelError):
        point_distribution("z", ("a", "b"))


def test_event_probability_dedupes():
    d = FiniteDistribution(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))
    assert event_probability(d, ["a", "c"]) == pytest.approx(0.7)
    assert event_probability(d, ["a", "a", "a"]) == pytest.approx(0.2)
    assert event_probability(d, []) == 0.0


def test_pair_label_round_trip():
    for a, b in [("x", "y"), ('wei"rd', "com,ma"), ("", " ")]:
        assert split_pair_label(pair_label(a, b)) == (a, b)
    with pytest.raises(ValidationError):
        split_pair_label("not json")
    with pytest.raises(ValidationError):
        split_pair_label('["only one"]')


# Characters that JSON escapes or that sit at an encoding boundary: quotes,
# backslashes, control characters, DEL, "/", non-ASCII and astral characters
# (escaped as surrogate pairs).
LABEL_CHARS = st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\t \u00e9\u20ac\U0001f600\U0010ffff'),
    st.characters(),
)


@given(st.text(LABEL_CHARS), st.text(LABEL_CHARS))
@example("", "")
@example("/", 'say "hi" \\ \x01')
@example("\u00e9", "\U0001f600")
def test_pair_label_is_compact_json(a, b):
    label = pair_label(a, b)
    assert label == json.dumps([a, b], separators=(",", ":"))
    assert split_pair_label(label) == (a, b)


@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 10**6))
def test_product_distribution_marginals(ka, kb, seed):
    rng = np.random.default_rng(seed)
    left = rand_dist(rng, labels(ka, "a"))
    right = rand_dist(rng, labels(kb, "b"))
    prod = product_distribution(left, right)
    assert len(prod) == ka * kb
    grid = prod.probs.reshape(ka, kb)
    np.testing.assert_allclose(grid.sum(axis=1), left.probs, atol=1e-12)
    np.testing.assert_allclose(grid.sum(axis=0), right.probs, atol=1e-12)


class TestStochasticKernel:
    def test_row_sums_checked(self):
        with pytest.raises(ValidationError, match="kernel row"):
            StochasticKernel(("a",), ("u", "v"), np.array([[0.5, 0.4]]))

    def test_row_extraction(self):
        k = StochasticKernel(("a", "b"), ("u", "v"),
                             np.array([[0.3, 0.7], [1.0, 0.0]]))
        assert k.row("b").probs.tolist() == [1.0, 0.0]
        assert k.row_by_index(0)["u"] == 0.3

    def test_a_loose_kernel_hands_out_its_own_rows(self):
        # a row is taken as its kernel holds it, at the kernel's tau_mass
        k = StochasticKernel(("a", "b"), ("y", "z"),
                             [[0.5, 0.5 + 5e-7], [0.3, 0.7]], tau_mass=1e-6)
        assert k.row("a").probs.tolist() == [0.5, 0.5 + 5e-7]
        assert k.row_by_index(1).probs.tolist() == [0.3, 0.7]

    def test_identity(self):
        k = StochasticKernel.identity(("a", "b", "c"))
        np.testing.assert_array_equal(k.matrix, np.eye(3))
        assert k.inputs == k.outputs

    def test_constant(self):
        target = FiniteDistribution(("u", "v"), np.array([0.4, 0.6]))
        k = StochasticKernel.constant(("a", "b", "c"), target)
        assert all(k.row(x).is_close(target, 0.0) for x in k.inputs)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            StochasticKernel(("a",), ("u", "v"), np.array([[1.0]]))


class TestLift:
    def test_point_mass_extracts_row(self):
        k = StochasticKernel(("a", "b"), ("u", "v"),
                             np.array([[0.3, 0.7], [0.9, 0.1]]))
        out = lift(k, point_distribution("b", ("a", "b")))
        # exact row extraction, not merely close
        assert out.probs.tolist() == [0.9, 0.1]

    def test_a_lift_is_not_checked_again(self):
        # inputs each within TAU_MASS whose product is not: the lift is
        # _lifted_probs bit for bit, as the distribution audits read it
        v = 0.5 + 4.5e-10
        lam = FiniteDistribution(("a", "b"), [v, v])
        k = StochasticKernel(("a", "b"), ("a", "b"), [[v, v], [v, v]])
        lifted = lift(k, lam)
        assert lifted.probs.tobytes() == _lifted_probs(k, lam).tobytes()
        assert not lifted.probs.flags.writeable
        # the relation form compares lifts; the metric form solves, and a
        # solver plan keeps its mass check
        mu = FiniteDistribution(("a", "b"), [0.3, 0.7])
        relation = DistributionPairRelation([(lam, mu)])
        assert stability_check(k, 1, relation=relation) is True
        with pytest.raises(ValidationError, match="outside tolerance"):
            stability_check(k, 1.0, pairs=[(lam, mu)],
                            metric=GroundMetric.line(("a", "b")))

    def test_ground_must_match(self):
        k = StochasticKernel.identity(("a", "b"))
        with pytest.raises(GroundMismatchError):
            lift(k, uniform_distribution(("b", "a")))

    @given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 10**6))
    def test_mass_conserved(self, ki, ko, seed):
        rng = np.random.default_rng(seed)
        kernel = rand_kernel(rng, labels(ki), labels(ko, "y"))
        lam = rand_dist(rng, labels(ki))
        out = lift(kernel, lam)
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_convex_combination_of_rows(self, rng):
        kernel = rand_kernel(rng, labels(3), labels(4, "y"))
        lam = rand_dist(rng, labels(3))
        manual = sum(
            lam.probs[i] * kernel.matrix[i] for i in range(3)
        )
        np.testing.assert_allclose(lift(kernel, lam).probs, manual, atol=1e-15)


class TestPointRelation:
    def test_dedupes_preserving_order(self):
        phi = PointRelation([("a", "b"), ("b", "c"), ("a", "b")])
        assert phi.pairs == (("a", "b"), ("b", "c"))
        assert len(phi) == 2
        assert ("a", "b") in phi
        assert ("b", "a") not in phi

    def test_membership_matches_pairs(self):
        phi = PointRelation([(1, 2), ("2", "3"), ("1", "2"), ("3", "1")])
        for a in ("1", "2", "3"):
            for b in ("1", "2", "3"):
                assert ((a, b) in phi) == ((a, b) in set(phi.pairs))
                assert ((int(a), int(b)) in phi) == ((a, b) in phi)

    def test_full(self):
        phi = PointRelation.full(("a", "b"))
        assert set(phi.pairs) == {("a", "b"), ("b", "a")}
        with_self = PointRelation.full(("a", "b"), include_self=True)
        assert len(with_self) == 4


class TestDistributionPairs:
    def test_pair_requires_shared_ground(self):
        with pytest.raises(GroundMismatchError):
            DistributionPair(
                uniform_distribution(("a", "b")),
                uniform_distribution(("u", "v")),
            )

    def test_aux_tags_normalized(self):
        pair = DistributionPair(
            uniform_distribution(("a", "b")),
            uniform_distribution(("a", "b")),
            aux=(1, 2),
        )
        assert pair.aux == ("1", "2")

    def test_from_point_relation(self):
        psi = DistributionPairRelation.from_point_relation(
            PointRelation([("a", "b")]), ("a", "b")
        )
        assert len(psi) == 1
        (pair,) = tuple(psi)
        assert pair.left.probs.tolist() == [1.0, 0.0]
        assert pair.right.probs.tolist() == [0.0, 1.0]


class TestGroundMetric:
    def test_line(self):
        d = GroundMetric.line(("a", "b", "c"))
        assert d.distance("a", "c") == 2.0
        assert d.is_symmetric()
        assert d.satisfies_triangle()

    def test_line_with_positions(self):
        d = GroundMetric.line(("a", "b"), positions=[0.0, 2.5])
        assert d.distance("b", "a") == 2.5

    def test_discrete(self):
        d = GroundMetric.discrete(("a", "b", "c"))
        assert d.distance("a", "b") == 1.0
        assert d.distance("a", "a") == 0.0
        assert d.satisfies_triangle()

    def test_from_mapping_can_be_asymmetric(self):
        d = GroundMetric.from_mapping(
            ("a", "b"), {("a", "b"): 1.0, ("b", "a"): 2.0}
        )
        assert not d.is_symmetric()

    def test_from_mapping_names_an_unknown_label(self):
        with pytest.raises(UnknownLabelError, match="'c' not in metric ground"):
            GroundMetric.from_mapping(("a", "b"), {("a", "c"): 1.0})

    def test_rejects_negative_cost(self):
        with pytest.raises(ValidationError):
            GroundMetric(("a", "b"), np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValidationError, match="diagonal"):
            GroundMetric(("a", "b"), np.array([[0.5, 1.0], [1.0, 0.0]]))

    def test_triangle_violation_detected(self):
        cost = np.array([
            [0.0, 1.0, 5.0],
            [1.0, 0.0, 1.0],
            [5.0, 1.0, 0.0],
        ])
        d = GroundMetric(("a", "b", "c"), cost)
        assert not d.satisfies_triangle()

    def test_triangle_matches_cube_form(self, rng):
        def cube(c, tol=1e-9):
            via = c[:, :, None] + c[None, :, :]
            return bool(np.all(c[:, None, :] <= via + tol))

        verdicts = []
        for trial in range(40):
            k = int(rng.integers(2, 12))
            cost = euclidean_metric(rng, labels(k)).cost.copy()
            if trial % 2:
                # stretch one pair past the route through a third point
                i, j = rng.choice(k, size=2, replace=False)
                cost[i, j] = cost[j, i] = cost[i, j] * rng.uniform(1.0, 3.0)
            elif trial % 4 == 2:
                cost = rng.random((k, k))
                cost = cost + cost.T
                np.fill_diagonal(cost, 0.0)
            d = GroundMetric(labels(k), cost)
            got = d.satisfies_triangle()
            assert got == cube(d.cost)
            verdicts.append(got)
        assert True in verdicts and False in verdicts

    def test_triangle_memory_is_quadratic(self, rng):
        # the n^3 form needs about 0.6 GB at n = 300
        d = euclidean_metric(rng, labels(300))
        tracemalloc.start()
        try:
            assert d.satisfies_triangle()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @staticmethod
    def one_middle(c, tol):
        """The middles j whose route breaks c[i, k] <= c[i, j] + c[j, k] + tol."""
        return [j for j in range(len(c))
                if not np.all(c <= c[:, [j]] + c[[j], :] + tol)]

    @staticmethod
    def near_uniform(rng, n):
        """Symmetric costs in [1, 1.2]: every route through a third point
        is at least 2, so the triangle inequality holds with room."""
        cost = rng.uniform(1.0, 1.2, (n, n))
        cost = np.minimum(cost, cost.T)
        np.fill_diagonal(cost, 0.0)
        return cost

    @pytest.mark.parametrize("n", [3, 25, 30])
    def test_triangle_blocks_find_a_violation_at_each_middle(self, rng, n):
        # blocks of 13 middles at n = 25 and 9 at n = 30 (8,192 cells),
        # so the last block is partial in both
        for tol in (0.0, TAU_NUM, 0.25):
            cost = self.near_uniform(rng, n)
            assert self.one_middle(cost, tol) == []
            assert GroundMetric(labels(n), cost).satisfies_triangle(tol)
            for j in range(n):
                i, k = rng.choice([m for m in range(n) if m != j], 2,
                                  replace=False)
                planted = cost.copy()
                planted[i, j] = planted[j, i] = planted[j, k] = planted[k, j] = 0.4
                # one ulp past the route through j; exactly on it passes
                edge = (planted[i, j] + planted[j, k]) + tol
                planted[i, k] = planted[k, i] = np.nextafter(edge, np.inf)
                assert self.one_middle(planted, tol) == [j]
                assert not GroundMetric(labels(n), planted).satisfies_triangle(tol)
                planted[i, k] = planted[k, i] = edge
                assert self.one_middle(planted, tol) == []
                assert GroundMetric(labels(n), planted).satisfies_triangle(tol)

    @pytest.mark.parametrize("n", [1, 2])
    def test_triangle_on_one_and_two_points(self, rng, n):
        cost = rng.uniform(0.5, 2.0, (n, n))
        np.fill_diagonal(cost, 0.0)
        d = GroundMetric(labels(n), cost)
        for tol in (0.0, TAU_NUM, -1e-300, -0.1):
            assert d.satisfies_triangle(tol) == (self.one_middle(d.cost, tol) == [])
        assert d.satisfies_triangle()
        assert not d.satisfies_triangle(-0.1)

    def test_submatrix(self):
        d = GroundMetric.line(("a", "b", "c"))
        block = d.submatrix(("a", "c"), ("b",))
        np.testing.assert_array_equal(block, [[1.0], [1.0]])
        with pytest.raises(UnknownLabelError):
            d.submatrix(("a", "z"), ("b",))


# ---------------------------------------------------------------------------
# one validation rule for the four array-backed types

# Exact binary fractions, so every row and total sums to 1.0 exactly, and
# flat entry 1 is zero for the three probability types.
VALID = {
    "distribution": np.array([0.25, 0.0, 0.75]),
    "kernel": np.array([[0.25, 0.0, 0.75], [0.5, 0.25, 0.25]]),
    "coupling": np.array([[0.125, 0.0, 0.25], [0.25, 0.125, 0.25]]),
    "metric": np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]),
}
BUILD = {
    "distribution": lambda a: FiniteDistribution(("a", "b", "c"), a),
    "kernel": lambda a: StochasticKernel(("a", "b"), ("u", "v", "w"), a),
    "coupling": lambda a: Coupling(("a", "b"), ("u", "v", "w"), a),
    "metric": lambda a: GroundMetric(("a", "b", "c"), a),
}
VALUES = {
    "distribution": lambda obj: obj.probs,
    "kernel": lambda obj: obj.matrix,
    "coupling": lambda obj: obj.mass,
    "metric": lambda obj: obj.cost,
}


def _set(flat_index, value):
    def edit(a):
        a.flat[flat_index] = value
        return a
    return edit


def _add(flat_index, value):
    def edit(a):
        a.flat[flat_index] += value
        return a
    return edit


MASS_TYPES = ("distribution", "kernel", "coupling")
OK = None
# case -> (edit of the valid array, outcome per type: OK or the error class).
# Flat entry 0 is the metric's first diagonal entry. Flat entry -2 is off
# the diagonal and in the last row, so a check of the first row alone
# misses it.
VALIDATION_CASES = {
    "valid": (lambda a: a, dict.fromkeys(BUILD, OK)),
    "wrong_shape": (lambda a: a[..., :-1],
                    dict.fromkeys(BUILD, DimensionMismatchError)),
    "nan": (_set(1, np.nan), dict.fromkeys(BUILD, ValidationError)),
    "pos_inf": (_set(1, np.inf), dict.fromkeys(BUILD, ValidationError)),
    "negative_1e-13": (_set(1, -1e-13),
                       {**dict.fromkeys(MASS_TYPES, OK),
                        "metric": ValidationError}),
    "negative_1e-6": (_set(1, -1e-6), dict.fromkeys(BUILD, ValidationError)),
    "mass_off_2e-9": (_add(-2, 2e-9),
                      {**dict.fromkeys(MASS_TYPES, ValidationError),
                       "metric": OK}),
    "mass_off_5e-10": (_add(-2, 5e-10), dict.fromkeys(BUILD, OK)),
    "diagonal_5e-10": (_add(0, 5e-10), dict.fromkeys(BUILD, OK)),
    "diagonal_2e-9": (_add(0, 2e-9), dict.fromkeys(BUILD, ValidationError)),
}


@pytest.mark.parametrize("kind", sorted(BUILD))
@pytest.mark.parametrize("case", sorted(VALIDATION_CASES))
def test_validation_table(kind, case):
    edit, outcome = VALIDATION_CASES[case]
    given = edit(VALID[kind].copy())
    before = given.copy()
    expected = outcome[kind]
    if expected is not OK:
        with pytest.raises(expected):
            BUILD[kind](given)
        return
    stored = VALUES[kind](BUILD[kind](given))
    np.testing.assert_array_equal(given, before)  # the input is not modified
    assert not stored.flags.writeable
    with pytest.raises(ValueError):
        stored.flat[2] = 0.5
    if case == "negative_1e-13":
        assert stored.flat[1] == 0.0 and not np.signbit(stored.flat[1])
    elif case == "diagonal_5e-10" and kind == "metric":
        assert stored.flat[0] == 0.0
    else:
        np.testing.assert_array_equal(stored, given)
