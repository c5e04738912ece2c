"""Shipped problems: the vectorized loss of each must match a scalar oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dperm.problems import (
    PROBLEM_BUILDERS,
    Dataset,
    DatasetBlock,
    Problem,
    _probe_unit_range,
    discrete_points,
    erm,
    labeled_threshold,
    objective_rows,
    objective_vector,
    packed_datasets,
    population_risk_vector,
    risk_rows,
    risk_vector,
)
from dperm.seeding import trial_rng
from dperm.spaces import GridSpec, discretize_box

# Scalar reference losses of the shipped problems, one (payload, point) pair
# at a time.  A point is x, or (x, y) when labeled.


def threshold_loss(payload, z):
    x, y = z
    return float((float(x) > payload[0]) != bool(round(float(y))))


def logistic_loss(payload, z):
    x, y = z
    x = np.atleast_1d(x)
    margin = (2.0 * float(y) - 1.0) * float(np.dot(payload, x))
    return float(np.logaddexp(0.0, -margin) / math.log1p(math.exp(len(x))))


def logistic_regularizer(n, payload, lam=0.1):
    return lam * float(np.dot(payload, payload)) / math.sqrt(n)


def pth_power_loss(payload, z):
    return float(abs(float(z) - payload[0]) ** 10)


def finite_support_loss(payload, z):
    # The payload is the hypothesis's 0/1 membership row over the cells.
    cells = len(payload)
    cell = min(int(float(z) * cells), cells - 1)
    return 0.0 if payload[cell] else 1.0


SCALAR_LOSSES = {
    "threshold": threshold_loss,
    "logistic": logistic_loss,
    "pth-power": pth_power_loss,
    "finite-support": finite_support_loss,
}


def point(data, i):
    return data.x[i] if data.y is None else (data.x[i], data.y[i])


# Samplers able to feed each problem in its native shape.
FEEDERS = {
    "threshold": lambda n, rng: labeled_threshold(0.4, support_size=32).sample(n, rng),
    "logistic": lambda n, rng: labeled_threshold(0.5, support_size=32).sample(n, rng),
    "pth-power": lambda n, rng: Dataset(x=rng.uniform(0.0, 1.0, n)),
    "finite-support": lambda n, rng: Dataset(x=rng.uniform(0.0, 1.0, n)),
}


@pytest.mark.parametrize("kind", sorted(PROBLEM_BUILDERS))
def test_scalar_and_vectorized_losses_agree(kind):
    problem, space = PROBLEM_BUILDERS[kind]()
    data = FEEDERS[kind](13, trial_rng(17, 0))
    matrix = problem.loss_matrix(space.payloads, data)
    assert matrix.shape == (space.size, data.n)
    rng = np.random.default_rng(1)
    for hid in rng.choice(space.size, size=min(space.size, 12), replace=False):
        for j in range(data.n):
            direct = SCALAR_LOSSES[kind](space.payloads[hid], point(data, j))
            assert matrix[hid, j] == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("kind", sorted(PROBLEM_BUILDERS))
def test_losses_live_in_unit_interval(kind):
    problem, space = PROBLEM_BUILDERS[kind]()
    for rep in range(3):
        data = FEEDERS[kind](20, trial_rng(23, rep))
        matrix = problem.loss_matrix(space.payloads, data)
        assert matrix.min() >= 0.0
        assert matrix.max() <= 1.0 + 1e-12


def test_threshold_loss_closed_form():
    problem, space = PROBLEM_BUILDERS["threshold"](resolution=4)
    data = Dataset(x=np.array([0.2, 0.9]), y=np.array([0.0, 1.0]))
    # Classifier 1(x > h) at h = 0.625: both points classified correctly.
    matrix = problem.loss_matrix(space.payloads, data)
    assert matrix[2].tolist() == [0.0, 0.0]
    # At h = 0.125 the first point is predicted positive but labeled 0.
    assert matrix[0].tolist() == [1.0, 0.0]


def test_objective_adds_regularizer():
    problem, space = PROBLEM_BUILDERS["logistic"](resolution=8)
    data = FEEDERS["logistic"](9, trial_rng(3, 0))
    risks = risk_vector(problem, space, data)
    objectives = objective_vector(problem, space, data)
    reg = problem.reg_vector(data.n, space.payloads)
    assert np.allclose(objectives, risks + reg)
    payload = space.payloads[5]
    risk = np.mean([logistic_loss(payload, point(data, j)) for j in range(data.n)])
    assert risk == pytest.approx(risks[5])
    assert risk + logistic_regularizer(data.n, payload) == pytest.approx(objectives[5])


def test_zeta_dominates_regularizer_on_grid():
    problem, space = PROBLEM_BUILDERS["logistic"](resolution=8)
    for n in (3, 50, 1000):
        reg = problem.reg_vector(n, space.payloads)
        assert np.allclose(reg, [logistic_regularizer(n, p) for p in space.payloads])
        assert reg.max() <= problem.zeta(n) + 1e-12


def test_finite_support_rows_list_subsets_by_size_then_lexicographically():
    problem, space = PROBLEM_BUILDERS["finite-support"](cells=5, max_subset_size=2)
    subsets = [()] + [(c,) for c in range(5)] + [
        (a, b) for a in range(5) for b in range(a + 1, 5)
    ]
    expected = [[float(c in s) for c in range(5)] for s in subsets]
    assert space.payloads.tolist() == expected
    assert problem.dimension == 5


def _planted(bad):
    """|x - h| on the unit grid, but ``bad`` where both exceed 0.9."""

    def loss_matrix(payloads, dataset):
        h = payloads[:, 0, None]
        losses = np.abs(dataset.x[None, :] - h)
        if bad is not None:
            losses[(h > 0.9) & (dataset.x[None, :] > 0.9)] = bad
        return losses

    return Problem(name=f"planted-{bad}", dimension=1, loss_matrix=loss_matrix)


@pytest.mark.parametrize("bad", [1.5, -0.1])
def test_probe_refuses_a_loss_outside_unit_range(bad):
    space = discretize_box(GridSpec((0.0,), (1.0,), (20,)))

    def draw_points(rng, m):
        return Dataset(x=rng.uniform(0.0, 1.0, size=m))

    _probe_unit_range(_planted(None), space, draw_points)
    with pytest.raises(ValueError, match=f"planted-{bad}: loss {bad} outside"):
        _probe_unit_range(_planted(bad), space, draw_points)


def test_erm_returns_argmin():
    problem, space = PROBLEM_BUILDERS["threshold"](resolution=16)
    data = FEEDERS["threshold"](40, trial_rng(11, 0))
    hid = erm(problem, space, data)
    objectives = objective_vector(problem, space, data)
    assert objectives[hid] == pytest.approx(objectives.min())


class TestDataset:
    def test_point_conventions(self):
        data = Dataset(x=[0.1, 0.2], y=[1, 0])
        assert data.y.dtype == float and data.y.tolist() == [1.0, 0.0]
        plain = Dataset(x=np.array([0.3, 0.4]))
        assert plain.y is None

    def test_take_copies(self):
        data = Dataset(x=np.array([0.1, 0.2, 0.3]), y=np.array([0.0, 1.0, 1.0]))
        sub = data.take([2, 0])
        assert sub.x.tolist() == [0.3, 0.1]
        assert sub.y.tolist() == [1.0, 0.0]
        sub.x[0] = 99.0
        assert data.x[2] == 0.3

    def test_take_keeps_atom_ids_and_support(self):
        dist = labeled_threshold(0.5, support_size=16)
        data = dist.sample(30, trial_rng(3, 0))
        idx = trial_rng(3, 1).permutation(30)[:11]
        sub = data.take(idx)
        assert sub.support is dist.support
        assert np.array_equal(sub.atom_ids, data.atom_ids[idx])
        assert np.array_equal(sub.x, data.x[idx])
        assert np.array_equal(sub.y, data.y[idx])

    def test_points_with_atom_ids_are_read_only(self):
        dist = discrete_points(np.array([0.2, 0.8]), y=np.array([0.0, 1.0]))
        data = dist.sample(5, trial_rng(4, 0))
        for a in (data.x, data.y, data.atom_ids, data.take([1, 3]).x,
                  dist.support.x, dist.support.y):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.5
        # The atoms handed out by atoms() stay the caller's to edit.
        dist.atoms().x[0] = 0.5
        assert dist.support.x[0] == 0.2

    def test_only_draws_from_a_discrete_law_carry_atom_ids(self):
        dist = labeled_threshold(0.5, support_size=8)
        data = dist.sample(6, trial_rng(5, 0))
        assert data.support is dist.support
        assert np.array_equal(data.x, dist.support.x[data.atom_ids])
        plain = [dist.atoms(), labeled_threshold(0.5).sample(6, trial_rng(5, 1)),
                 Dataset(x=trial_rng(5, 2).uniform(0.0, 1.0, 6)),
                 packed_datasets(1.0, 3).datasets[0], Dataset(x=data.x, y=data.y)]
        for d in plain:
            assert d.atom_ids is None and d.support is None
        assert labeled_threshold(0.5).support is None


class TestDistributions:
    def test_discrete_sampling_hits_atoms_only(self):
        dist = discrete_points(np.array([0.2, 0.8]), probs=np.array([0.7, 0.3]))
        data = dist.sample(500, trial_rng(1, 0))
        assert set(np.unique(data.x)) <= {0.2, 0.8}
        assert abs((data.x == 0.2).mean() - 0.7) < 0.08

    def test_labeled_threshold_discrete_support(self):
        dist = labeled_threshold(0.5, support_size=8)
        atoms = dist.atoms()
        assert atoms.n == 8
        assert np.array_equal(atoms.y, (atoms.x > 0.5).astype(float))

    def test_labeled_threshold_continuous(self):
        dist = labeled_threshold(0.3)
        data = dist.sample(200, trial_rng(2, 0))
        assert np.array_equal(data.y, (data.x > 0.3).astype(float))
        assert data.x.min() >= 0.0 and data.x.max() <= 1.0

    @given(st.integers(1, 6))
    @settings(max_examples=20)
    def test_population_risk_exact_matches_vector(self, seed):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=8)
        dist = labeled_threshold(0.5, support_size=16)
        risks = population_risk_vector(problem, space, dist)
        hid = seed % space.size
        # Oracle: the scalar loss summed over the atoms, not loss_matrix.
        atoms = dist.atoms()
        oracle = sum(
            float(p) * threshold_loss(space.payloads[hid], point(atoms, i))
            for i, p in enumerate(dist.probs)
        )
        assert risks[hid] == pytest.approx(oracle)


class FixedUniforms:
    """A stand-in generator whose random(n) returns given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == len(self.u)
        return self.u


class TestDatasetAtUniforms:
    def test_subsample_maps_only_the_kept_uniforms(self):
        # The phase study's draw: the points at u[idx] are the points at u
        # taken at idx, for u on, and one ulp either side of, every CDF value.
        dist = labeled_threshold(0.5, support_size=512)
        cdf = np.cumsum(dist.probs)
        edges = cdf[cdf < 1.0]
        u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                            [0.0, np.nextafter(1.0, 0.0)]])
        u = u[trial_rng(8, 0).permutation(len(u))]
        for m in (1, 7, 200, len(u)):
            idx = trial_rng(8, m).choice(len(u), size=m, replace=False)
            sub = dist.dataset_at(u[idx])
            full = dist.sample(len(u), FixedUniforms(u)).take(idx)
            assert np.array_equal(sub.atom_ids, full.atom_ids)
            assert np.array_equal(sub.x, full.x)
            assert np.array_equal(sub.y, full.y)
        assert dist.dataset_at(np.array([np.nextafter(1.0, 0.0)])).atom_ids[0] == 511

    def test_continuous_law_has_no_uniform_step(self):
        with pytest.raises(ValueError, match="no finite support"):
            labeled_threshold(0.5).dataset_at(np.array([0.5]))
        with pytest.raises(ValueError, match="no finite support"):
            labeled_threshold(0.5).datasets_at(np.full((2, 3), 0.5))


def _loss_rows(problem, space, datasets):
    return np.stack([problem.loss_matrix(space.payloads, d).mean(axis=1)
                     for d in datasets])


def _recording(problem):
    """The problem with a loss_matrix that records the size of each dataset
    it is called on."""
    sizes = []

    def loss_matrix(payloads, dataset):
        sizes.append(dataset.n)
        return problem.loss_matrix(payloads, dataset)

    return Problem(name=problem.name, dimension=problem.dimension,
                   loss_matrix=loss_matrix), sizes


def _skewed(dist, skew):
    k = len(dist.probs)
    weights = skew ** np.arange(k)
    return discrete_points(dist.x_atoms, y=dist.y_atoms, probs=weights / weights.sum())


ZERO_ONE_CASES = {
    # threshold, |H| = 257, on the 512-atom law of the phase study
    "threshold-512": lambda: (PROBLEM_BUILDERS["threshold"](resolution=257),
                              labeled_threshold(0.5, support_size=512)),
    # finite support, 8 cells, |H| = 93, one atom per cell center
    "finite-support-8": lambda: (PROBLEM_BUILDERS["finite-support"](cells=8),
                                 discrete_points((np.arange(8) + 0.5) / 8)),
    # the two-atom law of the consistency study
    "consistency-2": lambda: (PROBLEM_BUILDERS["threshold"](resolution=16),
                              discrete_points(np.array([0.3, 0.7]), y=np.array([0.0, 1.0]))),
}


@st.composite
def blocks(draw):
    """Blocks of 1..300 datasets of 1..10,000 points, at most 20,000 points
    in all, and a law skew (1.0 is the uniform law)."""
    count = draw(st.integers(1, 300))
    n = draw(st.integers(1, min(10_000, 20_000 // count)))
    skew = draw(st.sampled_from([1.0, 0.97, 0.7, 0.2]))
    return count, n, skew, draw(st.integers(0, 2**32))


class TestDatasetsAt:
    @pytest.mark.parametrize("shape", [(), (4,), (2, 3, 4)])
    def test_block_needs_one_row_per_dataset(self, shape):
        dist = labeled_threshold(0.5, support_size=8)
        with pytest.raises(ValueError, match="one row of uniforms per dataset"):
            dist.datasets_at(np.full(shape, 0.5))

    @pytest.mark.parametrize("case", sorted(ZERO_ONE_CASES))
    @given(block=st.tuples(st.integers(1, 130), st.integers(1, 60),
                           st.sampled_from([1.0, 0.7, 0.2]), st.integers(0, 2**32)))
    @settings(max_examples=20, deadline=None)
    def test_block_rows_are_the_one_row_datasets(self, case, block):
        # Blocks past GUIDE_MIN_DRAWS uniforms take the guide table while
        # their rows alone are binary searched; the uniforms include CDF
        # values, one ulp either side of them, and the largest double below 1.
        (problem, space), dist = ZERO_ONE_CASES[case]()
        trials, n, skew, seed = block
        dist = _skewed(dist, skew)
        rng = trial_rng(seed, 0)
        cdf = np.cumsum(dist.probs)
        marks = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
                                [0.0, np.nextafter(1.0, 0.0)]])
        u = rng.random((trials, n))
        u = np.where(rng.random(u.shape) < 0.3, rng.choice(marks[marks < 1.0], u.shape), u)
        rows = dist.datasets_at(u)
        singles = [dist.dataset_at(r) for r in u]
        assert len(rows) == trials
        for got, one in zip(rows, singles):
            assert got.support is dist.support and one.support is dist.support
            for a, b in ((got.x, one.x), (got.y, one.y), (got.atom_ids, one.atom_ids)):
                if b is None:
                    assert a is None
                    continue
                assert np.array_equal(a, b)
                assert not a.flags.writeable
        assert isinstance(rows, DatasetBlock) and not rows.atom_ids.flags.writeable
        assert np.array_equal(risk_rows(problem, space, rows),
                              np.stack([risk_vector(problem, space, d) for d in singles]))
        idx = rng.permutation(n)[: max(1, n // 3)]
        cols = rows.columns(idx)
        assert cols.support is dist.support and not cols.atom_ids.flags.writeable
        assert np.array_equal(cols.atom_ids, np.stack([d.take(idx).atom_ids for d in singles]))

    def test_block_is_a_sequence_of_datasets(self):
        dist = labeled_threshold(0.5, support_size=8)
        u = trial_rng(3, 0).random((4, 6))
        block = dist.datasets_at(u)
        assert len(block) == 4 and block.n == 6
        assert [d.atom_ids.tolist() for d in block] == block.atom_ids.tolist()
        assert np.array_equal(block[-1].x, dist.dataset_at(u[3]).x)
        with pytest.raises(IndexError):
            block[4]
        with pytest.raises(TypeError):
            block[1:3]
        with pytest.raises(ValueError, match="one row of atom ids per dataset"):
            DatasetBlock(dist.support, [1, 2])

    @pytest.mark.parametrize("ids", [[[0, 4], [3, 3]], [[0, 1], [-1, 2]]])
    def test_block_refuses_ids_outside_the_support(self, ids):
        # Id 4 of a 4-atom support would spill into the next row's counts:
        # row 0 would read atoms 0 and 0 (risk 0 at hypothesis 0, not 1/2).
        dist = discrete_points(np.array([0.2, 0.4, 0.6, 0.8]), y=np.array([0.0, 1.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match=re.escape("[0, 4)")):
            DatasetBlock(dist.support, ids)

    @pytest.mark.parametrize("ids", [[0, -1], [0, 4]])
    def test_of_atoms_refuses_ids_outside_the_support(self, ids):
        # Id -1 would wrap around to the last atom's point while the id
        # stayed -1, so the points and the counts would disagree.
        dist = discrete_points(np.array([0.2, 0.4, 0.6, 0.8]), y=np.array([0.0, 1.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match=re.escape("[0, 4)")):
            Dataset.of_atoms(dist.support, ids)

    def test_block_objective_rows_add_one_regularizer_row(self):
        # Logistic losses take the loss path, item by item, and the block
        # adds its one regularizer row.
        problem, space = PROBLEM_BUILDERS["logistic"]()
        block = labeled_threshold(0.5, support_size=16).datasets_at(
            trial_rng(14, 0).random((5, 9)))
        assert np.array_equal(objective_rows(problem, space, block),
                              np.stack([objective_vector(problem, space, d) for d in block]))


class TestRiskRows:
    @pytest.mark.parametrize("case", sorted(ZERO_ONE_CASES))
    @given(block=blocks())
    @settings(max_examples=25, deadline=None)
    def test_counts_equal_the_loss_path_bit_for_bit(self, case, block):
        (problem, space), dist = ZERO_ONE_CASES[case]()
        count, n, skew, seed = block
        datasets = _skewed(dist, skew).datasets_at(trial_rng(seed, 0).random((count, n)))
        risks = risk_rows(problem, space, datasets)
        assert risks.shape == (count, space.size)
        assert np.array_equal(risks, _loss_rows(problem, space, datasets))
        assert np.array_equal(risk_vector(problem, space, datasets[0]), risks[0])
        # One loss table, over the atoms present in the block.
        recorded, calls = _recording(problem)
        risk_rows(recorded, space, datasets)
        assert calls == [len(np.unique(datasets.atom_ids))]

    @pytest.mark.parametrize("kind", ["pth-power", "logistic"])
    def test_other_losses_take_the_loss_path(self, kind):
        # |x - h|^10 and the logistic loss are not 0/1: their sums depend
        # on the order of the points, so every dataset goes through
        # loss_matrix in full.
        problem, space = PROBLEM_BUILDERS[kind]()
        dist = labeled_threshold(0.5, support_size=16)
        for n in (1, 9, 300):
            datasets = dist.datasets_at(trial_rng(9, n).random((3, n)))
            recorded, calls = _recording(problem)
            risks = risk_rows(recorded, space, datasets)
            # The table over the atoms present, found not 0/1, then every
            # dataset.
            assert calls == [len(np.unique(datasets.atom_ids))] + [n] * 3
            assert np.array_equal(risks, _loss_rows(problem, space, datasets))

    def test_negative_zero_losses_take_the_loss_path(self):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=4)
        negated = Problem(name="negated-zero", dimension=1,
                          loss_matrix=lambda h, d: np.where(
                              problem.loss_matrix(h, d) == 0.0, -0.0, 1.0))
        data = labeled_threshold(0.5, support_size=4).datasets_at(
            trial_rng(11, 0).random((1, 6)))
        recorded, calls = _recording(negated)
        risks = risk_rows(recorded, space, data)
        assert calls[1:] == [6]
        assert np.array_equal(np.signbit(risks), np.signbit(_loss_rows(negated, space, data)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_losses_are_refused(self, bad):
        # A table that is not 0/1 goes to the loss path, which checks it.
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=4)
        broken = Problem(name="broken", dimension=1, loss_matrix=lambda h, d: np.where(
            problem.loss_matrix(h, d) == 0.0, 0.0, bad))
        data = labeled_threshold(0.5, support_size=4).datasets_at(
            trial_rng(11, 0).random((2, 6)))
        with pytest.raises(ValueError, match="non-finite"):
            risk_rows(broken, space, data)

    def test_objective_rows_add_each_datasets_regularizer(self):
        # The regularizer depends on n: each block adds the row at its size,
        # and one dataset, with or without atom ids, adds the row at its own.
        problem, space = PROBLEM_BUILDERS["logistic"]()
        dist = labeled_threshold(0.5, support_size=16)
        for n in (3, 40, 7):
            datasets = dist.datasets_at(trial_rng(12, n).random((2, n)))
            expected = (_loss_rows(problem, space, datasets)
                        + problem.reg_vector(n, space.payloads))
            assert np.array_equal(objective_rows(problem, space, datasets), expected)
            for d, row in zip(datasets, expected):
                assert np.array_equal(objective_vector(problem, space, d), row)
                assert np.array_equal(objective_vector(problem, space, Dataset(x=d.x, y=d.y)), row)
        plain = Dataset(x=[0.1, 0.7], y=[0.0, 1.0])
        assert np.array_equal(objective_vector(problem, space, plain),
                              _loss_rows(problem, space, [plain])[0]
                              + problem.reg_vector(2, space.payloads))

    def test_one_dataset_takes_the_loss_path(self):
        # A dataset with repeated atoms is not counted: loss_matrix runs
        # once, on its n points.
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=16)
        data = labeled_threshold(0.5, support_size=4).sample(30, trial_rng(13, 0))
        assert len(np.unique(data.atom_ids)) < data.n
        recorded, calls = _recording(problem)
        risks = risk_vector(recorded, space, data)
        assert calls == [30]
        assert np.array_equal(risks, _loss_rows(problem, space, [data])[0])

    def test_a_list_of_datasets_is_refused(self):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=8)
        data = labeled_threshold(0.5, support_size=4).sample(5, trial_rng(14, 0))
        for rows in (risk_rows, objective_rows):
            with pytest.raises(TypeError) as err:
                rows(problem, space, [data, data])
            assert re.search(r"\bDataset\b", str(err.value))
            assert re.search(r"\bDatasetBlock\b", str(err.value))


class TestPackedFamily:
    def test_count_and_spacing(self):
        family = packed_datasets(1.0, 3)
        assert family.count == math.ceil(math.exp(3.0)) == 21
        assert family.eta == pytest.approx(1.0 / 21.0)
        gaps = np.diff(family.thresholds)
        assert np.allclose(gaps, family.eta)

    def test_each_dataset_fits_its_own_threshold(self):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=64)
        family = packed_datasets(1.0, 3)
        for h, data in zip(family.thresholds, family.datasets):
            losses = problem.loss_matrix(
                space.payloads, data
            )  # any grid point inside the pocket gets zero risk
            assert not problem.loss_matrix(np.array([[h]]), data).any()
            assert losses.min() == 0.0

    def test_pockets_are_disjoint(self):
        family = packed_datasets(1.0, 3)
        for left, right in zip(family.datasets[:-1], family.datasets[1:]):
            assert left.x.max() < right.x.min()

    def test_size_cap(self):
        from dperm.spaces import SizeLimitError

        with pytest.raises(SizeLimitError):
            packed_datasets(1.0, 50)
