"""Tests for ``simulate_protocol``, the one way a grid point is simulated.

Every protocol of the paper's Section 5 grid, plus the one-shot L-GRR
collection, is pinned on the path a sweep takes to run it:

* a protocol rebuilt from a pickled spec, and a pickled protocol, reproduce
  the run, and a pickled result comes back unchanged (what a process pool
  ships each way);
* a sweep task run in-process equals ``simulate_protocol``, whether or not
  it names its dataset;
* a seed fixes the run, and the scores are Eq. (7) and Eq. (8) of the run's
  own estimates and memo keys;
* a simulation leaves its dataset untouched and refuses one of another
  domain size;
* on a one-round workload every user memoizes exactly one key.

Malformed sweep and sink inputs fail with typed errors, the round windows
of the driver are a contiguous cover of steady rounds, and the reference
client path keeps L-GRR's per-round estimate total at one.
"""

import pickle

import numpy as np
import pytest

from repro.datasets.base import LongitudinalDataset
from repro.exceptions import AggregationError, ExperimentError, ParameterError
from repro.experiments.empirical import EMPIRICAL_PROTOCOLS, paper_protocol_specs
from repro.longitudinal import LGRR, DBitFlipPM
from repro.registry import build_protocol
from repro.simulation import round_windows, simulate_protocol, simulate_with_clients
from repro.simulation.metrics import averaged_longitudinal_privacy_loss, averaged_mse
from repro.simulation.sinks import SupportCountSink, estimate_support_counts
from repro.simulation.sweep import SweepTask, _execute_task, run_sweep
from repro.specs import ProtocolSpec

LABELS = EMPIRICAL_PROTOCOLS + ("L-GRR-oneshot",)


def _spec_and_dataset(label, tiny_dataset, oneshot_dataset):
    """The protocol spec and workload of one test label."""
    if label == "L-GRR-oneshot":
        return ProtocolSpec(name="L-GRR", eps_inf=1.0, alpha=0.5), oneshot_dataset
    return paper_protocol_specs()[label].at(eps_inf=2.0, alpha=0.5), tiny_dataset


def _assert_same_result(left, right):
    assert np.array_equal(left.estimates, right.estimates)
    assert np.array_equal(left.true_frequencies, right.true_frequencies)
    assert np.array_equal(
        left.distinct_memoized_per_user, right.distinct_memoized_per_user
    )
    assert left.mse_avg == right.mse_avg
    assert left.eps_avg == right.eps_avg
    assert left.worst_case_budget == right.worst_case_budget


@pytest.mark.parametrize("label", LABELS)
class TestSimulationPerProtocol:
    def test_pickled_spec_and_protocol_reproduce_the_run(
        self, label, tiny_dataset, oneshot_dataset
    ):
        """A pool worker rebuilds the protocol from a pickled spec; neither
        that nor pickling the protocol itself may change a single count."""
        spec, dataset = _spec_and_dataset(label, tiny_dataset, oneshot_dataset)
        protocol = build_protocol(spec.at(k=dataset.k))
        shipped_spec = pickle.loads(pickle.dumps(spec))
        assert shipped_spec == spec
        original = simulate_protocol(protocol, dataset, rng=5)
        for rebuilt in (
            build_protocol(shipped_spec.at(k=dataset.k)),
            pickle.loads(pickle.dumps(protocol)),
        ):
            _assert_same_result(simulate_protocol(rebuilt, dataset, rng=5), original)

    def test_pickled_result_equals_the_original(
        self, label, tiny_dataset, oneshot_dataset
    ):
        spec, dataset = _spec_and_dataset(label, tiny_dataset, oneshot_dataset)
        result = simulate_protocol(build_protocol(spec.at(k=dataset.k)), dataset, rng=4)
        shipped = pickle.loads(pickle.dumps(result))
        _assert_same_result(shipped, result)
        assert (shipped.protocol_name, shipped.dataset_name) == (
            result.protocol_name,
            result.dataset_name,
        )
        assert shipped.extra == result.extra

    def test_sweep_task_in_process_equals_simulate_protocol(
        self, label, tiny_dataset, oneshot_dataset
    ):
        """A task run on the dataset it is handed, named or not, is the
        ``simulate_protocol`` run of the protocol it builds."""
        spec, dataset = _spec_and_dataset(label, tiny_dataset, oneshot_dataset)
        seed = np.random.SeedSequence(21)
        direct = simulate_protocol(
            build_protocol(spec.at(k=dataset.k)), dataset, np.random.default_rng(seed)
        )
        for dataset_name in (dataset.name, ""):
            task = SweepTask(
                spec=spec,
                dataset_name=dataset_name,
                eps_inf=spec.eps_inf,
                alpha=spec.alpha,
                run=0,
            )
            index, result = _execute_task(3, task, seed, True, dataset)
            assert index == 3
            _assert_same_result(result, direct)

    def test_a_seed_fixes_the_run(self, label, tiny_dataset, oneshot_dataset):
        spec, dataset = _spec_and_dataset(label, tiny_dataset, oneshot_dataset)
        protocol = build_protocol(spec.at(k=dataset.k))
        first = simulate_protocol(protocol, dataset, rng=8)
        _assert_same_result(simulate_protocol(protocol, dataset, rng=8), first)
        _assert_same_result(
            simulate_protocol(protocol, dataset, np.random.default_rng(8)), first
        )
        other = simulate_protocol(protocol, dataset, rng=9)
        assert not np.array_equal(other.estimates, first.estimates)

    def test_scores_are_eq7_and_eq8_of_the_run(
        self, label, tiny_dataset, oneshot_dataset
    ):
        spec, dataset = _spec_and_dataset(label, tiny_dataset, oneshot_dataset)
        protocol = build_protocol(spec.at(k=dataset.k))
        result = simulate_protocol(protocol, dataset, rng=13)
        domain = protocol.estimation_domain_size
        assert result.estimates.shape == (dataset.n_rounds, domain)
        assert result.true_frequencies.shape == (dataset.n_rounds, domain)
        assert np.allclose(result.true_frequencies.sum(axis=1), 1.0)
        assert result.mse_avg == averaged_mse(result.estimates, result.true_frequencies)
        assert result.eps_avg == averaged_longitudinal_privacy_loss(
            result.distinct_memoized_per_user, protocol.eps_inf
        )
        assert result.distinct_memoized_per_user.shape == (dataset.n_users,)
        assert result.distinct_memoized_per_user.min() >= 1
        assert result.eps_avg <= result.worst_case_budget

    def test_dataset_is_left_untouched(self, label, tiny_dataset, oneshot_dataset):
        """Serial sweeps hand one dataset to every task in turn, so a run
        may not write to it."""
        spec, dataset = _spec_and_dataset(label, tiny_dataset, oneshot_dataset)
        before = dataset.values.copy()
        simulate_protocol(build_protocol(spec.at(k=dataset.k)), dataset, rng=2)
        assert np.array_equal(dataset.values, before)

    def test_dataset_of_another_domain_size_is_refused(
        self, label, tiny_dataset, oneshot_dataset
    ):
        spec, dataset = _spec_and_dataset(label, tiny_dataset, oneshot_dataset)
        protocol = build_protocol(spec.at(k=dataset.k + 1))
        with pytest.raises(ExperimentError, match="does not match dataset domain"):
            simulate_protocol(protocol, dataset, rng=0)


@pytest.mark.parametrize("label", EMPIRICAL_PROTOCOLS)
def test_one_round_workload_memoizes_one_key_per_user(label, oneshot_dataset):
    protocol = build_protocol(
        paper_protocol_specs()[label].at(k=oneshot_dataset.k, eps_inf=2.0, alpha=0.5)
    )
    result = simulate_protocol(protocol, oneshot_dataset, rng=6)
    assert result.estimates.shape == (1, protocol.estimation_domain_size)
    assert np.array_equal(
        result.distinct_memoized_per_user, np.ones(oneshot_dataset.n_users)
    )
    assert result.eps_avg == pytest.approx(protocol.eps_inf)


class TestSweepWorkers:
    @pytest.mark.parametrize("n_workers", [0, -2, 1.5, True, "2"])
    def test_invalid_worker_counts_are_refused(self, n_workers, tiny_dataset):
        spec = ProtocolSpec(name="L-OSUE")
        with pytest.raises(ParameterError, match="n_workers"):
            run_sweep(
                {"L-OSUE": spec},
                tiny_dataset,
                eps_inf_values=[2.0],
                alpha_values=[0.5],
                n_workers=n_workers,
            )

    def test_more_workers_than_tasks_bit_identical(self, tiny_dataset):
        grid = dict(eps_inf_values=[2.0], alpha_values=[0.5], n_runs=2, rng=3)
        protocols = {"L-OSUE": ProtocolSpec(name="L-OSUE")}
        (serial,) = run_sweep(protocols, tiny_dataset, **grid)
        (pooled,) = run_sweep(protocols, tiny_dataset, n_workers=4, **grid)
        assert len(serial.runs) == len(pooled.runs) == 2
        for left, right in zip(serial.runs, pooled.runs):
            _assert_same_result(left, right)

    def test_task_outside_an_initialized_pool_needs_a_dataset(self):
        task = SweepTask(
            spec=ProtocolSpec(name="L-OSUE"),
            dataset_name="tiny",
            eps_inf=2.0,
            alpha=0.5,
            run=0,
        )
        with pytest.raises(ExperimentError, match="no dataset for sweep task"):
            _execute_task(0, task, np.random.SeedSequence(1), False)


class TestSupportCountSinkRefusals:
    def test_counts_of_another_shape_are_refused(self):
        sink = SupportCountSink(2, 3, 5)
        with pytest.raises(AggregationError, match="expected counts of shape"):
            sink.add_round(0, np.zeros(4))
        sink.add_round(0, np.zeros(3))
        sink.add_round(1, np.zeros(3))
        assert sink.support_counts.shape == (2, 3)

    @pytest.mark.parametrize(
        "n_rounds, domain_size, n_users, name",
        [(0, 3, 5, "n_rounds"), (2, 0, 5, "domain_size"), (2, 3, 0, "n_users")],
    )
    def test_empty_shapes_are_refused(self, n_rounds, domain_size, n_users, name):
        with pytest.raises(ParameterError, match=name):
            SupportCountSink(n_rounds, domain_size, n_users)

    def test_dbitflip_estimates_use_the_effective_sample_size(self):
        protocol = DBitFlipPM(12, 2.0, b=6, d=2)
        counts = np.asarray([[10.0, 20.0, 5.0, 15.0, 30.0, 20.0]])
        sink = SupportCountSink(1, protocol.estimation_domain_size, 90)
        sink.add_round(0, counts[0])
        estimates = sink.estimates(protocol)
        assert np.array_equal(estimates, estimate_support_counts(protocol, counts, 90))
        p, q = protocol.bit_probabilities
        effective_n = 90 * protocol.d / protocol.b
        assert np.allclose(estimates, (counts - effective_n * q) / (effective_n * (p - q)))


@pytest.mark.parametrize("n_users, n_rounds, change", [
    (1, 1, 0.5), (1, 9, 0.5), (3, 2, 0.0), (3, 2, 1.0),
    (10, 12, 0.05), (50, 30, 0.01), (200, 40, 0.002), (7, 20, 0.3),
])
def test_round_windows_are_a_contiguous_cover_of_steady_rounds(
    n_users, n_rounds, change
):
    """Each window is a run of rounds in which no value changes, and any
    two neighbouring windows differ in some user's value."""
    rng = np.random.default_rng(n_users * 100 + n_rounds)
    values = np.empty((n_users, n_rounds), dtype=np.int64)
    values[:, 0] = rng.integers(0, 4, size=n_users)
    for t in range(1, n_rounds):
        moved = rng.random(n_users) < change
        values[:, t] = np.where(moved, (values[:, t - 1] + 1) % 4, values[:, t - 1])
    windows = round_windows(values)
    assert windows[0][0] == 0 and windows[-1][1] == n_rounds
    for (_, stop), (start, _) in zip(windows[:-1], windows[1:]):
        assert stop == start
        assert not np.array_equal(values[:, stop - 1], values[:, start])
    for start, stop in windows:
        assert stop > start
        assert (values[:, start:stop] == values[:, [start]]).all()


def test_reference_lgrr_estimates_sum_to_one_in_every_round():
    """Per-user GRR reports hold exactly one symbol each and p + (k-1)q = 1
    at both steps, so the chained estimate of the client path sums to one;
    the engine samples per-symbol marginals and matches only in expectation."""
    dataset = LongitudinalDataset(
        values=np.random.default_rng(0).integers(0, 5, size=(60, 3)),
        k=5,
        name="five",
    )
    result = simulate_with_clients(LGRR(5, 2.0, 1.0), dataset, rng=1)
    assert np.allclose(result.estimates.sum(axis=1), 1.0)
