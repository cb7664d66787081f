"""End-to-end integration tests across packages.

These tests exercise realistic (scaled-down) paper scenarios: datasets feed
the simulation harness, whose results are scored with the paper metrics,
persisted through the results store and summarized by the experiment report
helpers — i.e. the same path the benchmark harness uses.
"""

import importlib

import numpy as np
import pytest

from repro import BiLOLOHA, LOSUE, LSUE, OLOLOHA, __version__
from repro.datasets import make_dataset, make_syn
from repro.experiments.report import format_table
from repro.simulation import simulate_protocol
from repro.service import CollectorSession
from repro.store import ResultsStore


class TestPublicAPI:
    def test_version_is_exposed(self):
        assert __version__

    def test_top_level_exports_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    @pytest.mark.parametrize("module", ["repro", "repro.simulation", "repro.service"])
    def test_lazy_exports_resolve_and_are_listed(self, module):
        """Each ``__all__`` name resolves through the package's lazy
        ``__getattr__`` and is listed by ``dir()``, so a lazy table that
        names a deleted object, or a ``__getattr__`` without ``__dir__``,
        fails here."""
        package = importlib.import_module(module)
        listed = set(dir(package))
        for name in package.__all__:
            getattr(package, name)
            assert name in listed, f"dir({module}) lacks {name}"

    def test_one_shot_local_hashing_is_not_exported(self):
        with pytest.raises(ImportError):
            from repro import OLH  # noqa: F401

    @pytest.mark.parametrize(
        "module",
        [
            "repro.analysis.bounds",
            "repro.hashing.analysis",
            "repro.longitudinal.budget",
            "repro.attacks.averaging",
            "repro.freq_oneshot.local_hashing",
        ],
    )
    def test_modules_no_artefact_reaches_are_gone(self, module):
        """Each was reached only by its own tests; none came back as a shim."""
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_quickstart_docstring_flow(self):
        """The flow advertised in the package docstring works as written."""
        protocol = OLOLOHA(k=100, eps_inf=2.0, eps_1=1.0)
        clients = [protocol.create_client(rng) for rng in range(500)]
        values = np.random.default_rng(0).integers(0, 100, size=500)
        reports = [
            client.report(int(value), rng=i)
            for i, (client, value) in enumerate(zip(clients, values))
        ]
        estimate = protocol.estimate_frequencies(reports)
        assert estimate.shape == (100,)
        assert abs(estimate.sum() - 1.0) < 0.8


class TestPaperScenarioSmallScale:
    """A miniature version of the Figure 3 / Figure 4 story on Syn."""

    @pytest.fixture(scope="class")
    def results(self):
        dataset = make_syn(n_users=1200, n_rounds=12, k=48, rng=5)
        eps_inf, eps_1 = 2.0, 1.0
        protocols = {
            "RAPPOR": LSUE(dataset.k, eps_inf, eps_1),
            "L-OSUE": LOSUE(dataset.k, eps_inf, eps_1),
            "BiLOLOHA": BiLOLOHA(dataset.k, eps_inf, eps_1),
            "OLOLOHA": OLOLOHA(dataset.k, eps_inf, eps_1),
        }
        return {
            name: simulate_protocol(protocol, dataset, rng=9)
            for name, protocol in protocols.items()
        }

    def test_all_protocols_produce_usable_estimates(self, results):
        for name, result in results.items():
            assert result.mse_avg < 0.05, f"{name} estimate far from the truth"

    def test_ololoha_utility_competitive_with_l_osue(self, results):
        assert results["OLOLOHA"].mse_avg < 3 * results["L-OSUE"].mse_avg

    def test_loloha_privacy_loss_far_below_rappor(self, results):
        assert results["BiLOLOHA"].eps_avg < results["RAPPOR"].eps_avg / 1.5
        assert results["OLOLOHA"].eps_avg < results["RAPPOR"].eps_avg

    def test_loloha_budget_within_theorem_bound(self, results):
        assert results["BiLOLOHA"].eps_avg <= results["BiLOLOHA"].worst_case_budget + 1e-9
        assert results["OLOLOHA"].eps_avg <= results["OLOLOHA"].worst_case_budget + 1e-9


class TestCollectionPipeline:
    def test_session_feeds_server_aggregation(self, rng):
        """Reports folded by a CollectorSession, out of round order, give
        the same estimate as direct aggregation."""
        protocol = OLOLOHA(k=20, eps_inf=2.0, eps_1=1.0)
        n_users, n_rounds = 400, 3
        clients = [protocol.create_client(rng) for _ in range(n_users)]
        session = CollectorSession(protocol, n_rounds=n_rounds)
        values = np.random.default_rng(3).integers(0, 20, size=(n_users, n_rounds))
        direct_estimates = []
        for t in reversed(range(n_rounds)):
            round_reports = [
                client.report(int(values[user, t]), rng)
                for user, client in enumerate(clients)
            ]
            session.submit_reports(t, round_reports[: n_users // 2])
            session.submit_reports(t, round_reports[n_users // 2 :])
            direct_estimates.append(protocol.estimate_frequencies(round_reports))
        assert session.reports_per_round.tolist() == [n_users] * n_rounds
        for t, direct in zip(reversed(range(n_rounds)), direct_estimates):
            assert np.allclose(session.estimate(t).frequencies, direct)

    def test_results_persist_and_reload(self, tmp_path):
        dataset = make_dataset("syn", n_users=300, n_rounds=4, rng=1)
        result = simulate_protocol(OLOLOHA(dataset.k, 2.0, 1.0), dataset, rng=2)
        store = ResultsStore(tmp_path)
        store.save_json(
            "integration",
            {
                "protocol": result.protocol_name,
                "mse_avg": result.mse_avg,
                "eps_avg": result.eps_avg,
                "mse_by_round": result.mse_by_round,
            },
        )
        loaded = store.load_json("integration")
        assert loaded["protocol"] == "OLOLOHA"
        assert loaded["mse_avg"] == pytest.approx(result.mse_avg)
        rows = [{"protocol": result.protocol_name, "mse": result.mse_avg}]
        assert "OLOLOHA" in format_table(rows)
