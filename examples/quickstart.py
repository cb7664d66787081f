"""Quickstart: monitor an evolving histogram with LOLOHA.

This example walks through the full life cycle of the paper's protocol on a
small synthetic population:

1. describe OLOLOHA (optimal hashed-domain size) for a domain of 100 values
   as a declarative, serializable ``ProtocolSpec`` and build it through the
   registry;
2. give every user a client, which samples its personal hash function;
3. run ten collection rounds, estimating the histogram after each round;
4. report the estimation error and the realized longitudinal privacy budget;
5. stream the same collection through a ``CollectorSession`` — the
   service-style entry point that accepts report batches incrementally and
   can checkpoint/restore its server-side state.

The spec JSON printed in step 1 is exactly what sweep grid files contain —
``repro-ldp sweep --spec grid.json --output-dir results/ --resume`` runs a
whole (protocol, dataset, eps_inf, alpha) grid from such descriptions and
can resume interrupted grids without recomputing finished points.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import CollectorSession, ProtocolSpec, build_protocol
from repro.datasets import make_uniform_changing
from repro.simulation import simulate_protocol


def main() -> None:
    k = 100                    # domain size (e.g. app-usage minutes, URLs, ...)
    eps_inf = 2.0              # longitudinal privacy budget (upper bound)
    eps_1 = 1.0                # budget of the first report
    n_users, n_rounds = 5_000, 10

    # A population whose values change 30% of the time between rounds.
    dataset = make_uniform_changing(
        k=k, n_users=n_users, n_rounds=n_rounds, change_probability=0.3, rng=7
    )

    # The declarative description of the protocol: plain data, so it can be
    # saved to JSON, shipped to workers, or listed in a sweep grid file.
    spec = ProtocolSpec(name="OLOLOHA", k=k, eps_inf=eps_inf, eps_1=eps_1)
    print(f"spec: {spec.to_json()}")

    protocol = build_protocol(spec)
    print(f"protocol: {protocol.name}, hashed domain g = {protocol.g}")
    print(f"worst-case longitudinal budget: {protocol.worst_case_budget():.1f} "
          f"(vs {k * eps_inf:.0f} for RAPPOR-style protocols)")

    result = simulate_protocol(protocol, dataset, rng=11)

    print(f"\nMSE averaged over {n_rounds} rounds: {result.mse_avg:.3e}")
    print(f"theoretical approximate variance V*:  {protocol.approximate_variance(n_users):.3e}")
    print(f"realized longitudinal budget (eps_avg): {result.eps_avg:.2f}")

    final_truth = dataset.true_frequencies(n_rounds - 1)
    final_estimate = result.estimates[-1]
    top = np.argsort(final_truth)[::-1][:5]
    print("\ntop-5 values at the final round (true vs estimated frequency):")
    for value in top:
        print(f"  value {value:3d}: true={final_truth[value]:.4f}  "
              f"estimated={final_estimate[value]:.4f}")

    # --- streaming collection: the service façade ----------------------- #
    # A CollectorSession ingests report batches incrementally (out of round
    # order, from many producers) and exposes running debiased estimates.
    session = CollectorSession(spec, n_rounds=3)
    generator = np.random.default_rng(23)
    clients = [session.protocol.create_client(generator) for _ in range(1_000)]
    for t in (2, 0, 1):  # batches need not arrive in round order
        values = generator.integers(0, k, size=len(clients))
        reports = [c.report(int(v), generator) for c, v in zip(clients, values)]
        estimate = session.submit_reports(t, reports)
        mae = np.abs(estimate.frequencies - 1.0 / k).mean()
        print(f"round {estimate.round_index}: running estimate from "
              f"{estimate.n_reports} reports, mean abs error vs uniform = {mae:.4f}")
    # Sessions built from a spec can checkpoint and resume anywhere:
    #   session.checkpoint("session.npz")
    #   session = CollectorSession.restore("session.npz")


if __name__ == "__main__":
    main()
