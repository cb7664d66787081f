"""Benchmark worker: builds one workload, measures it and checks its outputs.

``run.py`` starts this in a fresh process, so that the peak memory it reports
is the workload's own, and reads the JSON it writes to ``--out``.

Simulation workloads (``census-churn``, ``syn-delta``) run
the 7-protocol line-up of the paper once per pass, at eps_inf=2, alpha=0.5,
through ``run_sweep`` (serial, csv store).  ``ingest-ue`` drives an L-OSUE
``repro-ldp ingest`` server over keep-alive HTTP in a closed loop.
"""

from __future__ import annotations

import argparse
import http.client
import json
import resource
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from repro.analysis.variances import PROTOCOL_VARIANCE_FUNCTIONS, approximate_variance_for
from repro.datasets import make_dataset
from repro.datasets.base import LongitudinalDataset
from repro.experiments.empirical import paper_protocol_specs
from repro.obs.metrics import default_registry
from repro.registry import build_protocol
from repro.service.ingest import decode_reports, encode_reports
from repro.service.loadgen import generate_round_reports
from repro.service.session import CollectorSession
from repro.simulation import round_windows, run_sweep, runner
from repro.simulation.kernels_backend import resolve_backend
from repro.simulation.sinks import SupportCountSink
from repro.specs import IngestSpec, ProtocolSpec
from repro.store.results_store import ResultsStore

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import FAMILIES, LayerTracer, TracedStore, traced_simulation  # noqa: E402

EPS_INF, ALPHA = 2.0, 0.5

#: Simulation workload -> (dataset, share of its users, share of its
#: rounds) simulated.  db_de has db_mt's generator and shape, so it adds no
#: layer behaviour of its own and is left out.  A shared 2-vCPU host's
#: speed drifts between levels 30-50% apart in phases of seconds to
#: minutes, so a run repeats short passes (3 to 5 s each) and keeps each
#: point's best.  Each workload keeps what defines it: db_mt keeps its
#: users (and so its sparse UE memo layout) and its k, and simulates its
#: first 10 of 80 rounds, which are all alike at 98% churn; syn keeps its
#: 10k users and simulates its first 45 of 120 rounds, whose 25% churn is
#: the same in every round.  adult (an eighth of its users, all 260 rounds)
#: was left out: on that host its figures spread 30-45% between runs,
#: beyond any bound, and every layer it crosses is measured here too.
SIM_DATASETS = {
    "census-churn": ("db_mt", 1.0, 0.125),
    "syn-delta": ("syn", 1.0, 0.375),
}

FAMILY_OF = {
    "RAPPOR": "ue",
    "L-OSUE": "ue",
    "L-GRR": "grr",
    "BiLOLOHA": "loloha",
    "OLOLOHA": "loloha",
    "1BitFlipPM": "dbitflip",
    "bBitFlipPM": "dbitflip",
}

#: The paper's Montana domain size.  db_mt's k follows its heaviest weights
#: and swings by about 10% between seeds; the census workload keeps it
#: within 2% of this value so that its cost does not depend on the seed.
DB_MT_PAPER_K = 1412

#: Set-up is repeated at least this often and for at least this long; its
#: median is reported.
SETUP_REPEATS, SETUP_MIN_S = 9, 0.5


def _median_s(values):
    return float(median(values))


def _warm_backend():
    """Resolve the kernel backend and run each dispatched kernel once."""
    backend = resolve_backend(None)
    backend.packed_column_sums(np.zeros((4, 8), dtype=np.uint8), 64)
    backend.support_fold(np.zeros((4, 8), dtype=np.int16), np.zeros(4, dtype=np.int16))
    backend.symbol_bincount(np.zeros(4, dtype=np.int64), 8)
    return backend


def _dataset_seed(name: str, scale: float, seed: int) -> int:
    if name != "db_mt" or scale < 1.0:
        return seed
    for attempt in range(1000):
        candidate = int(np.random.SeedSequence([seed, attempt]).generate_state(1)[0])
        k = make_dataset(name, scale=scale, rng=candidate).k
        if abs(k - DB_MT_PAPER_K) <= 0.02 * DB_MT_PAPER_K:
            return candidate
    raise RuntimeError(f"no db_mt seed near k={DB_MT_PAPER_K} derived from {seed}")


# ---------------------------------------------------------------------- #
# Simulation workloads
# ---------------------------------------------------------------------- #
class _StampedStore(ResultsStore):
    """CSV store noting when each grid point's flush starts and ends
    (``flush_every=1``)."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.flushes = []

    def append_rows(self, experiment_id, rows, header_comment=None):
        start = perf_counter()
        try:
            return super().append_rows(experiment_id, rows, header_comment=header_comment)
        finally:
            self.flushes.append((start, perf_counter()))


def _round_timed_sink(point_latencies):
    """Sink class recording, per grid point, the time between round folds.

    The sink is built right after the engine and is fed once per round, so
    each gap is one round of engine work.
    """

    class RoundTimedSink(SupportCountSink):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self._latencies = []
            point_latencies.append(self._latencies)
            self._last = perf_counter()

        def add_round(self, t, counts) -> None:
            self._latencies.append(perf_counter() - self._last)
            super().add_round(t, counts)
            self._last = perf_counter()

    return RoundTimedSink


def _sweep(dataset, seed, store):
    return run_sweep(
        paper_protocol_specs(),
        dataset,
        [EPS_INF],
        [ALPHA],
        n_runs=1,
        rng=seed,
        keep_runs=False,
        n_workers=1,
        store=store,
        experiment_id="sweep",
    )


def _timed_pass(dataset, seed, scratch: Path):
    """One untraced pass: its points, each point's simulation time and
    flush time, and its round latencies.

    A flush fsyncs the CSV, which takes from a few to tens of milliseconds
    whatever the point; it counts in ``sweep_s`` but not in the family
    times, where it would swamp the shortest points (about 40 ms for L-GRR
    on db_mt).
    """
    store = _StampedStore(tempfile.mkdtemp(dir=scratch))
    point_latencies = []
    saved = runner.SupportCountSink
    runner.SupportCountSink = _round_timed_sink(point_latencies)
    try:
        start = perf_counter()
        points = _sweep(dataset, seed, store)
    finally:
        runner.SupportCountSink = saved
    flush_starts, flush_ends = np.array(store.flushes).T
    simulate_s = flush_starts - np.concatenate([[start], flush_ends[:-1]])
    return points, simulate_s, flush_ends - flush_starts, np.asarray(point_latencies)


def _check_points(points, dataset):
    """Correctness gate: the realized budget bound and MSE against V*.

    MSE_avg averages tau x m squared errors, so its relative spread is about
    sqrt(2 / (tau m)); the tolerance is six of those, and never below 10%.
    """
    checks = []
    for point in points:
        checks.append(
            {
                "kind": "budget",
                "protocol": point.protocol_name,
                "eps_avg": point.eps_avg,
                "worst_case_budget": point.worst_case_budget,
                "ok": bool(point.eps_avg <= point.worst_case_budget * (1 + 1e-12)),
            }
        )
        if point.protocol_name in PROTOCOL_VARIANCE_FUNCTIONS:
            v_star = approximate_variance_for(
                point.protocol_name, point.eps_inf, point.alpha * point.eps_inf,
                dataset.n_users, dataset.k,
            )
            ratio = point.mse_avg / v_star
            tolerance = max(0.10, 6 * (2 / (dataset.n_rounds * dataset.k)) ** 0.5)
            checks.append(
                {
                    "kind": "mse",
                    "protocol": point.protocol_name,
                    "mse_over_vstar": ratio,
                    "tolerance": tolerance,
                    "ok": bool(abs(ratio - 1) <= tolerance),
                }
            )
    return checks


def _backend_served() -> str:
    """The backend the engines reported serving their folds with."""
    gauge = default_registry().gauge("repro_sim_backend_info")
    served = [name for name in ("native", "numpy") if gauge.value(backend=name)]
    return ",".join(served) or resolve_backend(None).name


def _simulation_dataset(name, scale, seed, users_share, rounds_share):
    full = make_dataset(name, scale=scale, rng=seed)
    n_users = max(2, int(full.n_users * users_share))
    n_rounds = max(2, int(full.n_rounds * rounds_share))
    return LongitudinalDataset(name=full.name, values=full.values[:n_users, :n_rounds],
                               k=full.k, metadata=full.metadata)


def run_simulation(args, scratch: Path):
    name, users_share, rounds_share = SIM_DATASETS[args.workload]
    data_seed = _dataset_seed(name, args.scale, args.seed)
    setups, builds = [], []
    while len(setups) < SETUP_REPEATS or (sum(setups) < SETUP_MIN_S and len(setups) < 100):
        start = perf_counter()
        dataset = _simulation_dataset(name, args.scale, data_seed, users_share, rounds_share)
        built = perf_counter()
        _warm_backend()
        setups.append(perf_counter() - start)
        builds.append(built - start)

    # Every pass repeats the same seeded work, so per point the fastest pass
    # is the cost without the host's slow phases (the timeit convention).
    simulate_s, flush_s, round_s = [], [], []
    checks = []
    started = perf_counter()
    while True:
        points, simulated, flushed, latencies = _timed_pass(dataset, args.seed, scratch)
        if not simulate_s:
            # Peak memory of set-up and one pass, as in a fresh process that
            # runs the sweep once; repeats reuse the allocator's pages
            # unevenly between runs.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        simulate_s.append(simulated)
        flush_s.append(flushed)
        round_s.append(latencies)
        checks += _check_points(points, dataset)
        if perf_counter() - started >= args.seconds or args.trace:
            break
    best_simulate_s = np.min(simulate_s, axis=0)
    # One round of the line-up: round t of every point.
    lineup_round_s = np.min(round_s, axis=0).sum(axis=0)
    family_s = dict.fromkeys(FAMILIES, 0.0)
    for point, seconds in zip(points, best_simulate_s):
        family_s[FAMILY_OF[point.protocol_name]] += float(seconds)
    # Each point with its flush, at its fastest pass.
    sweep_s = float(np.min(np.add(simulate_s, flush_s), axis=0).sum())
    result = {
        "dataset": {"name": dataset.name, "n_users": dataset.n_users,
                    "n_rounds": dataset.n_rounds, "k": dataset.k,
                    "seed": data_seed, "share_of_paper_work": users_share * rounds_share},
        "passes": len(simulate_s),
        "checks": checks,
        "metrics": {
            "setup_s": _median_s(setups),
            "sweep_s": sweep_s,
            **{f"{family}_s": family_s[family] for family in FAMILIES},
            "peak_rss_mb": peak_rss_mb,
            "reports_per_s": dataset.n_users * dataset.n_rounds * len(points) / sweep_s,
            "request_p50_ms": float(np.percentile(lineup_round_s, 50)) * 1e3,
            "request_p99_ms": float(np.percentile(lineup_round_s, 99)) * 1e3,
        },
    }
    if args.trace:
        layers, trace_checks = _trace_simulation(args, dataset, points, sweep_s, scratch)
        layers["datasets.build_s"] = _median_s(builds)
        result["layers"] = layers
        result["checks"] += trace_checks
    result["backend"] = _backend_served()
    return result


def _trace_simulation(args, dataset, untraced_points, untraced_s, scratch: Path):
    tracer = LayerTracer()
    store = TracedStore(ResultsStore(tempfile.mkdtemp(dir=scratch)), tracer)
    with traced_simulation(tracer):
        sweep = tracer.wrap("sweep.overhead_s", _sweep, per_family=False)
        start = perf_counter()
        points = sweep(dataset, args.seed, store)
        wall = perf_counter() - start
    # Tracing must not perturb a randomness stream.
    checks = [
        {
            "kind": "trace_identical",
            "protocol": traced.protocol_name,
            "ok": (traced.mse_avg, traced.eps_avg) == (plain.mse_avg, plain.eps_avg),
        }
        for traced, plain in zip(points, untraced_points)
    ]

    windows = round_windows(dataset.values)
    multi = sum(t1 - t0 for t0, t1 in windows if t1 - t0 > 1)
    layers = tracer.family_metrics()
    overhead_s = tracer.seconds["sweep.overhead_s"]
    layers.update(
        {
            "hashing.sample_domains_s": tracer.seconds["hashing.sample_domains_s"],
            "runner.windows": float(len(windows)),
            "runner.multi_round_share": multi / dataset.n_rounds,
            "store.append_s": tracer.seconds["store.append_s"],
            "sweep.overhead_s": overhead_s,
            "trace.overhead_s": wall - untraced_s,
            # The share of the traced wall that the named layers' self times
            # cover; the rest is the sweep's own residual.
            "trace.accounted_share": (wall - overhead_s) / wall,
        }
    )
    return layers, checks


# ---------------------------------------------------------------------- #
# Ingest workload
# ---------------------------------------------------------------------- #
#: db_mt's domain size at the paper's scale.
INGEST_K = 1335
#: 16 reports per POST, the batch of the probe that found per-bit JSON
#: decoding to dominate (7.6 ms per POST in reports mode, 1.2 ms in counts
#: mode).  64 users over 4 rounds make 16 distinct bodies per server; these
#: two numbers are not measured, and set only how many distinct bodies a
#: pass cycles through.
INGEST_USERS, INGEST_ROUNDS, BATCH = 64, 4, 16

#: family -> (protocol template, submission mode).  L-OSUE in reports mode
#: is the workload: its POSTs alone make sweep_s, reports_per_s and the
#: latency percentiles.  Each other engine family has a server of its own
#: so that its family metric is measured rather than zero: one pass of its
#: bodies per L-OSUE pass, timed on its own, so that no weight between
#: families enters any metric.  LOLOHA reports carry live hash functions
#: and are not wire-serializable, so it posts counts.
INGEST_FAMILIES = {
    "ue": (ProtocolSpec(name="L-OSUE"), "reports"),
    "grr": (ProtocolSpec(name="L-GRR"), "reports"),
    "loloha": (ProtocolSpec(name="OLOLOHA"), "counts"),
    "dbitflip": (
        ProtocolSpec(name="dBitFlipPM", label="bBitFlipPM", params={"d": "b"}),
        "reports",
    ),
}
MIN_UE_POSTS = 1000


def _ingest_material(seed: int):
    """Per family: concrete spec, live protocol and pre-encoded bodies."""
    material = {}
    for index, (family, (template, mode)) in enumerate(INGEST_FAMILIES.items()):
        spec = template.at(k=INGEST_K, eps_inf=EPS_INF, alpha=ALPHA)
        protocol = build_protocol(spec)
        rounds = generate_round_reports(spec, INGEST_ROUNDS, INGEST_USERS, seed + index)
        bodies = []
        for t, reports in enumerate(rounds):
            for start in range(0, len(reports), BATCH):
                batch = reports[start : start + BATCH]
                if mode == "reports":
                    payload = {"round": t, "reports": encode_reports(protocol, batch)}
                else:
                    counts = np.asarray(protocol.support_counts(batch), dtype=np.float64)
                    payload = {"round": t, "counts": counts.tolist(), "n_reports": len(batch)}
                bodies.append((t, batch, json.dumps(payload).encode("utf-8")))
        material[family] = (spec, protocol, bodies)
    return material


def _start_server(spec, family: str, scratch: Path):
    spec_path = scratch / f"ingest-{family}.json"
    ingest = IngestSpec(protocol=spec, n_rounds=INGEST_ROUNDS, name=f"bench-{family}")
    spec_path.write_text(json.dumps(ingest.to_dict()), encoding="utf-8")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "ingest", "--spec", str(spec_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )


def _await_listening(process, deadline: float):
    line = ""
    while "listening on" not in line:
        remaining = deadline - time.monotonic()
        ready, _, _ = select.select([process.stdout], [], [], max(remaining, 0))
        if not ready:
            raise RuntimeError("ingest server did not start in time")
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(f"ingest server exited with {process.wait()}")
    host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
    return host, int(port)


def _stop_servers(processes) -> None:
    for process in processes:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
    for process in processes:
        try:
            process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        if process.stdout is not None:
            process.stdout.close()


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc status")


def _get_json(connection, path):
    connection.request("GET", path)
    response = connection.getresponse()
    body = response.read()
    if response.status != 200:
        raise RuntimeError(f"GET {path} answered {response.status}")
    return json.loads(body)


def _scrape(connection):
    connection.request("GET", "/metrics")
    response = connection.getresponse()
    samples = {}
    for line in response.read().decode("utf-8").splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
    return samples


def run_ingest(args, scratch: Path):
    setups = []
    for _ in range(3):
        start = perf_counter()
        material = _ingest_material(args.seed)
        setups.append(perf_counter() - start)
    processes, connections = {}, {}
    try:
        start = perf_counter()
        for family, (spec, _, _) in material.items():
            processes[family] = _start_server(spec, family, scratch)
        deadline = time.monotonic() + 60
        for family, process in processes.items():
            address = _await_listening(process, deadline)
            connections[family] = http.client.HTTPConnection(*address, timeout=30)
        server_start_s = perf_counter() - start
        result = _ingest_load(args, material, connections)
        result["metrics"]["setup_s"] = _median_s(setups) + server_start_s
        result["metrics"]["peak_rss_mb"] = _peak_rss_mb(processes["ue"].pid)
    finally:
        for connection in connections.values():
            connection.close()
        _stop_servers(list(processes.values()))
    if args.trace:
        result["layers"].update(_replay_ue(material))
    result["backend"] = resolve_backend(None).name
    return result


def _ingest_load(args, material, connections):
    headers = {"Content-Type": "application/json"}
    ue_bodies = material["ue"][2]
    min_posts = int(MIN_UE_POSTS * min(args.scale, 1.0))
    statuses = []
    # Per family and pass, each body's POST latency, in body order.
    runs = {family: [] for family in FAMILIES}
    started = perf_counter()
    while True:
        for family, (_, _, bodies) in material.items():
            connection = connections[family]
            latencies = []
            for _, _, body in bodies:
                sent = perf_counter()
                connection.request("POST", "/v1/reports", body=body, headers=headers)
                response = connection.getresponse()
                response.read()
                latencies.append(perf_counter() - sent)
                statuses.append(response.status)
            runs[family].append(latencies)
        passes = len(runs["ue"])
        if perf_counter() - started >= args.seconds and passes * len(ue_bodies) >= min_posts:
            break

    checks = [{"kind": "post_202", "status": status, "ok": status == 202} for status in statuses]
    submitted = 0
    for family, (spec, _, bodies) in material.items():
        session = CollectorSession(spec, INGEST_ROUNDS)
        for t, batch, _ in bodies:
            session.submit_reports(t, list(batch) * passes)
        submitted += session.total_reports
        connection = connections[family]
        deadline = time.monotonic() + 30
        while sum(_get_json(connection, "/v1/rounds")["reports_per_round"]) < session.total_reports:
            if time.monotonic() > deadline:
                break
            time.sleep(0.01)
        for t in session.rounds_observed:
            live = _get_json(connection, f"/v1/estimate/{t}")
            expected = session.estimate(t)
            checks.append(
                {
                    "kind": "estimate",
                    "family": family,
                    "round": int(t),
                    "ok": live["frequencies"] == expected.frequencies.tolist()
                    and live["n_reports"] == expected.n_reports,
                }
            )
    scraped = [_scrape(connection) for connection in connections.values()]
    accepted = sum(s.get("repro_ingest_reports_accepted_total", 0.0) for s in scraped)
    backpressure = sum(
        s.get('repro_ingest_rejected_total{reason="backpressure"}', 0.0) for s in scraped
    )
    # As for the simulation points, each unit of work reports its fastest
    # repetition: each server its fastest pass, each L-OSUE body its
    # fastest POST.
    family_s = {family: min(map(sum, runs[family])) for family in FAMILIES}
    best_post_s = np.min(runs["ue"], axis=0)
    return {
        "passes": passes,
        "checks": checks,
        "metrics": {
            "sweep_s": family_s["ue"],
            **{f"{family}_s": family_s[family] for family in FAMILIES},
            "reports_per_s": sum(len(batch) for _, batch, _ in ue_bodies) / family_s["ue"],
            "request_p50_ms": float(np.percentile(best_post_s, 50)) * 1e3,
            "request_p99_ms": float(np.percentile(best_post_s, 99)) * 1e3,
        },
        "layers": {
            "service.body_bytes": sum(len(body) for _, _, body in ue_bodies) / len(ue_bodies),
            "service.retries_429": backpressure,
            "service.accepted_ratio": accepted / submitted,
        },
    }


def _replay_ue(material):
    """Time the server's per-POST stages in process over one L-OSUE pass."""
    spec, protocol, bodies = material["ue"]
    session = CollectorSession(spec, INGEST_ROUNDS)
    parse = decode = fold = 0.0
    for _, _, body in bodies:
        start = perf_counter()
        payload = json.loads(body.decode("utf-8"))
        parsed = perf_counter()
        reports = decode_reports(protocol, payload["reports"])
        decoded = perf_counter()
        session.submit_reports(payload["round"], reports)
        folded = perf_counter()
        parse += parsed - start
        decode += decoded - parsed
        fold += folded - decoded
    return {"service.parse_s": parse, "service.decode_s": decode, "service.fold_s": fold}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.workload not in SIM_DATASETS and args.workload != "ingest-ue":
        parser.error(f"unknown workload {args.workload!r}")
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-"))
    try:
        if args.workload in SIM_DATASETS:
            result = run_simulation(args, scratch)
        else:
            result = run_ingest(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["numpy"] = np.__version__
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
