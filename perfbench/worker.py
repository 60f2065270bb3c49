"""One benchmark workload, run in its own process.

``setup_s`` is timed from this module's first statement, so it covers the
interpreter importing numpy and ``repro`` plus each workload's own set-up
(first ``build()``, a warm-up cycle, a spawned server ...).  Reading the
pre-generated input files is timed separately and left out of it.

Usage (normally started by ``perfbench/run.py``)::

    python perfbench/worker.py --workload oneshot --inputs DIR \\
        --seconds 25 --trace 0 [--setup-only]

The last line of standard output is one JSON object: ``setup_s`` alone with
``--setup-only``, otherwise the full measurement.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

import numpy as np  # noqa: E402

from repro.api import PrivHPBuilder  # noqa: E402
from repro.ingest.service import IngestService  # noqa: E402
from repro.ingest.spec import TenantSpec  # noqa: E402
from repro.memory.accounting import measure_method  # noqa: E402
from repro.serve.service import QueryService  # noqa: E402
from repro.serve.store import ReleaseStore  # noqa: E402

from quality import w1_error  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
EPSILON = 1.0
PRUNING_K = 8
#: The speed probe: a fixed pure-Python loop timed around the timed work, and
#: its time in the reference state, the fast state of a 2-vCPU Intel Xeon
#: virtual machine under Python 3.11 (see DESIGN.md, Machine noise and
#: reference speed).
PROBE_LOOPS = 50_000
REFERENCE_PROBE_MS = 3.5
SETUP_PROBES = 5


def probe_ms() -> float:
    """Wall time of the speed probe's loop, in ms."""
    start = time.perf_counter()
    total = 0
    for value in range(PROBE_LOOPS):
        total += value * value % 7
    return (time.perf_counter() - start) * 1e3


def at_reference_speed(elapsed: float, probes_ms) -> float:
    """A time (in any unit) scaled to the machine's reference speed, by the
    median of the probes taken around it."""
    return elapsed * REFERENCE_PROBE_MS / float(np.median(probes_ms))


class SegmentClock:
    """Times one operation in segments, with a speed probe before the first
    segment and after each one; probes are left out of the time.  Each
    segment is scaled by the mean of the probes on either side of it."""

    def __init__(self) -> None:
        self.probes_ms = [probe_ms()]
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self.start = time.perf_counter()

    def lap(self) -> None:
        elapsed = time.perf_counter() - self.start
        self.probes_ms.append(probe_ms())
        self.wall_s += elapsed
        self.scaled_s += at_reference_speed(elapsed, self.probes_ms[-2:])
        self.start = time.perf_counter()


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def release_problems(release, items: int, answers) -> list[str]:
    """Correctness checks every one-shot release must pass."""
    problems = []
    if release.items_processed != items:
        problems.append(f"items_processed {release.items_processed} != {items}")
    ledger = sum(entry[0] for entry in release.metadata["privacy_ledger"])
    if not (release.epsilon == EPSILON and math.isclose(ledger, EPSILON, rel_tol=1e-9)):
        problems.append(f"epsilon {release.epsilon} / ledger sum {ledger} != {EPSILON}")
    if not release.tree.is_consistent():
        problems.append("tree is not consistent")
    answers = np.asarray(answers)
    if answers.min() < 0.0 or answers.max() > 1.0 or np.any(np.diff(answers) < 0.0):
        problems.append("first answers are not a monotone CDF in [0, 1]")
    if abs(answers[-1] - 1.0) > 1e-9:
        problems.append(f"cdf(1) = {answers[-1]!r}")
    return problems


def file_sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@contextlib.contextmanager
def untraced(tracer):
    """Let wrapped calls through unrecorded (verification between timed work)."""
    if tracer is None:
        yield
        return
    tracer.enabled = False
    try:
        yield
    finally:
        tracer.enabled = True


class Phase:
    """What one timed phase measured."""

    def __init__(self) -> None:
        #: Wall-clock operation times, and the same at the reference speed
        #: (equal to them where times are not scaled).
        self.latencies_ms: list[float] = []
        self.scaled_ms: list[float] = []
        #: Every speed probe taken (empty where times are not scaled).
        self.probes_ms: list[float] = []
        self.ops = 0
        self.items = 0
        self.busy_s = 0.0
        self.scaled_busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.extras: dict[str, float] = {}

    def check(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


# ---------------------------------------------------------------------- #
# oneshot
# ---------------------------------------------------------------------- #
class Oneshot:
    """Cycles of build -> update_batch... -> release -> first answer ->
    sample -> binary save, over a round of same-shape 2^18-item streams."""

    #: Ingest batches between two speed probes (16 batches in a cycle).
    LAP_BATCHES = 4

    def __init__(self, plan: dict, inputs: pathlib.Path, work: pathlib.Path) -> None:
        self.plan = plan
        self.inputs = inputs
        self.work = work
        self.points = np.linspace(0.0, 1.0, plan["answer_points"])
        self.digests: dict[int, str] = {}
        self.w1: dict[int, float] = {}
        self.memory_words = 0

    def load(self) -> None:
        self.streams = np.load(self.inputs / "streams.npy")

    def cycle(self, index: int, items: int | None = None, lap=lambda: None):
        """One cycle; ``lap`` is called after every LAP_BATCHES batches, after
        the release, after the sample and at the end, so a ``SegmentClock``
        probes the speed every 0.2-0.5 s inside the cycle."""
        plan = self.plan
        stream = self.streams[index][:items]
        summarizer = (
            PrivHPBuilder("interval").epsilon(EPSILON).pruning_k(PRUNING_K)
            .stream_size(plan["items"]).seed(plan["seeds"][index]).build()
        )
        for number, start in enumerate(range(0, len(stream), plan["batch"]), 1):
            summarizer.update_batch(stream[start : start + plan["batch"]])
            if number % self.LAP_BATCHES == 0:
                lap()
        release = summarizer.release()
        lap()
        answers = release.cdf_many(self.points)
        sample = release.sample(plan["sample_size"])
        lap()
        path = self.work / f"cycle-{index}.bin"
        release.save(path)
        lap()
        return release, answers, sample, path

    def setup(self) -> None:
        # A warm-up cycle on the first batch only: every code path of a
        # cycle runs once, in about half a full cycle's time.
        self.cycle(0, self.plan["batch"])

    def verify(self, index: int, release, answers, sample, path) -> list[str]:
        problems = release_problems(release, self.plan["items"], answers)
        if len(sample) != self.plan["sample_size"]:
            problems.append(f"sample has {len(sample)} points, not {self.plan['sample_size']}")
        digest = file_sha256(path)
        if self.digests.setdefault(index, digest) != digest:
            problems.append(f"stream {index}: saved release differs from an earlier round")
        if index not in self.w1:
            self.w1[index] = w1_error(release, self.streams[index])
        self.memory_words = release.memory_words
        return problems

    def measure(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        begin = time.perf_counter()
        round_s = 0.0
        # Whole rounds only, so every traced count per cycle repeats exactly;
        # the last round is the one that ends nearest to ``seconds``.
        while phase.ops == 0 or time.perf_counter() - begin + round_s / 2 < seconds:
            round_start = time.perf_counter()
            for index in range(len(self.streams)):
                if tracer is not None:
                    tracer.op_id = phase.ops
                clock = SegmentClock()
                outputs = self.cycle(index, lap=clock.lap)
                phase.latencies_ms.append(clock.wall_s * 1e3)
                phase.scaled_ms.append(clock.scaled_s * 1e3)
                phase.probes_ms.extend(clock.probes_ms)
                phase.busy_s += clock.wall_s
                phase.scaled_busy_s += clock.scaled_s
                phase.items += self.plan["items"]
                phase.ops += 1
                with untraced(tracer):
                    phase.check(self.verify(index, *outputs))
            round_s = time.perf_counter() - round_start
        return phase

    def results(self) -> dict:
        return {
            "memory_words": self.memory_words,
            "w1_error": float(np.mean(list(self.w1.values()))),
            "digests": [self.digests[index] for index in sorted(self.digests)],
        }

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------- #
# fleet_live
# ---------------------------------------------------------------------- #
class FleetLive:
    """Continual tenants with Zipf popularity behind an ``IngestService``:
    windows of 128-item appends, each closed by one live snapshot."""

    def __init__(self, plan: dict, inputs: pathlib.Path, work: pathlib.Path) -> None:
        self.plan = plan
        self.inputs = inputs
        self.work = work
        self.window = 0
        self.appended: dict[str, int] = {}
        self.workers = min(len(os.sched_getaffinity(0)), 4)

    def load(self) -> None:
        self.owners = np.load(self.inputs / "owners.npy")
        self.values = np.load(self.inputs / "values.npy")
        self.ids = [spec["tenant_id"] for spec in self.plan["tenants"]]

    def setup(self) -> None:
        self.service = IngestService(
            workers=self.workers,
            checkpoint_dir=self.work / "checkpoints",
            memory_budget_words=self.plan["memory_budget_words"],
        )
        for spec in self.plan["tenants"]:
            self.service.register(TenantSpec.from_dict(spec))
        self.run_window()
        self.service.flush()

    def run_window(self) -> tuple:
        """Append one window and snapshot its tenant.

        Returns the freshness (seconds from the last append to the returned
        snapshot), the tenant and the snapshot.
        """
        size = self.plan["window_appends"]
        rows = range(self.window * size, (self.window + 1) * size)
        for row in rows:
            tenant = self.ids[self.owners[row]]
            self.service.append(tenant, self.values[row])
            self.appended[tenant] = self.appended.get(tenant, 0) + self.values.shape[1]
        appended = time.perf_counter()
        targets = self.plan["snapshot_tenants"]
        tenant = targets[self.window % len(targets)]
        snapshot = self.service.snapshot(tenant)
        freshness = time.perf_counter() - appended
        self.window += 1
        return freshness, tenant, snapshot

    def measure(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        before = self.service.stats()
        begin = time.perf_counter()
        while self.window <= self.plan["windows"] and (
            phase.ops == 0 or time.perf_counter() - begin < seconds
        ):
            if tracer is not None:
                tracer.op_id = phase.ops
            phase.probes_ms.append(probe_ms())
            freshness, tenant, snapshot = self.run_window()
            phase.latencies_ms.append(freshness * 1e3)
            phase.items += self.plan["window_appends"] * self.values.shape[1]
            phase.ops += 1
            expected = self.appended.get(tenant, 0)
            phase.check([] if snapshot.items_processed == expected else [
                f"{tenant}: snapshot saw {snapshot.items_processed} items, appended {expected}"
            ])
        stats = self.service.flush(raise_on_failure=False)
        # Busy time is the windows' and the flush's, not the probes'.
        phase.busy_s = time.perf_counter() - begin - sum(phase.probes_ms) / 1e3
        phase.probes_ms.append(probe_ms())
        # Each window at the median of the two probes before it and the two
        # after it; the busy time at the median of all of them.
        probes = phase.probes_ms
        phase.scaled_ms = [at_reference_speed(latency, probes[max(index - 1, 0) : index + 3])
                           for index, latency in enumerate(phase.latencies_ms)]
        phase.scaled_busy_s = at_reference_speed(phase.busy_s, probes)
        phase.check([f"flush failure {tenant}: {message}" for tenant, message in stats["failures"]])
        lost = [
            tenant for tenant, count in self.appended.items()
            if self.service.items_processed(tenant) != count
        ]
        phase.check([f"{len(lost)} tenants lost items, e.g. {lost[:3]}"] if lost else [])
        phase.extras["ingest.evictions"] = (stats["evictions"] - before["evictions"]) / phase.ops
        phase.extras["ingest.restores"] = (stats["restores"] - before["restores"]) / phase.ops
        return phase

    def results(self) -> dict:
        # After timing, the snapshot tenants' planned appends are replayed
        # straight through fresh summarizers: a fixed amount of work, so
        # w1_error repeats exactly for a seed however many windows the clock
        # allowed above.  A continual tenant's words are fixed when it is
        # built (its counter banks are sized by its horizon), so
        # memory_words, the whole fleet's state, needs no replay.
        summarizers = [TenantSpec.from_dict(spec).build_summarizer()
                       for spec in self.plan["tenants"]]
        distances = []
        for tenant in self.plan["snapshot_tenants"]:
            index = self.ids.index(tenant)
            rows = self.values[self.owners == index]
            for values in rows:
                summarizers[index].update_batch(values)
            distances.append(w1_error(summarizers[index].snapshot(), rows))
        return {
            "memory_words": sum(measure_method(summarizer).total_words
                                for summarizer in summarizers),
            "w1_error": float(np.mean(distances)),
        }

    def close(self) -> None:
        self.service.close()


# ---------------------------------------------------------------------- #
# http_query
# ---------------------------------------------------------------------- #
class HttpQuery:
    """``repro serve --workers 1`` in its own process, driven by closed-loop
    keep-alive clients with a seeded cold/hot/batch request mix."""

    #: Requests per client whose bytes are counted (a fixed prefix, so the
    #: per-request byte counts repeat exactly).
    COUNTED = 100

    def __init__(self, plan: dict, inputs: pathlib.Path, work: pathlib.Path) -> None:
        self.plan = plan
        self.inputs = inputs
        self.work = work
        self.server = None
        self.traced_spans = None

    def load(self) -> None:
        requests = json.loads((self.inputs / "requests.json").read_text(encoding="utf-8"))
        self.requests = [
            [(kind, body, json.dumps(body).encode("utf-8")) for kind, body in bodies]
            for bodies in requests
        ]

    def start_server(self, traced: bool) -> None:
        """Spawn the server and wait until every release has answered once."""
        store = str(self.inputs / "store")
        serve = ["serve", "--store", store, "--port", "0", "--workers", "1", "--quiet"]
        if traced:
            self.traced_spans = self.work / "server-spans.json"
            command = [sys.executable, "-u", str(HERE / "serve_launcher.py"),
                       str(self.traced_spans), "--", *serve]
        else:
            command = [sys.executable, "-u", "-m", "repro.cli", *serve]
        self.server = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        line = self.server.stdout.readline()
        if "http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1].rstrip("/"))
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        status, _ = self.call(connection, "GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        for name in self.plan["releases"]:
            # A query outside the measured mix: loads and compiles each
            # release without warming the cache with measured queries.
            query = self.setup_query(name)
            status, body = self.call(connection, "POST", "/query",
                                     json.dumps({"release": name, "query": query}).encode())
            if status != 200:
                raise RuntimeError(f"set-up query on {name} answered {status}: {body[:200]!r}")
        connection.close()

    @staticmethod
    def setup_query(name: str) -> dict:
        if name.startswith("interval"):
            return {"type": "mass", "lower": 0.0, "upper": 0.5}
        if name.startswith("cube"):
            return {"type": "mass", "lower": [0.0, 0.0], "upper": [0.5, 0.5]}
        if name.startswith("geo"):
            return {"type": "mass", "lower": [24.0, -125.0], "upper": [36.0, -90.0]}
        return {"type": "mass", "lower": 0, "upper": 2**31}

    @staticmethod
    def call(connection, method: str, path: str, body: bytes | None = None):
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()

    def stop_server(self) -> float:
        """Stop the server; return its peak RSS in MiB."""
        rss = peak_rss_mb(self.server.pid)
        # SIGTERM, not SIGINT: a process started in the background may
        # inherit an ignored SIGINT.  The traced launcher turns SIGTERM into
        # a clean shutdown that writes its spans.
        self.server.send_signal(signal.SIGTERM)
        try:
            self.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        self.server = None
        return rss

    def setup(self) -> None:
        self.start_server(traced=False)

    def measure(self, seconds: float, tracer=None) -> Phase:
        if self.server is None:
            # The traced phase talks to a server started with the wrappers
            # installed; its set-up spans are dropped before timing.
            self.start_server(traced=True)
            self.server.send_signal(signal.SIGUSR1)
            time.sleep(0.2)
        phase = Phase()
        stop = threading.Event()
        outcomes = [[] for _ in self.requests]

        def client(index: int) -> None:
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            bodies = self.requests[index]
            record = outcomes[index]
            try:
                for position in range(len(bodies) * 1000):
                    if stop.is_set():
                        break
                    kind, _, payload = bodies[position % len(bodies)]
                    start = time.perf_counter()
                    status, body = self.call(connection, "POST", "/query", payload)
                    record.append((position % len(bodies), status, body,
                                   (time.perf_counter() - start) * 1e3))
            finally:
                connection.close()

        threads = [threading.Thread(target=client, args=(index,)) for index in range(len(self.requests))]
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        stop.wait(seconds)
        stop.set()
        for thread in threads:
            thread.join()
        phase.busy_s = time.perf_counter() - begin
        kinds = {"cold": [], "hot": [], "batch": []}
        counted_in = counted_out = counted = 0
        for index, record in enumerate(outcomes):
            for serial, (position, status, body, latency) in enumerate(record):
                kind, _, payload = self.requests[index][position]
                phase.latencies_ms.append(latency)
                kinds[kind].append(latency)
                if serial < self.COUNTED:
                    counted_in += len(payload)
                    counted_out += len(body)
                    counted += 1
        phase.ops = phase.items = len(phase.latencies_ms)
        # Not scaled: a request waits on a kernel timer, not on the CPU
        # (DESIGN.md, Reference speed).
        phase.scaled_ms = phase.latencies_ms
        phase.scaled_busy_s = phase.busy_s
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        stats = json.loads(self.call(connection, "GET", "/stats")[1])
        listing = json.loads(self.call(connection, "GET", "/releases")[1])
        connection.close()
        self.memory_words = sum(row["memory_words"] for row in listing["releases"])
        self.peak_rss = self.stop_server()
        self.verify(outcomes, phase)
        for kind, values in kinds.items():
            phase.extras[f"serve.client.{kind}_ms"] = percentile(values, 50) if values else 0.0
        phase.extras["serve.bytes_in"] = counted_in / max(counted, 1)
        phase.extras["serve.bytes_out"] = counted_out / max(counted, 1)
        cache = stats["cache"]
        phase.extras["serve.cache.hits"] = cache["hits"] / phase.ops
        phase.extras["serve.cache.misses"] = cache["misses"] / phase.ops
        return phase

    def verify(self, outcomes, phase: Phase) -> None:
        """Every answer must equal the in-process QueryService answer."""
        service = QueryService(ReleaseStore(self.inputs / "store"))
        expected_by_body: dict = {}
        for index, record in enumerate(outcomes):
            for position, status, body, _ in record:
                kind, request, _ = self.requests[index][position]
                key = (index, position)
                if key not in expected_by_body:
                    if "queries" in request:
                        answers = [row["answer"] for row in service.answer_many(
                            request["queries"], release=request["release"])]
                    else:
                        answers = service.answer(request["query"], release=request["release"])["answer"]
                    expected_by_body[key] = json.loads(json.dumps(answers))
                problems = []
                if status != 200:
                    problems.append(f"HTTP {status}: {body[:200]!r}")
                else:
                    document = json.loads(body)
                    got = ([row["answer"] for row in document["results"]]
                           if "queries" in request else document["answer"])
                    if got != expected_by_body[key]:
                        problems.append(f"answer mismatch for {request!r}")
                phase.check(problems)

    def results(self) -> dict:
        return {"memory_words": self.memory_words, "w1_error": self.plan["w1"],
                "peak_rss_mb": self.peak_rss}

    def close(self) -> None:
        if self.server is not None:
            self.stop_server()


WORKLOADS = {
    "oneshot": Oneshot,
    "fleet_live": FleetLive,
    "http_query": HttpQuery,
}


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
def end_to_end(phase: Phase, scaled: bool = True) -> dict:
    """Throughput and latency percentiles, at the reference speed or, with
    ``scaled=False``, as the wall clock read them."""
    latencies = phase.scaled_ms if scaled else phase.latencies_ms
    return {
        "throughput_per_s": phase.items / (phase.scaled_busy_s if scaled else phase.busy_s),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "latency_p99_ms": percentile(latencies, 99),
    }


def per_layer(names: list[str], summary: dict, phase: Phase) -> dict:
    """Per-operation layer metrics from the tracer summary.

    ``<span>.self_ms`` is self time, ``<span>.ms`` inclusive time,
    ``<span>.calls`` the call count and any other ``<span>.<stat>`` a count
    recorded at the span, all divided by the phase's operations; names the
    workload measured itself come from ``phase.extras``.
    """
    spans = summary["spans"]
    counts = summary["counts"]
    snapshot_ms = spans.get("ingest.snapshot", {}).get("ms", 0.0)
    inner_ms = spans.get("continual.snapshot", {}).get("ms", 0.0) if snapshot_ms else 0.0
    extras = dict(phase.extras)
    extras["ingest.snapshot.wait_ms"] = (snapshot_ms - inner_ms) / phase.ops
    handler_ms = spans.get("serve.handler", {}).get("ms", 0.0)
    # Client-observed time outside the server's request handler: sockets,
    # the kernel's TCP timers and client-side parsing.
    extras["serve.wire.ms"] = (
        float(np.mean(phase.latencies_ms)) - handler_ms / phase.ops if handler_ms else 0.0
    )
    values = {}
    for name in names:
        if name in extras:
            values[name] = extras[name]
            continue
        span, _, stat = name.rpartition(".")
        row = spans.get(span, {})
        if stat in ("self_ms", "ms", "calls"):
            value = row.get(stat, 0)
        else:
            value = counts.get(name, 0)
        values[name] = value / phase.ops
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=pathlib.Path)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    plan = json.loads((args.inputs / "plan.json").read_text(encoding="utf-8"))
    work = args.inputs / f"work-{os.getpid()}"
    work.mkdir()
    workload = WORKLOADS[args.workload](plan, args.inputs, work)
    try:
        loading = time.perf_counter()
        workload.load()
        loading = time.perf_counter() - loading
        workload.setup()
        setup_wall_s = time.perf_counter() - START - loading
        setup_probes = [probe_ms() for _ in range(SETUP_PROBES)]
        setup_s = at_reference_speed(setup_wall_s, setup_probes)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
            return 0
        if not args.trace:
            phase = workload.measure(args.seconds)
            layers = {}
        else:
            from tracer import Tracer

            baseline = end_to_end(workload.measure(args.seconds / 3))
            tracer = Tracer()
            if isinstance(workload, HttpQuery):
                # The layers run in the server process, which installs the
                # wrappers itself (serve_launcher.py); the client stays bare.
                phase = workload.measure(args.seconds * 2 / 3, tracer)
                summary = json.loads(workload.traced_spans.read_text(encoding="utf-8"))
            else:
                tracer.install()
                phase = workload.measure(args.seconds * 2 / 3, tracer)
                tracer.uninstall()
                summary = tracer.summary()
            traced = end_to_end(phase)
            phase.extras["trace.overhead_pct"] = 100.0 * (
                traced["latency_p50_ms"] / baseline["latency_p50_ms"] - 1.0
            )
            spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
            layers = per_layer([metric["name"] for metric in spec["per_layer"]], summary, phase)
            # Kept after the run (the inputs directory is not).
            spans = args.inputs.parent / f"spans-{args.workload}.json"
            if isinstance(workload, HttpQuery):
                shutil.copyfile(workload.traced_spans, spans)
            else:
                tracer.dump(spans)
        # Before results(), whose untimed checks and replays are not the
        # workload's memory, and before close() adds its own.
        process_rss = peak_rss_mb()
        results = workload.results()
        results.setdefault("peak_rss_mb", process_rss)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
    output = end_to_end(phase)
    output.update({
        "samples": len(phase.latencies_ms),
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "wall": end_to_end(phase, scaled=False),
        "probe_ms": float(np.median(setup_probes + phase.probes_ms)),
        "peak_rss_mb": results["peak_rss_mb"],
        "memory_words": results["memory_words"],
        "w1_error": results["w1_error"],
        "ok_rate": (phase.attempted - phase.failed) / phase.attempted,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "problems": phase.problems[:20],
        "operations": phase.ops,
        "digests": results.get("digests", []),
        "per_layer": layers,
    })
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
