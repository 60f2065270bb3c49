"""Seeded input generation for every benchmark workload.

Runs in the benchmark runner, before any timing: each ``make_<workload>``
writes the generated arrays (and, for ``http_query``, the release store the
server will serve) into a directory and returns a JSON-able plan describing
them.  The workload process receives only these files.  The same seed always
yields byte-identical inputs.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.api import PrivHPBuilder, Release
from repro.ingest.spec import TenantSpec
from repro.memory.accounting import measure_method
from repro.stream.datasets import geo_checkin_stream, ipv4_traffic_stream
from repro.stream.generators import make_stream
from repro.stream.scenarios import generate

from quality import w1_error

__all__ = ["MAKERS"]

# oneshot: a cycle fits one 2^18-item stream of a mixture-shift scenario,
# fed in 16384-item update_batch calls, then releases, answers, samples and
# saves.  Ingest and the release path each take a large share of a cycle, so
# both show.  A round is ROUND_STREAMS streams of the same shape with their
# own draws and seeds, so every cycle does about the same work; a run
# measures whole rounds, so per-cycle counts repeat exactly.
ONESHOT_ITEMS = 1 << 18
ONESHOT_BATCH = 1 << 14
ROUND_STREAMS = 2
SAMPLE_SIZE = 10_000
ANSWER_POINTS = 64

# fleet_live: Zipf-popular continual tenants fed 128-item appends in windows
# of WINDOW_APPENDS appends, each window ending with one live snapshot.
TENANTS = 200
TENANT_ZIPF = 1.1
APPEND_ITEMS = 128
WINDOW_APPENDS = 8
#: More windows than a run gets through (140-175 in a 25 s run), so the
#: plan does not run out before the clock.
PLANNED_WINDOWS = 400
SNAPSHOT_RANKS = range(20, 60)
#: Budget as a share of every tenant's words: only the cold tail evicts
#: (about one eviction in three windows), not the working set.
MEMORY_BUDGET_SHARE = 0.9

# http_query: binary releases across four domains.
STORE_RELEASES = [
    ("interval-beta", "interval"),
    ("interval-ushape", "interval"),
    ("interval-drift", "interval"),
    ("interval-mirror", "interval"),
    ("interval-uniform", "interval"),
    ("cube-a", "hypercube:2"),
    ("geo-checkins", "geo:24,49,-125,-66"),
    ("ipv4-a", "ipv4"),
]
STORE_ITEMS = 20_000
HOT_QUERIES = 8
BATCH_QUERIES = 16
REQUESTS_PER_CLIENT = 5_000
#: Request kinds, cycled per client: 10 cold singles, 9 hot singles and one
#: batch in 20, so p90 falls among single queries and p99 among batches.
REQUEST_PATTERN = "chchchchchchchchchcb"


def _interval_stream(kind: str, size: int, rng: np.random.Generator) -> np.ndarray:
    """One interval stream of a named shape."""
    if kind == "beta":
        return make_stream("beta", size, rng=rng, alpha=2.0, beta=5.0)
    if kind == "mirror":
        return make_stream("beta", size, rng=rng, alpha=5.0, beta=2.0)
    if kind == "uniform":
        return make_stream("uniform", size, rng=rng)
    if kind == "ushape":
        return make_stream("beta", size, rng=rng, alpha=0.7, beta=0.7)
    return generate("drift", size, rng=rng, epochs=4,
                    start={"name": "beta", "params": {"alpha": 2.0, "beta": 5.0}},
                    end={"name": "beta", "params": {"alpha": 5.0, "beta": 2.0}})


def _mixture_shift(size: int, rng: np.random.Generator) -> np.ndarray:
    """A stream whose mixture weights shift from a Gaussian mixture to beta(5, 2)."""
    return generate(
        "mixture_shift", size, rng=rng, epochs=8,
        components=[{"name": "gaussian_mixture", "params": {}},
                    {"name": "beta", "params": {"alpha": 5.0, "beta": 2.0}}],
        start_weights=[1.0, 0.0], end_weights=[0.2, 0.8],
    )


def make_oneshot(directory: pathlib.Path, seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    streams = np.stack([_mixture_shift(ONESHOT_ITEMS, rng) for _ in range(ROUND_STREAMS)])
    np.save(directory / "streams.npy", streams)
    return {
        "items": ONESHOT_ITEMS,
        "batch": ONESHOT_BATCH,
        "sample_size": SAMPLE_SIZE,
        "answer_points": ANSWER_POINTS,
        "seeds": [int(value) for value in rng.integers(0, 2**31, size=ROUND_STREAMS)],
    }


def make_fleet_live(directory: pathlib.Path, seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    popularity = np.arange(1, TENANTS + 1, dtype=float) ** -TENANT_ZIPF
    popularity /= popularity.sum()
    # Window 0 is the unmeasured warm-up; windows 1.. are measured in order.
    appends = (PLANNED_WINDOWS + 1) * WINDOW_APPENDS
    # Fixed per-tenant quotas (largest remainder) in a seeded order, and a
    # fixed beta shape per tenant: the seed moves the order and the draws,
    # never how much work each tenant gets.
    shares = appends * popularity
    quota = np.floor(shares).astype(int)
    quota[np.argsort(quota - shares)[: appends - quota.sum()]] += 1
    owners = rng.permutation(np.repeat(np.arange(TENANTS), quota))
    planned = quota * APPEND_ITEMS
    values = np.empty((appends, APPEND_ITEMS))
    for tenant in range(TENANTS):
        rows = np.flatnonzero(owners == tenant)
        if rows.size:
            alpha = 1.0 + 5.0 * ((tenant * 0.618034) % 1.0)
            beta = 1.0 + 5.0 * ((tenant * 0.381966 + 0.5) % 1.0)
            values[rows] = make_stream(
                "beta", rows.size * APPEND_ITEMS, rng=rng, alpha=alpha, beta=beta
            ).reshape(rows.size, APPEND_ITEMS)
    np.save(directory / "owners.npy", owners)
    np.save(directory / "values.npy", values)
    # Every tenant's horizon is its planned item count, so no run can exhaust
    # it however many windows the clock allows.
    tenants = [
        TenantSpec(f"t{tenant:03d}", epsilon=1.0, pruning_k=8,
                   stream_size=max(int(planned[tenant]), APPEND_ITEMS), continual=True,
                   horizon=max(int(planned[tenant]), APPEND_ITEMS),
                   seed=int(rng.integers(0, 2**31)))
        for tenant in range(TENANTS)
    ]
    # A continual tenant's words are fixed when it is built (its counter banks
    # are sized by the horizon), so fresh summarizers give the populated total.
    resident = sum(measure_method(spec.build_summarizer()).total_words for spec in tenants)
    return {
        "tenants": [spec.to_dict() for spec in tenants],
        "window_appends": WINDOW_APPENDS,
        "windows": PLANNED_WINDOWS,
        "snapshot_tenants": [f"t{rank:03d}" for rank in SNAPSHOT_RANKS],
        "memory_budget_words": int(resident * MEMORY_BUDGET_SHARE),
        "resident_words": int(resident),
    }


def _store_data(name: str, domain: str, rng: np.random.Generator) -> np.ndarray:
    if domain == "interval":
        return _interval_stream(name.split("-", 1)[1], STORE_ITEMS, rng)
    if domain.startswith("hypercube"):
        return make_stream("gaussian_mixture", STORE_ITEMS, dimension=2, rng=rng)
    if domain.startswith("geo"):
        return geo_checkin_stream(STORE_ITEMS, rng=rng)
    return ipv4_traffic_stream(STORE_ITEMS, rng=rng)


def _random_query(domain: str, rng: np.random.Generator) -> dict:
    """A fresh valid query for a release of ``domain``."""
    if domain == "interval":
        low, high = np.sort(rng.random(2))
        kind = rng.integers(4)
        if kind == 2:
            return {"type": "cdf", "point": float(low)}
        if kind == 3:
            return {"type": "quantile", "q": float(low)}
        return {"type": ("mass", "range_count")[kind], "lower": float(low), "upper": float(high)}
    if domain.startswith("hypercube"):
        corners = np.sort(rng.random((2, 2)), axis=0)
        return {"type": "mass", "lower": corners[0].tolist(), "upper": corners[1].tolist()}
    if domain.startswith("geo"):
        lat = np.sort(rng.uniform(24.0, 49.0, size=2))
        lon = np.sort(rng.uniform(-125.0, -66.0, size=2))
        return {"type": "range_count", "lower": [float(lat[0]), float(lon[0])],
                "upper": [float(lat[1]), float(lon[1])]}
    low, high = np.sort(rng.integers(0, 2**32, size=2))
    return {"type": "range_count", "lower": int(low), "upper": int(high)}


def make_http_query(directory: pathlib.Path, seed: int, clients: int) -> dict:
    rng = np.random.default_rng([seed, 4])
    store = directory / "store"
    store.mkdir()
    w1 = []
    for name, domain in STORE_RELEASES:
        data = _store_data(name, domain, rng)
        release = (
            PrivHPBuilder(domain).epsilon(1.0).pruning_k(8).stream_size(len(data))
            .seed(int(rng.integers(0, 2**31))).build().update_batch(data).release()
        )
        release.save(store / f"{name}.bin")
        if domain == "interval":
            w1.append(w1_error(Release.load(store / f"{name}.bin"), data))
    hot = []
    for index in range(HOT_QUERIES):
        name, domain = STORE_RELEASES[index % len(STORE_RELEASES)]
        hot.append({"release": name, "query": _random_query(domain, rng)})
    requests = []
    for client in range(clients):
        bodies = []
        for position in range(REQUESTS_PER_CLIENT):
            kind = REQUEST_PATTERN[position % len(REQUEST_PATTERN)]
            if kind == "h":
                # Cycle the hot set so every client touches each hot query
                # within its first few rounds.
                turn = (position // len(REQUEST_PATTERN) * REQUEST_PATTERN.count("h")
                        + REQUEST_PATTERN[: position % len(REQUEST_PATTERN)].count("h"))
                bodies.append(["hot", hot[(turn + client) % HOT_QUERIES]])
                continue
            name, domain = STORE_RELEASES[int(rng.integers(len(STORE_RELEASES)))]
            if kind == "c":
                bodies.append(["cold", {"release": name, "query": _random_query(domain, rng)}])
            else:
                queries = [_random_query(domain, rng) for _ in range(BATCH_QUERIES)]
                bodies.append(["batch", {"release": name, "queries": queries}])
        requests.append(bodies)
    (directory / "requests.json").write_text(json.dumps(requests), encoding="utf-8")
    return {"releases": [name for name, _ in STORE_RELEASES], "w1": float(np.mean(w1)),
            "clients": clients}


MAKERS = {
    "oneshot": make_oneshot,
    "fleet_live": make_fleet_live,
    "http_query": make_http_query,
}
