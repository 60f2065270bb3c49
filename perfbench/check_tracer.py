"""Self-check of the benchmark tracer.

Usage, from the root of a source checkout::

    PYTHONPATH=src python3 perfbench/check_tracer.py

Checks that

* nothing is wrapped until :meth:`Tracer.install` runs (an untraced run
  installs nothing), and ``uninstall`` restores every original;
* every wrapping target exists in this version of ``repro``;
* wrapped calls return identical results: a one-shot release (its binary
  bytes, first answers and samples), a continual snapshot, an ingest
  service release and a served batch of queries;
* self times add up: each span's self time is its duration minus its
  direct children's.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys
import tempfile

import numpy as np

from tracer import TARGETS, Tracer, _resolve, installed_targets

#: Scratch space inside the checkout, shared with the benchmark runner.
WORK = pathlib.Path(__file__).resolve().parent.parent / ".perfbench_work"


def exercise(directory: pathlib.Path) -> dict:
    """Run each layer once on small seeded inputs; return comparable outputs."""
    from repro.api import PrivHPBuilder, Release
    from repro.ingest.service import IngestService
    from repro.ingest.spec import TenantSpec
    from repro.serve.service import QueryService
    from repro.serve.store import ReleaseStore

    directory.mkdir()
    values = np.random.default_rng(5).beta(2.0, 5.0, 4000)
    release = (PrivHPBuilder("interval").stream_size(4000).seed(3).build()
               .update_batch(values[:2000]).update_batch(values[2000:]).release())
    path = release.save(directory / "release.bin")
    outputs = {
        "release_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "cdf": release.cdf_many(np.linspace(0.0, 1.0, 17)).tolist(),
        "sample": release.sample(64).tolist(),
    }
    continual = (PrivHPBuilder("interval").stream_size(4000).seed(4).continual().build()
                 .update_segments(values, [1000, 3000]))
    outputs["snapshot"] = continual.snapshot(sampling_seed=1).to_dict()
    with IngestService(workers=2, checkpoint_dir=directory / "checkpoints",
                       memory_budget_words=1) as service:
        for tenant in ("a", "b"):
            service.register(TenantSpec(tenant, stream_size=512, continual=True, seed=9))
        for start in range(0, 512, 128):
            service.append("a", values[start : start + 128])
            service.append("b", values[start + 512 : start + 640])
        service.flush()
        service.evict("a")  # lands a's checkpoint, so the snapshot restores from disk
        outputs["ingest_snapshot"] = service.snapshot("a").to_dict()
        outputs["ingest_release"] = service.release("b").to_dict()
    service = QueryService(ReleaseStore(directory))
    queries = [{"type": "cdf", "point": 0.3}, {"type": "quantile", "q": 0.5},
               {"type": "mass", "lower": 0.1, "upper": 0.6}]
    outputs["served"] = [row["answer"] for row in service.answer_many(queries, release="release")]
    outputs["reloaded"] = Release.load(path).mass(0.2, 0.7)
    return outputs


def main() -> int:
    failures = []

    def check(condition: bool, message: str) -> None:
        print(("ok   " if condition else "FAIL ") + message)
        if not condition:
            failures.append(message)

    originals = {(module, path): _resolve(module, path)[2] for module, path, _, _ in TARGETS
                 if _resolve(module, path) is not None}
    check(len(originals) == len(TARGETS), f"all {len(TARGETS)} wrapping targets exist")
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as scratch:
        plain = exercise(pathlib.Path(scratch) / "plain")
    check(installed_targets() == [], "an untraced run installs no wrappers")

    tracer = Tracer().install()
    try:
        check(len(installed_targets()) == len(originals), "install wraps every target")
        with tempfile.TemporaryDirectory(dir=WORK) as scratch:
            traced = exercise(pathlib.Path(scratch) / "traced")
    finally:
        tracer.uninstall()
    for key in plain:
        check(plain[key] == traced[key], f"wrapped calls return identical results: {key}")
    check(installed_targets() == [], "uninstall removes every wrapper")
    check(all(_resolve(module, path)[2] is raw for (module, path), raw in originals.items()),
          "uninstall restores the original callables")

    summary = tracer.summary()
    spans = summary["spans"]
    expected = {name for _, _, name, _ in TARGETS} - {"serve.handler"}
    check(expected <= set(spans), f"spans recorded for every exercised layer "
          f"(missing: {sorted(expected - set(spans))})")
    children: dict[int, int] = {}
    for span_id, parent, _, start, end, _, _ in tracer.spans:
        if parent:
            children[parent] = children.get(parent, 0) + (end - start)
    self_ns = sum(end - start - children.get(span_id, 0)
                  for span_id, _, _, start, end, _, _ in tracer.spans)
    recorded = sum(row["self_ms"] for row in spans.values()) * 1e6
    check(tracer.dropped == 0 and abs(self_ns - recorded) <= 1e-3 * max(recorded, 1.0),
          "self time is duration minus direct children's time")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
