"""One fresh campaign process of a figure workload.

Run by ``run.py`` with a clean environment::

    python perfbench/figure.py WORKLOAD --warm N --sample K --sample-seed S
                               [--trace DUMP_DIR]

Runs the workload's ``CampaignRequest`` through ``repro.run``: once cold
(the first campaign of the process, no store, no persistent code cache)
and ``N`` times warm (fresh job objects, process caches hot).  The last
stdout line is one JSON object with the timings, record digests and check
results.  With ``--trace`` the layer wrappers are installed before the
cold campaign and their totals are reported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

import repro

from checks import (
    count_problems,
    property_problems,
    reference_mismatches,
    signature,
)
from workloads import FIGURES


def _digest(records):
    h = hashlib.sha256()
    for r in records:
        h.update(signature(r).encode())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(FIGURES))
    parser.add_argument("--warm", type=int, required=True)
    parser.add_argument("--sample", type=int, required=True)
    parser.add_argument("--sample-seed", type=int, required=True)
    parser.add_argument("--trace", default=None, metavar="DUMP_DIR")
    args = parser.parse_args()

    layers = None
    if args.trace is not None:
        import layers

        layers.install(args.trace)

    spec = FIGURES[args.workload]
    request = repro.CampaignRequest(**spec["request"])

    start = time.perf_counter()
    cold = repro.run(request)
    cold_s = time.perf_counter() - start
    problems = []
    digest = _digest(cold.records)
    warm_s = []
    manifests = [cold.manifest]
    for _ in range(args.warm):
        start = time.perf_counter()
        warm = repro.run(request)
        warm_s.append(time.perf_counter() - start)
        manifests.append(warm.manifest)
        if _digest(warm.records) != digest:
            problems.append("warm records differ from cold records")
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    traced = None
    if layers is not None:
        traced = layers.merge_dumps(layers.snapshot(), args.trace)

    records = cold.records
    problems += count_problems(request, records)
    problems += property_problems(records)
    for m in manifests:
        if m.quarantined:
            problems.append(f"{len(m.quarantined)} sites quarantined")
        if spec["jobs"] > 1 and m.effective_jobs != spec["jobs"]:
            problems.append(f"ran on {m.effective_jobs} workers, not {spec['jobs']}")
    problems += reference_mismatches(
        records, request.design, request.scale, args.sample, args.sample_seed
    )

    attempted = sum(m.n_items for m in manifests)
    failed = sum(m.n_items - m.n_records for m in manifests)
    out = {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "rss_mb": rss_kb / 1024.0,
        "digest": digest,
        "sim_instructions": sum(r.result.instructions for r in records),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "manifest": {
            "effective_jobs": cold.manifest.effective_jobs,
            "worker_restarts": sum(m.worker_restarts for m in manifests),
            "retries": sum(m.retries for m in manifests),
        },
        "layers": traced,
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
