"""Output checks against the reference path and the paper's properties.

Nothing here compares against a stored copy of earlier output:

* :func:`reference_mismatches` recomputes sampled tuples on the reference
  interpreter (a fresh harness, a freshly injected module, a full
  ``Variant.compile`` and ``compiled=False``);
* :func:`count_problems` re-derives the record count from
  ``campaign_sites``;
* :func:`property_problems` checks the EXPERIMENTS.md properties.
"""

from __future__ import annotations

import random

from repro import ExecConfig, ExperimentRecord, WorkloadHarness
from repro.apps import app_factory
from repro.eval.metrics import by_variant, coverage
from repro.faultinject.campaign import campaign_sites
from repro.faultinject.injector import inject
from repro.eval.variants import resolve_variants

from workloads import FREE, RESIZE

FULL = 1.0 - 1e-9


def signature(record):
    """A record's ``signature()`` as a string comparable across processes."""
    return repr(record.signature())


def tuple_key(record):
    return (record.workload, record.variant, record.site, record.run)


def count_problems(request, records):
    """The record count must be sites x variants x seeds per job."""
    expected = 0
    for app in request.workloads:
        for kind in request.kinds:
            sites = campaign_sites(app_factory(app, request.scale), kind, request.percent)
            expected += len(sites) * len(request.variants) * len(request.seeds)
    if expected != len(records):
        return [f"{len(records)} records, campaign_sites gives {expected}"]
    return []


class Reference:
    """Recomputes experiment tuples on the reference interpreter."""

    def __init__(self, design, scale, percent=50, seeds=(0,)):
        self.design = design
        self.scale = scale
        self.percent = percent
        self.seeds = tuple(seeds)
        self.config = ExecConfig()  # defaults: no environment knobs
        self._harnesses = {}

    def _harness(self, app):
        if app not in self._harnesses:
            self._harnesses[app] = WorkloadHarness(
                app, app_factory(app, self.scale), seeds=self.seeds, config=self.config
            )
        return self._harnesses[app]

    def record(self, workload, variant_name, site_id, run):
        harness = self._harness(workload)
        kind = site_id.split("@", 1)[0]
        site = next(
            s
            for s in campaign_sites(harness.factory, kind, self.percent)
            if s.site_id == site_id
        )
        faulty = inject(harness.factory(), site, self.percent)
        (variant,) = resolve_variants([variant_name], self.design)
        result = variant.compile(faulty).run(
            argv=harness.argv,
            max_cycles=harness.timeout,
            seed=self.seeds[run],
            compiled=False,
        )
        return ExperimentRecord(
            workload=workload,
            variant=variant_name,
            site=site_id,
            run=run,
            result=result,
            golden_output=harness.golden.output_text,
        )


def reference_mismatches(records, design, scale, n, seed):
    """Recompute ``n`` tuples drawn with ``random.Random(seed)``."""
    ref = Reference(design, scale)
    rng = random.Random(seed)
    sample = rng.sample(range(len(records)), min(n, len(records)))
    problems = []
    for i in sorted(sample):
        rec = records[i]
        want = ref.record(rec.workload, rec.variant, rec.site, rec.run)
        if signature(want) != signature(rec):
            problems.append(f"reference differs at {tuple_key(rec)}")
    return problems


def _by_kind(records, kind):
    return [r for r in records if r.site is not None and r.site.startswith(kind + "@")]


def property_problems(records):
    """EXPERIMENTS.md properties of a diversity matrix."""
    problems = []
    ddet_std = [r for r in records if r.variant == "stdapp" and r.ddet]
    if ddet_std:
        problems.append(f"stdapp DPMR-detected {len(ddet_std)} times")
    resize = by_variant(_by_kind(records, RESIZE))
    for name, recs in resize.items():
        if name != "stdapp" and coverage(recs) < FULL:
            problems.append(f"{name} resize coverage {coverage(recs):.3f} < 1")
    free = by_variant(_by_kind(records, FREE))
    rearrange = coverage(free.get("rearrange-heap", []))
    if rearrange < FULL:
        problems.append(f"rearrange-heap immediate-free coverage {rearrange:.3f} < 1")
    for name, recs in free.items():
        if coverage(recs) > rearrange:
            problems.append(f"{name} immediate-free coverage above rearrange-heap")
    return problems
