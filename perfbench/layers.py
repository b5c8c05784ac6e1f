"""Per-layer tracing for the benchmark's traced runs.

Wraps public functions of each ``repro`` layer from outside the package:
every wrapped call is counted and timed (wall-clock, ``perf_counter``) at
its outermost entry into the layer, per thread, so a layer calling itself
(``verify_module`` -> ``verify_function``, ``DpmrBuild.run`` ->
``run_process``) is counted once.  Each layer gets an inclusive time
(``core.transform`` contains the ``ir.verify`` calls made inside it) and a
self time, which excludes the time of other layers nested in its calls.  CPython compiles of generated code are counted with the
interpreter's ``compile`` audit event.

Forked campaign workers inherit the wrappers.  A multiprocessing
after-fork hook zeroes the worker's totals and registers a finalizer that
writes them to ``<dump_dir>/layers-<pid>.json`` when the worker exits; the
parent merges those files with :func:`merge_dumps`.

Nothing here is imported by the untraced runs.
"""

from __future__ import annotations

import builtins
import functools
import glob
import json
import os
import sys
import threading
import time

_lock = threading.Lock()
_tls = threading.local()

#: layer -> [outermost calls, inclusive seconds, self seconds]
STATS = {}
#: extra counters: instructions, compile bytes, transform and codegen stats.
EXTRA = {}

_dump_dir = None
_codegen_at_start = None

#: A snapshot with nothing counted.
EMPTY = {"stats": {}, "extra": {}, "codegen": {}}


def _add(layer, n, seconds, self_seconds):
    with _lock:
        s = STATS.setdefault(layer, [0, 0.0, 0.0])
        s[0] += n
        s[1] += seconds
        s[2] += self_seconds


def _bump(name, value):
    with _lock:
        EXTRA[name] = EXTRA.get(name, 0) + value


def timed(layer, fn, after=None):
    """``fn`` counted and timed as one outermost call of ``layer``.

    ``after(result, args, kwargs)`` runs after each outermost call.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _tls.__dict__.setdefault("stack", [])
        if any(frame[0] == layer for frame in stack):
            return fn(*args, **kwargs)
        frame = [layer, 0.0]  # layer, time spent in nested layers
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            _add(layer, 1, elapsed, elapsed - frame[1])
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def _replace_everywhere(original, replacement):
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (modules import functions by name)."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(module, name, layer, after=None):
    original = getattr(module, name)
    _replace_everywhere(original, timed(layer, original, after))


def _wrap_method(cls, name, layer, after=None):
    setattr(cls, name, timed(layer, getattr(cls, name), after))


def _after_run(result, args, kwargs):
    _bump("machine.instructions", result.instructions)


def _after_get(result, args, kwargs):
    if result is not None:
        _bump("eval.store_hits", 1)


def _audit(event, args):
    if event == "compile":
        source, filename = args[0], args[1]
        if isinstance(filename, str) and filename.startswith("<dpmr-codegen:"):
            _bump("machine.pycompile_n", 1)
            if isinstance(source, (str, bytes)):
                _bump("machine.pycompile_bytes", len(source))


def install(dump_dir=None):
    """Wrap every layer's public functions in this process.  Call once per
    process; ``dump_dir`` receives forked workers' totals."""
    global _dump_dir, _codegen_at_start
    import repro  # noqa: F401  (binds every re-export before patching)
    import repro.apps as apps
    import repro.core.incremental as incremental
    import repro.core.pipeline as pipeline
    import repro.eval.experiment as experiment
    import repro.eval.parallel as parallel
    import repro.eval.store as store
    import repro.eval.variants as variants
    import repro.faultinject.injector as injector
    import repro.ir.module as ir_module
    import repro.ir.verifier as verifier
    import repro.machine.codegen as codegen
    import repro.machine.compile as mcompile
    import repro.machine.process as process
    import repro.service.__main__  # noqa: F401
    import repro.service.scheduler  # noqa: F401

    _dump_dir = dump_dir
    original_factory = apps.app_factory

    def app_factory(name, scale=1):
        return timed("apps.build", original_factory(name, scale))

    _replace_everywhere(original_factory, app_factory)

    _wrap_function(injector, "inject", "faultinject.inject")
    _wrap_function(verifier, "verify_module", "ir.verify")
    _wrap_function(verifier, "verify_function", "ir.verify")
    _wrap_method(ir_module.Module, "clone", "ir.clone")
    _wrap_method(pipeline.DpmrCompiler, "compile", "core.transform")
    _wrap_method(incremental.IncrementalDpmrCompiler, "compile", "core.transform")
    for name in ("generate_function", "plan_function_delta", "complete_function_delta"):
        _wrap_function(codegen, name, "machine.codegen")
    _wrap_method(pipeline.DpmrBuild, "run", "machine.run", _after_run)
    _wrap_function(process, "run_process", "machine.run", _after_run)
    _wrap_method(experiment.WorkloadHarness, "__post_init__", "eval.harness")
    _wrap_function(parallel, "prepare_build_states", "eval.prepare")
    _wrap_method(parallel.CampaignJob, "build_state", "eval.prepare")
    # The service builds each job's state variant by variant.
    _wrap_method(variants.Variant, "incremental_compiler", "eval.prepare")
    _wrap_function(parallel, "run_campaign_jobs_with_manifest", "eval.campaign")
    _wrap_method(store.ResultStore, "get", "eval.store_get", _after_get)
    _wrap_method(store.ResultStore, "put", "eval.store_put")
    # Generated source is compiled by the module-global ``compile`` lookup
    # in repro.machine.compile; shadow it there to time those compiles.
    mcompile.compile = timed("machine.pycompile", builtins.compile)

    _wrap_incremental_stats(incremental)
    sys.addaudithook(_audit)
    _codegen_at_start = mcompile.codegen_stats()
    import multiprocessing.util

    multiprocessing.util.register_after_fork(_FORK_ANCHOR, _after_fork_in_child)


def _wrap_incremental_stats(incremental):
    """Count per-site builds and their delta splices (the base transform of
    each variant goes through ``DpmrCompiler.compile`` instead)."""
    cls = incremental.IncrementalDpmrCompiler
    traced = cls.compile

    @functools.wraps(traced)
    def compile_with_stats(self, module):
        before = self.stats.delta_splices
        try:
            return traced(self, module)
        finally:
            _bump("core.site_builds", 1)
            _bump("core.delta_splices", self.stats.delta_splices - before)

    cls.compile = compile_with_stats


def _codegen_delta():
    from repro.machine.compile import codegen_stats

    now = codegen_stats()
    return {k: now[k] - _codegen_at_start.get(k, 0) for k in now}


def snapshot():
    """Totals of this process since :func:`install` (or since the fork)."""
    with _lock:
        out = {
            "stats": {k: list(v) for k, v in STATS.items()},
            "extra": dict(EXTRA),
        }
    out["codegen"] = _codegen_delta()
    return out


class _Anchor:
    """A weak-referenceable owner for the after-fork registration."""


_FORK_ANCHOR = _Anchor()


def _after_fork_in_child(_anchor):
    global _codegen_at_start, _lock
    _lock = threading.Lock()  # another thread may have held it at fork
    _tls.__dict__.pop("stack", None)  # the parent's open calls never return here
    STATS.clear()
    EXTRA.clear()
    from repro.machine.compile import codegen_stats

    _codegen_at_start = codegen_stats()
    if _dump_dir is not None:
        import multiprocessing.util

        # Registered after the fork: multiprocessing clears the finalizers
        # a worker inherits before it runs these hooks.
        multiprocessing.util.Finalize(None, dump, exitpriority=100)


def dump():
    """Write this process's totals to ``<dump_dir>/layers-<pid>.json``."""
    path = os.path.join(_dump_dir, f"layers-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot(), fh)


def merge(a, b):
    """Sum two snapshots."""
    out = {"stats": {}, "extra": {}, "codegen": {}}
    for part in (a, b):
        for k, values in part["stats"].items():
            cur = out["stats"].setdefault(k, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                cur[i] += v
        for section in ("extra", "codegen"):
            for k, v in part[section].items():
                out[section][k] = out[section].get(k, 0) + v
    return out


def merge_dumps(total, dump_dir):
    """``total`` plus every worker dump written under ``dump_dir``
    (the dumps are removed once merged)."""
    for path in sorted(glob.glob(os.path.join(dump_dir, "layers-*.json"))):
        with open(path, encoding="utf-8") as fh:
            total = merge(total, json.load(fh))
        os.unlink(path)
    return total

