#!/usr/bin/env python3
"""Campaign benchmark: figure matrices cold and warm, and a store-backed service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload diversity-mds-s6 --seed 1 --seconds 45 --trace 0

Workloads (inputs in ``workloads.py``, reasons in README.md):

* ``diversity-mds-s6`` — MDS diversity matrix, scale 6, 208 tuples,
  ``DPMR_JOBS=2``;
* ``service-store``    — ``python -m repro.service`` over a fresh result
  store, two connections: one fill pass, then replay passes against
  restarted daemons.

Every campaign runs in a fresh child process with ``DPMR_*`` and
``PYTHON*`` removed from the environment apart from what the workload sets,
``PYTHONHASHSEED=0``, and a private temporary directory under
``.perfbench_tmp/`` that is deleted afterwards.  A run plans whole rounds to
fill ``--seconds`` (see ``ROUND_S``), checks every output, and prints one
JSON object as its last stdout line: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the same untraced rounds followed by one
traced round, printing the per-layer metrics and the tracing overhead.
``--seed`` chooses the tuples and requests re-checked on the reference path.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import FIGURES, SERVICE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"

WORKLOADS = (*FIGURES, "service-store")

#: Nominal wall-clock of one round on a 2-vCPU host; a run makes
#: ``max(1, round(seconds / ROUND_S))`` rounds.
ROUND_S = {"diversity-mds-s6": 15.0, "service-store": 14.0}
#: Warm repetitions per figure round, replay passes per service round.
WARM_REPS = {"diversity-mds-s6": 1}
REPLAYS = 6
#: ``import repro`` probes per figure round (set-up samples).
SETUP_PROBES = 6
#: Tuples (figure) or requests (service) re-checked on the reference path
#: in each run.
SAMPLE = {"diversity-mds-s6": 3, "service-store": 2}
CHILD_TIMEOUT_S = 170

#: Per-layer metrics of the service layer, which figure workloads never call.
SERVICE_LAYER = (
    "service.accept_ms_p50",
    "service.stream_ms_p50",
    "service.req_p50_ms",
    "service.req_p90_ms",
    "service.executed",
    "service.shared_hits",
    "service.store_hits",
    "service.dedupe_ratio",
)


class BenchError(RuntimeError):
    pass


def clean_env(workload, tmp):
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("DPMR_") and not k.startswith("PYTHON")
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)
    # The workload's DPMR_JOBS; every other knob keeps its default.
    jobs = FIGURES[workload]["jobs"] if workload in FIGURES else SERVICE["jobs"]
    env["DPMR_JOBS"] = str(jobs)
    return env


def run_child(cmd, env):
    """Run a child to completion; its last stdout line as JSON.

    The child leads its own process group, so a timeout also ends the
    daemons and workers it started.
    """
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        raise BenchError(f"{cmd[1]} timed out after {CHILD_TIMEOUT_S} s") from None
    except BaseException:
        _kill_group(proc)
        raise
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{cmd[1]} exited {proc.returncode}: {err.decode()[-2000:]}"
        )
    return json.loads(lines[-1])


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def _terminated(signum, frame):
    sys.exit(128 + signum)


def setup_probe(env):
    """Seconds from spawning a fresh interpreter to ``import repro`` done."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import repro; print('ready', flush=True)"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchError("import repro failed")
    return elapsed


def figure_round(workload, env, seed, tmp, warm, sample, trace=False):
    cmd = [
        sys.executable,
        str(HERE / "figure.py"),
        workload,
        "--warm",
        str(warm),
        "--sample",
        str(sample),
        "--sample-seed",
        str(seed),
    ]
    if trace:
        dump = tmp / "layers"
        dump.mkdir(exist_ok=True)
        cmd += ["--trace", str(dump)]
    return run_child(cmd, env)


def service_rounds(env, seed, tmp, rounds, replays, trace):
    cmd = [
        sys.executable,
        str(HERE / "service.py"),
        "--tmp",
        os.path.relpath(tmp, ROOT),  # short UNIX socket paths
        "--rounds",
        str(rounds),
        "--replays",
        str(replays),
        "--sample",
        str(SAMPLE["service-store"]),
        "--sample-seed",
        str(seed),
    ]
    if trace:
        cmd.append("--trace")
    return run_child(cmd, env)


def measure_figure(workload, env, seed, tmp, rounds):
    setup, cold, warm, rss, problems = [], [], [], [], []
    digests, attempted, failed, last = set(), 0, 0, None
    for r in range(rounds):
        setup += [setup_probe(env) for _ in range(SETUP_PROBES)]
        sample = SAMPLE[workload] if r == 0 else 0
        res = figure_round(workload, env, seed, tmp, WARM_REPS[workload], sample)
        cold.append(res["cold_s"])
        warm += res["warm_s"]
        rss.append(res["rss_mb"])
        problems += res["problems"]
        digests.add(res["digest"])
        attempted += res["attempted"]
        failed += res["failed"]
        last = res
    if len(digests) != 1:
        problems.append("campaign processes disagree on the records")
    metrics = {
        "setup_s": statistics.median(setup),
        "cold_s": statistics.median(cold),
        "warm_s": statistics.median(warm),
        "peak_rss_mb": max(rss),
    }
    return metrics, attempted, failed, problems, last


def measure_service(env, seed, tmp, rounds):
    res = service_rounds(env, seed, tmp, rounds, REPLAYS, trace=False)
    metrics = {
        "setup_s": statistics.median(res["setup_s"]),
        "cold_s": statistics.median(res["fill_s"]),
        "warm_s": statistics.median(res["replay_s"]),
        "peak_rss_mb": res["rss_mb"],
    }
    return metrics, res["attempted"], res["failed"], res["problems"], res


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(snap, sim_instructions):
    """Per-layer metrics from one traced round's merged layer totals."""
    stats, extra, cg = snap["stats"], snap["extra"], snap["codegen"]

    def n(layer):
        return stats.get(layer, [0, 0.0, 0.0])[0]

    def s(layer):
        return stats.get(layer, [0, 0.0, 0.0])[1]

    def self_s(layer):
        return stats.get(layer, [0, 0.0, 0.0])[2]

    out = {}
    for layer in (
        "apps.build",
        "faultinject.inject",
        "ir.verify",
        "ir.clone",
        "core.transform",
        "machine.codegen",
        "machine.run",
        "eval.harness",
        "eval.store_get",
        "eval.store_put",
    ):
        out[layer + "_n"] = n(layer)
        out[layer + "_s"] = s(layer)
    out["eval.prepare_s"] = s("eval.prepare")
    out["eval.campaign_s"] = s("eval.campaign")
    out["core.delta_hit_ratio"] = _ratio(
        extra.get("core.delta_splices", 0), extra.get("core.site_builds", 0)
    )
    out["machine.pycompile_n"] = extra.get("machine.pycompile_n", 0)
    out["machine.pycompile_kb"] = extra.get("machine.pycompile_bytes", 0) / 1024.0
    out["machine.pycompile_s"] = s("machine.pycompile")
    out["machine.codegen_hit_ratio"] = _ratio(
        cg.get("hits", 0), cg.get("hits", 0) + cg.get("misses", 0)
    )
    out["machine.sim_minstr"] = sim_instructions / 1e6
    # Self time: code generation and compiles nested in a run are excluded.
    out["machine.host_ns_per_instr"] = 1e9 * _ratio(
        self_s("machine.run"), extra.get("machine.instructions", 0)
    )
    out["eval.store_hit_ratio"] = _ratio(extra.get("eval.store_hits", 0), n("eval.store_get"))
    return out


def declared(section, values):
    """``values`` as result metrics, with the names and units that
    ``BENCHMARK.json`` declares in ``section``; every name is required."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def traced_figure(workload, env, seed, tmp):
    """One traced campaign process (cold plus one warm campaign)."""
    res = figure_round(workload, env, seed, tmp, warm=1, sample=0, trace=True)
    out = layer_metrics(res["layers"], res["sim_instructions"])
    man = res["manifest"]
    out["eval.effective_jobs"] = man["effective_jobs"]
    out["eval.worker_restarts"] = man["worker_restarts"]
    out["eval.retries"] = man["retries"]
    out.update(dict.fromkeys(SERVICE_LAYER, 0))
    return res, out, res["cold_s"] + res["warm_s"][0]


def traced_service(env, seed, tmp, untraced):
    """One traced fill and replay pass; request latencies come from the
    untraced passes ``untraced``."""
    res = service_rounds(env, seed, tmp / "traced", 1, 1, trace=True)
    out = layer_metrics(res["layers"], res["sim_instructions"])
    out["eval.effective_jobs"] = res["effective_jobs"]
    out["eval.worker_restarts"] = res["worker_restarts"]
    out["eval.retries"] = res["retries"]
    out["service.accept_ms_p50"] = statistics.median(untraced["accept_ms"])
    out["service.stream_ms_p50"] = statistics.median(untraced["stream_ms"])
    out["service.req_p50_ms"] = statistics.median(untraced["req_ms"])
    out["service.req_p90_ms"] = statistics.quantiles(untraced["req_ms"], n=10)[-1]
    svc = res["service"]
    for name in ("executed", "shared_hits", "store_hits"):
        out["service." + name] = svc[name]
    out["service.dedupe_ratio"] = _ratio(svc["executed"], svc["requested"])
    return res, out, res["fill_s"][0] + res["replay_s"][0]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _terminated)  # clean up children first
    rounds = max(1, round(args.seconds / ROUND_S[args.workload]))
    tmp = TMP_ROOT / f"run-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    try:
        env = clean_env(args.workload, tmp)
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            check=True,
        )
        if args.workload == "service-store":
            metrics, attempted, failed, problems, last = measure_service(
                env, args.seed, tmp, rounds
            )
        else:
            metrics, attempted, failed, problems, last = measure_figure(
                args.workload, env, args.seed, tmp, rounds
            )
        if args.trace:
            if args.workload == "service-store":
                res, out, traced_s = traced_service(env, args.seed, tmp, last)
            else:
                res, out, traced_s = traced_figure(args.workload, env, args.seed, tmp)
            problems += res["problems"]
            if res["sim_instructions"] != last["sim_instructions"]:
                problems.append("traced run simulated a different instruction count")
            untraced_s = metrics["cold_s"] + metrics["warm_s"]
            out["trace.overhead_s"] = traced_s - untraced_s
            out["trace.overhead_pct"] = 100.0 * _ratio(traced_s - untraced_s, untraced_s)
            attempted += res["attempted"]
            failed += res["failed"]
            result_metrics = declared("per_layer", out)
        else:
            result_metrics = declared("end_to_end", metrics)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": result_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
