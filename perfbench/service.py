"""The ``service-store`` workload: a store-backed daemon, two connections.

Run by ``run.py`` with a clean environment::

    python perfbench/service.py --tmp DIR --rounds R --replays P
                                --sample K --sample-seed S [--trace]

Each round starts from an empty result store.  One fill pass runs against
a fresh ``python -m repro.service --unix SOCK --store STORE`` daemon; then
``P`` replay passes each run against a freshly restarted daemon over the
now-warm store.  A pass is 32 lockstep rounds: both connections submit
their next request and wait for its ``done`` frame before the next round.

The last stdout line is one JSON object with daemon set-up times, pass
times, per-request latencies, dedupe counters and check results.  With
``--trace`` the daemons start through ``launcher.py`` and their layer
totals are reported.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import repro
from repro import CampaignRequest, ExecConfig, ServiceClient, ServiceError

from checks import count_problems, property_problems, signature, tuple_key
from workloads import SERVICE, service_requests

HERE = os.path.dirname(os.path.abspath(__file__))


class Daemon:
    """One daemon process, from spawn to its ``listening`` line to exit."""

    def __init__(self, sock, store, log_path, trace_dir=None):
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro.service"]
        else:
            cmd = [sys.executable, os.path.join(HERE, "launcher.py"), trace_dir]
        cmd += ["--unix", sock, "--store", store]
        self.sock = sock
        self._log = open(log_path, "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log, stdin=subprocess.DEVNULL
        )
        line = self.proc.stdout.readline().decode()
        self.setup_s = time.perf_counter() - start
        if "listening" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r} (log {log_path})")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _submit(client, request):
    """One request to its ``done`` frame: (accepted, result, t_acc, t_done)."""
    start = time.perf_counter()
    accepted = client.submit_nowait(request)
    t_acc = time.perf_counter() - start
    result = client.collect(accepted)
    return accepted, result, t_acc, time.perf_counter() - start


def run_pass(sock, requests):
    """All connections' requests in lockstep rounds; returns (wall, replies).

    ``replies[c][i]`` is ``(accepted, result, t_acc, t_done)`` or the
    ``ServiceError`` that request raised.
    """
    n_conn = len(requests)
    replies = [[] for _ in range(n_conn)]
    start = time.perf_counter()
    clients = [ServiceClient(unix_path=sock, timeout=120) for _ in range(n_conn)]
    try:
        with ThreadPoolExecutor(max_workers=n_conn) as pool:
            for r in range(len(requests[0])):
                futures = [
                    pool.submit(_submit, clients[c], requests[c][r])
                    for c in range(n_conn)
                ]
                for c, fut in enumerate(futures):
                    try:
                        replies[c].append(fut.result())
                    except ServiceError as exc:
                        replies[c].append(exc)
    finally:
        for client in clients:
            client.close()
    return time.perf_counter() - start, replies


def main():
    # Daemons stop on SIGINT.  A process started in the background of a
    # non-interactive shell inherits SIGINT ignored, and so would every
    # daemon it execs; a Python-level handler here resets it for them.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    parser = argparse.ArgumentParser()
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--replays", type=int, required=True)
    parser.add_argument("--sample", type=int, required=True)
    parser.add_argument("--sample-seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    os.makedirs(args.tmp, exist_ok=True)
    specs = [service_requests(c) for c in range(SERVICE["connections"])]
    requests = [[CampaignRequest(**s) for s in conn] for conn in specs]
    trace_dir = None
    if args.trace:
        trace_dir = os.path.join(args.tmp, "layers")
        os.makedirs(trace_dir, exist_ok=True)

    out = {
        "setup_s": [],
        "fill_s": [],
        "replay_s": [],
        "req_ms": [],
        "accept_ms": [],
        "stream_ms": [],
        "rss_mb": 0.0,
        "attempted": 0,
        "failed": 0,
        "problems": [],
        "service": {"requested": 0, "executed": 0, "shared_hits": 0, "store_hits": 0},
        "effective_jobs": 0,
        "worker_restarts": 0,
        "retries": 0,
    }
    problems = out["problems"]
    fill_records = {}
    fill_results = None
    n_daemons = 0

    def one_pass(store, replay):
        nonlocal n_daemons
        n_daemons += 1
        sock = os.path.join(args.tmp, f"d{n_daemons}.sock")
        log = os.path.join(args.tmp, "daemon.log")
        daemon = Daemon(sock, store, log, trace_dir)
        try:
            out["setup_s"].append(daemon.setup_s)
            wall, replies = run_pass(sock, requests)
            out["rss_mb"] = max(out["rss_mb"], daemon.peak_rss_mb())
        finally:
            daemon.stop()
        executed = 0
        for c, conn in enumerate(replies):
            for i, reply in enumerate(conn):
                out["attempted"] += 1
                if isinstance(reply, ServiceError):
                    out["failed"] += 1
                    problems.append(f"request {c}/{i} raised {reply}")
                    continue
                accepted, result, t_acc, t_done = reply
                if len(result.records) != accepted["n_items"]:
                    out["failed"] += 1
                    problems.append(f"request {c}/{i} lost tuples")
                svc = out["service"]
                svc["requested"] += accepted["n_items"]
                for key in ("executed", "shared_hits", "store_hits"):
                    svc[key] += accepted[key]
                executed += accepted["executed"]
                man = result.manifest
                out["effective_jobs"] = max(out["effective_jobs"], man.effective_jobs)
                out["worker_restarts"] += man.worker_restarts
                out["retries"] += man.retries
                if replay:
                    out["req_ms"].append(1000.0 * t_done)
                    out["accept_ms"].append(1000.0 * t_acc)
                    out["stream_ms"].append(1000.0 * (t_done - t_acc))
                for rec in result.records:
                    sig = signature(rec)
                    known = fill_records.setdefault(tuple_key(rec), (sig, rec))[0]
                    if known != sig:
                        problems.append(f"{tuple_key(rec)} differs between passes")
        return wall, executed, replies

    for r in range(args.rounds):
        # Every round's fill must reproduce the first round's records.
        store = os.path.join(args.tmp, f"store{r}")
        wall, executed, replies = one_pass(store, replay=False)
        out["fill_s"].append(wall)
        distinct = len(fill_records)
        if executed != distinct:
            problems.append(f"fill executed {executed} tuples for {distinct} distinct")
        if fill_results is None:
            fill_results = replies
        for _ in range(args.replays):
            wall, executed, _ = one_pass(store, replay=True)
            out["replay_s"].append(wall)
            if executed:
                problems.append(f"replay executed {executed} tuples")
            if len(fill_records) != distinct:
                problems.append("replay returned tuples the fill did not")

    records = [rec for _, rec in fill_records.values()]
    out["sim_instructions"] = sum(r.result.instructions for r in records)
    union = CampaignRequest(
        workloads=SERVICE["apps"],
        kinds=SERVICE["kinds"],
        variants=SERVICE["pool"],
        design=SERVICE["design"],
        scale=SERVICE["scale"],
    )
    problems += count_problems(union, records)
    problems += property_problems(records)

    # A seeded sample of requests must equal the in-process run(request).
    rng = random.Random(args.sample_seed)
    flat = [(c, i) for c in range(len(requests)) for i in range(len(requests[c]))]
    for c, i in sorted(rng.sample(flat, min(args.sample, len(flat)))):
        reply = fill_results[c][i]
        if isinstance(reply, ServiceError):
            continue
        local = repro.run(requests[c][i], config=ExecConfig())
        want = [signature(r) for r in local.records]
        got = [signature(r) for r in reply[1].records]
        if want != got:
            problems.append(f"request {c}/{i} differs from in-process run")

    if trace_dir is not None:
        import layers

        out["layers"] = layers.merge_dumps(layers.EMPTY, trace_dir)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
