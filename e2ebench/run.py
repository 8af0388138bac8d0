"""End-to-end benchmark of `rpqi serve`.

    python3 e2ebench/run.py --workload serve_hot --seed 1 --seconds 45 --trace 0

Builds rpqi (Release) and the benchmark's client and layer harness from the
checkout, generates the workload's inputs from the seed, starts
`rpqi serve --transport tcp --threads 2`, replays the request list in whole
rounds for --seconds from a closed-loop client (one request in flight per
connection, at most two connections), checks the responses against the
benchmark's own oracles, and prints one JSON object as the last line of
stdout. --trace 0 reports the end-to-end metrics; --trace 1 makes the traced
run and reports the per-layer metrics. See e2ebench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
RUNS = os.path.join(ROOT, ".bench_build", "e2ebench-runs")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import gen  # noqa: E402

SERVER_THREADS = 2


def fail(message, code=1):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("src/CMakeLists.txt", "tools/rpqi_cli.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no rpqi sources here (%s is missing)" % needed, 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                      "rpqi_cli", "e2e_client", "layer_harness"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return {name: os.path.join(BUILD, name)
            for name in ("rpqi", "e2e_client", "layer_harness")}


def run_process(argv, timeout):
    """Runs argv in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out" % os.path.basename(argv[0]))
    if proc.returncode != 0:
        try:  # a server whose client crashed would outlive it
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        fail("%s exited with %d" % (os.path.basename(argv[0]), proc.returncode))
    return out


def serve_pass(bins, spec, paths, prefix, seconds, extra_server_flags=()):
    server = [bins["rpqi"], "serve", "--transport", "tcp", "--host",
              "127.0.0.1", "--port", "0", "--threads", str(SERVER_THREADS)]
    if "graph" in paths:
        server += ["--db", paths["graph"]]
    server += spec["server_flags"] + list(extra_server_flags)
    client = [bins["e2e_client"], "--requests", paths["requests"],
              "--connections", str(spec["connections"]), "--seconds",
              str(seconds), "--out", prefix,
              "--keep", "all" if spec["workload"] == "decide" else "first"]
    if spec["warm"]:
        client += ["--warm", paths["warm"]]
    out = run_process(client + ["--"] + server, timeout=seconds + 150)
    summary = json.loads(out.strip().splitlines()[-1])
    if summary["server_exit"] != 0:
        fail("rpqi serve exited with %d" % summary["server_exit"])
    samples = []
    with open(prefix + ".lat") as f:
        for line in f:
            rnd, idx, lat_ns, done_ns, us, cache, ok = line.split()
            samples.append((int(rnd), int(idx), int(lat_ns), int(done_ns),
                            int(us), cache, ok == "1"))
    kept = []
    with open(prefix + ".resp") as f:
        for line in f:
            rnd, idx, body = line.rstrip("\n").split("\t", 2)
            kept.append((int(rnd), int(idx), body))
    return summary, samples, kept


def op_class(request):
    return request["op"] + ("." + request["mode"] if request["op"] == "answer"
                            else "")


def quantile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end_metrics(spec, summary, samples):
    """Serving metrics: throughput is a median over the run's rounds, and the
    latency percentiles are taken over every sample of the run, so a slow
    spell of the host during part of a run moves them little.

    Decision metrics (cda_s, oda_s) take each CDA (ODA) request of the list at
    its fastest over the run's rounds and sum those. The searches are
    single-threaded and deterministic, so their time varies only with the
    host: on a shared VM a vCPU runs them up to 1.6 times slower for spells,
    and a median over rounds flips between the two modes from run to run."""
    requests = spec["requests"]
    rounds = {}
    by_class, by_request = {}, {}
    for rnd, idx, lat_ns, done_ns, _, _, _ in samples:
        rounds.setdefault(rnd, []).append(done_ns)
        by_class.setdefault(op_class(requests[idx]), []).append(lat_ns / 1e6)
        by_request.setdefault(idx, []).append(lat_ns / 1e6)

    def fastest_round_s(cls):
        return sum(min(lats) for idx, lats in by_request.items()
                   if op_class(requests[idx]) == cls) / 1e3

    round_ends = [0] + [max(done) for _, done in sorted(rounds.items())]
    return {
        "setup_s": ((summary["ready_ns"] - summary["start_ns"]) / 1e9, "s"),
        "throughput_rps": (statistics.median(
            len(requests) * 1e9 / (b - a)
            for a, b in zip(round_ends, round_ends[1:])), "req/s"),
        "eval_p50_ms": (quantile(by_class["eval"], 0.5), "ms"),
        "eval_p90_ms": (quantile(by_class["eval"], 0.9), "ms"),
        "rewrite_p50_ms": (quantile(by_class["rewrite"], 0.5), "ms"),
        "cda_s": (fastest_round_s("answer.cda"), "s"),
        "oda_s": (fastest_round_s("answer.oda"), "s"),
        "peak_rss_mb": (summary["peak_rss_kb"] / 1024.0, "MB"),
    }


def emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bins = build()
    run_dir = os.path.join(RUNS, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    spec = gen.generate(args.workload, args.seed)
    paths = gen.write_inputs(spec, run_dir)

    if args.trace == 0:
        summary, samples, kept = serve_pass(
            bins, spec, paths, os.path.join(run_dir, "run"), args.seconds)
        errors = checks.check_responses(spec, kept)
        if summary["warm_failed"]:
            errors.append("%d warm-up requests failed" % summary["warm_failed"])
        metrics = end_to_end_metrics(spec, summary, samples)
        attempted, failed = summary["attempted"], summary["failed"]
    else:
        import layers
        metrics, errors, attempted, failed = layers.traced_run(
            bins, spec, paths, run_dir, serve_pass, run_process)
    for e in errors[:20]:
        print("check failed: " + e, file=sys.stderr)
    emit(not errors, attempted, failed, metrics)


if __name__ == "__main__":
    main()
