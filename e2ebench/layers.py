"""The traced run of the end-to-end benchmark: per-layer metrics.

Three parts, all on the workload's inputs for the given seed:
  1. one round through `rpqi serve` without tracing, then one round with
     `--trace-out`/`--metrics-out`; their wall times give the tracing
     overhead, and the traced round gives the net and service metrics (from
     the metrics file, each response's `us`, `cache` and `counters`);
  2. the layer harness (layer_harness.cc) replays every distinct request
     through the public function of each module, timing each call from the
     benchmark's own code, with the program's span tracer on;
  3. refuted certain-answer probes of the harness leave the program's
     counterexample databases, which oracle.py validates.
On serve_hot no request gets past ODA phase 1, so the harness also replays
decide's 3-object ODA requests (same seed) for the ODA metrics; every other
metric comes from the workload's own requests.
"""

import json
import os
import statistics

import checks
import gen

# (name, unit) in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("net.bytes_written_per_request", "bytes"),
    ("net.outside_exec_us_p50", "us"),
    ("service.queue_wait_us_p50", "us"),
    ("service.request_us_p50", "us"),
    ("service.handle_eval_hit_us_p50", "us"),
    ("service.handle_rewrite_hit_us_p50", "us"),
    ("service.json_dump_us_per_kpair", "us"),
    ("service.json_parse_us_p50", "us"),
    ("service.plan_cache.hit_ratio", "ratio"),
    ("service.plan_cache.get_us_p50", "us"),
    ("graphdb.snapshot_load_ms", "ms"),
    ("graphdb.eval_all_pairs_ms_p50", "ms"),
    ("graphdb.configurations_per_query", "count"),
    ("graphdb.cells_per_configuration", "count"),
    ("graphdb.answer_pairs_per_query", "count"),
    ("regex.parse_us_p50", "us"),
    ("rpq.compile_us_p50", "us"),
    ("automata.flat_compile_us_p50", "us"),
    ("automata.to_regex_us_p50", "us"),
    ("automata.materialize_states", "count"),
    ("automata.determinize_states", "count"),
    ("automata.emptiness_pruned_ratio", "ratio"),
    ("rewrite.compute_us_p50", "us"),
    ("rewrite.exactness_us_p50", "us"),
    ("answer.cda_probe_ms_total", "ms"),
    ("answer.cda.plan_compiles_per_probe", "count"),
    ("answer.cda.scan_share", "ratio"),
    ("answer.cda.nodes_visited", "count"),
    ("answer.oda_setup_ms", "ms"),
    ("answer.oda_probe_ms_certain", "ms"),
    ("answer.oda_probe_ms_refuted", "ms"),
    ("answer.oda_phase1_ms", "ms"),
    ("answer.oda_phase2_ms", "ms"),
    ("answer.oda.phase1_overflows", "count"),
    ("obs.tracing_overhead_ratio", "ratio"),
)


def read_ndjson(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def histogram_p50_us(hist):
    """Median of a log2 histogram (bucket b holds durations of bit width b,
    i.e. [2^(b-1), 2^b) us), interpolated linearly inside the bucket."""
    half = hist["count"] / 2.0
    seen = 0
    for b, n in enumerate(hist["buckets"]):
        if n and seen + n >= half:
            lo = 0 if b == 0 else 2 ** (b - 1)
            hi = 1 if b == 0 else 2 ** b
            return lo + (hi - lo) * (half - seen) / n
        seen += n
    return 0.0


def span_us(span):
    return (span["end_ns"] - span["start_ns"]) / 1e3


def median_us(spans, name):
    values = [span_us(s) for s in spans if s["name"] == name]
    return statistics.median(values) if values else 0.0


def harness(run_process, bins, requests_path, graph, out, trace):
    argv = [bins["layer_harness"], "--requests", requests_path, "--out", out,
            "--program-trace", trace]
    if graph:
        argv += ["--graph", graph]
    run_process(argv, timeout=150)
    records = read_ndjson(out)
    spans = [r for r in records if r["type"] == "span"]
    witnesses = [r for r in records if r["type"] == "witness"]
    return spans, witnesses, read_ndjson(trace)


def harness_requests(path):
    """Distinct request lines, in the order the harness numbers them."""
    out, seen = [], set()
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line and line not in seen:
                seen.add(line)
                out.append(json.loads(line))
    return out


def traced_run(bins, spec, paths, run_dir, serve_pass, run_process):
    errors = []
    # 1. One untraced and one traced round through rpqi serve.
    plain, _, _ = serve_pass(bins, spec, paths, os.path.join(run_dir, "plain"), 0)
    trace_out = os.path.join(run_dir, "serve.trace.ndjson")
    metrics_out = os.path.join(run_dir, "serve.metrics.ndjson")
    summary, samples, kept = serve_pass(
        bins, spec, paths, os.path.join(run_dir, "traced"), 0,
        ["--trace-out", trace_out, "--metrics-out", metrics_out])
    errors += checks.check_responses(spec, kept)

    def round_s(s):
        return (s["end_ns"] - s["ready_ns"]) / 1e9

    server_metrics = {(m["type"], m["name"]): m for m in read_ndjson(metrics_out)}

    def counter(name):
        m = server_metrics.get(("counter", name))
        return m["value"] if m else 0

    queue_wait = server_metrics.get(("histogram", "worker_pool.queue_wait_us"))
    cache = [c for (_, _, _, _, _, c, _) in samples if c != "-"]

    # 2. The layer harness, on the workload's own distinct requests.
    spans, witnesses, program = harness(
        run_process, bins, paths["requests"], paths.get("graph"),
        os.path.join(run_dir, "layers.ndjson"),
        os.path.join(run_dir, "layers.trace.ndjson"))
    own_requests = harness_requests(paths["requests"])
    errors += checks.check_witnesses(witnesses, own_requests)
    oda_spans, oda_program = spans, program
    if spec["workload"] != "decide":
        decide = gen.generate("decide", spec["seed"])
        companion = [r for r in decide["requests"]
                     if r.get("mode") == "oda" and r["objects"] == 3]
        companion_dir = os.path.join(run_dir, "oda3")
        companion_paths = gen.write_inputs(
            dict(decide, requests=companion, warm=[], graph=None),
            companion_dir)
        oda_spans, oda_witnesses, oda_program = harness(
            run_process, bins, companion_paths["requests"], None,
            os.path.join(companion_dir, "layers.ndjson"),
            os.path.join(companion_dir, "layers.trace.ndjson"))
        errors += checks.check_witnesses(
            oda_witnesses, harness_requests(companion_paths["requests"]))

    def named(name, source=None):
        return [s for s in (spans if source is None else source)
                if s["name"] == name]

    def note_sum(name, key, source=None):
        return sum(s["notes"].get(key, 0) for s in named(name, source))

    evals = named("graphdb.eval_all_pairs")
    dumps = named("service.json_dump")
    cda = named("answer.cda_probe")
    oda = named("answer.oda_probe", oda_spans)
    latency_minus_us = [lat / 1e3 - us for (_, _, lat, _, us, _, _) in samples]

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "net.bytes_written_per_request": ratio(
            counter("net.bytes_written"), counter("service.requests")),
        "net.outside_exec_us_p50": statistics.median(latency_minus_us),
        "service.queue_wait_us_p50": histogram_p50_us(queue_wait)
        if queue_wait else 0.0,
        "service.request_us_p50": statistics.median(
            [us for (_, _, _, _, us, _, _) in samples]),
        "service.handle_eval_hit_us_p50": median_us(
            spans, "service.handle_eval_hit"),
        "service.handle_rewrite_hit_us_p50": median_us(
            spans, "service.handle_rewrite_hit"),
        "service.json_dump_us_per_kpair": ratio(
            sum(span_us(s) for s in dumps),
            sum(s["notes"]["pairs"] for s in dumps) / 1000.0),
        "service.json_parse_us_p50": median_us(spans, "service.json_parse"),
        "service.plan_cache.hit_ratio": ratio(cache.count("h"), len(cache)),
        "service.plan_cache.get_us_p50": median_us(
            spans, "service.plan_cache.get"),
        "graphdb.snapshot_load_ms": median_us(
            spans, "graphdb.snapshot_load") / 1e3,
        "graphdb.eval_all_pairs_ms_p50": median_us(
            spans, "graphdb.eval_all_pairs") / 1e3,
        "graphdb.configurations_per_query": ratio(
            note_sum("graphdb.eval_all_pairs", "eval.configurations"),
            len(evals)),
        "graphdb.cells_per_configuration": ratio(
            sum(s["notes"]["nodes"] ** 2 * s["notes"]["plan_states"]
                for s in evals),
            note_sum("graphdb.eval_all_pairs", "eval.configurations")),
        "graphdb.answer_pairs_per_query": ratio(
            note_sum("graphdb.eval_all_pairs", "answer_pairs"), len(evals)),
        "regex.parse_us_p50": median_us(spans, "regex.parse"),
        "rpq.compile_us_p50": median_us(spans, "rpq.compile"),
        "automata.flat_compile_us_p50": median_us(
            spans, "automata.flat_compile"),
        "automata.to_regex_us_p50": median_us(spans, "automata.to_regex"),
        "automata.materialize_states":
            note_sum("rewrite.compute", "materialize.states")
            + note_sum("answer.oda_probe", "materialize.states", oda_spans),
        "automata.determinize_states":
            note_sum("rewrite.compute", "determinize.states"),
        "automata.emptiness_pruned_ratio": ratio(
            note_sum("answer.oda_probe", "emptiness.states_pruned", oda_spans),
            note_sum("answer.oda_probe", "emptiness.states_pruned", oda_spans)
            + note_sum("answer.oda_probe", "emptiness.states_queued",
                       oda_spans)),
        "rewrite.compute_us_p50": median_us(spans, "rewrite.compute"),
        "rewrite.exactness_us_p50": median_us(spans, "rewrite.exactness"),
        "answer.cda_probe_ms_total": sum(span_us(s) for s in cda) / 1e3,
        "answer.cda.plan_compiles_per_probe": ratio(
            note_sum("answer.cda_probe", "eval.plan_compiles"),
            note_sum("answer.cda_probe", "cda.probes")),
        "answer.cda.scan_share": ratio(
            note_sum("answer.cda_probe", "eval.scan_runs"),
            note_sum("answer.cda_probe", "eval.bfs_runs")),
        "answer.cda.nodes_visited": note_sum("answer.cda_probe",
                                             "cda.nodes_visited"),
        "answer.oda_setup_ms": sum(
            span_us(s) for s in named("answer.oda_setup", oda_spans)) / 1e3,
        "answer.oda_probe_ms_certain": sum(
            span_us(s) for s in oda if s["notes"]["certain"]) / 1e3,
        "answer.oda_probe_ms_refuted": sum(
            span_us(s) for s in oda if not s["notes"]["certain"]) / 1e3,
        "answer.oda_phase1_ms": sum(
            p["dur_us"] for p in oda_program
            if p.get("name") == "answer.ODA.phase1") / 1e3,
        "answer.oda_phase2_ms": sum(
            p["dur_us"] for p in oda_program
            if p.get("name") == "answer.ODA.phase2") / 1e3,
        "answer.oda.phase1_overflows": note_sum(
            "answer.oda_probe", "oda.phase1_overflows", oda_spans),
        "obs.tracing_overhead_ratio": round_s(summary) / round_s(plain),
    }
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    return metrics, errors, summary["attempted"], summary["failed"]
