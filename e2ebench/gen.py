"""Seeded inputs for the rpqi end-to-end benchmark.

The same (workload, seed) always yields the same graph, request list and
expectations. What the seed may change is chosen so that the cost of a round
stays put from seed to seed: it changes graph edges, the order and mix of
requests, and relation names.
It never changes the shape of a decision instance. Mirroring a CDA chain or
permuting its objects changes the program's search order and its cost; the
5-object sound chain goes from 0.4 s to 11 s when its direction is flipped.

Regenerate every input of a run, plus the oracle's eval answers, with
    python3 e2ebench/gen.py --workload decide --seed 3 --out DIR
"""

import argparse
import json
import os
import random
import re

WORKLOADS = ("serve_hot", "decide")

# Relation weights 8:4:2:1 for r0..r3 (skewed label frequencies).
REL_WEIGHTS = (("r0", 8), ("r1", 4), ("r2", 2), ("r3", 1))

# serve_hot query pool, most frequent first (Zipf rank = position). Answers
# range from tens to a few thousand pairs on the 1,000-node graph.
HOT_POOL = (
    "r1 r3", "r3^- r2", "r2 r2^-", "r3 (r0 | r1)", "r3 r3*", "r1 r2",
    "r0 r3^-", "r2 r3", "r3 r2^- r1", "(r2 | r3^-) r1", "r1 r1", "r2 r2",
    "r0^- r2", "r3^- r3", "r2 r3^- r2", "r0 r1", "r3", "r1^- r3",
    "r2 (r3 | r2)", "(r3 r3^-)* r2", "r0 r2^-", "r2", "r3 r3", "r1 r3^- r1",
    "r2^- r2 r3", "r0 r0", "r2 r3 r3^-", "r3 r0 r3^-", "r1^- r0", "r2 r1^-",
    "r0^- r3 r2", "r3 r2 r1",
)

# serve_hot rewrite pool: the letter family (a|b)* a (a|b)^k with views a, b,
# kept at k <= 2 (k = 4 renders an 8.2 MB regex), plus two small instances
# with inverse.
HOT_REWRITES = (
    ("(a|b)* a", {"va": "a", "vb": "b"}, 0),
    ("(a|b)* a (a|b)", {"va": "a", "vb": "b"}, 1),
    ("(a|b)* a (a|b) (a|b)", {"va": "a", "vb": "b"}, 2),
    ("(a^-)* (b | a)", {"v1": "a^-", "v2": "b", "v3": "a"}, None),
    ("(a b^-)* a", {"v1": "a b^-", "v2": "a", "v3": "b"}, None),
)

# decide: rewrite instance shapes over letters x, y, z. The seed maps letters
# to relation names and may mirror a letter (x -> p^-) consistently in the
# query and every view, which maps the instance to an isomorphic one.
DECIDE_REWRITES = (
    ("(x|y)* x (x|y) (x|y) (x|y)", {"v1": "x", "v2": "y"}, 3),
    ("(x|y|z)* x (x|y|z) (x|y|z)", {"v1": "x", "v2": "y", "v3": "z"}, None),
    ("(x x^- | y)* z (x | y^-)*",
     {"v1": "x", "v2": "y", "v3": "z", "v4": "x x^-"}, None),
    ("(x y^- | y x^-)* (x | y)", {"v1": "x", "v2": "y", "v3": "x y^-"}, None),
    ("x (y | z)* x^- (y z)*",
     {"v1": "x", "v2": "y | z", "v3": "x^-", "v4": "y z"}, None),
    ("(x (y|z))* (z^- x^-)*",
     {"v1": "x y", "v2": "x z", "v3": "z^- x^-", "v4": "x"}, None),
    ("((x|y) z^-)* x ((x|y) z^-)*",
     {"v1": "x z^-", "v2": "y z^-", "v3": "x", "v4": "z"}, None),
    ("(x y z)* | (x^- z)*", {"v1": "x y", "v2": "z", "v3": "x^- z", "v4": "x"},
     None),
    ("(x|y)* x (x|y) (x|y)", {"v1": "x", "v2": "y", "v3": "x y"}, None),
    ("(x|y)* x (x|y) (x|y)", {"v1": "x", "v2": "y"}, 2),
    ("(x^-)* (y | x)", {"v1": "x^-", "v2": "y", "v3": "x"}, None),
    ("x (y | z)* x^-", {"v1": "x", "v2": "y | z", "v3": "x^-"}, None),
)

RELATION_NAMES = ("p", "q", "s", "t", "u", "w", "link", "edge", "hop", "next")


def random_graph(rng, num_nodes, num_edges):
    """Edges split 8:4:2:1 over r0..r3. Within a relation every node has the
    same out-degree and the same in-degree, give or take one, so answer sizes
    move little from seed to seed."""
    total = sum(w for _, w in REL_WEIGHTS)
    edges = set()
    for rel, weight in REL_WEIGHTS:
        count = num_edges * weight // total
        reps = -(-count // num_nodes)
        sources = [n for n in range(num_nodes) for _ in range(reps)]
        targets = list(sources)
        rng.shuffle(sources)
        rng.shuffle(targets)
        for a, b in zip(sources[:count], targets[:count]):
            edges.add(("n%d" % a, rel, "n%d" % b))
    return sorted(edges)


def zipf_sample(rng, count, size, exponent):
    weights = [1.0 / (rank + 1) ** exponent for rank in range(size)]
    return rng.choices(range(size), weights=weights, k=count)


def letter_map(rng, letters, mirror):
    names = rng.sample(RELATION_NAMES, len(letters))
    out = {}
    for letter, name in zip(letters, names):
        out[letter] = "(%s^-)" % name if mirror and rng.random() < 0.5 else name
    return out


def substitute(text, mapping):
    return re.sub(r"\b([a-z])\b", lambda m: mapping.get(m.group(1), m.group(1)),
                  text)


# ---------------------------------------------------------------- serve

def serve_hot(seed):
    rng = random.Random("serve_hot:%d" % seed)
    graph = random_graph(rng, 1000, 4000)
    round_size = 2000
    requests, meta = [], []
    answers = iter(small_answers(rng))
    rewrite_picks = iter(zipf_sample(rng, round_size, len(HOT_REWRITES), 1.0))
    eval_picks = iter(zipf_sample(rng, round_size, len(HOT_POOL), 1.0))
    for i in range(round_size):
        if i % 500 == 250:
            req, m = next(answers)
        elif i % 10 == 9:
            query, views, k = HOT_REWRITES[next(rewrite_picks)]
            req = {"op": "rewrite", "query": query, "views": views}
            m = {"kind": "rewrite", "family_k": k}
        else:
            req = {"op": "eval", "query": HOT_POOL[next(eval_picks)]}
            m = {"kind": "eval"}
        requests.append(req)
        meta.append(m)
    warm = [{"op": "eval", "query": q} for q in HOT_POOL]
    warm += [{"op": "rewrite", "query": q, "views": v}
             for q, v, _ in HOT_REWRITES]
    return {"graph": graph, "requests": requests, "meta": meta, "warm": warm,
            "server_flags": [], "connections": 2}


# ---------------------------------------------------------------- decide

def chain_view(rel, assumption, objects, step=1, name="v"):
    expr = " ".join([rel] * step)
    return {"name": name, "expr": expr, "assumption": assumption,
            "extension": [[i, i + step] for i in range(objects - step)]}


def chain_answer(mode, rel, objects, views, pairs, certain_pair, why):
    """A chain instance whose verdicts follow from its construction: every
    database consistent with the views contains the chain, so the pair from
    the first object to the last is certain; the database made of the chain
    edges alone is consistent and answers no other pair."""
    query = " ".join([rel] * (objects - 1))
    req = {"op": "answer", "mode": mode, "objects": objects, "query": query,
           "views": views, "pairs": pairs}
    expected = {tuple(p): (certain_pair is not None and
                           tuple(p) == certain_pair) for p in pairs}
    return req, {"kind": "answer", "verdicts": "construction",
                 "expected": expected, "why": why,
                 "witness_edges": [["o%d" % i, rel, "o%d" % (i + 1)]
                                   for i in range(objects - 1)]
                 if why != "complete" else []}


def random_small_regex(rng, relations, depth):
    if depth == 0 or rng.random() < 0.3:
        rel = rng.choice(relations)
        return rel + ("^-" if rng.random() < 0.35 else "")
    op = rng.choice(("cat", "cat", "alt", "star"))
    if op == "star":
        return "(%s)*" % random_small_regex(rng, relations, depth - 1)
    a = random_small_regex(rng, relations, depth - 1)
    b = random_small_regex(rng, relations, depth - 1)
    return "(%s %s)" % (a, b) if op == "cat" else "(%s | %s)" % (a, b)


def brute_force_instance(rng, objects, relations):
    views = []
    for i in range(rng.randint(1, 2)):
        ext = sorted({(rng.randrange(objects), rng.randrange(objects))
                      for _ in range(rng.randint(1, objects))})
        views.append({"name": "b%d" % i,
                      "expr": random_small_regex(rng, relations, 1),
                      "assumption": rng.choice(("sound", "exact", "complete")),
                      "extension": [list(p) for p in ext]})
    pairs = [[c, d] for c in range(objects) for d in range(objects)]
    req = {"op": "answer", "mode": "cda", "objects": objects,
           "query": random_small_regex(rng, relations, 2), "views": views,
           "pairs": pairs}
    return req, {"kind": "answer", "verdicts": "brute_force",
                 "relations": relations}


def small_answers(rng):
    """Two CDA and two ODA requests of a few milliseconds each, so that
    cda_s and oda_s have a value on serve_hot too."""
    p, q = rng.sample(RELATION_NAMES, 2)
    return [
        chain_answer("cda", p, 4, [chain_view(p, "sound", 4)], [[0, 3]],
                     (0, 3), "sound"),
        chain_answer("cda", q, 3, [chain_view(q, "exact", 3)],
                     [[2, 0], [0, 2]], (0, 2), "exact"),
        chain_answer("oda", p, 2, [chain_view(p, "sound", 2)],
                     [[0, 1], [1, 0]], (0, 1), "sound"),
        chain_answer("oda", q, 2, [chain_view(q, "exact", 2)], [[0, 1]],
                     (0, 1), "exact"),
    ]


def decide(seed):
    rng = random.Random("decide:%d" % seed)

    # Section 4: distinct rewrite instances; with the plan cache off they
    # run the whole pipeline every time they are asked.
    rewrites = []
    for query, views, k in DECIDE_REWRITES:
        mapping = letter_map(rng, "xyz", mirror=(k is None))
        rewrites.append(({"op": "rewrite", "query": substitute(query, mapping),
                          "views": {name: substitute(expr, mapping)
                                    for name, expr in views.items()}},
                         {"kind": "rewrite", "family_k": k}))

    # Section 5, CDA. Relation names come from the seed; shapes do not.
    p, q, s = rng.sample(RELATION_NAMES, 3)
    cda = [
        chain_answer("cda", p, 5, [chain_view(p, "sound", 5)], [[0, 4]],
                     (0, 4), "sound"),
        chain_answer("cda", q, 5, [chain_view(q, "sound", 5)], [[0, 4]],
                     (0, 4), "sound"),
        chain_answer("cda", p, 5, [chain_view(p, "sound", 5)],
                     [[4, 0], [1, 3], [0, 3]], (0, 4), "sound"),
        chain_answer("cda", s, 5, [chain_view(s, "exact", 5)],
                     [[0, 4], [4, 0]], (0, 4), "exact"),
        chain_answer("cda", p, 4,
                     [chain_view(p, "sound", 4),
                      chain_view(p, "complete", 4, step=2, name="w")],
                     [[0, 3], [3, 0]], (0, 3), "sound+complete"),
        chain_answer("cda", q, 3, [chain_view(q, "complete", 3)],
                     [[0, 2], [2, 0], [0, 1]], None, "complete"),
    ]
    cda.append(brute_force_instance(rng, 3, [p]))
    cda.append(brute_force_instance(rng, 2, [p, q]))

    # Section 5, ODA. The 3-object instance's probes are spread over several
    # requests; the certain probe costs seconds.
    oda3 = [chain_view(s, "sound", 3)]
    oda = [
        chain_answer("oda", s, 3, oda3, [[0, 2]], (0, 2), "sound"),
        chain_answer("oda", s, 3, oda3, [[2, 0], [1, 0]], (0, 2), "sound"),
        chain_answer("oda", s, 3, oda3, [[0, 1]], (0, 2), "sound"),
        chain_answer("oda", q, 2, [chain_view(q, "exact", 2)],
                     [[0, 1], [1, 0]], (0, 1), "exact"),
        chain_answer("oda", p, 2, [chain_view(p, "complete", 2)], [[0, 1]],
                     None, "complete"),
    ]
    # ODA-certain implies CDA(objects + k)-certain: the same 3-object
    # instance under CDA with k = 0 and k = 1 extra objects.
    for extra in (0, 1):
        req, m = chain_answer("cda", s, 3, oda3, [[0, 2]], (0, 2), "sound")
        req["objects"] = 3 + extra
        m["oda_cross_check"] = True
        oda.append((req, m))

    # Evals too, so that eval_p50_ms and eval_p90_ms have a value here: each
    # pool query twice, in two seeded orders (a seeded draw would change the
    # mix, and with it the percentiles, from seed to seed). The plan cache is
    # off: every request of this workload is computed afresh.
    graph = random_graph(rng, 1000, 4000)
    evals = [[({"op": "eval", "query": query}, {"kind": "eval"})
              for query in rng.sample(HOT_POOL, len(HOT_POOL))]
             for _ in range(2)]

    # The rewrites are asked four times a round, between the other blocks,
    # so that rewrite_p50_ms rests on more samples than rounds of a run give.
    blocks = [rewrites, cda, rewrites, oda, rewrites, evals[0], rewrites,
              evals[1]]
    requests = [dict(req) for block in blocks for req, _ in block]
    meta = [dict(m) for block in blocks for _, m in block]
    return {"graph": graph, "requests": requests, "meta": meta, "warm": [],
            "server_flags": ["--plan-cache-mb", "0"], "connections": 1}


def generate(workload, seed):
    spec = {"serve_hot": serve_hot, "decide": decide}[workload](seed)
    spec["workload"] = workload
    spec["seed"] = seed
    return spec


def request_line(request):
    return json.dumps(request, separators=(",", ":"))


def write_inputs(spec, out_dir):
    """Writes the files the benchmark feeds to rpqi and to its own client."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {"requests": os.path.join(out_dir, "requests.ndjson"),
             "warm": os.path.join(out_dir, "warm.ndjson")}
    with open(paths["requests"], "w") as f:
        for req in spec["requests"]:
            f.write(request_line(req) + "\n")
    with open(paths["warm"], "w") as f:
        for req in spec["warm"]:
            f.write(request_line(req) + "\n")
    if spec["graph"] is not None:
        paths["graph"] = os.path.join(out_dir, "graph.txt")
        with open(paths["graph"], "w") as f:
            for a, rel, b in spec["graph"]:
                f.write("%s %s %s\n" % (a, rel, b))
    return paths


def main():
    import oracle
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = generate(args.workload, args.seed)
    write_inputs(spec, args.out)
    with open(os.path.join(args.out, "meta.json"), "w") as f:
        json.dump([{k: (sorted([list(p), v] for p, v in m["expected"].items())
                        if k == "expected" else v) for k, v in m.items()}
                   for m in spec["meta"]], f, indent=1)
    if spec["graph"] is not None:
        graph = oracle.Graph(spec["graph"])
        answers = {}
        for req in spec["requests"]:
            if req["op"] == "eval" and req["query"] not in answers:
                answers[req["query"]] = sorted(
                    oracle.eval_regex(graph, req["query"]))
        with open(os.path.join(args.out, "oracle_answers.json"), "w") as f:
            json.dump(answers, f)


if __name__ == "__main__":
    main()
