"""Checks of rpqi responses against the benchmark's own oracles (oracle.py).

No check compares a response with a value the program produced: eval answers
are recomputed, rewritings are tested on databases and words, and verdicts
are known from how the instance was built or by brute force.
"""

import json

import gen
import oracle


def objects(n):
    return ["o%d" % i for i in range(n)]


def answer_views(req):
    return [(v["expr"], v["assumption"],
             [("o%d" % a, "o%d" % b) for a, b in v["extension"]])
            for v in req["views"]]


class Checker:
    def __init__(self, spec):
        self.spec = spec
        self.graph = (oracle.Graph(spec["graph"])
                      if spec["graph"] is not None else None)
        self.eval_answers = {}
        self.verdicts = {}
        self.rewrite_checked = set()
        self.errors = []

    def error(self, where, message):
        self.errors.append("%s: %s" % (where, message))

    def eval(self, where, req, resp):
        query = req["query"]
        if query not in self.eval_answers:
            self.eval_answers[query] = oracle.eval_regex(self.graph, query)
        got = {tuple(p) for p in resp.get("answers", [])}
        if len(got) != len(resp.get("answers", [])):
            self.error(where, "duplicate answer pairs")
        want = self.eval_answers[query]
        if got != want:
            self.error(where, "eval %r: %d pairs, oracle %d (missing %r, extra %r)"
                       % (query, len(got), len(want), sorted(want - got)[:2],
                          sorted(got - want)[:2]))

    def rewrite(self, where, req, meta, resp):
        if not resp.get("exhaustive") or "rewriting" not in resp:
            self.error(where, "rewrite not exhaustive")
            return
        k = meta.get("family_k")
        states = resp.get("stats", {}).get("rewriting_states")
        if k is not None and states != 2 ** (k + 1) + 1:
            self.error(where, "letter family k=%d: %r rewriting states, "
                       "expected %d" % (k, states, 2 ** (k + 1) + 1))
        key = json.dumps(req, sort_keys=True)
        if key in self.rewrite_checked:
            return
        self.rewrite_checked.add(key)
        seed = "%s:%d:%s" % (self.spec["workload"], self.spec["seed"], key)
        problem = oracle.check_rewriting_sound(
            req["query"], req["views"], resp["rewriting"], seed)
        if problem is None and oracle.word_check_applies(req["query"],
                                                         req["views"]):
            problem = oracle.check_rewriting_words(
                req["query"], req["views"], resp["rewriting"], seed)
        if problem is not None:
            self.error(where, problem)

    def expected_verdicts(self, index, req, meta):
        if index in self.verdicts:
            return self.verdicts[index]
        pairs = [tuple(p) for p in req["pairs"]]
        if meta["verdicts"] == "construction":
            want = dict(meta["expected"])
            for pair, certain in want.items():
                if certain:
                    continue
                # The refuting database named by the construction must
                # really refute the pair.
                problem = oracle.validate_counterexample(
                    req["query"], answer_views(req),
                    ("o%d" % pair[0], "o%d" % pair[1]), meta["witness_edges"],
                    objects(req["objects"]))
                if problem is not None:
                    self.error("request %d" % index,
                               "construction does not refute %r: %s"
                               % (pair, problem))
        else:
            want = {}
            for c, d in pairs:
                want[(c, d)] = oracle.cda_certain_brute_force(
                    objects(req["objects"]), meta["relations"], req["query"],
                    answer_views(req), ("o%d" % c, "o%d" % d))
        self.verdicts[index] = want
        return want

    def answer(self, where, index, req, meta, resp):
        want = self.expected_verdicts(index, req, meta)
        got = {tuple(r["pair"]): r["certain"] for r in resp.get("results", [])}
        if got != want:
            self.error(where, "%s verdicts %r, expected %r"
                       % (req["mode"], sorted(got.items()),
                          sorted(want.items())))
        return got


def cross_check_oda(verdicts, errors):
    """ODA-certain must imply CDA(objects + k)-certain on the same instance."""
    cda = {}
    for (index, req), got in verdicts:
        if req["mode"] == "cda":
            key = (req["query"], json.dumps(req["views"], sort_keys=True))
            for pair, certain in got.items():
                cda.setdefault((key, pair), []).append(certain)
    for (index, req), got in verdicts:
        if req["mode"] != "oda":
            continue
        key = (req["query"], json.dumps(req["views"], sort_keys=True))
        for pair, certain in got.items():
            if certain and not all(cda.get((key, pair), [True])):
                errors.append("request %d: ODA-certain %r but CDA refutes it"
                              % (index, pair))


def check_responses(spec, kept):
    """Checks every kept response line; returns a list of errors."""
    checker = Checker(spec)
    verdicts = []
    for rnd, index, body in kept:
        where = "round %d request %d" % (rnd, index)
        req = spec["requests"][index]
        meta = spec["meta"][index]
        try:
            resp = json.loads(body)
        except ValueError:
            checker.error(where, "response is not JSON")
            continue
        if resp.get("status") != "ok":
            checker.error(where, "status %r: %s" % (resp.get("status"),
                                                   resp.get("message")))
            continue
        if meta["kind"] == "eval":
            checker.eval(where, req, resp)
        elif meta["kind"] == "rewrite":
            checker.rewrite(where, req, meta, resp)
        else:
            got = checker.answer(where, index, req, meta, resp)
            verdicts.append(((index, req), got))
    cross_check_oda(verdicts, checker.errors)
    kept_lines = {gen.request_line(spec["requests"][i]) for _, i, _ in kept}
    for index, req in enumerate(spec["requests"]):
        if gen.request_line(req) not in kept_lines:
            checker.error("request %d" % index, "no response kept to check")
    return checker.errors


def check_witnesses(witness_records, requests):
    """Refuted verdicts of the traced run: the program's own counterexample
    database must be consistent with the views and must not answer the pair.
    A CDA witness must stay inside the closed domain."""
    errors = []
    for w in witness_records:
        req = requests[w["req"]]
        c, d = w["pair"]
        n = req["objects"]
        if w["mode"] == "cda" and w["nodes"] > n:
            errors.append("cda witness uses %d nodes, domain has %d"
                          % (w["nodes"], n))
            continue
        problem = oracle.validate_counterexample(
            req["query"], answer_views(req), ("o%d" % c, "o%d" % d),
            [tuple(e) for e in w["edges"]], objects(n))
        if problem is not None:
            errors.append("%s witness for %r: %s" % (w["mode"], (c, d), problem))
    return errors
