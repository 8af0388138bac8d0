"""Tests of the benchmark's oracles and checks on hand-worked cases.

    python3 e2ebench/test_oracle.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402

# x -p-> y <-p- z, y -q-> w
EDGES = [("x", "p", "y"), ("z", "p", "y"), ("y", "q", "w")]


class RegexTest(unittest.TestCase):
    def test_inverse_of_a_group_reverses_and_flips(self):
        self.assertEqual(oracle.parse_regex("(a b^-)^-"),
                         oracle.parse_regex("b a^-"))
        self.assertEqual(oracle.parse_regex("((a | b) c)^-"),
                         oracle.parse_regex("c^- (a^- | b^-)"))

    def test_rejects_malformed(self):
        for bad in ("(a", "a |", "a ) b", "a $ b", ""):
            with self.assertRaises(oracle.RegexError):
                oracle.parse_regex(bad)


class EvalTest(unittest.TestCase):
    def setUp(self):
        self.g = oracle.Graph(EDGES)

    def ev(self, text):
        return oracle.eval_regex(self.g, text)

    def test_forward_and_inverse_letters(self):
        self.assertEqual(self.ev("p"), {("x", "y"), ("z", "y")})
        self.assertEqual(self.ev("p^-"), {("y", "x"), ("y", "z")})
        self.assertEqual(self.ev("p q"), {("x", "w"), ("z", "w")})
        self.assertEqual(self.ev("q^- p^-"), {("w", "x"), ("w", "z")})
        self.assertEqual(self.ev("(p q)^-"), {("w", "x"), ("w", "z")})

    def test_going_back_along_an_inverse_edge(self):
        self.assertEqual(self.ev("p p^-"), {("x", "x"), ("x", "z"),
                                            ("z", "x"), ("z", "z")})

    def test_star_eps_and_empty(self):
        identity = {(n, n) for n in "xyzw"}
        self.assertEqual(self.ev("(p p^-)*"),
                         identity | {("x", "z"), ("z", "x")})
        self.assertEqual(self.ev("%eps"), identity)
        self.assertEqual(self.ev("%empty"), set())
        self.assertEqual(self.ev("(p | q)+"),
                         {("x", "y"), ("z", "y"), ("y", "w"), ("x", "w"),
                          ("z", "w")})

    def test_relation_absent_from_graph(self):
        self.assertEqual(self.ev("r | p^- p^-"), set())


class RewritingCheckTest(unittest.TestCase):
    VIEWS = {"va": "a", "vb": "b"}

    def test_maximal_rewriting_passes(self):
        self.assertIsNone(oracle.check_rewriting_words(
            "(a|b)* a", self.VIEWS, "(va|vb)* va", seed=1))
        self.assertIsNone(oracle.check_rewriting_sound(
            "(a|b)* a", self.VIEWS, "(va|vb)* va", seed=1))

    def test_unsound_rewriting_fails_both_checks(self):
        self.assertIsNotNone(oracle.check_rewriting_words(
            "(a|b)* a", self.VIEWS, "(va|vb)*", seed=1))
        self.assertIsNotNone(oracle.check_rewriting_sound(
            "(a|b)* a", self.VIEWS, "(va|vb)*", seed=1))

    def test_non_maximal_rewriting_fails_the_word_check(self):
        self.assertIsNotNone(oracle.check_rewriting_words(
            "(a|b)* a", self.VIEWS, "va", seed=1))

    def test_soundness_with_inverse(self):
        # v = p p^- p answers more than p on a database with two p-edges
        # into one node, so `v` is not a rewriting of `p`.
        self.assertIsNotNone(oracle.check_rewriting_sound(
            "p", {"v": "p p^- p"}, "v", seed=3))
        self.assertIsNone(oracle.check_rewriting_sound(
            "p p^-", {"v": "p"}, "v v^-", seed=3))
        self.assertIsNone(oracle.check_rewriting_sound(
            "p p^-", {"v": "p^-"}, "v^- v", seed=3))


class CertainAnswerTest(unittest.TestCase):
    O3 = ["o0", "o1", "o2"]

    def test_sound_chain(self):
        views = [("p", "sound", [("o0", "o1"), ("o1", "o2")])]
        self.assertTrue(oracle.cda_certain_brute_force(
            self.O3, ["p"], "p p", views, ("o0", "o2")))
        self.assertFalse(oracle.cda_certain_brute_force(
            self.O3, ["p"], "p p", views, ("o2", "o0")))

    def test_inverse_view_definition(self):
        views = [("p^-", "sound", [("o1", "o0")])]
        self.assertTrue(oracle.cda_certain_brute_force(
            self.O3[:2], ["p"], "p", views, ("o0", "o1")))

    def test_exact_view_closes_the_relation(self):
        # Under CDA an exact view fixes p completely, so "not p" facts hold:
        # (o0, o0) is certain for p p^- and (o1, o1) for p^- p, nothing else.
        views = [("p", "exact", [("o0", "o1")])]
        self.assertTrue(oracle.cda_certain_brute_force(
            self.O3[:2], ["p"], "p p^-", views, ("o0", "o0")))
        self.assertFalse(oracle.cda_certain_brute_force(
            self.O3[:2], ["p"], "p p^-", views, ("o1", "o1")))

    def test_complete_view_allows_the_empty_database(self):
        views = [("p", "complete", [("o0", "o1")])]
        self.assertFalse(oracle.cda_certain_brute_force(
            self.O3[:2], ["p"], "p", views, ("o0", "o1")))

    def test_counterexample_validation(self):
        views = [("p", "sound", [("o0", "o1")])]
        self.assertIsNone(oracle.validate_counterexample(
            "p p", views, ("o0", "o1"), [("o0", "p", "o1")], self.O3[:2]))
        # Misses the view's pair: not consistent.
        self.assertIsNotNone(oracle.validate_counterexample(
            "p p", views, ("o0", "o1"), [("o1", "p", "o0")], self.O3[:2]))
        # Answers the pair: not a counterexample.
        self.assertIsNotNone(oracle.validate_counterexample(
            "p", views, ("o0", "o1"), [("o0", "p", "o1")], self.O3[:2]))


class ChecksTest(unittest.TestCase):
    """The response checks accept correct responses and reject a corrupted
    answer pair and a flipped verdict."""

    def spec(self):
        eval_req = {"op": "eval", "query": "p q"}
        req, meta = gen.chain_answer("cda", "p", 3,
                                     [gen.chain_view("p", "sound", 3)],
                                     [[0, 2], [2, 0]], (0, 2), "sound")
        return {"workload": "test", "seed": 0, "graph": EDGES,
                "requests": [eval_req, req],
                "meta": [{"kind": "eval"}, meta]}

    def kept(self, answers, verdicts):
        eval_resp = {"id": 0, "status": "ok", "answers": answers}
        answer_resp = {"id": 1, "status": "ok", "mode": "cda", "results": [
            {"pair": list(p), "certain": c} for p, c in verdicts]}
        return [(0, 0, json.dumps(eval_resp)), (0, 1, json.dumps(answer_resp))]

    GOOD_ANSWERS = [["x", "w"], ["z", "w"]]
    GOOD_VERDICTS = [((0, 2), True), ((2, 0), False)]

    def test_correct_responses_pass(self):
        self.assertEqual(checks.check_responses(
            self.spec(), self.kept(self.GOOD_ANSWERS, self.GOOD_VERDICTS)), [])

    def test_corrupted_answer_pair_fails(self):
        answers = [["x", "w"], ["y", "w"]]
        errors = checks.check_responses(
            self.spec(), self.kept(answers, self.GOOD_VERDICTS))
        self.assertEqual(len(errors), 1)
        self.assertIn("eval", errors[0])

    def test_flipped_verdict_fails(self):
        verdicts = [((0, 2), True), ((2, 0), True)]
        errors = checks.check_responses(
            self.spec(), self.kept(self.GOOD_ANSWERS, verdicts))
        self.assertEqual(len(errors), 1)
        self.assertIn("verdicts", errors[0])

    def test_wrong_witness_fails(self):
        spec = self.spec()
        requests = [json.loads(gen.request_line(r)) for r in spec["requests"]]
        good = {"req": 1, "mode": "cda", "pair": [2, 0], "nodes": 3,
                "edges": [["o0", "p", "o1"], ["o1", "p", "o2"]]}
        self.assertEqual(checks.check_witnesses([good], requests), [])
        bad = dict(good, edges=[["o0", "p", "o1"]])
        self.assertEqual(len(checks.check_witnesses([bad], requests)), 1)


class GenTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in gen.WORKLOADS:
            a = gen.generate(workload, 7)
            b = gen.generate(workload, 7)
            self.assertEqual(a["requests"], b["requests"])
            self.assertEqual(a["graph"], b["graph"])
            self.assertNotEqual(a["requests"], gen.generate(workload, 8)["requests"])

    def test_construction_verdicts_agree_with_brute_force(self):
        # Small chain instances of the decide workload, checked both ways.
        for objects, assumption in ((3, "sound"), (3, "exact"), (2, "complete")):
            req, meta = gen.chain_answer(
                "cda", "p", objects, [gen.chain_view("p", assumption, objects)],
                [[c, d] for c in range(objects) for d in range(objects)],
                None if assumption == "complete" else (0, objects - 1),
                assumption)
            for (c, d), certain in meta["expected"].items():
                self.assertEqual(certain, oracle.cda_certain_brute_force(
                    checks.objects(objects), ["p"], req["query"],
                    checks.answer_views(req), ("o%d" % c, "o%d" % d)),
                    (objects, assumption, c, d))


if __name__ == "__main__":
    unittest.main()
