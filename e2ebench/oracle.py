"""Correctness oracles for the rpqi end-to-end benchmark.

Everything here is written apart from the program under test: its own regex
parser, its own automata, its own RPQI evaluator. Nothing is computed by
calling rpqi, and nothing is a stored copy of rpqi output.

  * RPQI evaluation: a product BFS over (graph node, automaton state) with
    signed labels. All sources advance together: each configuration carries a
    Python-int bitset of the sources that reached it, so one pass of the BFS
    answers the all-pairs query.
  * Rewriting checks: soundness of a returned rewriting on small seeded
    databases (works with inverse), both directions on sampled view words
    (inverse-free instances with finite view languages), and the state-count
    property of the letter family (a|b)* a (a|b)^k.
  * Certain-answer verdicts: brute-force enumeration of every database over a
    small closed domain (CDA), and validation of counterexample databases.
"""

import itertools
import random
from collections import deque

# ---------------------------------------------------------------- regex

# AST nodes: ("sym", name, inverse) | ("eps",) | ("empty",)
#            ("cat", a, b) | ("alt", a, b) | ("star", a)


class RegexError(ValueError):
    pass


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()|*+?":
            tokens.append(c)
            i += 1
        elif text.startswith("^-", i):
            tokens.append("^-")
            i += 2
        elif text.startswith("%eps", i):
            tokens.append("%eps")
            i += 4
        elif text.startswith("%empty", i):
            tokens.append("%empty")
            i += 6
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("id", text[i:j]))
            i = j
        else:
            raise RegexError("unexpected character %r in %r" % (c, text))
    return tokens


def inverse(node):
    """The paper's inv(): reverses concatenation and flips every letter."""
    kind = node[0]
    if kind == "sym":
        return ("sym", node[1], not node[2])
    if kind == "cat":
        return ("cat", inverse(node[2]), inverse(node[1]))
    if kind == "alt":
        return ("alt", inverse(node[1]), inverse(node[2]))
    if kind == "star":
        return ("star", inverse(node[1]))
    return node


def parse_regex(text):
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        tok = peek()
        pos[0] += 1
        return tok

    def alternation():
        node = concat()
        while peek() == "|":
            take()
            node = ("alt", node, concat())
        return node

    def starts_primary(tok):
        return tok == "(" or tok in ("%eps", "%empty") or isinstance(tok, tuple)

    def concat():
        if not starts_primary(peek()):
            raise RegexError("expected an expression in %r" % text)
        node = repetition()
        while starts_primary(peek()):
            node = ("cat", node, repetition())
        return node

    def repetition():
        node = primary()
        while peek() in ("*", "+", "?", "^-"):
            op = take()
            if op == "*":
                node = ("star", node)
            elif op == "+":
                node = ("cat", node, ("star", node))
            elif op == "?":
                node = ("alt", node, ("eps",))
            else:
                node = inverse(node)
        return node

    def primary():
        tok = take()
        if tok == "(":
            node = alternation()
            if take() != ")":
                raise RegexError("missing ')' in %r" % text)
            return node
        if tok == "%eps":
            return ("eps",)
        if tok == "%empty":
            return ("empty",)
        if isinstance(tok, tuple):
            return ("sym", tok[1], False)
        raise RegexError("unexpected token %r in %r" % (tok, text))

    node = alternation()
    if pos[0] != len(tokens):
        raise RegexError("trailing input in %r" % text)
    return node


def symbols_of(node, out=None):
    """Relation names mentioned by a regex AST."""
    if out is None:
        out = set()
    if node[0] == "sym":
        out.add(node[1])
    for child in node[1:]:
        if isinstance(child, tuple):
            symbols_of(child, out)
    return out


# ---------------------------------------------------------------- automata


class Nfa:
    """Epsilon-free NFA over signed labels (name, inverse)."""

    def __init__(self, initial, accepting, trans):
        self.initial = initial        # set of states
        self.accepting = accepting    # set of states
        self.trans = trans            # state -> list of (label, state)

    @staticmethod
    def from_regex(node):
        # Thompson construction, then epsilon closure.
        edges = []      # (from, label or None, to)
        counter = [0]

        def new():
            counter[0] += 1
            return counter[0] - 1

        def build(n):
            s, t = new(), new()
            kind = n[0]
            if kind == "sym":
                edges.append((s, (n[1], n[2]), t))
            elif kind == "eps":
                edges.append((s, None, t))
            elif kind == "empty":
                pass
            elif kind == "cat":
                a0, a1 = build(n[1])
                b0, b1 = build(n[2])
                edges.extend([(s, None, a0), (a1, None, b0), (b1, None, t)])
            elif kind == "alt":
                a0, a1 = build(n[1])
                b0, b1 = build(n[2])
                edges.extend([(s, None, a0), (s, None, b0),
                              (a1, None, t), (b1, None, t)])
            elif kind == "star":
                a0, a1 = build(n[1])
                edges.extend([(s, None, a0), (a1, None, a0), (s, None, t),
                              (a1, None, t)])
            return s, t

        start, final = build(node)
        count = counter[0]
        eps = [[] for _ in range(count)]
        lab = [[] for _ in range(count)]
        for a, label, b in edges:
            (eps if label is None else lab)[a].append((label, b))

        def closure(q):
            seen = {q}
            stack = [q]
            while stack:
                x = stack.pop()
                for _, y in eps[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            return seen

        closures = [closure(q) for q in range(count)]
        trans = {}
        accepting = set()
        for q in range(count):
            out = set()
            for x in closures[q]:
                for label, y in lab[x]:
                    out.add((label, y))
                if x == final:
                    accepting.add(q)
            trans[q] = sorted(out)
        # Keep only states reachable from the start.
        reach = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for _, y in trans[x]:
                if y not in reach:
                    reach.add(y)
                    stack.append(y)
        return Nfa({start}, accepting & reach,
                   {q: trans[q] for q in reach})

    def accepts(self, word):
        """Plain (one-way) membership of a word of signed labels."""
        current = set(self.initial)
        for letter in word:
            current = {y for q in current for label, y in self.trans[q]
                       if label == letter}
            if not current:
                return False
        return bool(current & self.accepting)


def compile_regex(text):
    return Nfa.from_regex(parse_regex(text))


# ---------------------------------------------------------------- graphs


class Graph:
    """Directed edge-labelled graph; labels are relation names."""

    def __init__(self, edges=()):
        self.nodes = []
        self.index = {}
        self.out = {}   # (relation, node_id) -> list of node ids
        self.inn = {}
        for a, rel, b in edges:
            self.add_edge(a, rel, b)

    def node(self, name):
        idx = self.index.get(name)
        if idx is None:
            idx = len(self.nodes)
            self.index[name] = idx
            self.nodes.append(name)
        return idx

    def add_edge(self, a, rel, b):
        x, y = self.node(a), self.node(b)
        self.out.setdefault((rel, x), []).append(y)
        self.inn.setdefault((rel, y), []).append(x)

    def step(self, label, x):
        rel, inv = label
        return (self.inn if inv else self.out).get((rel, x), ())


def eval_all_pairs(graph, nfa):
    """All (source, target) node-name pairs answering the RPQI `nfa`.

    Product BFS over (node, state); every configuration carries the bitset of
    sources that reached it, and only newly arrived sources are propagated.
    """
    reached = {}
    pending = {}
    queue = deque()
    for n in range(len(graph.nodes)):
        for q in nfa.initial:
            key = (q, n)
            reached[key] = reached.get(key, 0) | (1 << n)
            if key not in pending:
                queue.append(key)
                pending[key] = 0
            pending[key] |= 1 << n
    while queue:
        key = queue.popleft()
        delta = pending.pop(key)
        q, n = key
        for label, q2 in nfa.trans[q]:
            for m in graph.step(label, n):
                key2 = (q2, m)
                old = reached.get(key2, 0)
                new = delta & ~old
                if not new:
                    continue
                reached[key2] = old | new
                if key2 in pending:
                    pending[key2] |= new
                else:
                    pending[key2] = new
                    queue.append(key2)
    pairs = set()
    names = graph.nodes
    for (q, n), sources in reached.items():
        if q not in nfa.accepting:
            continue
        while sources:
            low = sources & -sources
            s = low.bit_length() - 1
            pairs.add((names[s], names[n]))
            sources ^= low
    return pairs


def eval_regex(graph, text):
    return eval_all_pairs(graph, compile_regex(text))


# ---------------------------------------------------------------- rewritings


def view_graph(base, views):
    """Graph over the view names: an edge x -v-> y per (x, y) in ans(def(v))."""
    g = Graph()
    for name in base.nodes:
        g.node(name)
    for vname, expr in views.items():
        for a, b in eval_regex(base, expr):
            g.add_edge(a, vname, b)
    return g


def random_database(rng, relations, num_nodes, num_edges):
    edges = set()
    while len(edges) < num_edges:
        edges.add(("d%d" % rng.randrange(num_nodes), rng.choice(relations),
                   "d%d" % rng.randrange(num_nodes)))
    g = Graph(sorted(edges))
    for i in range(num_nodes):
        g.node("d%d" % i)
    return g


def check_rewriting_sound(query, views, rewriting, seed, databases=12):
    """Soundness on seeded small databases: the answers of the rewriting over
    the view extensions are answers of the query. Returns an error or None."""
    if rewriting == "%empty":
        return None
    rng = random.Random(seed)
    relations = sorted(symbols_of(parse_regex(query)).union(
        *[symbols_of(parse_regex(e)) for e in views.values()]))
    rnfa = compile_regex(rewriting)
    qnfa = compile_regex(query)
    for i in range(databases):
        db = random_database(rng, relations, rng.randint(3, 6),
                             rng.randint(3, 10))
        got = eval_all_pairs(view_graph(db, views), rnfa)
        want = eval_all_pairs(db, qnfa)
        if not got <= want:
            return "rewriting %r unsound on database %d: %r not answers of %r" % (
                rewriting, i, sorted(got - want)[:3], query)
    return None


def finite_language(node, limit=64):
    """All words of a star-free regex (None if it has a star or too many)."""
    kind = node[0]
    if kind == "sym":
        return {((node[1], node[2]),)}
    if kind == "eps":
        return {()}
    if kind == "empty":
        return set()
    if kind == "star":
        return None
    a = finite_language(node[1], limit)
    b = finite_language(node[2], limit)
    if a is None or b is None:
        return None
    out = a | b if kind == "alt" else {x + y for x in a for y in b}
    return out if len(out) <= limit else None


def word_check_applies(query, views):
    """The word check needs an inverse-free instance (so that a view word's
    expansions are plain words) whose views have finite languages."""
    texts = [query] + list(views.values())
    return ("^-" not in "".join(texts) and
            all(finite_language(parse_regex(e)) is not None
                for e in views.values()))


def check_rewriting_words(query, views, rewriting, seed, samples=200,
                          max_len=6):
    """Both directions on sampled forward view words, for instances where
    word_check_applies(): w is in the rewriting iff every expansion of w is a
    word of the query."""
    qnfa = compile_regex(query)
    rnfa = compile_regex(rewriting) if rewriting != "%empty" else None
    langs = {v: finite_language(parse_regex(e)) for v, e in views.items()}
    names = sorted(views)
    rng = random.Random(seed)
    words = set()
    for length in range(0, 3):
        words.update(itertools.product(names, repeat=length))
    samples = min(samples, sum(len(names) ** n for n in range(max_len + 1)))
    while len(words) < samples:
        words.add(tuple(rng.choice(names) for _ in range(rng.randint(0, max_len))))
    for w in sorted(words):
        in_r = rnfa is not None and rnfa.accepts([(v, False) for v in w])
        all_in_q = True
        for parts in itertools.product(*[sorted(langs[v]) for v in w]):
            if not qnfa.accepts([x for part in parts for x in part]):
                all_in_q = False
                break
        if in_r != all_in_q:
            return "view word %s: in rewriting=%s, every expansion in query=%s" % (
                " ".join(w) or "%eps", in_r, all_in_q)
    return None


# ---------------------------------------------------------------- certain answers


def consistent(db, views):
    """Are the view extensions consistent with `db` under their assumptions?

    `views` is a list of (expr, assumption, extension pairs of node names)."""
    for expr, assumption, extension in views:
        got = eval_regex(db, expr)
        ext = set(extension)
        if assumption in ("sound", "exact") and not ext <= got:
            return False
        if assumption in ("complete", "exact") and not got <= ext:
            return False
    return True


def cda_certain_brute_force(objects, relations, query, views, pair):
    """Certain answer under the closed domain assumption, by enumerating every
    database over `objects` (node names) and `relations`."""
    qnfa = compile_regex(query)
    cells = [(a, r, b) for a in objects for r in relations for b in objects]
    for mask in range(1 << len(cells)):
        db = Graph([cells[i] for i in range(len(cells)) if mask >> i & 1])
        for o in objects:
            db.node(o)
        if not consistent(db, views):
            continue
        if pair not in eval_all_pairs(db, qnfa):
            return False
    return True


def validate_counterexample(query, views, pair, edges, objects):
    """A refuted verdict's witness: a database consistent with the views in
    which `pair` is not an answer. Returns an error string or None."""
    db = Graph(edges)
    for o in objects:
        db.node(o)
    if not consistent(db, views):
        return "counterexample database is not consistent with the views"
    if pair in eval_regex(db, query):
        return "pair %r is an answer on the counterexample database" % (pair,)
    return None
