// Layer harness for the traced run of the rpqi end-to-end benchmark.
//
//   layer_harness --requests FILE [--graph FILE] --out FILE
//                 [--program-trace FILE]
//
// Replays the distinct requests of a workload (the same NDJSON lines the
// benchmark sends to `rpqi serve`) through the public functions of each
// module, timing every call from here: regex (ParseRegex), rpq
// (CompileRegex), automata (CompileEvalPlan, RewritingToString), graphdb
// (LoadGraphSnapshot, EvalRpqiAllPairsWithBudget), rewrite
// (ComputeMaximalRewriting, IsExactRewriting), answer (CertainAnswerCda,
// OdaSolver) and service (ParseJson, Json::DumpTo, PlanCache::Get,
// Server::HandleLine). Spans are kept in memory and written to --out when
// the run ends, one JSON object per line:
//   {"type":"span","name":..,"start_ns":..,"end_ns":..,"parent":..,"req":..,
//    "notes":{..}}
// `notes` carries the obs counter deltas of the call and sizes. Refuted
// certain-answer probes also emit {"type":"witness",..} lines with the
// program's counterexample database, which the benchmark validates with its
// own evaluator. --program-trace turns on the program's own span tracer.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "answer/cda.h"
#include "answer/oda.h"
#include "answer/views.h"
#include "automata/flat.h"
#include "graphdb/eval.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "regex/parser.h"
#include "regex/printer.h"
#include "rewrite/exactness.h"
#include "rewrite/rewriter.h"
#include "rpq/compile.h"
#include "service/json.h"
#include "service/plan_cache.h"
#include "service/server.h"
#include "service/snapshot.h"

namespace rpqi {
namespace {

using service::Json;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "layer_harness: %s\n", message.c_str());
  std::exit(2);
}

template <typename T>
T Check(StatusOr<T> value, const std::string& what) {
  if (!value.ok()) Die(what + ": " + value.status().ToString());
  return std::move(value).value();
}

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int req = -1;
  std::vector<std::pair<std::string, int64_t>> notes;
};

/// In-memory span log; spans nest by an explicit stack.
class SpanLog {
 public:
  int Begin(const std::string& name, int req) {
    SpanRecord s;
    s.name = name;
    s.req = req;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    spans_[id].end_ns = NowNs();
    stack_.pop_back();
  }
  void Note(int id, const std::string& key, int64_t value) {
    spans_[id].notes.emplace_back(key, value);
  }
  void Write(std::ostream& out) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::string line;
      line += "{\"type\":\"span\",\"id\":" + std::to_string(i);
      line += ",\"name\":";
      line += Json::Str(s.name).Dump();
      line += ",\"start_ns\":" + std::to_string(s.start_ns);
      line += ",\"end_ns\":" + std::to_string(s.end_ns);
      line += ",\"parent\":" + std::to_string(s.parent);
      line += ",\"req\":" + std::to_string(s.req) + ",\"notes\":{";
      for (size_t n = 0; n < s.notes.size(); ++n) {
        if (n > 0) line += ",";
        line += Json::Str(s.notes[n].first).Dump() + ":" +
                std::to_string(s.notes[n].second);
      }
      out << line << "}}\n";
    }
  }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// Times `fn` as one span; `counters` are obs counters whose deltas over the
/// call are noted on the span.
template <typename Fn>
auto Timed(SpanLog* log, const std::string& name, int req,
           const std::vector<const char*>& counters, Fn&& fn) {
  obs::MetricsSnapshot before;
  if (!counters.empty()) before = obs::TakeMetricsSnapshot();
  int id = log->Begin(name, req);
  auto result = fn();
  log->End(id);
  if (!counters.empty()) {
    obs::MetricsSnapshot delta = obs::TakeMetricsSnapshot().DeltaSince(before);
    for (const char* c : counters) log->Note(id, c, delta.CounterValue(c));
  }
  return std::make_pair(id, std::move(result));
}

std::string WithId(const std::string& line, int id) {
  return "{\"id\":" + std::to_string(id) + "," + line.substr(1);
}

const std::string& StringField(const Json& body, const char* key) {
  const Json* field = body.Find(key);
  if (field == nullptr || !field->is_string()) {
    Die(std::string("request lacks string field ") + key);
  }
  return field->string_value();
}

void WriteWitness(std::ostream& out, int req, const char* mode, int c, int d,
                  const GraphDb& db, const SignedAlphabet& alphabet) {
  out << "{\"type\":\"witness\",\"req\":" << req << ",\"mode\":\"" << mode
      << "\",\"pair\":[" << c << "," << d << "],\"nodes\":" << db.NumNodes()
      << ",\"edges\":[";
  bool first = true;
  for (int node = 0; node < db.NumNodes(); ++node) {
    for (const GraphDb::Edge& e : db.OutEdges(node)) {
      // ODA turns complete views into exact ones over a fresh relation
      // (NormalizeCompleteViews), which the instance's alphabet lacks.
      std::string relation = e.relation < alphabet.NumRelations()
                                 ? alphabet.RelationName(e.relation)
                                 : "_fresh" + std::to_string(e.relation);
      out << (first ? "" : ",") << "[\"o" << node << "\","
          << Json::Str(relation).Dump() << ",\"o" << e.to << "\"]";
      first = false;
    }
  }
  out << "]}\n";
}

constexpr int kRepeats = 5;

struct Harness {
  SpanLog log;
  std::ostream* extra = nullptr;  // witness lines
  std::shared_ptr<const service::GraphSnapshot> snapshot;
  std::unique_ptr<service::Server> server;
  service::PlanCache plan_cache{int64_t{64} << 20};

  void Eval(int req, const std::string& line, const Json& body) {
    const std::string& text = StringField(body, "query");
    RegexPtr expr;
    for (int r = 0; r < kRepeats; ++r) {
      expr = Timed(&log, "regex.parse", req, {}, [&] {
               return Check(ParseRegex(text), "parse " + text);
             }).second;
    }
    SignedAlphabet alphabet = snapshot->alphabet;
    RegisterRelations({expr}, &alphabet);
    Nfa nfa{0};
    FlatNfa plan;
    for (int r = 0; r < kRepeats; ++r) {
      nfa = Timed(&log, "rpq.compile", req, {}, [&] {
              return Check(CompileRegex(expr, alphabet), "compile " + text);
            }).second;
      plan = Timed(&log, "automata.flat_compile", req, {}, [&] {
               return CompileEvalPlan(nfa);
             }).second;
    }
    auto [eval_id, pairs] = Timed(
        &log, "graphdb.eval_all_pairs", req,
        {"eval.configurations", "eval.bfs_runs"}, [&] {
          return Check(EvalRpqiAllPairsWithBudget(snapshot->db, plan, nullptr),
                       "eval " + text);
        });
    log.Note(eval_id, "nodes", snapshot->db.NumNodes());
    log.Note(eval_id, "plan_states", plan.NumStates());
    log.Note(eval_id, "answer_pairs", static_cast<int64_t>(pairs.size()));

    for (int r = 0; r < kRepeats; ++r) {
      std::string rendered;
      auto [dump_id, bytes] = Timed(&log, "service.json_dump", req, {}, [&] {
        service::JsonArray answers;
        answers.reserve(pairs.size());
        for (const auto& [x, y] : pairs) {
          answers.push_back(Json::Arr(
              {Json::Str(std::string(snapshot->db.NodeName(x))),
               Json::Str(std::string(snapshot->db.NodeName(y)))}));
        }
        Json::Arr(std::move(answers)).DumpTo(&rendered);
        return rendered.size();
      });
      log.Note(dump_id, "pairs", static_cast<int64_t>(pairs.size()));
      log.Note(dump_id, "bytes", static_cast<int64_t>(bytes));
    }

    std::string key = "eval|" + RegexToString(expr);
    auto cached = std::make_shared<service::CachedPlan>();
    cached->flat_plan = plan;
    cached->eval_answers = pairs;
    plan_cache.Put(key, cached);
    for (int r = 0; r < kRepeats * 4; ++r) {
      Timed(&log, "service.plan_cache.get", req, {},
            [&] { return plan_cache.Get(key) != nullptr; });
    }
    HandleHits(req, line, "service.handle_eval_hit");
  }

  void HandleHits(int req, const std::string& line, const char* span) {
    server->HandleLine(WithId(line, req));  // miss: fills the plan cache
    for (int r = 0; r < kRepeats; ++r) {
      auto [id, response] = Timed(&log, span, req, {}, [&] {
        return server->HandleLine(WithId(line, req));
      });
      log.Note(id, "hit", response.find("\"cache\":\"hit\"") !=
                              std::string::npos);
      log.Note(id, "bytes", static_cast<int64_t>(response.size()));
    }
  }

  void Rewrite(int req, const std::string& line, const Json& body) {
    const std::string& text = StringField(body, "query");
    RegexPtr query_expr = Timed(&log, "regex.parse", req, {}, [&] {
                            return Check(ParseRegex(text), "parse " + text);
                          }).second;
    const Json* views = body.Find("views");
    if (views == nullptr || !views->is_object()) Die("rewrite needs views");
    std::map<std::string, std::string> sorted;
    for (const auto& [name, expr] : views->object()) {
      sorted[name] = expr.string_value();
    }
    std::vector<std::string> names;
    std::vector<RegexPtr> view_exprs;
    for (const auto& [name, expr] : sorted) {
      names.push_back(name);
      view_exprs.push_back(Timed(&log, "regex.parse", req, {}, [&] {
                             return Check(ParseRegex(expr), "parse " + expr);
                           }).second);
    }
    SignedAlphabet alphabet;
    RegisterRelations({query_expr}, &alphabet);
    RegisterRelations(view_exprs, &alphabet);
    Nfa query = Timed(&log, "rpq.compile", req, {}, [&] {
                  return Check(CompileRegex(query_expr, alphabet), "compile");
                }).second;
    std::vector<Nfa> view_nfas;
    for (const RegexPtr& e : view_exprs) {
      view_nfas.push_back(Check(CompileRegex(e, alphabet), "compile view"));
    }
    auto [rw_id, rewriting] = Timed(
        &log, "rewrite.compute", req,
        {"determinize.states", "materialize.states"}, [&] {
          return Check(ComputeMaximalRewriting(query, view_nfas),
                       "rewrite " + text);
        });
    log.Note(rw_id, "rewriting_states", rewriting.stats.rewriting_states);
    if (rewriting.exhaustive && !rewriting.empty) {
      Timed(&log, "rewrite.exactness", req, {}, [&] {
        return IsExactRewriting(query, view_nfas, rewriting.dfa);
      });
    }
    if (!rewriting.empty) {
      for (int r = 0; r < kRepeats; ++r) {
        auto [id, rendered] = Timed(&log, "automata.to_regex", req, {}, [&] {
          return RewritingToString(rewriting.dfa, names);
        });
        log.Note(id, "bytes", static_cast<int64_t>(rendered.size()));
      }
    }
    HandleHits(req, line, "service.handle_rewrite_hit");
  }

  void Answer(int req, const Json& body) {
    const std::string mode = StringField(body, "mode");
    const Json* objects = body.Find("objects");
    if (objects == nullptr || !objects->is_int()) Die("answer needs objects");
    RegexPtr query_expr = Check(ParseRegex(StringField(body, "query")), "parse");
    struct Spec {
      RegexPtr expr;
      ViewAssumption assumption;
      std::vector<std::pair<int, int>> extension;
    };
    std::vector<Spec> specs;
    const Json* views = body.Find("views");
    if (views == nullptr || !views->is_array()) Die("answer needs views");
    for (const Json& v : views->array()) {
      Spec spec;
      spec.expr = Check(ParseRegex(StringField(v, "expr")), "parse view");
      const std::string& a = StringField(v, "assumption");
      spec.assumption = a == "sound"    ? ViewAssumption::kSound
                        : a == "exact" ? ViewAssumption::kExact
                                       : ViewAssumption::kComplete;
      for (const Json& p : v.Find("extension")->array()) {
        spec.extension.push_back({static_cast<int>(p.array()[0].int_value()),
                                  static_cast<int>(p.array()[1].int_value())});
      }
      specs.push_back(std::move(spec));
    }
    std::vector<std::pair<int, int>> probes;
    for (const Json& p : body.Find("pairs")->array()) {
      probes.push_back({static_cast<int>(p.array()[0].int_value()),
                        static_cast<int>(p.array()[1].int_value())});
    }
    SignedAlphabet alphabet;
    RegisterRelations({query_expr}, &alphabet);
    for (const Spec& s : specs) RegisterRelations({s.expr}, &alphabet);
    AnsweringInstance instance;
    instance.num_objects = static_cast<int>(objects->int_value());
    instance.query = Check(CompileRegex(query_expr, alphabet), "compile");
    for (Spec& s : specs) {
      View view;
      view.definition = Check(CompileRegex(s.expr, alphabet), "compile view");
      view.extension = std::move(s.extension);
      view.assumption = s.assumption;
      instance.views.push_back(std::move(view));
    }

    if (mode == "cda") {
      for (const auto& [c, d] : probes) {
        auto [id, result] = Timed(
            &log, "answer.cda_probe", req,
            {"eval.plan_compiles", "cda.probes", "eval.scan_runs",
             "eval.bfs_runs", "cda.nodes_visited"},
            [&] {
              return Check(CertainAnswerCda(instance, c, d), "cda");
            });
        log.Note(id, "certain", result.certain);
        if (!result.certain && result.witness.has_value()) {
          WriteWitness(*extra, req, "cda", c, d, *result.witness, alphabet);
        }
      }
      return;
    }
    auto [setup_id, solver] = Timed(&log, "answer.oda_setup", req, {}, [&] {
      return std::make_unique<OdaSolver>(instance);
    });
    (void)setup_id;
    for (const auto& [c, d] : probes) {
      auto [id, result] = Timed(
          &log, "answer.oda_probe", req,
          {"oda.phase1_overflows", "emptiness.states_pruned",
           "emptiness.states_queued", "materialize.states", "oda.probes"},
          [&] { return Check(solver->CertainAnswer(c, d), "oda"); });
      log.Note(id, "certain", result.certain);
      if (!result.certain && result.counterexample.has_value()) {
        WriteWitness(*extra, req, "oda", c, d, *result.counterexample,
                     alphabet);
      }
    }
  }
};

int Main(int argc, char** argv) {
  std::string requests_path, graph_path, out_path, trace_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    if (flag == "--requests") requests_path = argv[i + 1];
    else if (flag == "--graph") graph_path = argv[i + 1];
    else if (flag == "--out") out_path = argv[i + 1];
    else if (flag == "--program-trace") trace_path = argv[i + 1];
    else Die("unknown flag " + flag);
  }
  if (requests_path.empty() || out_path.empty()) {
    Die("usage: layer_harness --requests FILE [--graph FILE] --out FILE "
        "[--program-trace FILE]");
  }
  if (!trace_path.empty() && !obs::Tracer::StartToFile(trace_path)) {
    Die("cannot write " + trace_path);
  }
  std::ifstream in(requests_path);
  if (!in) Die("cannot read " + requests_path);
  std::vector<std::string> lines;
  std::set<std::string> seen;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && seen.insert(line).second) lines.push_back(line);
  }

  std::ofstream out(out_path);
  if (!out) Die("cannot write " + out_path);
  Harness h;
  h.extra = &out;
  service::ServerOptions options;
  options.initial_db_path = graph_path;
  if (!graph_path.empty()) {
    for (int r = 0; r < kRepeats; ++r) {
      auto [id, snapshot] = Timed(&h.log, "graphdb.snapshot_load", -1, {}, [&] {
        return Check(service::LoadGraphSnapshot(graph_path), "load graph");
      });
      h.log.Note(id, "nodes", snapshot->db.NumNodes());
      h.snapshot = std::move(snapshot);
    }
  }
  h.server = std::make_unique<service::Server>(options);
  if (Status s = h.server->Init(); !s.ok()) Die("server init: " + s.ToString());

  for (size_t i = 0; i < lines.size(); ++i) {
    int req = static_cast<int>(i);
    int root = h.log.Begin("request", req);
    Json body;
    for (int r = 0; r < kRepeats; ++r) {
      body = Timed(&h.log, "service.json_parse", req, {}, [&] {
               return Check(service::ParseJson(lines[i]), "json");
             }).second;
    }
    const std::string& op = StringField(body, "op");
    if (op == "eval") {
      if (h.snapshot == nullptr) Die("eval request without --graph");
      h.Eval(req, lines[i], body);
    } else if (op == "rewrite") {
      h.Rewrite(req, lines[i], body);
    } else if (op == "answer") {
      h.Answer(req, body);
    } else {
      Die("unknown op " + op);
    }
    h.log.End(root);
  }
  obs::Tracer::Stop();
  h.log.Write(out);
  return out ? 0 : 2;
}

}  // namespace
}  // namespace rpqi

int main(int argc, char** argv) { return rpqi::Main(argc, argv); }
