#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "cache/plan_cache.h"
#include "cache/result_cache.h"
#include "exec/executor_pool.h"
#include "exec/physical_plan.h"
#include "gyo/acyclic.h"
#include "gyo/qual_graph.h"
#include "rel/ops.h"
#include "rel/solver.h"
#include "tableau/canonical.h"

namespace perfbench {

using gyo::AttrSet;
using gyo::DatabaseSchema;
using gyo::Program;
using gyo::Relation;

int Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                   int parent, int64_t request) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::Open(const char* name, int parent, int64_t request) {
  return Record(name, Now(), 0, parent, request);
}

void Tracer::Close(int span) {
  if (span >= 0) spans_[static_cast<size_t>(span)].end_ns = NowNs();
}

void Tracer::SetParent(int span, int parent) {
  if (span >= 0) spans_[static_cast<size_t>(span)].parent = parent;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& header) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{%s, \"columns\": [\"name\", \"start_ns\", \"end_ns\", "
                  "\"parent\", \"request\"], \"spans\": [\n",
               header.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "[\"%s\", %lld, %lld, %d, %lld]%s\n", s.name,
                 static_cast<long long>(s.start_ns - base),
                 static_cast<long long>(s.end_ns - base), s.parent,
                 static_cast<long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

namespace {

constexpr int kPoolThreads = 2;
constexpr size_t kPlanCacheEntries = 128;
constexpr int64_t kResultCacheBytes = 32ll << 20;
// Frame header plus the type byte that decoders expect stripped.
constexpr size_t kBodyOffset = gyo::serve::kFrameHeaderBytes + 1;

// What one replayed request leaves behind for the breakdown and metrics.
struct Replayed {
  bool ok = false;
  bool plan_hit = false;
  bool executed = false;
  int plan_span = -1;
  size_t request_bytes = 0;
  size_t response_bytes = 0;
  gyo::cache::ResultKey key;
  DatabaseSchema schema;
  AttrSet target;
  std::vector<Relation> states;
};

// What the breakdown learns beside its spans.
struct BreakdownCounts {
  // No join tree: kAuto plans this request through the canonical
  // connection.
  bool cyclic = false;
  int statements = 0;
  int64_t max_rows = 0;
  int64_t semijoin_rows_in = 0;
  int64_t semijoin_rows_out = 0;
};

class Replay {
 public:
  Replay() {
    gyo::exec::ExecutorPool::Options options;
    options.threads = kPoolThreads;
    pool_.reset(new gyo::exec::ExecutorPool(options));
    probe_plan_cache_.reset(new gyo::cache::PlanCache());
    probe_result_cache_.reset(new gyo::cache::ResultCache());
  }

  void ResetCaches() {
    gyo::cache::PlanCache::Options plan_options;
    plan_options.max_entries = kPlanCacheEntries;
    plan_cache_.reset(new gyo::cache::PlanCache(plan_options));
    gyo::cache::ResultCache::Options result_options;
    result_options.max_bytes = kResultCacheBytes;
    result_cache_.reset(new gyo::cache::ResultCache(result_options));
  }

  const gyo::cache::PlanCache& plan_cache() const { return *plan_cache_; }

  // The daemon's calls for one request: decode, plan through the plan
  // cache, result-cache lookup, execute on a 2-wide pool and insert on a
  // miss, encode the response — bracketed by the client's request encode
  // and response decode.
  Replayed Pipeline(const Query& q, int64_t offset, Tracer& tr, int64_t id);

  // The same request again, call by call. Probes a plan-cache hit (the
  // pipeline's cache now holds the plan) and a miss (an empty cache), then
  // plans, executes and inserts outside the caches. On a pipeline plan
  // miss the planning spans are filed under the request's cache.plan span,
  // since GetOrBuild made those same calls.
  BreakdownCounts Breakdown(const Replayed& r, Tracer& tr, int64_t id);

 private:
  gyo::exec::ExecContext PoolContext() const {
    gyo::exec::ExecContext ctx;
    ctx.threads = kPoolThreads;
    ctx.pool = pool_.get();
    return ctx;
  }

  std::unique_ptr<gyo::exec::ExecutorPool> pool_;
  std::unique_ptr<gyo::cache::PlanCache> plan_cache_;
  std::unique_ptr<gyo::cache::ResultCache> result_cache_;
  // Emptied before each probe.
  std::unique_ptr<gyo::cache::PlanCache> probe_plan_cache_;
  std::unique_ptr<gyo::cache::ResultCache> probe_result_cache_;
};

Replayed Replay::Pipeline(const Query& q, int64_t offset, Tracer& tr,
                          int64_t id) {
  Replayed out;
  const gyo::serve::QueryRequest request = MakeRequest(q, offset);
  const int root = tr.Open("request", -1, id);

  int64_t t0 = tr.Now();
  const std::vector<uint8_t> request_frame =
      gyo::serve::EncodeQueryRequest(request);
  int64_t t1 = tr.Now();
  tr.Record("serve.encode_request", t0, t1, root, id);
  out.request_bytes = request_frame.size();

  t0 = t1;
  gyo::Catalog catalog;
  gyo::serve::QueryRequest decoded_request;
  std::string error;
  const bool decoded = gyo::serve::DecodeQueryRequest(
      request_frame.data() + kBodyOffset, request_frame.size() - kBodyOffset,
      catalog, &decoded_request, &out.schema, &out.target, &error);
  t1 = tr.Now();
  tr.Record("serve.decode_request", t0, t1, root, id);
  if (!decoded) {
    std::fprintf(stderr, "perfbench: replay decode failed: %s\n",
                 error.c_str());
    tr.Close(root);
    return out;
  }
  out.states = std::move(decoded_request.states);

  t0 = t1;
  std::optional<gyo::cache::PlanCache::Result> planned =
      plan_cache_->GetOrBuild(out.schema, out.target,
                              gyo::cache::PlanStrategy::kAuto);
  t1 = tr.Now();
  out.plan_span = tr.Record("cache.plan", t0, t1, root, id);
  out.plan_hit = planned->hit;

  t0 = t1;
  const uint64_t variant = (static_cast<uint64_t>(planned->resolved) << 1) | 1;
  out.key =
      gyo::cache::MakeResultKey(out.schema, out.target, out.states, variant);
  t1 = tr.Now();
  tr.Record("cache.result_key", t0, t1, root, id);

  t0 = t1;
  std::optional<gyo::cache::ResultCache::Value> cached =
      result_cache_->Get(out.key);
  t1 = tr.Now();
  tr.Record("cache.result_get", t0, t1, root, id);

  gyo::serve::QueryResponse response;
  if (cached.has_value()) {
    response.result = std::move(cached->result);
    response.stats = cached->stats;
    response.query_stats.state_cache_hits = 1;
  } else {
    out.executed = true;
    t0 = t1;
    Relation result = gyo::exec::Run(planned->program, out.states,
                                     PoolContext());
    t1 = tr.Now();
    tr.Record("exec.run_pool", t0, t1, root, id);
    t0 = t1;
    result_cache_->Put(out.key, gyo::cache::ResultCache::Value{result,
                                                           Program::Stats()});
    t1 = tr.Now();
    tr.Record("cache.result_put", t0, t1, root, id);
    response.result = std::move(result);
  }
  response.query_stats.plan_cache_hits = out.plan_hit ? 1 : 0;

  t0 = t1;
  const std::vector<uint8_t> response_frame =
      gyo::serve::EncodeQueryResponse(response);
  t1 = tr.Now();
  tr.Record("serve.encode_response", t0, t1, root, id);
  out.response_bytes = response_frame.size();

  t0 = t1;
  gyo::serve::QueryResponse answer;
  const bool answered = gyo::serve::DecodeQueryResponse(
      response_frame.data() + kBodyOffset,
      response_frame.size() - kBodyOffset, out.target, &answer, &error);
  t1 = tr.Now();
  tr.Record("serve.decode_response", t0, t1, root, id);
  tr.Close(root);

  out.ok = answered && MatchesReference(q, answer.result, offset);
  return out;
}

BreakdownCounts Replay::Breakdown(const Replayed& r, Tracer& tr, int64_t id) {
  BreakdownCounts counts;
  const int root = tr.Open("breakdown", -1, id);
  const int plan_parent = r.plan_hit ? root : r.plan_span;

  int64_t t0 = tr.Now();
  plan_cache_->GetOrBuild(r.schema, r.target, gyo::cache::PlanStrategy::kAuto);
  int64_t t1 = tr.Now();
  tr.Record("cache.plan_hit", t0, t1, root, id);
  probe_plan_cache_->Clear();
  t0 = tr.Now();
  probe_plan_cache_->GetOrBuild(r.schema, r.target,
                                gyo::cache::PlanStrategy::kAuto);
  t1 = tr.Now();
  tr.Record("cache.plan_miss", t0, t1, root, id);

  t0 = t1;
  const bool tree = gyo::IsTreeSchema(r.schema);
  t1 = tr.Now();
  tr.Record("gyo.is_tree", t0, t1, root, id);
  (void)tree;

  // kAuto's order: the join tree Yannakakis needs; on a cyclic schema the
  // canonical connection CC-pruned join needs; then the program constructor,
  // which repeats that step inside itself, and the dataflow compile. On a
  // tree schema the canonical connection (Theorem 3.3's GYO fast path) is
  // off the daemon's path and is timed beside it.
  t0 = t1;
  const std::optional<gyo::QualGraph> join_tree = gyo::BuildJoinTree(r.schema);
  t1 = tr.Now();
  counts.cyclic = !join_tree.has_value();
  const int join_tree_span =
      tr.Record("gyo.join_tree", t0, t1, plan_parent, id);
  t0 = t1;
  const gyo::CanonicalResult cc = gyo::CanonicalConnection(r.schema, r.target);
  t1 = tr.Now();
  const int canonical_span =
      tr.Record("tableau.canonical_connection", t0, t1,
                join_tree.has_value() ? root : plan_parent, id);
  (void)cc;

  t0 = t1;
  const Program program =
      join_tree.has_value() ? *gyo::YannakakisProgram(r.schema, r.target)
                            : gyo::CCPrunedProgram(r.schema, r.target);
  t1 = tr.Now();
  const int build_span =
      tr.Record("rel.program_build", t0, t1, plan_parent, id);
  tr.SetParent(join_tree.has_value() ? join_tree_span : canonical_span,
               build_span);

  t0 = t1;
  const gyo::exec::PhysicalPlan plan = gyo::exec::PhysicalPlan::Compile(program);
  t1 = tr.Now();
  tr.Record("exec.compile", t0, t1, plan_parent, id);
  (void)plan;

  t0 = t1;
  const Relation serial =
      gyo::exec::Run(program, r.states, gyo::exec::ExecContext());
  t1 = tr.Now();
  tr.Record("exec.run_serial", t0, t1, root, id);
  (void)serial;
  if (!r.executed) {
    t0 = t1;
    const Relation pooled = gyo::exec::Run(program, r.states, PoolContext());
    t1 = tr.Now();
    tr.Record("exec.run_pool", t0, t1, root, id);
    probe_result_cache_->Clear();
    t0 = tr.Now();
    probe_result_cache_->Put(
        r.key, gyo::cache::ResultCache::Value{pooled, Program::Stats()});
    t1 = tr.Now();
    tr.Record("cache.result_put", t0, t1, root, id);
  }

  // Statement-by-statement replay through the serial kernels.
  std::vector<Relation> states = r.states;
  states.reserve(static_cast<size_t>(program.NumRelations()));
  for (const Program::Statement& s : program.Statements()) {
    const Relation& lhs = states[static_cast<size_t>(s.lhs)];
    const char* name = nullptr;
    t0 = tr.Now();
    Relation next(AttrSet{});
    switch (s.kind) {
      case Program::Statement::Kind::kSemijoin:
        name = "rel.semijoin";
        next = gyo::Semijoin(lhs, states[static_cast<size_t>(s.rhs)]);
        break;
      case Program::Statement::Kind::kJoin:
        name = "rel.join";
        next = gyo::NaturalJoin(lhs, states[static_cast<size_t>(s.rhs)]);
        break;
      case Program::Statement::Kind::kProject:
        name = "rel.project";
        next = gyo::Project(lhs, s.target);
        break;
    }
    t1 = tr.Now();
    tr.Record(name, t0, t1, root, id);
    if (s.kind == Program::Statement::Kind::kSemijoin) {
      counts.semijoin_rows_in += lhs.NumRows();
      counts.semijoin_rows_out += next.NumRows();
    }
    counts.max_rows = std::max(counts.max_rows, next.NumRows());
    ++counts.statements;
    states.push_back(std::move(next));
  }
  tr.Close(root);
  return counts;
}

}  // namespace

TraceReport RunTracedPass(const Workload& w, const std::string& spans_path,
                          const std::string& header) {
  TraceReport report;
  Replay replay;
  const uint64_t warm = w.warmup.size();
  const size_t n = static_cast<size_t>(w.traced_requests);

  struct PerRequest {
    Replayed replayed;
    BreakdownCounts counts;
  };
  std::vector<PerRequest> per(n);
  Tracer traced;
  replay.ResetCaches();
  for (uint64_t seq = 0; seq < warm + n; ++seq) {
    const bool timed = seq >= warm;
    traced.set_enabled(timed);
    Replayed r = replay.Pipeline(QueryAt(w, seq), OffsetFor(w, seq), traced,
                                 static_cast<int64_t>(seq));
    if (!r.ok) ++report.mismatches;
    if (!timed) continue;
    const BreakdownCounts counts =
        replay.Breakdown(r, traced, static_cast<int64_t>(seq));
    r.states.clear();  // keep the counts only
    per[seq - warm] = PerRequest{std::move(r), counts};
  }
  const gyo::cache::PlanCacheStats plan_stats = replay.plan_cache().stats();

  // Tracing overhead: the pipeline alone, replayed with spans and without
  // in ABBA order on fresh caches, timed by an outer clock.
  double pipeline_ns[2] = {0.0, 0.0};  // [0] with spans, [1] without
  for (const int spans_off : {0, 1, 1, 0}) {
    Tracer scratch;
    replay.ResetCaches();
    for (uint64_t seq = 0; seq < warm + n; ++seq) {
      const bool timed = seq >= warm;
      scratch.set_enabled(timed && spans_off == 0);
      const int64_t start = NowNs();
      const Replayed r = replay.Pipeline(QueryAt(w, seq), OffsetFor(w, seq),
                                         scratch, static_cast<int64_t>(seq));
      if (timed) {
        pipeline_ns[spans_off] += static_cast<double>(NowNs() - start);
      }
      if (!r.ok) ++report.mismatches;
    }
  }

  // Span durations summed per (name, request), and per-layer self time —
  // duration minus the durations of the span's children — summed over the
  // spans of every request's pipeline tree.
  const std::vector<Tracer::Span>& spans = traced.spans();
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  auto root_of = [&](size_t i) {
    while (spans[i].parent >= 0) i = static_cast<size_t>(spans[i].parent);
    return i;
  };
  std::map<std::string, std::vector<double>> by_name;  // ms per request
  std::map<std::string, double> self_ms;  // by layer
  std::vector<double> inprocess_ms(n, 0.0);
  auto slot = [&](const std::string& key) -> std::vector<double>& {
    std::vector<double>& v = by_name[key];
    if (v.empty()) v.assign(n, -1.0);  // -1: the request has no such span
    return v;
  };
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    const size_t req = static_cast<size_t>(s.request) - warm;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    const std::string name = s.name;
    if (name == "request") {
      inprocess_ms[req] = ms;
      continue;
    }
    if (name == "breakdown") continue;
    double& total = slot(name)[req];
    total = (total < 0 ? 0.0 : total) + ms;
    if (std::string(spans[root_of(i)].name) == "request") {
      self_ms[name.substr(0, name.find('.'))] += ms - child_ns[i] / 1e6;
    }
  }

  std::map<std::string, double>& m = report.metrics;
  // Every request makes each of these calls once.
  for (const char* name :
       {"serve.encode_request", "serve.decode_request",
        "serve.encode_response", "serve.decode_response", "cache.plan_hit",
        "cache.plan_miss", "cache.result_key", "cache.result_get",
        "cache.result_put", "gyo.is_tree", "gyo.join_tree",
        "rel.program_build", "exec.compile", "exec.run_serial",
        "exec.run_pool"}) {
    m[std::string(name) + "_ms"] = Quantile(slot(name), 0.5);
  }
  // The canonical connection over the cyclic requests, where kAuto plans
  // through it; over all requests (the tree fast path) when none is cyclic.
  std::vector<double> canonical;
  for (size_t i = 0; i < n; ++i) {
    if (per[i].counts.cyclic) {
      canonical.push_back(slot("tableau.canonical_connection")[i]);
    }
  }
  m["tableau.canonical_connection_ms"] = Quantile(
      canonical.empty() ? slot("tableau.canonical_connection") : canonical,
      0.5);
  // Per-query sums over the statement replay, 0 for a request without
  // statements of the kind.
  for (const char* name : {"rel.semijoin", "rel.join", "rel.project"}) {
    std::vector<double> values = slot(name);
    for (double& v : values) v = std::max(v, 0.0);
    m[std::string(name) + "_ms"] = Quantile(values, 0.5);
  }
  m["exec.parallel_speedup"] =
      m["exec.run_pool_ms"] > 0 ? m["exec.run_serial_ms"] / m["exec.run_pool_ms"]
                                : 0.0;

  std::vector<double> request_kb, response_kb, statements, max_rows;
  double plan_hits = 0, result_hits = 0, semijoin_in = 0, semijoin_out = 0;
  for (const PerRequest& p : per) {
    request_kb.push_back(static_cast<double>(p.replayed.request_bytes) / 1024);
    response_kb.push_back(static_cast<double>(p.replayed.response_bytes) /
                          1024);
    statements.push_back(p.counts.statements);
    max_rows.push_back(static_cast<double>(p.counts.max_rows));
    plan_hits += p.replayed.plan_hit ? 1 : 0;
    result_hits += p.replayed.executed ? 0 : 1;
    semijoin_in += static_cast<double>(p.counts.semijoin_rows_in);
    semijoin_out += static_cast<double>(p.counts.semijoin_rows_out);
  }
  m["serve.request_kb"] = Quantile(request_kb, 0.5);
  m["serve.response_kb"] = Quantile(response_kb, 0.5);
  m["cache.plan_hit_ratio"] = plan_hits / static_cast<double>(n);
  m["cache.plan_evictions"] = static_cast<double>(plan_stats.evictions);
  m["cache.result_hit_ratio"] = result_hits / static_cast<double>(n);
  m["rel.statements"] = Quantile(statements, 0.5);
  m["rel.max_intermediate_rows"] = Quantile(max_rows, 0.5);
  m["rel.semijoin_keep_ratio"] =
      semijoin_in > 0 ? semijoin_out / semijoin_in : 0.0;

  double total_ms = 0;
  for (double v : inprocess_ms) total_ms += v;
  for (const char* layer : {"serve", "cache", "gyo", "tableau", "rel", "exec"}) {
    m[std::string("trace.share.") + layer] = self_ms[layer] / total_ms;
  }
  report.inprocess_ms = Quantile(inprocess_ms, 0.5);
  m["trace.inprocess_ms"] = report.inprocess_ms;
  m["trace.overhead_pct"] =
      100.0 * (pipeline_ns[0] - pipeline_ns[1]) / pipeline_ns[1];

  if (!traced.WriteJson(spans_path, header)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
  }
  return report;
}

}  // namespace perfbench
