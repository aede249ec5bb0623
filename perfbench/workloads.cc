#include "workloads.h"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "cache/fingerprint.h"
#include "exec/physical_plan.h"
#include "gyo/acyclic.h"
#include "rel/solver.h"
#include "rel/universal.h"
#include "schema/parse.h"
#include "util/rng.h"

namespace perfbench {

using gyo::AttrId;
using gyo::AttrSet;
using gyo::DatabaseSchema;
using gyo::Relation;
using gyo::Rng;

namespace {

// Shifted values live in [2^36, 2^37): every shifted value zigzag-encodes
// to the same varint width, so request bytes do not drift over a run.
constexpr int64_t kOffsetBase = int64_t{1} << 36;
constexpr int64_t kOffsetStride = int64_t{1} << 20;

// exec_heavy: key-like data (domain = 16 x rows) plus planted universal
// tuples that survive every join, so answers are non-empty.
constexpr int kHeavyRows = 16384;
constexpr int kHeavyDomain = 16 * kHeavyRows;
constexpr int kHeavyPlanted = 256;
constexpr int kHeavyQueries = 8;

// replay_hot: 64 small requests of about 400 rows in all.
constexpr int kHotQueries = 64;
constexpr int kHotRows = 400;

// plan_churn: one new schema shape per request. The shapes (and targets)
// come from a fixed seed: canonical-connection cost per shape is
// heavy-tailed (a few shapes in a thousand take 10-700 ms of tableau
// minimization against a median near 0.1 ms), so a per-seed shape draw
// would make throughput a property of the draw. Every seed therefore
// cycles the same shapes, tail included, in its own order over its own
// data.
constexpr uint64_t kChurnShapeSeed = 0x9e3779b97f4a7c15ull;
constexpr int kChurnTimed = 512;
constexpr int kChurnWarmup = 32;
constexpr int kChurnUniversalRows = 12;
constexpr int kChurnNoiseRows = 4;
constexpr int kChurnDomain = 4096;

struct Shape {
  const char* schema;
  const char* target;
};

// Four tree schemas, then four cyclic ones.
constexpr Shape kHotShapes[] = {
    {"ab,bc,cd", "ad"},      {"ab,ac,ad", "bcd"},
    {"abc,bcd,cde", "ae"},   {"ab,bc,cd,de", "ae"},
    {"ab,bc,ca", "ab"},      {"ab,bc,cd,da", "ac"},
    {"abc,cde,eaf", "bdf"},  {"abc,cd,da", "bd"},
};

Query Parse(std::string schema_spec, std::string target_spec) {
  Query q;
  q.schema_spec = std::move(schema_spec);
  q.target_spec = std::move(target_spec);
  gyo::Catalog catalog;
  q.schema = gyo::ParseSchema(catalog, q.schema_spec);
  q.target = gyo::ParseAttrSet(catalog, q.target_spec);
  return q;
}

// Computes the reference answer with a serial in-process run of the program
// kAuto resolves to (Yannakakis on tree schemas, CC-pruned join otherwise).
void Finish(Query* q) {
  std::optional<gyo::Program> program =
      gyo::YannakakisProgram(q->schema, q->target);
  if (!program.has_value()) {
    program = gyo::CCPrunedProgram(q->schema, q->target);
  }
  const Relation answer =
      gyo::exec::Run(*program, q->states, gyo::exec::ExecContext());
  q->ref_rows = answer.NumRows();
  q->ref_hash = ResultHash(answer, 0);
}

std::string Render(const AttrSet& s) {
  std::string out;
  s.ForEach([&](AttrId a) { out.push_back(static_cast<char>('a' + a)); });
  return out;
}

std::string Render(const DatabaseSchema& d) {
  std::string out;
  for (int i = 0; i < d.NumRelations(); ++i) {
    if (i > 0) out.push_back(',');
    out += Render(d[i]);
  }
  return out;
}

std::vector<Relation> HeavyStates(const DatabaseSchema& d, Rng& rng) {
  std::vector<Relation> states;
  const int filler = kHeavyRows - kHeavyPlanted;
  for (const AttrSet& schema : d.Relations()) {
    Relation rel(schema);
    rel.AppendRows(kHeavyRows);
    for (int i = 0; i < filler; ++i) {
      for (int c = 0; c < rel.Arity(); ++c) {
        rel.ColData(c)[i] = static_cast<gyo::Value>(rng.Below(kHeavyDomain));
      }
    }
    for (int t = 0; t < kHeavyPlanted; ++t) {
      for (int c = 0; c < rel.Arity(); ++c) {
        rel.ColData(c)[filler + t] = kHeavyDomain + 16 * t + rel.Attrs()[c];
      }
    }
    rel.Canonicalize();
    states.push_back(std::move(rel));
  }
  return states;
}

void MakeExecHeavy(uint64_t seed, Workload* w) {
  w->clients = 1;
  w->shift_values = true;
  Rng rng(seed);
  for (int i = 0; i < kHeavyQueries; ++i) {
    // Alternate a 6-relation path and a 6-relation star, arity 3.
    Query q = i % 2 == 0 ? Parse("abc,cde,efg,ghi,ijk,klm", "agm")
                         : Parse("abc,ade,afg,ahi,ajk,alm", "bhm");
    q.states = HeavyStates(q.schema, rng);
    Finish(&q);
    w->queries.push_back(std::move(q));
  }
  w->warmup = {0, 1, 2, 3};
  w->timed_count = kHeavyQueries;
  w->traced_requests = 40;
}

void MakeReplayHot(uint64_t seed, Workload* w) {
  w->clients = 3;
  w->shift_values = false;
  Rng rng(seed);
  constexpr int kShapes = sizeof(kHotShapes) / sizeof(kHotShapes[0]);
  for (int i = 0; i < kHotQueries; ++i) {
    const Shape& shape = kHotShapes[i % kShapes];
    Query q = Parse(shape.schema, shape.target);
    const int rows = kHotRows / q.schema.NumRelations();
    q.states = gyo::ProjectDatabase(
        gyo::RandomUniversal(q.schema.Universe(), rows, 16 * rows, rng),
        q.schema);
    Finish(&q);
    w->queries.push_back(std::move(q));
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kHotQueries; ++i) w->warmup.push_back(i);
  }
  w->timed_count = kHotQueries;
  w->traced_requests = 2000;
}

// A random tree schema grown along a join tree: each new relation takes a
// proper subset of a random earlier relation plus one fresh attribute, so
// the schema is reduced and connected in order, with arity 2-3 and
// 1 + n .. 2 + n attributes.
std::vector<AttrSet> RandomTree(int n, Rng& rng, AttrId* next) {
  std::vector<AttrSet> rels;
  AttrSet first;
  const int first_arity = static_cast<int>(rng.Range(2, 3));
  for (int i = 0; i < first_arity; ++i) first.Insert((*next)++);
  rels.push_back(first);
  while (static_cast<int>(rels.size()) < n) {
    std::vector<AttrId> parent = rels[rng.Below(rels.size())].ToVector();
    const int max_share = std::min(2, static_cast<int>(parent.size()) - 1);
    const int share = static_cast<int>(rng.Range(1, max_share));
    AttrSet rel;
    for (int k = 0; k < share; ++k) {
      const size_t pick = k + rng.Below(parent.size() - k);
      std::swap(parent[k], parent[pick]);
      rel.Insert(parent[k]);
    }
    rel.Insert((*next)++);
    rels.push_back(rel);
  }
  return rels;
}

// A tree of n - chords relations closed into cycles by `chords` relations
// over existing attributes. Retries until the result is reduced and cyclic.
std::vector<AttrSet> RandomCyclic(int n, Rng& rng) {
  while (true) {
    const int chords = static_cast<int>(rng.Range(2, 4));
    AttrId next = 0;
    std::vector<AttrSet> rels = RandomTree(n - chords, rng, &next);
    bool reduced = true;
    for (int c = 0; c < chords && reduced; ++c) {
      const int arity = static_cast<int>(rng.Range(2, 3));
      AttrSet chord;
      while (chord.Size() < arity) {
        chord.Insert(static_cast<AttrId>(rng.Below(static_cast<uint64_t>(next))));
      }
      for (const AttrSet& r : rels) {
        if (chord.IsSubsetOf(r) || r.IsSubsetOf(chord)) reduced = false;
      }
      rels.push_back(chord);
    }
    if (reduced && !gyo::IsTreeSchema(DatabaseSchema(rels))) return rels;
  }
}

std::string ShapeKey(const Query& q) {
  const gyo::cache::CanonicalQuery canon =
      gyo::cache::CanonicalizeQuery(q.schema, q.target);
  return Render(canon.schema) + "/" + Render(canon.target);
}

void MakePlanChurn(uint64_t seed, Workload* w) {
  w->clients = 3;
  w->shift_values = true;
  Rng shapes(kChurnShapeSeed);
  Rng rng(seed);
  std::set<std::string> seen;
  while (static_cast<int>(w->queries.size()) < kChurnTimed + kChurnWarmup) {
    const int n = static_cast<int>(shapes.Range(8, 12));
    AttrId universe = 0;
    const std::vector<AttrSet> rels =
        w->queries.size() % 2 == 0 ? RandomTree(n, shapes, &universe)
                                   : RandomCyclic(n, shapes);
    const DatabaseSchema d(rels);
    std::vector<AttrId> attrs = d.Universe().ToVector();
    const int target_size = static_cast<int>(shapes.Range(2, 4));
    AttrSet target;
    for (int k = 0; k < target_size; ++k) {
      const size_t pick = k + shapes.Below(attrs.size() - k);
      std::swap(attrs[k], attrs[pick]);
      target.Insert(attrs[k]);
    }
    Query q = Parse(Render(d), Render(target));
    if (!seen.insert(ShapeKey(q)).second) continue;  // a repeated shape
    w->queries.push_back(std::move(q));
  }
  // The seed draws the order of the timed cycle and all data.
  for (int i = kChurnTimed - 1; i > 0; --i) {
    std::swap(w->queries[static_cast<size_t>(i)],
              w->queries[rng.Below(static_cast<uint64_t>(i) + 1)]);
  }
  for (Query& q : w->queries) {
    q.states = gyo::ProjectDatabase(
        gyo::RandomUniversal(q.schema.Universe(), kChurnUniversalRows,
                             kChurnDomain, rng),
        q.schema);
    for (Relation& state : q.states) {
      std::vector<gyo::Value> row(static_cast<size_t>(state.Arity()));
      for (int i = 0; i < kChurnNoiseRows; ++i) {
        for (gyo::Value& v : row) {
          v = static_cast<gyo::Value>(rng.Below(kChurnDomain));
        }
        state.AddRow(row);
      }
      state.Canonicalize();
    }
    Finish(&q);
  }
  for (int i = 0; i < kChurnWarmup; ++i) w->warmup.push_back(kChurnTimed + i);
  w->timed_count = kChurnTimed;
  w->traced_requests = 600;
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  *out = Workload();
  out->name = name;
  if (name == "exec_heavy") {
    MakeExecHeavy(seed, out);
  } else if (name == "replay_hot") {
    MakeReplayHot(seed, out);
  } else if (name == "plan_churn") {
    MakePlanChurn(seed, out);
  } else {
    return false;
  }
  return true;
}

const Query& QueryAt(const Workload& w, uint64_t seq) {
  if (seq < w.warmup.size()) return w.queries[w.warmup[seq]];
  return w.queries[(seq - w.warmup.size()) % w.timed_count];
}

int64_t OffsetFor(const Workload& w, uint64_t seq) {
  return w.shift_values ? kOffsetBase + static_cast<int64_t>(seq) * kOffsetStride
                        : 0;
}

gyo::serve::QueryRequest MakeRequest(const Query& q, int64_t offset) {
  gyo::serve::QueryRequest request;
  request.schema_spec = q.schema_spec;
  request.target_spec = q.target_spec;
  if (offset == 0) {
    request.states = q.states;
    return request;
  }
  request.states.reserve(q.states.size());
  for (const Relation& base : q.states) {
    Relation shifted(base.Schema());
    shifted.AppendRows(base.NumRows());
    for (int c = 0; c < base.Arity(); ++c) {
      const gyo::Value* src = base.ColData(c);
      gyo::Value* dst = shifted.ColData(c);
      for (int64_t i = 0; i < base.NumRows(); ++i) dst[i] = src[i] + offset;
    }
    // A constant shift preserves sorted, duplicate-free order.
    if (base.IsCanonical()) shifted.MarkCanonical();
    request.states.push_back(std::move(shifted));
  }
  return request;
}

uint64_t ResultHash(const Relation& r, int64_t offset) {
  uint64_t sum = 0;
  for (int64_t i = 0; i < r.NumRows(); ++i) {
    uint64_t h = 0x243f6a8885a308d3ull;
    for (int c = 0; c < r.Arity(); ++c) {
      h = gyo::cache::Avalanche64(
          h ^ static_cast<uint64_t>(r.ColData(c)[i] - offset));
    }
    sum += h;
  }
  return sum;
}

bool MatchesReference(const Query& q, const Relation& result, int64_t offset) {
  return result.Schema() == q.target && result.NumRows() == q.ref_rows &&
         ResultHash(result, offset) == q.ref_hash;
}

}  // namespace perfbench
