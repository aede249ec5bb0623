#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's three seeded workloads and their reference answers.
//
// A workload is a list of distinct queries (schema, target, base states),
// the warm-up order, and the slice the timed phase cycles through. Request
// number `seq` of a run is the same on every pass that replays it — the
// daemon load, the in-process trace — so both see identical inputs. When a
// workload shifts values, request `seq` adds OffsetFor(seq) to every base
// value: equality joins are shift-invariant, so the answer is the reference
// answer shifted by the same amount, yet the data (and so the result-cache
// key) is new on every request.

#include <cstdint>
#include <string>
#include <vector>

#include "rel/relation.h"
#include "schema/schema.h"
#include "serve/frame.h"
#include "util/attr_set.h"

namespace perfbench {

struct Query {
  std::string schema_spec;
  std::string target_spec;
  // Parsed by a fresh first-appearance Catalog, as the daemon parses them.
  gyo::DatabaseSchema schema;
  gyo::AttrSet target;
  // Base states, unshifted, parallel to `schema`.
  std::vector<gyo::Relation> states;
  // Reference answer from a serial in-process exec::Run of the program the
  // daemon's kAuto strategy picks: row count and order-independent hash.
  int64_t ref_rows = 0;
  uint64_t ref_hash = 0;
};

struct Workload {
  std::string name;
  // Closed-loop client connections.
  int clients = 1;
  // Every request carries fresh data (see OffsetFor).
  bool shift_values = false;
  std::vector<Query> queries;
  // Query indices sent once each, in order, before the timed phase.
  std::vector<int> warmup;
  // The timed phase cycles queries[0 .. timed_count).
  int timed_count = 0;
  // Timed-phase requests the in-process traced pass replays.
  int traced_requests = 0;
};

// Builds workload `name` from `seed`, computing every reference answer.
// False for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

// Request `seq` of a run: warm-up requests first, then the timed cycle.
const Query& QueryAt(const Workload& w, uint64_t seq);
int64_t OffsetFor(const Workload& w, uint64_t seq);

// The wire request for `q` with every base value shifted by `offset`.
gyo::serve::QueryRequest MakeRequest(const Query& q, int64_t offset);

// Order-independent content hash of `r` with `offset` subtracted from every
// value first.
uint64_t ResultHash(const gyo::Relation& r, int64_t offset);

// True iff `result` is the reference answer of `q` shifted by `offset`.
bool MatchesReference(const Query& q, const gyo::Relation& result,
                      int64_t offset);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
