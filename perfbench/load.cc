// perfbench_load: the end-to-end gyo_serve benchmark.
//
//   perfbench_load --server PATH --out DIR --workload NAME --seed N
//                  --seconds S --trace 0|1
//
// Starts the gyo_serve binary at PATH as a child process (--threads 2, every
// other option at its default), drives it closed-loop from this process
// through serve::Client, checks every answer against a reference computed
// in-process, and prints the result as one JSON object on the last line of
// stdout. With --trace 1 it also replays the same requests in-process with
// spans (trace.h) and prints the per-layer metrics instead of the
// end-to-end ones. A full record — host, guards, every metric — goes to
// DIR. See README.md for the metrics and workloads.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rel/simd.h"
#include "serve/client.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kDaemonThreads = 2;
constexpr int kSetupRounds = 5;
// qps, p50 and p99 are medians over this many equal windows of the timed
// phase, so a burst of outside load in one window does not move them.
constexpr int kWindows = 3;

struct Args {
  std::string server;
  std::string out_dir;
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--server") {
      args->server = value;
    } else if (flag == "--out") {
      args->out_dir = value;
    } else if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->server.empty() && !args->out_dir.empty() &&
         args->seconds >= 1 && (args->trace == 0 || args->trace == 1);
}

// ---------------------------------------------------------------------------
// The daemon child process.

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool Start(const std::string& binary, std::string* error) {
    int fds[2];
    if (::pipe(fds) != 0) {
      *error = std::string("pipe: ") + std::strerror(errno);
      return false;
    }
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      *error = std::string("fork: ") + std::strerror(errno);
      return false;
    }
    if (pid_ == 0) {
      // The daemon dies with the benchmark, however the benchmark ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      const std::string threads = std::to_string(kDaemonThreads);
      ::execl(binary.c_str(), binary.c_str(), "--threads", threads.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(fds[1]);
    out_ = ::fdopen(fds[0], "r");
    char line[256];
    if (out_ == nullptr || std::fgets(line, sizeof(line), out_) == nullptr ||
        std::sscanf(line, "listening on %*[^:]:%d", &port_) != 1) {
      *error = "gyo_serve did not report its port";
      Stop();
      return false;
    }
    return true;
  }

  // SIGTERM (a graceful drain), then reap. Returns the daemon's drain line.
  std::string Stop() {
    std::string drained;
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      char line[512];
      while (out_ != nullptr && std::fgets(line, sizeof(line), out_)) {
        drained += line;
      }
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
    }
    if (out_ != nullptr) std::fclose(out_);
    out_ = nullptr;
    while (!drained.empty() && drained.back() == '\n') drained.pop_back();
    return drained;
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  FILE* out_ = nullptr;
  int port_ = 0;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// User + system CPU of `pid` in ms, from /proc/<pid>/stat.
double ProcessCpuMs(pid_t pid) {
  const std::string stat = ReadFile("/proc/" + std::to_string(pid) + "/stat");
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after the command name start at field 3; utime and stime are
  // fields 14 and 15.
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index >= 14) ticks += std::atof(field.c_str());
  }
  return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// Peak resident set (VmHWM) of `pid` in MiB.
double PeakRssMb(pid_t pid) {
  std::istringstream status(
      ReadFile("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Host record.

constexpr uint64_t kSpinIterations = 300000000ull;

// Wall seconds for `procs` processes each spinning the same fixed loop.
double SpinSeconds(int procs) {
  const int64_t start = NowNs();
  std::vector<pid_t> children;
  for (int p = 0; p < procs; ++p) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      // A serial multiply chain; the exit status keeps it from being elided.
      uint64_t x = static_cast<uint64_t>(p) + 1;
      for (uint64_t i = 0; i < kSpinIterations; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
      }
      ::_exit(static_cast<int>(x & 1));
    }
    if (pid > 0) children.push_back(pid);
  }
  for (pid_t pid : children) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  return static_cast<double>(NowNs() - start) / 1e9;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string CpuModel() {
  std::istringstream cpuinfo(ReadFile("/proc/cpuinfo"));
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

const char* SimdTier() {
#if defined(GYO_SIMD_AVX2_GATHER)
  return "avx2";
#elif defined(GYO_SIMD_VECTOR_EXT)
  return "vector-extensions";
#else
  return "scalar";
#endif
}

// The spin test: 4 CPU-bound processes against 1. Effective cores is
// 4 x t(1) / t(4).
std::string HostRecord() {
  const double one = SpinSeconds(1);
  const double four = SpinSeconds(4);
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\": %ld, \"cpu_model\": %s, \"simd_tier\": \"%s\", "
      "\"compiler\": %s, \"flags\": %s, \"build_type\": %s, "
      "\"pool_width\": %d, \"spin_1_proc_s\": %.6f, \"spin_4_procs_s\": %.6f, "
      "\"effective_cores\": %.3f}",
      ::sysconf(_SC_NPROCESSORS_ONLN), JsonString(CpuModel()).c_str(),
      SimdTier(), JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_FLAGS).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), kDaemonThreads, one, four,
      4.0 * one / four);
  return buf;
}

// ---------------------------------------------------------------------------
// Load.

struct ClientStats {
  std::vector<double> latency_ms;
  std::vector<int64_t> done_ns;  // completion times, parallel to latency_ms
  std::vector<gyo::exec::QueryStats> query_stats;
  int64_t attempted = 0;
  int64_t failed = 0;
  // Responses received (kOk), matching or not: what the daemon served.
  int64_t answers = 0;
  int64_t last_done_ns = 0;
  std::string first_error;
};

// Sends request `seq` and checks the answer. True iff it matched.
bool SendOne(gyo::serve::Client& client, const Workload& w, uint64_t seq,
             ClientStats* stats) {
  const Query& q = QueryAt(w, seq);
  const int64_t offset = OffsetFor(w, seq);
  const gyo::serve::QueryRequest request = MakeRequest(q, offset);
  gyo::serve::QueryResponse response;
  const int64_t start = NowNs();
  const gyo::serve::Client::Outcome outcome = client.Query(request, &response);
  const int64_t done = NowNs();
  ++stats->attempted;
  stats->last_done_ns = done;
  std::string error;
  if (outcome == gyo::serve::Client::Outcome::kOk) {
    ++stats->answers;
    if (MatchesReference(q, response.result, offset)) {
      stats->latency_ms.push_back(static_cast<double>(done - start) / 1e6);
      stats->done_ns.push_back(done);
      stats->query_stats.push_back(response.query_stats);
      return true;
    }
    error = "wrong answer to request " + std::to_string(seq);
  } else if (outcome == gyo::serve::Client::Outcome::kServerError) {
    error = std::string("server error: ") +
            gyo::serve::ErrorCodeName(client.server_error().code);
  } else {
    error = "io error: " + client.io_error();
  }
  ++stats->failed;
  if (stats->first_error.empty()) stats->first_error = error;
  return false;
}

// Every counter a fresh daemon must report as zero. The probe's own
// connection is the one accepted and active connection.
bool StatusAtRest(const gyo::serve::StatusResponse& s) {
  return s.queries_served == 0 && s.queries_shed_deadline == 0 &&
         s.queries_shed_backlog == 0 && s.protocol_errors == 0 &&
         !s.draining && s.tasks_stolen == 0 && s.affinity_hits == 0 &&
         s.affinity_misses == 0 && s.sip_rows_pruned == 0 &&
         s.zone_map_skips == 0 && s.plan_cache_hits == 0 &&
         s.plan_cache_misses == 0 && s.result_cache_hits == 0 &&
         s.result_cache_misses == 0 && s.pool.running == 0 &&
         s.pool.waiting == 0 && s.connections_accepted == 1 &&
         s.connections_active == 1;
}

struct Fixture {
  Workload workload;
  Daemon daemon;
  std::vector<gyo::serve::Client> clients;
  ClientStats warmup;
  double setup_s = 0.0;
};

// One set-up: build the inputs and references, start the daemon, check it
// is at rest, connect, warm up.
bool SetUp(const Args& args, Fixture* s, std::vector<std::string>* guards) {
  const int64_t start = NowNs();
  if (!MakeWorkload(args.workload, args.seed, &s->workload)) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return false;
  }
  std::string error;
  if (!s->daemon.Start(args.server, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return false;
  }
  s->clients.resize(static_cast<size_t>(s->workload.clients));
  for (size_t i = 0; i < s->clients.size(); ++i) {
    if (!s->clients[i].Connect("127.0.0.1", s->daemon.port())) {
      std::fprintf(stderr, "perfbench: connect: %s\n",
                   s->clients[i].io_error().c_str());
      return false;
    }
    if (i == 0) {
      gyo::serve::StatusResponse status;
      if (s->clients[0].Status(&status) !=
              gyo::serve::Client::Outcome::kOk ||
          !StatusAtRest(status)) {
        guards->push_back("daemon STATUS not at rest before the load");
      }
    }
  }
  for (uint64_t seq = 0; seq < s->workload.warmup.size(); ++seq) {
    SendOne(s->clients[0], s->workload, seq, &s->warmup);
  }
  s->setup_s = static_cast<double>(NowNs() - start) / 1e9;
  return true;
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (double v : values) {
    out += (out.size() > 1 ? ", " : "") + std::to_string(v);
  }
  return out + "]";
}

const char* UnitOf(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (name == "qps") return "queries/s";
  if (name == "setup_s") return "s";
  if (ends("_ms") || ends("_ms_per_query")) return "ms";
  if (ends("_kb")) return "KiB";
  if (ends("_mb")) return "MiB";
  if (ends("_pct")) return "%";
  if (ends("_ratio") || ends("_share") || ends("_speedup") ||
      name.rfind("trace.share.", 0) == 0) {
    return "ratio";
  }
  return "count";
}

std::string MetricsJson(const std::map<std::string, double>& metrics) {
  std::string out = "{";
  for (const auto& [name, value] : metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  out.size() > 1 ? ", " : "", name.c_str(), value,
                  UnitOf(name));
    out += buf;
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --server PATH --out DIR --workload NAME --seed N "
                 "--seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  // Forks before any thread exists.
  const std::string host = HostRecord();

  std::vector<std::string> guards;
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fixture;
  for (int round = 0; round < kSetupRounds; ++round) {
    fixture.reset(new Fixture());
    if (!SetUp(args, fixture.get(), &guards)) return 1;
    setup_s.push_back(fixture->setup_s);
    if (round + 1 < kSetupRounds) {
      fixture->clients.clear();
      fixture->daemon.Stop();
    }
  }
  Fixture& s = *fixture;
  const Workload& w = s.workload;
  gyo::serve::Client& probe = s.clients[0];

  // The timed phase.
  gyo::serve::StatusResponse before;
  probe.Status(&before);
  const double cpu_before = ProcessCpuMs(s.daemon.pid());
  std::vector<ClientStats> stats(s.clients.size());
  std::atomic<uint64_t> next_seq{w.warmup.size()};
  std::atomic<bool> go{false};
  int64_t deadline_ns = 0;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < s.clients.size(); ++i) {
    threads.emplace_back([&, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (NowNs() < deadline_ns) {
        SendOne(s.clients[i], w, next_seq.fetch_add(1), &stats[i]);
        if (!s.clients[i].connected()) break;
      }
    });
  }
  const int64_t start_ns = NowNs();
  deadline_ns = start_ns + static_cast<int64_t>(args.seconds) * 1000000000;
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const double cpu_after = ProcessCpuMs(s.daemon.pid());
  gyo::serve::StatusResponse after;
  const bool status_ok =
      probe.Status(&after) == gyo::serve::Client::Outcome::kOk;
  const double peak_rss_mb = PeakRssMb(s.daemon.pid());
  s.clients.clear();
  const std::string drained = s.daemon.Stop();

  ClientStats total;
  int64_t end_ns = start_ns;
  for (const ClientStats& c : stats) {
    total.latency_ms.insert(total.latency_ms.end(), c.latency_ms.begin(),
                            c.latency_ms.end());
    total.done_ns.insert(total.done_ns.end(), c.done_ns.begin(),
                         c.done_ns.end());
    total.query_stats.insert(total.query_stats.end(), c.query_stats.begin(),
                             c.query_stats.end());
    total.attempted += c.attempted;
    total.failed += c.failed;
    total.answers += c.answers;
    end_ns = std::max(end_ns, c.last_done_ns);
    if (total.first_error.empty()) total.first_error = c.first_error;
  }
  const double completed = static_cast<double>(total.latency_ms.size());

  // Validity guards.
  if (!status_ok) {
    guards.push_back("STATUS failed after the load");
  } else {
    const int64_t answers = s.warmup.answers + total.answers;
    if (after.queries_served != static_cast<uint64_t>(answers)) {
      guards.push_back("queries_served " +
                       std::to_string(after.queries_served) + " != answers " +
                       std::to_string(answers));
    }
    const double result_hits =
        static_cast<double>(after.result_cache_hits - before.result_cache_hits);
    const double result_lookups =
        result_hits + static_cast<double>(after.result_cache_misses -
                                          before.result_cache_misses);
    if (w.name == "exec_heavy" && result_hits != 0) {
      guards.push_back("exec_heavy saw result-cache hits");
    }
    if (w.name == "plan_churn" &&
        after.plan_cache_hits != before.plan_cache_hits) {
      guards.push_back("plan_churn saw plan-cache hits");
    }
    if (w.name == "replay_hot" &&
        (result_lookups == 0 || result_hits / result_lookups < 0.95)) {
      guards.push_back("replay_hot result hit ratio below 0.95");
    }
  }
  if (s.warmup.failed != 0) {
    guards.push_back("warm-up failed: " + s.warmup.first_error);
  }
  if (total.failed != 0) {
    std::fprintf(stderr, "perfbench: %lld failed, first: %s\n",
                 static_cast<long long>(total.failed),
                 total.first_error.c_str());
  }

  std::map<std::string, double> e2e;
  const double wall_s = static_cast<double>(end_ns - start_ns) / 1e9;
  std::vector<std::vector<double>> window_ms(kWindows);
  const double window_ns =
      std::max(1.0, static_cast<double>(end_ns - start_ns) / kWindows);
  for (size_t i = 0; i < total.done_ns.size(); ++i) {
    const double k =
        static_cast<double>(total.done_ns[i] - start_ns) / window_ns;
    window_ms[std::min(static_cast<size_t>(k), window_ms.size() - 1)]
        .push_back(total.latency_ms[i]);
  }
  std::vector<double> window_qps, window_p50, window_p99;
  for (const std::vector<double>& v : window_ms) {
    window_qps.push_back(static_cast<double>(v.size()) / (window_ns / 1e9));
    window_p50.push_back(Quantile(v, 0.5));
    window_p99.push_back(Quantile(v, 0.99));
  }
  e2e["qps"] = Quantile(window_qps, 0.5);
  e2e["latency_p50_ms"] = Quantile(window_p50, 0.5);
  e2e["latency_p99_ms"] = Quantile(window_p99, 0.5);
  e2e["server_cpu_ms_per_query"] =
      completed > 0 ? (cpu_after - cpu_before) / completed : 0.0;
  e2e["server_peak_rss_mb"] = peak_rss_mb;
  e2e["setup_s"] = Quantile(setup_s, 0.5);

  std::map<std::string, double> layers;
  int64_t trace_mismatches = 0;
  const std::string tag = w.name + "-seed" + std::to_string(args.seed);
  if (args.trace == 1) {
    const std::string header = "\"workload\": " + JsonString(w.name) +
                               ", \"seed\": " + std::to_string(args.seed);
    const TraceReport report = RunTracedPass(
        w, args.out_dir + "/spans-" + tag + ".json", header);
    layers = report.metrics;
    trace_mismatches = report.mismatches;
    layers["serve.daemon_overhead_ms"] =
        e2e["latency_p50_ms"] - report.inprocess_ms;
    // Daemon-side stats of the untraced answers. Queue wait and run time
    // are shares of the client round trip: both are exactly 0 per query
    // where nothing queues or executes.
    double latency_sum = 0, queue_wait_sum = 0, run_sum = 0;
    std::map<std::string, std::vector<double>> served = {
        {"exec.morsels", {}},          {"exec.tasks_stolen", {}},
        {"exec.peak_state_mb", {}},    {"rel.probe_rows_pruned", {}},
        {"rel.zone_map_skips", {}},    {"rel.sip_rows_pruned", {}}};
    for (size_t i = 0; i < total.query_stats.size(); ++i) {
      const gyo::exec::QueryStats& q = total.query_stats[i];
      latency_sum += total.latency_ms[i];
      queue_wait_sum += q.queue_wait_seconds * 1e3;
      run_sum += q.run_time_seconds * 1e3;
      served["exec.morsels"].push_back(static_cast<double>(q.morsels));
      served["exec.tasks_stolen"].push_back(static_cast<double>(q.tasks_stolen));
      served["exec.peak_state_mb"].push_back(
          static_cast<double>(q.peak_state_bytes) / (1 << 20));
      served["rel.probe_rows_pruned"].push_back(
          static_cast<double>(q.probe_rows_pruned));
      served["rel.zone_map_skips"].push_back(
          static_cast<double>(q.zone_map_skips));
      served["rel.sip_rows_pruned"].push_back(
          static_cast<double>(q.sip_rows_pruned));
    }
    for (auto& [name, values] : served) layers[name] = Quantile(values, 0.5);
    layers["exec.queue_wait_share"] =
        latency_sum > 0 ? queue_wait_sum / latency_sum : 0.0;
    layers["exec.server_run_share"] =
        latency_sum > 0 ? run_sum / latency_sum : 0.0;
    if (trace_mismatches != 0) {
      guards.push_back("traced replay answers differ from the reference");
    }
  }

  const bool correct = total.failed == 0 && guards.empty();
  std::string guard_list = "[";
  for (const std::string& g : guards) {
    std::fprintf(stderr, "perfbench: guard failed: %s\n", g.c_str());
    guard_list += (guard_list.size() > 1 ? ", " : "") + JsonString(g);
  }
  guard_list += "]";

  char counts[512];
  std::snprintf(counts, sizeof(counts),
                "\"attempted\": %lld, \"failed\": %lld, \"completed\": %.0f, "
                "\"timed_wall_s\": %.6f, \"clients\": %d",
                static_cast<long long>(total.attempted),
                static_cast<long long>(total.failed), completed, wall_s,
                w.clients);
  const std::string record_path = args.out_dir + "/" + tag + "-trace" +
                                  std::to_string(args.trace) + ".json";
  if (FILE* f = std::fopen(record_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": %s, \"seed\": %llu, \"seconds\": %d, "
                 "\"trace\": %d, \"host\": %s, %s, \"correct\": %s, "
                 "\"guards_failed\": %s, \"daemon_drain\": %s, "
                 "\"setup_rounds_s\": %s, \"window_qps\": %s, "
                 "\"window_p50_ms\": %s, \"window_p99_ms\": %s, "
                 "\"end_to_end\": %s, \"per_layer\": %s}\n",
                 JsonString(w.name).c_str(),
                 static_cast<unsigned long long>(args.seed), args.seconds,
                 args.trace, host.c_str(), counts,
                 correct ? "true" : "false", guard_list.c_str(),
                 JsonString(drained).c_str(), JsonList(setup_s).c_str(),
                 JsonList(window_qps).c_str(), JsonList(window_p50).c_str(),
                 JsonList(window_p99).c_str(), MetricsJson(e2e).c_str(),
                 MetricsJson(layers).c_str());
    std::fclose(f);
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(total.attempted),
              static_cast<long long>(total.failed),
              MetricsJson(args.trace == 1 ? layers : e2e).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
