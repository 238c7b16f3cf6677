// The repository benchmark: one TPC-H workload per process, measured from
// outside the engine by timing calls into its public entry points
// (mal::Run, mal::QueryService::Submit) and reading the counters the layers
// already expose (CommandQueue, Scheduler, MemoryManager, SlotArbiter).
//
//   ocelot_benchmark --workload <name> --seed <n> [--trace 0|1]
//
// Prints one "name value unit" line per metric, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
// the end-to-end metrics, --trace 1 the per-layer metrics plus the span file
// trace-<workload>-<seed>.json next to the binary. A run measures for
// run_seconds of BENCHMARK.json, compiled in by CMakeLists.txt.
// Every query result is compared against the "seq" oracle outside the timed
// window; a mismatch names the workload, query and seed and exits 1.
// benchmark/README.md explains the workloads and the metric <-> layer map.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/rng.h"
#include "mal/interp.h"
#include "mal/rewriter.h"
#include "mal/service.h"
#include "ocelot/scheduler.h"
#include "ocl/context.h"
#include "oracle.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace {

using common::Nanos;

Nanos WallNow() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Ms(Nanos ns) { return static_cast<double>(ns) / 1e6; }
double Sec(Nanos ns) { return static_cast<double>(ns) / 1e9; }
double Mb(double bytes) { return bytes / 1e6; }

// --- Workloads ----------------------------------------------------------------

struct Workload {
  const char* name;
  const char* engine;
  double paper_sf;
  /// One client in a closed loop, through QueryService if set, otherwise on
  /// one session per epoch.
  bool serve;
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr Workload kWorkloads[] = {
    {"olap-sf1-multi", "ocelot:multi", 1, false},
    {"olap-sf8-multi", "ocelot:multi", 8, false},
    {"olap-sf8-par", "par", 8, false},
    {"serve-sf1-multi", "ocelot:multi", 1, true},
};

/// A run is this many epochs, each a full set-up followed by an equal share
/// of the measured seconds. The multi-device Scheduler calibrates its
/// partitioning from timings taken while a session warms up, and a session
/// keeps the plans it settles on; several sessions per run measure the
/// typical session instead of one draw. Every end-to-end metric but peak
/// memory is taken per epoch and reported as the epochs' median, so a burst
/// of load from outside that slows one or two epochs does not move it.
constexpr int kEpochs = 6;
constexpr double kEpochSeconds = static_cast<double>(OBENCH_RUN_SECONDS) / kEpochs;
constexpr int kServeSessions = 4;
/// Host-speed reference. A shared VM (measured: 4 vCPUs, Xeon) changes speed
/// by up to a fifth over minutes, and every timing of a run moves with it.
/// Each run times a fixed reference loop kReferenceReps times at every epoch
/// boundary; the median sample over kReferenceNominalMs, the loop's median
/// on that VM, is the run's host slowdown, and end-to-end times are divided
/// by it.
constexpr int kReferenceReps = 16;
constexpr double kReferenceNominalMs = 1.75;

// --- Metrics --------------------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},         {"qps", "1/s"},         {"latency_ms_p50", "ms"},
      {"latency_ms_p90", "ms"}, {"peak_rss_mb", "MB"},
  };
  return kDefs;
}

const char* const kOpClasses[] = {"select", "project", "join", "group",
                                  "aggr",   "calc",    "sort", "other"};
const char* const kDevices[] = {"cpu", "gpu"};

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = [] {
    // The virtual time of a query is not visible through QueryService, and
    // the SF8 streams leave fewer than ten samples beyond p99, so these are
    // reported here rather than end to end.
    std::vector<MetricDef> d = {
        {"query.latency_ms_p99", "ms"},
        {"query.virtual_ms_p50", "ms"},       {"query.virtual_ms_p90", "ms"},
        {"mal.self_ms_per_q", "ms"},          {"mal.critical_path_ms_per_q", "ms"},
        {"mal.serial_sum_ms_per_q", "ms"},    {"mal.instrs_per_q", "count"},
    };
    for (const char* c : kOpClasses) {
      for (const char* axis : {"real", "virtual"}) {
        d.push_back({std::string("mal.op.") + c + "." + axis + "_ms_per_q", "ms"});
      }
    }
    for (const char* m : {"retries", "quarantines", "fallbacks", "failures"}) {
      d.push_back({std::string("svc.") + m, "count"});
    }
    d.push_back({"svc.arbiter_contended_frac", "fraction"});
    d.push_back({"sched.merge_mb_per_q", "MB"});
    for (const char* m : {"retries", "quarantines", "fallbacks", "healthy_devices_end"}) {
      d.push_back({std::string("sched.") + m, "count"});
    }
    for (const char* dev : kDevices) {
      const std::string p = std::string("mm.") + dev + ".";
      for (const char* m : {"evictions_per_q", "offloads_per_q", "reloads_per_q",
                            "cached_entries_end"}) {
        d.push_back({p + m, "count"});
      }
      d.push_back({p + "device_mb_end", "MB"});
    }
    for (const char* dev : kDevices) {
      const std::string p = std::string("ocl.") + dev + ".";
      d.push_back({p + "transfer_ms_per_q", "ms"});
      d.push_back({p + "transfer_mb_per_q", "MB"});
      d.push_back({p + "kernel_ms_per_q", "ms"});
      d.push_back({p + "launches_per_q", "count"});
      d.push_back({p + "host_exec_ms_per_q", "ms"});
      d.push_back({p + "busy_frac", "fraction"});
    }
    std::vector<MetricDef> tail = {
        {"sim.real_over_virtual", "ratio"},    {"tpch.generate_s", "s"},
        {"cstore.catalog_logical_mb", "MB"},   {"cstore.catalog_physical_mb", "MB"},
        {"setup.session_open_ms", "ms"},       {"setup.warmup_s", "s"},
        {"harness.oracle_s", "s"},
        {"harness.trace_overhead_frac", "fraction"}, {"harness.host_slowdown", "ratio"},
    };
    d.insert(d.end(), tail.begin(), tail.end());
    return d;
  }();
  return kDefs;
}

/// Named metric values of one run. The result record must carry every
/// defined metric, so a metric of a layer the workload does not have reads 0.
class Values {
 public:
  void Set(const std::string& name, double v) { values_[name] = v; }

  /// Fails on a value recorded under a name no metric definition has.
  void CheckNames() const {
    for (const auto& [name, v] : values_) {
      bool known = false;
      for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
        for (const MetricDef& d : *defs) known = known || d.name == name;
      }
      OCELOT_CHECK(known) << "metric " << name << " is not defined";
    }
  }

  /// Prints "name value unit" lines for `defs`, then the result record.
  void Print(const std::vector<MetricDef>& defs, bool correct, std::size_t attempted,
             std::size_t failed) const {
    std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
      auto it = values_.find(defs[i].name);
      std::string v = Number(it == values_.end() ? 0.0 : it->second);
      std::printf("%s %s %s\n", defs[i].name.c_str(), v.c_str(), defs[i].unit.c_str());
      json += (i ? ", \"" : "\"") + defs[i].name + "\": {\"value\": " + v +
              ", \"unit\": \"" + defs[i].unit + "\"}";
    }
    std::printf("%s}}\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  /// Shortest decimal form that reads back as exactly `v`.
  static std::string Number(double v) {
    if (!std::isfinite(v)) v = 0;
    char buf[64];
    auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
  }

  std::map<std::string, double> values_;
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

volatile std::uint32_t g_reference_sink = 0;

/// A fixed amount of host work: dependent integer updates over an L2-sized
/// array with data-dependent indexing, like the engine's hash and gather
/// loops. Not inlined, so changes elsewhere cannot change its code.
[[gnu::noinline]] double ReferenceLoopMs() {
  static std::vector<std::uint32_t> data(1 << 16, 1);
  const std::size_t mask = data.size() - 1;
  std::uint32_t x = 1;
  const Nanos t0 = WallNow();
  for (int pass = 0; pass < 4; ++pass) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = data[i] * 1664525u + 1013904223u + x;
      x ^= data[(i * 7 + x) & mask];
    }
  }
  const Nanos t1 = WallNow();
  g_reference_sink = x;
  return Ms(t1 - t0);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return Mb(static_cast<double>(ru.ru_maxrss) * 1024.0);  // ru_maxrss is in KiB
}

/// Operator class of a MAL instruction. Keyed on Instr::op, not the module,
/// because the Ocelot rewrite swaps modules but keeps operator names.
const char* OpClass(const std::string& op) {
  static const std::map<std::string, const char*> kClass = {
      {"select", "select"},   {"candunion", "select"}, {"projection", "project"},
      {"join", "join"},       {"thetajoin", "join"},   {"semijoin", "join"},
      {"antijoin", "join"},   {"group", "group"},      {"subgroup", "group"},
      {"subsum", "aggr"},     {"submin", "aggr"},      {"submax", "aggr"},
      {"subavg", "aggr"},     {"subcount", "aggr"},    {"sum", "aggr"},
      {"min", "aggr"},        {"max", "aggr"},         {"count", "aggr"},
      {"add", "calc"},        {"sub", "calc"},         {"mul", "calc"},
      {"div", "calc"},        {"eq", "calc"},          {"ne", "calc"},
      {"lt", "calc"},         {"le", "calc"},          {"gt", "calc"},
      {"ge", "calc"},         {"or", "calc"},          {"and", "calc"},
      {"ifthenelse", "calc"}, {"year", "calc"},        {"flt", "calc"},
      {"sort", "sort"}};
  auto it = kClass.find(op);
  return it == kClass.end() ? "other" : it->second;
}

/// Order in which a client issues `n` queries of the paper workload: whole
/// rounds of every query once, each round shuffled, so every run has the
/// same query mix and the seed decides only the order.
std::vector<std::size_t> Rounds(std::size_t n, std::size_t queries, common::Rng* rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t r = 0; r < n; r += queries) {
    std::size_t len = std::min(queries, n - r);
    std::vector<std::size_t> round(queries);
    for (std::size_t i = 0; i < queries; ++i) round[i] = i;
    for (std::size_t i = queries - 1; i > 0; --i) {
      auto j = static_cast<std::size_t>(rng->Uniform(0, static_cast<std::int64_t>(i)));
      std::swap(round[i], round[j]);
    }
    std::copy(round.begin(), round.begin() + static_cast<std::ptrdiff_t>(len),
              order.begin() + static_cast<std::ptrdiff_t>(r));
  }
  return order;
}

// --- Set-up ---------------------------------------------------------------------

struct SetupTiming {
  Nanos generate = 0;
  Nanos open = 0;
  Nanos warmup = 0;
  Nanos total = 0;
};

/// Everything a workload builds before it measures. Members are destroyed in
/// reverse order, so the session and service go before the catalog they read.
struct Setup {
  std::unique_ptr<tpch::TpchDb> db;
  std::vector<mal::Program> plans;  ///< plans[i] runs tpch::PaperWorkload()[i]
  std::unique_ptr<mal::Session> session;
  std::unique_ptr<mal::QueryService> service;
  SetupTiming timing;
};

/// Database generation (with encoding), session or service open, plan
/// build and one warm-up round of every query.
std::unique_ptr<Setup> SetUp(const Workload& w, std::uint64_t seed,
                             const cstore::EngineOptions& models) {
  auto s = std::make_unique<Setup>();
  const std::vector<int> queries = tpch::PaperWorkload();
  const Nanos t0 = WallNow();
  s->db = std::make_unique<tpch::TpchDb>(
      tpch::Generate(tpch::ScaleForPaperSf(w.paper_sf), seed));
  const Nanos t1 = WallNow();
  if (w.serve) {
    mal::ServiceOptions options;
    options.max_sessions = kServeSessions;
    options.engine_options = models;
    auto service = mal::QueryService::Open(w.engine, &s->db->catalog, options);
    OCELOT_CHECK(service.ok()) << service.status().ToString();
    s->service = std::move(*service);
  } else {
    auto session = mal::Session::Open(w.engine, models);
    OCELOT_CHECK(session.ok()) << session.status().ToString();
    s->session = std::move(*session);
  }
  const Nanos t2 = WallNow();
  for (int q : queries) {
    auto plan = tpch::BuildQuery(q, *s->db);
    OCELOT_CHECK(plan.ok()) << "Q" << q << ": " << plan.status().ToString();
    // The service rewrites plans itself; a session needs them rewritten.
    bool rewrite = s->session != nullptr && s->session->hardware_oblivious();
    s->plans.push_back(rewrite ? mal::RewriteForOcelot(*plan) : *plan);
  }
  const Nanos t3 = WallNow();
  std::vector<std::future<common::Result<mal::ExecResult>>> warm;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (s->service != nullptr) {
      warm.push_back(s->service->Submit(s->plans[i]));
      continue;
    }
    auto res = mal::Run(s->plans[i], s->db->catalog, s->session.get());
    OCELOT_CHECK(res.ok()) << "warm-up Q" << queries[i] << ": " << res.status().ToString();
  }
  for (std::size_t i = 0; i < warm.size(); ++i) {
    auto res = warm[i].get();
    OCELOT_CHECK(res.ok()) << "warm-up Q" << queries[i] << ": " << res.status().ToString();
  }
  const Nanos t4 = WallNow();
  s->timing = {t1 - t0, t2 - t1, t4 - t3, t4 - t0};
  return s;
}

// --- Device counters ------------------------------------------------------------

/// Monotone counters of one device slot, read off its command queue and the
/// memory manager bound to it.
struct DeviceCounters {
  Nanos busy = 0;
  Nanos kernel = 0;
  Nanos host_exec = 0;
  std::uint64_t bytes = 0;
  std::uint64_t launches = 0;
  std::uint64_t evictions = 0;
  std::uint64_t offloads = 0;
  std::uint64_t reloads = 0;

  DeviceCounters operator-(const DeviceCounters& o) const {
    return {busy - o.busy,         kernel - o.kernel,     host_exec - o.host_exec,
            bytes - o.bytes,       launches - o.launches, evictions - o.evictions,
            offloads - o.offloads, reloads - o.reloads};
  }
};

ocelot::MemoryManager* MemoryOf(mal::Session* session, int device) {
  auto* sched = dynamic_cast<ocelot::Scheduler*>(session->engine());
  return sched != nullptr ? sched->engine(device)->memory() : nullptr;
}

std::string DeviceName(ocl::Context* ctx, int d) {
  return ctx->device(d)->model().type == ocl::DeviceType::kGpu ? "gpu" : "cpu";
}

std::vector<DeviceCounters> ReadDevices(mal::Session* session) {
  std::vector<DeviceCounters> out;
  ocl::Context* ctx = session->ocl_context();
  if (ctx == nullptr) return out;
  for (int d = 0; d < ctx->device_count(); ++d) {
    ocl::CommandQueue* q = ctx->queue(d);
    DeviceCounters c;
    c.busy = q->modeled_busy_ns();
    c.kernel = q->modeled_kernel_busy_ns();
    c.bytes = q->transferred_bytes();
    for (const auto& [kernel, p] : q->profiles()) {
      c.launches += p.launches;
      c.host_exec += p.measured_ns;
    }
    if (ocelot::MemoryManager* mm = MemoryOf(session, d)) {
      c.evictions = mm->evictions();
      c.offloads = mm->offloads();
      c.reloads = mm->reloads();
    }
    out.push_back(c);
  }
  return out;
}

/// One traced closed-loop query: its span on both time axes, the
/// interpreter's dataflow statistics, one mark per after_instr callback and
/// per-device counter deltas.
struct QuerySpan {
  std::size_t idx = 0;  ///< index into the plans
  Nanos real0 = 0, real1 = 0, virt0 = 0, virt1 = 0;
  mal::DataflowStats stats;
  struct Mark {
    int instr;
    Nanos real;
    Nanos virt;
  };
  std::vector<Mark> marks;
  std::vector<DeviceCounters> delta;
};

// --- The run ----------------------------------------------------------------------

/// One run of one workload: kEpochs set-ups, each followed by its share of
/// the measured seconds. End-to-end metrics are medians of per-epoch values;
/// per-layer samples and traced counters pool over the epochs.
class Runner {
 public:
  Runner(const Workload& w, std::uint64_t seed, bool trace, const cstore::EngineOptions& models)
      : w_(w), seed_(seed), trace_(trace), models_(models) {}

  /// Runs every epoch, prints the metrics and returns the exit code.
  int Run();

 private:
  void MeasureClosed(int epoch);
  void MeasureServe(int epoch);
  /// Folds one traced closed-loop query into the per-layer sums and the span
  /// file (times relative to `start`, the epoch's measured start).
  void TraceQuery(const QuerySpan& sp, int epoch, Nanos start);
  /// Session state at the end of a closed-loop epoch.
  void TraceSessionEnd();
  void Check(int q, const common::Result<mal::ExecResult>& res);
  /// Closes an epoch whose samples start at real_ms_[first]; `busy` is the
  /// sum of their query times.
  void EndEpoch(std::size_t first, Nanos busy);
  void Finish();

  const Workload& w_;
  const std::uint64_t seed_;
  const bool trace_;
  const cstore::EngineOptions& models_;

  std::unique_ptr<Setup> s_;
  std::optional<obench::Oracle> oracle_;
  std::vector<SetupTiming> timings_;
  Values v_;

  // Samples pooled over epochs.
  std::vector<int> q_;
  std::vector<double> real_ms_, virt_ms_;
  std::vector<bool> traced_;
  std::vector<double> reference_ms_;
  std::vector<double> epoch_qps_, epoch_p50_ms_, epoch_p90_ms_;
  std::size_t attempted_ = 0, failed_ = 0;
  std::vector<std::string> mismatches_;
  Nanos check_ns_ = 0;

  // Traced sums, normalised in Finish().
  std::map<std::string, double> per_query_;  ///< divided by traced queries
  std::map<std::string, double> per_epoch_;  ///< divided by epochs
  std::size_t traced_queries_ = 0;
  double traced_real_ns_ = 0, traced_virt_ns_ = 0;
  std::map<std::string, double> device_busy_ns_;
  std::uint64_t merge_bytes_ = 0;
  std::uint64_t contended_ = 0, grants_ = 0;
  std::ostringstream spans_;
  bool first_span_ = true;
};

int Runner::Run() {
  auto sample_host_speed = [this] {
    for (int k = 0; k < kReferenceReps; ++k) reference_ms_.push_back(ReferenceLoopMs());
  };
  for (int e = 0; e < kEpochs; ++e) {
    s_.reset();
    s_ = SetUp(w_, seed_, models_);
    timings_.push_back(s_->timing);
    if (!oracle_) {
      const Nanos o0 = WallNow();
      oracle_.emplace(*s_->db, tpch::PaperWorkload());
      check_ns_ += WallNow() - o0;
      if (std::string err = oracle_->SelfCheck(); !err.empty()) {
        std::fprintf(stderr, "%s seed %llu: oracle self-check failed: %s\n", w_.name,
                     static_cast<unsigned long long>(seed_), err.c_str());
        return 1;
      }
    }
    sample_host_speed();
    if (w_.serve) {
      MeasureServe(e);
    } else {
      MeasureClosed(e);
    }
  }
  sample_host_speed();
  Finish();
  s_.reset();

  if (trace_) {
    const std::filesystem::path path =
        std::filesystem::read_symlink("/proc/self/exe").parent_path() /
        ("trace-" + std::string(w_.name) + "-" + std::to_string(seed_) + ".json");
    // Instruction virtual intervals are serial cost; see TraceQuery.
    std::ofstream f(path);
    f << "{\"workload\": \"" << w_.name << "\", \"seed\": " << seed_
      << ", \"epochs\": " << kEpochs
      << ", \"instr_fields\": [\"instr\", \"op\", \"real_start_ns\", \"real_end_ns\", "
         "\"serial_virtual_start_ns\", \"serial_virtual_end_ns\"], \"queries\": ["
      << spans_.str() << "\n]}\n";
    if (!f) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
  for (const std::string& m : mismatches_) std::fprintf(stderr, "%s\n", m.c_str());
  v_.Print(trace_ ? PerLayerMetrics() : EndToEndMetrics(), mismatches_.empty(),
           attempted_, failed_);
  return mismatches_.empty() ? 0 : 1;
}

void Runner::Check(int q, const common::Result<mal::ExecResult>& res) {
  attempted_ += 1;
  if (!res.ok()) {
    failed_ += 1;
    std::fprintf(stderr, "%s seed %llu: Q%d failed: %s\n", w_.name,
                 static_cast<unsigned long long>(seed_), q, res.status().ToString().c_str());
    return;
  }
  std::string m = oracle_->Check(q, res->returns);
  if (!m.empty()) {
    mismatches_.push_back(std::string(w_.name) + " seed " + std::to_string(seed_) + ": Q" +
                          std::to_string(q) + " differs from seq: " + m);
  }
}

/// Closed loop of one client on the epoch's session: whole rounds of the
/// paper workload, shuffled per round, until the epoch's seconds have
/// passed. A traced run traces even rounds only; the odd rounds price the
/// tracing itself.
void Runner::MeasureClosed(int epoch) {
  const std::vector<int> queries = tpch::PaperWorkload();
  mal::Session* session = s_->session.get();
  common::VirtualClock* clock = session->clock();
  common::Rng rng(seed_ * 131 + static_cast<std::uint64_t>(epoch));
  const std::uint64_t copied0 = ocelot::Scheduler::bytes_copied();

  const std::size_t first = real_ms_.size();
  Nanos busy = 0;
  const Nanos start = WallNow();
  for (int round = 0; Sec(WallNow() - start) < kEpochSeconds; ++round) {
    const bool traced = trace_ && round % 2 == 0;
    for (std::size_t idx : Rounds(queries.size(), queries.size(), &rng)) {
      const mal::Program& plan = s_->plans[idx];
      QuerySpan span;
      mal::RunOptions options;
      std::vector<DeviceCounters> before;
      if (traced) {
        span.idx = idx;
        span.marks.reserve(plan.instrs.size());
        options.stats = &span.stats;
        options.after_instr = [&span, clock](int i) {
          span.marks.push_back({i, WallNow(), clock->Now()});
        };
        before = ReadDevices(session);
      }
      const Nanos v0 = clock->Now();
      const Nanos r0 = WallNow();
      auto res = mal::Run(plan, s_->db->catalog, session, options);
      const Nanos r1 = WallNow();
      const Nanos v1 = clock->Now();
      if (traced) {
        std::vector<DeviceCounters> after = ReadDevices(session);
        for (std::size_t d = 0; d < after.size(); ++d) {
          span.delta.push_back(after[d] - before[d]);
        }
        span.real0 = r0;
        span.real1 = r1;
        span.virt0 = v0;
        span.virt1 = v1;
        TraceQuery(span, epoch, start);
      }
      q_.push_back(queries[idx]);
      real_ms_.push_back(Ms(r1 - r0));
      virt_ms_.push_back(Ms(v1 - v0));
      traced_.push_back(traced);
      busy += r1 - r0;
      const Nanos c0 = WallNow();
      Check(queries[idx], res);
      check_ns_ += WallNow() - c0;
    }
  }
  EndEpoch(first, busy);
  merge_bytes_ += ocelot::Scheduler::bytes_copied() - copied0;
  if (trace_) TraceSessionEnd();
}

void Runner::TraceQuery(const QuerySpan& sp, int epoch, Nanos start) {
  const std::vector<int> queries = tpch::PaperWorkload();
  const mal::Program& plan = s_->plans[sp.idx];
  ocl::Context* ctx = s_->session->ocl_context();
  traced_queries_ += 1;
  traced_real_ns_ += static_cast<double>(sp.real1 - sp.real0);
  traced_virt_ns_ += static_cast<double>(sp.virt1 - sp.virt0);
  per_query_["mal.critical_path_ms_per_q"] += Ms(sp.stats.critical_path_ns);
  per_query_["mal.serial_sum_ms_per_q"] += Ms(sp.stats.serial_sum_ns);
  per_query_["mal.instrs_per_q"] += sp.stats.executed;

  // Instruction i >= 1 spans the interval between the callbacks of i-1 and
  // i. Engines that are not concurrency-safe run instructions serialized in
  // program order, so on the real axis these intervals tile the query. The
  // rest of the query span is MAL self time: dataflow analysis and the first
  // instruction (a bat.bind) before the first callback, makespan billing and
  // result collection after the last one. On the virtual axis an interval is
  // the instruction's serial cost; mal::Run afterwards bills the query its
  // dataflow critical path, so these sum to serial_sum, not to the query's
  // virtual time.
  std::ostream& out = spans_;
  out << (first_span_ ? "" : ",") << "\n{\"q\": " << queries[sp.idx]
      << ", \"epoch\": " << epoch << ", \"real_ns\": [" << sp.real0 - start << ", "
      << sp.real1 - start << "], \"virtual_ns\": " << sp.virt1 - sp.virt0
      << ", \"serial_sum_ns\": " << sp.stats.serial_sum_ns
      << ", \"critical_path_ns\": " << sp.stats.critical_path_ns << ", \"instrs\": [";
  first_span_ = false;
  Nanos covered = 0;
  for (std::size_t m = 1; m < sp.marks.size(); ++m) {
    const QuerySpan::Mark& a = sp.marks[m - 1];
    const QuerySpan::Mark& b = sp.marks[m];
    const mal::Instr& ins = plan.instrs[static_cast<std::size_t>(b.instr)];
    const std::string cls = OpClass(ins.op);
    covered += b.real - a.real;
    per_query_["mal.op." + cls + ".real_ms_per_q"] += Ms(b.real - a.real);
    per_query_["mal.op." + cls + ".virtual_ms_per_q"] += Ms(b.virt - a.virt);
    out << (m > 1 ? ", " : "") << "[" << b.instr << ", \"" << ins.module << "." << ins.op
        << "\", " << a.real - sp.real0 << ", " << b.real - sp.real0 << ", "
        << a.virt - sp.virt0 << ", " << b.virt - sp.virt0 << "]";
  }
  per_query_["mal.self_ms_per_q"] += Ms(sp.real1 - sp.real0 - covered);

  out << "], \"devices\": {";
  for (std::size_t d = 0; d < sp.delta.size(); ++d) {
    const DeviceCounters& c = sp.delta[d];
    const std::string dev = DeviceName(ctx, static_cast<int>(d));
    per_query_["ocl." + dev + ".transfer_ms_per_q"] += Ms(c.busy - c.kernel);
    per_query_["ocl." + dev + ".transfer_mb_per_q"] += Mb(static_cast<double>(c.bytes));
    per_query_["ocl." + dev + ".kernel_ms_per_q"] += Ms(c.kernel);
    per_query_["ocl." + dev + ".launches_per_q"] += static_cast<double>(c.launches);
    per_query_["ocl." + dev + ".host_exec_ms_per_q"] += Ms(c.host_exec);
    per_query_["mm." + dev + ".evictions_per_q"] += static_cast<double>(c.evictions);
    per_query_["mm." + dev + ".offloads_per_q"] += static_cast<double>(c.offloads);
    per_query_["mm." + dev + ".reloads_per_q"] += static_cast<double>(c.reloads);
    device_busy_ns_[dev] += static_cast<double>(c.busy);
    out << (d ? ", " : "") << "\"" << dev << "\": {\"busy_ns\": " << c.busy
        << ", \"kernel_ns\": " << c.kernel << ", \"host_exec_ns\": " << c.host_exec
        << ", \"bytes\": " << c.bytes << ", \"launches\": " << c.launches
        << ", \"evictions\": " << c.evictions << ", \"offloads\": " << c.offloads
        << ", \"reloads\": " << c.reloads << "}";
  }
  out << "}}";
}

void Runner::TraceSessionEnd() {
  mal::Session* session = s_->session.get();
  if (ocl::Context* ctx = session->ocl_context()) {
    for (int d = 0; d < ctx->device_count(); ++d) {
      if (ocelot::MemoryManager* mm = MemoryOf(session, d)) {
        const std::string dev = DeviceName(ctx, d);
        per_epoch_["mm." + dev + ".device_mb_end"] +=
            Mb(static_cast<double>(mm->device_bytes()));
        per_epoch_["mm." + dev + ".cached_entries_end"] +=
            static_cast<double>(mm->cached_entries());
      }
    }
  }
  if (auto* sched = dynamic_cast<ocelot::Scheduler*>(session->engine())) {
    // Session totals: a device quarantined during the warm-up round stays out
    // for the whole measured phase.
    ocelot::FaultStats fs = sched->fault_stats();
    per_epoch_["sched.retries"] += static_cast<double>(fs.retries);
    per_epoch_["sched.quarantines"] += static_cast<double>(fs.quarantines);
    per_epoch_["sched.fallbacks"] += static_cast<double>(fs.fallbacks);
    per_epoch_["sched.healthy_devices_end"] += sched->healthy_device_count();
  }
}

/// The same client and stream as MeasureClosed, through the epoch's query
/// service instead of one session, so every query runs on a fresh session.
/// Latency runs from Submit to the resolved future. One client only: an
/// open loop or several clients put queries side by side, and then a host
/// slowed by load from outside stretches latency far more than the
/// host-speed reference can correct (see README.md).
void Runner::MeasureServe(int epoch) {
  const std::vector<int> queries = tpch::PaperWorkload();
  mal::QueryService* service = s_->service.get();
  common::Rng rng(seed_ * 131 + static_cast<std::uint64_t>(epoch));
  const mal::DegradationStats deg0 = service->degradation();
  const std::uint64_t contended0 = service->arbiter()->contended_acquires();
  const std::uint64_t grants0 = service->arbiter()->grants();

  const std::size_t first = real_ms_.size();
  Nanos busy = 0;
  const Nanos start = WallNow();
  for (int round = 0; Sec(WallNow() - start) < kEpochSeconds; ++round) {
    const bool traced = trace_ && round % 2 == 0;
    for (std::size_t idx : Rounds(queries.size(), queries.size(), &rng)) {
      mal::DegradationStats stats;
      mal::SubmitOptions options;
      if (traced) options.stats = &stats;
      const Nanos r0 = WallNow();
      auto res = service->Submit(s_->plans[idx], std::move(options)).get();
      const Nanos r1 = WallNow();
      if (trace_) {
        spans_ << (first_span_ ? "" : ",") << "\n{\"q\": " << queries[idx]
               << ", \"epoch\": " << epoch << ", \"real_ns\": [" << r0 - start << ", "
               << r1 - start << "]";
        first_span_ = false;
        if (traced) {
          spans_ << ", \"retries\": " << stats.retries << ", \"quarantines\": "
                 << stats.quarantines << ", \"fallbacks\": " << stats.fallbacks;
        }
        spans_ << "}";
      }
      q_.push_back(queries[idx]);
      real_ms_.push_back(Ms(r1 - r0));
      traced_.push_back(traced);
      busy += r1 - r0;
      const Nanos c0 = WallNow();
      Check(queries[idx], res);
      check_ns_ += WallNow() - c0;
    }
  }
  EndEpoch(first, busy);
  if (!trace_) return;

  contended_ += service->arbiter()->contended_acquires() - contended0;
  grants_ += service->arbiter()->grants() - grants0;
  const mal::DegradationStats deg = service->degradation();
  per_epoch_["svc.retries"] += static_cast<double>(deg.retries - deg0.retries);
  per_epoch_["svc.quarantines"] += static_cast<double>(deg.quarantines - deg0.quarantines);
  per_epoch_["svc.fallbacks"] += static_cast<double>(deg.fallbacks - deg0.fallbacks);
  per_epoch_["svc.failures"] += static_cast<double>(deg.failures - deg0.failures);
}

void Runner::EndEpoch(std::size_t first, Nanos busy) {
  const std::vector<double> epoch(real_ms_.begin() + static_cast<std::ptrdiff_t>(first),
                                  real_ms_.end());
  epoch_qps_.push_back(static_cast<double>(epoch.size()) / Sec(busy));
  epoch_p50_ms_.push_back(Percentile(epoch, 0.50));
  epoch_p90_ms_.push_back(Percentile(epoch, 0.90));
}

void Runner::Finish() {
  std::vector<double> total, gen, open, warm;
  for (const SetupTiming& t : timings_) {
    total.push_back(Sec(t.total));
    gen.push_back(Sec(t.generate));
    open.push_back(Ms(t.open));
    warm.push_back(Sec(t.warmup));
  }
  // End-to-end times are in nominal-host units.
  const double slowdown = Percentile(reference_ms_, 0.5) / kReferenceNominalMs;
  v_.Set("setup_s", Percentile(total, 0.5) / slowdown);
  v_.Set("qps", Percentile(epoch_qps_, 0.5) * slowdown);
  v_.Set("latency_ms_p50", Percentile(epoch_p50_ms_, 0.5) / slowdown);
  v_.Set("latency_ms_p90", Percentile(epoch_p90_ms_, 0.5) / slowdown);
  v_.Set("peak_rss_mb", PeakRssMb());
  if (!trace_) return;

  v_.Set("tpch.generate_s", Percentile(gen, 0.5));
  v_.Set("setup.session_open_ms", Percentile(open, 0.5));
  v_.Set("setup.warmup_s", Percentile(warm, 0.5));
  v_.Set("cstore.catalog_logical_mb", Mb(static_cast<double>(s_->db->catalog.TotalBytes())));
  v_.Set("cstore.catalog_physical_mb",
         Mb(static_cast<double>(s_->db->catalog.TotalPhysicalBytes())));
  v_.Set("harness.oracle_s", Sec(check_ns_));
  v_.Set("harness.host_slowdown", slowdown);
  v_.Set("query.latency_ms_p99", Percentile(real_ms_, 0.99));
  if (!w_.serve) {
    v_.Set("query.virtual_ms_p50", Percentile(virt_ms_, 0.50));
    v_.Set("query.virtual_ms_p90", Percentile(virt_ms_, 0.90));
  }

  // Tracing cost: per query id, mean traced latency against mean untraced
  // latency, summed over the ids that ran both ways.
  std::map<int, std::array<double, 4>> by_q;  // traced sum, n, untraced sum, n
  for (std::size_t i = 0; i < q_.size(); ++i) {
    auto& s = by_q[q_[i]];
    s[traced_[i] ? 0 : 2] += real_ms_[i];
    s[traced_[i] ? 1 : 3] += 1;
  }
  double t = 0, u = 0;
  for (const auto& [id, s] : by_q) {
    if (s[1] == 0 || s[3] == 0) continue;
    t += s[0] / s[1];
    u += s[2] / s[3];
  }
  v_.Set("harness.trace_overhead_frac", u > 0 ? t / u - 1 : 0);

  for (const auto& [name, sum] : per_query_) {
    v_.Set(name, sum / static_cast<double>(std::max<std::size_t>(traced_queries_, 1)));
  }
  for (const auto& [name, sum] : per_epoch_) v_.Set(name, sum / kEpochs);
  if (traced_virt_ns_ > 0) {
    v_.Set("sim.real_over_virtual", traced_real_ns_ / traced_virt_ns_);
    for (const auto& [dev, ns] : device_busy_ns_) {
      v_.Set("ocl." + dev + ".busy_frac", ns / traced_virt_ns_);
    }
  }
  if (!w_.serve && dynamic_cast<ocelot::Scheduler*>(s_->session->engine()) != nullptr) {
    // A process-wide counter: untraced rounds merge too, so the bytes are
    // spread over every query of the run.
    v_.Set("sched.merge_mb_per_q",
           Mb(static_cast<double>(merge_bytes_)) / static_cast<double>(q_.size()));
  }
  if (grants_ > 0) {
    v_.Set("svc.arbiter_contended_frac",
           static_cast<double>(contended_) / static_cast<double>(grants_));
  }
  v_.CheckNames();
}

// --- Command line -----------------------------------------------------------------

int Usage(const std::string& msg) {
  std::fprintf(stderr,
               "%s\nusage: ocelot_benchmark --workload <name> --seed <n> [--trace 0|1]\n"
               "workloads:",
               msg.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::optional<std::uint64_t> seed;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + arg);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (val == w.name) workload = &w;
      }
      if (workload == nullptr) return Usage("unknown workload " + val);
    } else if (arg == "--seed") {
      seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return Usage("--seed takes an integer");
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return Usage("--trace takes 0 or 1");
      trace = val == "1";
    } else {
      return Usage("unknown argument " + arg);
    }
  }
  if (workload == nullptr || !seed) return Usage("--workload and --seed are required");

  const ocl::DeviceModel gpu = bench::TpchGpuModel();
  const ocl::DeviceModel cpu = bench::TpchCpuModel();
  cstore::EngineOptions models;
  models.gpu_model = &gpu;
  models.cpu_model = &cpu;
  Runner runner(*workload, *seed, trace, models);
  return runner.Run();
}
