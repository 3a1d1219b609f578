#include "perfbench/src/bench.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <functional>
#include <set>

#include "src/routing/spanning_tree.h"
#include "src/routing/updown.h"

namespace perfbench {

using autonet::Network;

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

std::int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

double WallSeconds() { return static_cast<double>(WallNs()) * 1e-9; }

double PeakRssMb() {
  // VmHWM belongs to this program's address space; getrusage's ru_maxrss
  // would also count the launching process's footprint from before exec.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

double CalibrationSeconds() {
  // Scattered appends into many small vectors, built and freed round after
  // round: allocation and cache misses, the resources a co-tenant's load
  // takes from the simulator too.
  constexpr int kRounds = 10;
  constexpr int kBuckets = 20000;
  constexpr int kAppends = 200000;
  const double c0 = CpuSeconds();
  std::uint64_t state = 1;
  std::size_t total = 0;
  for (int r = 0; r < kRounds; ++r) {
    std::vector<std::vector<int>> buckets(kBuckets);
    for (int i = 0; i < kAppends; ++i) {
      buckets[SplitMix64(&state) % kBuckets].push_back(i);
    }
    for (const auto& b : buckets) {
      total += b.size();
    }
  }
  const double spent = CpuSeconds() - c0;
  return total == static_cast<std::size_t>(kRounds) * kAppends ? spent : -1;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::uint64_t Fnv1a(std::uint64_t h, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t Fnv1a(std::uint64_t h, const std::string& s) {
  return Fnv1a(h, s.data(), s.size());
}

std::uint64_t HashMergedLog(const Network& net) {
  std::uint64_t h = kFnvBasis;
  for (const autonet::LogEntry& e : net.MergedLog()) {
    h = FnvValue(h, e.time);
    h = Fnv1a(h, e.node);
    h = Fnv1a(h, e.message);
  }
  return h;
}

std::string Hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- Tracer ---

int Tracer::Begin(const char* name, const char* layer) {
  spans_.push_back({name, layer, open_, WallNs(), -1});
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void Tracer::End(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = WallNs();
  open_ = spans_[static_cast<std::size_t>(id)].parent;
}

double Tracer::DurationMs(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return static_cast<double>(s.end_ns - s.begin_ns) / 1e6;
}

std::map<std::string, double> Tracer::SelfMs(int root) const {
  // Spans are appended in begin order and nest strictly, so a subtree is a
  // contiguous run of spans starting at its root.
  std::map<std::string, double> self;
  std::vector<bool> inside(spans_.size(), false);
  for (std::size_t i = static_cast<std::size_t>(root); i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    bool in = static_cast<int>(i) == root ||
              (s.parent >= 0 && inside[static_cast<std::size_t>(s.parent)]);
    if (!in) {
      break;
    }
    inside[i] = true;
    double ms = DurationMs(static_cast<int>(i));
    self[s.layer] += ms;
    if (static_cast<int>(i) != root) {
      self[spans_[static_cast<std::size_t>(s.parent)].layer] -= ms;
    }
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().begin_ns;
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name, s.layer,
                 static_cast<double>(s.begin_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.begin_ns) / 1e3, i, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// --- LayerCounts ---

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

LayerCounts LayerCounts::Read(Network& net) {
  LayerCounts c;
  auto& t = c.totals_;
  t["sim.events"] = static_cast<double>(net.sim().events_processed());

  // Per-switch registry counters survive switch restarts, so they are read
  // from the registry rather than from the (replaced) objects.
  static const std::vector<std::pair<std::string, std::string>> kCounters = {
      {".link.flow_stops", "link.flow_stops"},
      {".fabric.bytes_forwarded", "fabric.bytes_forwarded"},
      {".fabric.sched_grants", "fabric.sched_grants"},
      {".fabric.sched_blocked_cycles", "fabric.sched_blocked_cycles"},
      {".fabric.resets", "fabric.resets"},
      {".fabric.table_loads", "fabric.table_loads"},
      {".reconfig.triggers", "autopilot.triggers"},
      {".reconfig.epochs_joined", "autopilot.epochs_joined"},
      {".reconfig.messages_sent", "autopilot.reconfig_messages"},
      {".reconfig.retransmissions", "autopilot.retransmissions"},
  };
  for (const auto& [suffix, name] : kCounters) {
    t[name] = 0;
  }
  c.hwm_["fabric.fifo_hwm_bytes"] = 0;
  net.sim().metrics().Visit(
      "switch.", [&](const autonet::obs::MetricRegistry::Entry& e) {
        if (e.kind == autonet::obs::MetricKind::kGauge &&
            EndsWith(e.name, ".fifo_hwm_bytes")) {
          double& hwm = c.hwm_["fabric.fifo_hwm_bytes"];
          hwm = std::max(hwm, e.gauge.value());
          return;
        }
        if (e.kind != autonet::obs::MetricKind::kCounter) {
          return;
        }
        for (const auto& [suffix, name] : kCounters) {
          if (EndsWith(e.name, suffix)) {
            t[name] += static_cast<double>(e.counter.value());
          }
        }
      });

  t["host.tx_rejected_full"] = 0;
  t["host.rx_discarded_full"] = 0;
  t["host.failovers"] = 0;
  for (int h = 0; h < net.num_hosts(); ++h) {
    t["host.tx_rejected_full"] +=
        static_cast<double>(net.host_at(h).stats().tx_rejected_full);
    t["host.rx_discarded_full"] +=
        static_cast<double>(net.host_at(h).stats().rx_discarded_full);
    t["host.failovers"] +=
        static_cast<double>(net.driver_at(h).stats().failovers);
  }

  t["obs.flight_events"] = 0;
  t["obs.flight_truncated"] = 0;
  net.sim().flight().Visit([&](const autonet::obs::FlightRing& ring) {
    t["obs.flight_events"] += static_cast<double>(ring.total());
    t["obs.flight_truncated"] += static_cast<double>(ring.truncated());
  });

  for (int s = 0; s < net.num_switches(); ++s) {
    c.autopilots_.push_back(&net.autopilot_at(s));
    c.autopilot_stats_.push_back(net.autopilot_at(s).stats());
  }
  return c;
}

std::map<std::string, double> LayerCounts::Delta(
    const LayerCounts& before) const {
  std::map<std::string, double> d;
  for (const auto& [name, value] : totals_) {
    auto it = before.totals_.find(name);
    d[name] = value - (it == before.totals_.end() ? 0 : it->second);
  }
  for (const auto& [name, value] : hwm_) {
    d[name] = value;
  }
  // A restarted switch runs a fresh Autopilot: its stats start over (the
  // object may even reuse the old address, so a counter that went backwards
  // also marks a restart).
  auto since = [](std::uint64_t now, std::uint64_t then, bool same) {
    return static_cast<double>(same && now >= then ? now - then : now);
  };
  double probe_timeouts = 0;
  double port_deaths = 0;
  for (std::size_t s = 0; s < autopilots_.size(); ++s) {
    const autonet::Autopilot::Stats& now = autopilot_stats_[s];
    bool same = s < before.autopilots_.size() &&
                before.autopilots_[s] == autopilots_[s];
    const autonet::Autopilot::Stats then =
        same ? before.autopilot_stats_[s] : autonet::Autopilot::Stats{};
    probe_timeouts += since(now.probe_timeouts, then.probe_timeouts, same);
    port_deaths += since(now.port_deaths, then.port_deaths, same);
  }
  d["autopilot.probe_timeouts"] = probe_timeouts;
  d["autopilot.port_deaths"] = port_deaths;
  double switches = static_cast<double>(autopilots_.size());
  d["autopilot.epochs_joined_per_switch"] =
      switches > 0 ? d["autopilot.epochs_joined"] / switches : 0;
  d.erase("autopilot.epochs_joined");
  return d;
}

void AddWindow(Rep* rep, double cpu_s, double sim_s, double ops,
               double payload_bytes) {
  if (cpu_s <= 0 || sim_s <= 0) {
    return;
  }
  rep->cpu_s_per_sim_s.push_back(cpu_s / sim_s);
  rep->payload_mb_per_cpu_s.push_back(payload_bytes / 1e6 / cpu_s);
  rep->ops_per_cpu_s.push_back(ops / cpu_s);
}

void Calibrate(Rep* rep, int calls) {
  for (int i = 0; i < calls; ++i) {
    rep->calibration.push_back(CalibrationSeconds());
  }
}

Convergence JudgeConvergence(Network& net, autonet::Tick start,
                             autonet::Tick deadline) {
  Convergence c;
  autonet::Tick now = net.sim().now();
  c.converged = now < deadline && net.CheckConsistency().empty();
  c.ms = static_cast<double>((c.converged ? now : deadline) - start) / 1e6;
  return c;
}

std::unique_ptr<Network> SetUp(const autonet::TopoSpec& spec, Tracer* tracer,
                               Rep* rep, std::string* error) {
  const double c0 = CpuSeconds();
  std::unique_ptr<Network> net;
  {
    Scope phase(tracer, "build", "bench");
    Scope call(tracer, "Network::Network", "core");
    net = std::make_unique<Network>(spec);
  }
  const double b0 = CpuSeconds();
  {
    Scope phase(tracer, "boot", "bench");
    autonet::Tick start = net->sim().now();
    autonet::Tick deadline = start + 300 * autonet::kSecond;
    {
      Scope call(tracer, "Network::Boot", "core");
      net->Boot();
    }
    {
      Scope call(tracer, "Network::WaitForConsistency", "core");
      net->WaitForConsistency(deadline);
    }
    if (!JudgeConvergence(*net, start, deadline).converged) {
      *error = "boot: no consistent configuration before the deadline";
    } else {
      Scope call(tracer, "Network::WaitForHostsRegistered", "core");
      if (!net->WaitForHostsRegistered(net->sim().now() +
                                       30 * autonet::kSecond)) {
        *error = "boot: hosts did not register";
      }
    }
  }
  rep->boot_s += CpuSeconds() - b0;
  rep->setup_s += CpuSeconds() - c0;
  return net;
}

// --- routing ---

RoutingTimes TimeRouting(Network& net) {
  RoutingTimes times;
  const autonet::NetTopology* topo = nullptr;
  for (int s = 0; s < net.num_switches() && topo == nullptr; ++s) {
    if (net.switch_alive(s) && net.autopilot_at(s).topology().has_value()) {
      topo = &*net.autopilot_at(s).topology();
    }
  }
  if (topo == nullptr || topo->size() == 0) {
    return times;
  }
  // The calls take microseconds, so each is repeated and the median kept.
  constexpr int kRepeats = 25;
  std::vector<double> tree_us;
  std::vector<double> table_us;
  std::uint64_t sink = 0;
  autonet::SpanningTree tree;
  for (int r = 0; r < kRepeats; ++r) {
    double t0 = WallSeconds();
    tree = autonet::ComputeSpanningTree(*topo);
    tree_us.push_back((WallSeconds() - t0) * 1e6);
    sink += static_cast<std::uint64_t>(tree.Depth());
  }
  for (int r = 0; r < kRepeats; ++r) {
    int self = r % topo->size();
    double t0 = WallSeconds();
    autonet::ForwardingTable table =
        autonet::BuildForwardingTable(*topo, tree, self);
    table_us.push_back((WallSeconds() - t0) * 1e6);
    sink += static_cast<std::uint64_t>(sizeof table);
  }
  // Keeps the computed results observable so the calls are not elided.
  if (sink == 0) {
    std::fprintf(stderr, "routing: empty results\n");
  }
  times.spanning_tree_us = Median(tree_us);
  times.forwarding_table_us = Median(table_us);
  return times;
}

// --- the repetition loop and the result ---

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
  bool host_time;  // measured on the host (median of reps), else simulated
};

const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s", "lower", true},
      {"cpu_s_per_sim_s", "s/s", "lower", true},
      {"payload_mb_per_cpu_s", "MB/s", "higher", true},
      {"ops_per_cpu_s", "1/s", "higher", true},
      {"peak_rss_mb", "MB", "lower", true},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& LayerSpecs() {
  static const std::vector<MetricSpec> kSpecs = {
      {"sim.events", "count", "lower", false},
      {"sim.events_per_payload_byte_hop", "1/B", "lower", false},
      {"sim.events_per_rpc_op", "count", "lower", false},
      {"sim.events_per_cpu_s", "1/s", "higher", true},
      {"link.flow_stops", "count", "lower", false},
      {"fabric.bytes_forwarded", "B", "lower", false},
      {"fabric.sched_grants", "count", "lower", false},
      {"fabric.sched_blocked_cycles", "count", "lower", false},
      {"fabric.fifo_hwm_bytes", "B", "lower", false},
      {"fabric.resets", "count", "lower", false},
      {"fabric.table_loads", "count", "lower", false},
      {"host.tx_rejected_full", "count", "lower", false},
      {"host.rx_discarded_full", "count", "lower", false},
      {"host.failovers", "count", "lower", false},
      {"workload.ops", "count", "higher", false},
      {"workload.timeouts", "count", "lower", false},
      {"workload.useful_ratio", "ratio", "higher", false},
      {"workload.outage_ms", "ms", "lower", false},
      {"workload.p50_ms", "ms", "lower", false},
      {"workload.p999_ms", "ms", "lower", false},
      {"workload.recovery_p999_ms", "ms", "lower", false},
      {"autopilot.triggers", "count", "lower", false},
      {"autopilot.epochs_joined_per_switch", "count", "lower", false},
      {"autopilot.reconfig_messages", "count", "lower", false},
      {"autopilot.retransmissions", "count", "lower", false},
      {"autopilot.probe_timeouts", "count", "lower", false},
      {"autopilot.port_deaths", "count", "lower", false},
      {"autopilot.reconfig_ms", "ms", "lower", false},
      {"core.converge_ms", "ms", "lower", false},
      {"core.converge_censored", "count", "lower", false},
      {"core.boot_ms", "ms", "lower", true},
      {"routing.spanning_tree_us", "us", "lower", true},
      {"routing.forwarding_table_us", "us", "lower", true},
      {"chaos.runs_failed", "count", "lower", false},
      {"chaos.oracle.convergence_ms", "ms", "lower", true},
      {"chaos.oracle.epochs_ms", "ms", "lower", true},
      {"chaos.oracle.routes_ms", "ms", "lower", true},
      {"chaos.oracle.deadlock_ms", "ms", "lower", true},
      {"chaos.oracle.delivery_ms", "ms", "lower", true},
      {"chaos.oracle.ports_ms", "ms", "lower", true},
      {"obs.fingerprint_ms", "ms", "lower", true},
      {"obs.flight_events", "count", "lower", false},
      {"obs.flight_truncated", "count", "lower", false},
      {"bench.self_ms", "ms", "lower", true},
      {"core.self_ms", "ms", "lower", true},
      {"workload.self_ms", "ms", "lower", true},
      {"chaos.self_ms", "ms", "lower", true},
      {"routing.self_ms", "ms", "lower", true},
      {"obs.self_ms", "ms", "lower", true},
      {"bench.trace_overhead_ratio", "ratio", "lower", true},
      {"bench.span_coverage", "ratio", "higher", true},
  };
  return kSpecs;
}

// Layers the spans name; every one reports a self time.
const char* const kLayers[] = {"bench", "core", "workload",
                               "chaos", "routing", "obs"};

constexpr std::size_t kSetupSamples = 101;

// Calibration: kernel calls before the set-ups and before every rep, and the
// kernel's CPU time on the reference machine state (a quiet 4-vCPU Xeon VM
// at 2.0 GHz), so calibrated values read as CPU seconds there.
constexpr int kCalibrationCalls = 4;
constexpr double kCalibrationReferenceS = 0.08;

// The traced run must account for its time: the benchmark's own glue
// between spans may take at most this share of a traced rep.
constexpr double kMinSpanCoverage = 0.95;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int RunBenchmark(const Options& options, Workload* workload) {
  Tracer tracer;
  std::vector<Rep> reps;
  std::vector<std::string> errors;

  // End-to-end host times are scaled by a calibration kernel timed between
  // and inside reps (see CalibrationSeconds), to the machine speed at which
  // the kernel takes kCalibrationReferenceS.
  Rep between;  // holds the calibrations taken between reps
  auto calibrate = [&between] { Calibrate(&between, kCalibrationCalls); };

  // setup_s is a median over every untraced rep's set-up plus extra set-ups
  // made first, up to kSetupSamples or a tenth of the run's time.
  const double start = WallSeconds();
  calibrate();
  std::vector<double> setups;
  while (!options.trace && setups.size() < kSetupSamples &&
         WallSeconds() - start < options.seconds / 10) {
    setups.push_back(workload->SetupOnce());
  }

  // In a traced run reps come in pairs with equal inputs, one traced and one
  // not, alternating which runs first, so the pair gives the overhead.
  const int min_reps = options.trace ? 4 : 3;
  for (int k = 0;; ++k) {
    int pair = k / 2;
    int index = options.trace ? pair : k;
    bool traced = options.trace && (k % 2) != (pair % 2);
    calibrate();
    double w0 = WallSeconds();
    Rep rep = workload->Run(index, traced ? &tracer : nullptr);
    double took = WallSeconds() - w0;
    rep.traced = traced;
    std::printf(
        "rep %d input %d%s: setup %.6f s, timed %.4f cpu-s over %.6f sim-s, "
        "fingerprint %s\n",
        k, rep.input, traced ? " traced" : "", rep.setup_s, rep.timed_cpu_s,
        rep.sim_s, Hex(rep.fingerprint).c_str());
    std::fflush(stdout);
    reps.push_back(std::move(rep));
    bool pair_done = !options.trace || k % 2 == 1;
    double elapsed = WallSeconds() - start;
    double next = options.trace && pair_done ? 2 * took : took;
    if (pair_done && k + 1 >= min_reps && elapsed + next > options.seconds) {
      break;
    }
  }
  workload->Verify(&errors);

  // Determinism: equal inputs must give identical simulations, traced or not.
  std::map<int, std::uint64_t> fingerprint_of;
  for (const Rep& rep : reps) {
    auto [it, fresh] = fingerprint_of.emplace(rep.input, rep.fingerprint);
    if (!fresh && it->second != rep.fingerprint) {
      errors.push_back("input " + std::to_string(rep.input) +
                       ": fingerprint " + Hex(rep.fingerprint) +
                       " differs from an earlier rep's " + Hex(it->second));
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::set<std::string> failures;
  for (const Rep& rep : reps) {
    attempted += rep.attempted;
    failed += rep.failed;
    for (const std::string& e : rep.errors) {
      errors.push_back(e);
    }
    failures.insert(rep.failures.begin(), rep.failures.end());
  }

  std::vector<const Rep*> plain;
  std::vector<const Rep*> traced;
  for (const Rep& rep : reps) {
    (rep.traced ? traced : plain).push_back(&rep);
  }
  auto median_of = [](const std::vector<const Rep*>& set,
                      const std::function<double(const Rep&)>& f) {
    std::vector<double> v;
    for (const Rep* r : set) {
      v.push_back(f(*r));
    }
    return Median(v);
  };

  std::map<std::string, double> values;
  for (const Rep* r : plain) {
    setups.push_back(r->setup_s);
  }
  std::vector<double> calibration = between.calibration;
  for (const Rep& rep : reps) {
    calibration.insert(calibration.end(), rep.calibration.begin(),
                       rep.calibration.end());
  }
  const double calibration_s = Median(calibration);
  const double scale = kCalibrationReferenceS / calibration_s;
  if (!(calibration_s > 0)) {
    errors.push_back("calibration kernel failed");
  }
  values["setup_s"] = Median(setups) * scale;
  auto windows = [&plain](std::vector<double> Rep::*samples) {
    std::vector<double> all;
    for (const Rep* r : plain) {
      all.insert(all.end(), (r->*samples).begin(), (r->*samples).end());
    }
    return all;
  };
  std::vector<double> cpu_per_sim = windows(&Rep::cpu_s_per_sim_s);
  values["cpu_s_per_sim_s"] = Median(cpu_per_sim) * scale;
  values["payload_mb_per_cpu_s"] =
      Median(windows(&Rep::payload_mb_per_cpu_s)) / scale;
  values["ops_per_cpu_s"] = Median(windows(&Rep::ops_per_cpu_s)) / scale;
  values["peak_rss_mb"] = PeakRssMb();

  std::map<std::string, double> layer;
  if (options.trace) {
    // Simulated counts come from the first traced rep (they repeat exactly
    // for a seed); host times are medians over the traced reps.
    for (const MetricSpec& spec : LayerSpecs()) {
      layer[spec.name] = 0;
    }
    for (const auto& [name, value] : traced.front()->layer) {
      layer[name] = value;
    }
    std::map<std::string, std::vector<double>> host;
    std::vector<double> coverage;
    for (const Rep* r : traced) {
      for (const auto& [name, value] : r->layer) {
        host[name].push_back(value);
      }
      auto events = r->layer.find("sim.events");
      if (events != r->layer.end() && r->timed_cpu_s > 0) {
        host["sim.events_per_cpu_s"].push_back(events->second /
                                               r->timed_cpu_s);
      }
      std::map<std::string, double> self = tracer.SelfMs(r->root_span);
      for (const char* l : kLayers) {
        host[std::string(l) + ".self_ms"].push_back(self[l]);
      }
      double total = tracer.DurationMs(r->root_span);
      coverage.push_back(total > 0 ? 1.0 - self["bench"] / total : 0);
    }
    for (const MetricSpec& spec : LayerSpecs()) {
      if (spec.host_time && host.count(spec.name) > 0) {
        layer[spec.name] = Median(host[spec.name]);
      }
    }
    // The benchmark's own work (phase glue, checks) is the "bench" self
    // time; the library's layers must account for the rest of every traced
    // rep.
    layer["bench.span_coverage"] = Median(coverage);
    double worst = *std::min_element(coverage.begin(), coverage.end());
    if (worst < kMinSpanCoverage) {
      errors.push_back("layer self times cover only " + Number(worst) +
                       " of a traced rep (need " + Number(kMinSpanCoverage) +
                       ")");
    }
    std::vector<double> overhead;
    for (std::size_t i = 0; i + 1 < reps.size(); i += 2) {
      const Rep& a = reps[i];
      const Rep& b = reps[i + 1];
      const Rep& t = a.traced ? a : b;
      const Rep& u = a.traced ? b : a;
      overhead.push_back(t.timed_cpu_s / u.timed_cpu_s);
    }
    layer["bench.trace_overhead_ratio"] = Median(overhead);
    std::printf(
        "tracing: timed phase median %.4f cpu-s traced vs %.4f untraced "
        "(ratio %.4f over %zu pairs), spans cover %.4f of traced reps\n",
        median_of(traced, [](const Rep& r) { return r.timed_cpu_s; }),
        median_of(plain, [](const Rep& r) { return r.timed_cpu_s; }),
        layer["bench.trace_overhead_ratio"], overhead.size(),
        layer["bench.span_coverage"]);
    if (!options.trace_path.empty() && !tracer.Write(options.trace_path)) {
      errors.push_back("cannot write spans to " + options.trace_path);
    } else if (!options.trace_path.empty()) {
      std::printf("spans: %zu written to %s\n", tracer.size(),
                  options.trace_path.c_str());
    }
  }

  // Human-readable report: simulated results per distinct input, failed
  // operations with their reproducers, then every metric by name.
  std::map<std::string, std::string> paper_units = workload->PaperUnits();
  std::set<int> shown;
  for (const Rep& rep : reps) {
    if (!shown.insert(rep.input).second) {
      continue;
    }
    std::printf("simulated, input %d:", rep.input);
    for (const auto& [name, value] : rep.paper) {
      std::printf(" %s=%.17g%s", name.c_str(), value,
                  paper_units.count(name) ? (" " + paper_units[name]).c_str()
                                          : "");
    }
    std::printf("\n");
  }
  for (const std::string& f : failures) {
    std::printf("failed: %s\n", f.c_str());
  }
  for (const std::string& e : errors) {
    std::printf("check failed: %s\n", e.c_str());
  }
  std::printf(
      "calibration: kernel median %.6f cpu-s over %zu calls; end-to-end host "
      "times scaled by %.4f (raw: setup_s %.6g, cpu_s_per_sim_s %.6g, "
      "payload_mb_per_cpu_s %.6g, ops_per_cpu_s %.6g)\n",
      calibration_s, calibration.size(), scale, values["setup_s"] / scale,
      values["cpu_s_per_sim_s"] / scale, values["payload_mb_per_cpu_s"] * scale,
      values["ops_per_cpu_s"] * scale);
  std::printf(
      "reps: %zu untraced, %zu traced; %zu set-ups, %zu windows; attempted "
      "%llu, failed %llu\n",
      plain.size(), traced.size(), setups.size(), cpu_per_sim.size(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  // Equal across runs of a seed, and across builds that change only
  // host-side speed.
  for (const auto& [input, fp] : fingerprint_of) {
    std::printf("simulation fingerprint, input %d: %s\n", input,
                Hex(fp).c_str());
  }
  for (const MetricSpec& spec : EndToEndSpecs()) {
    std::printf("%-36s %.17g %s\n", spec.name, values[spec.name], spec.unit);
  }
  if (options.trace) {
    for (const MetricSpec& spec : LayerSpecs()) {
      std::printf("%-36s %.17g %s\n", spec.name, layer[spec.name], spec.unit);
    }
  }


  const std::vector<MetricSpec>& specs =
      options.trace ? LayerSpecs() : EndToEndSpecs();
  const std::map<std::string, double>& chosen = options.trace ? layer : values;
  std::string json = "{\"correct\": ";
  json += errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    json += (i ? ", " : "") + JsonString(errors[i]);
  }
  json += "], \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const MetricSpec& spec = specs[i];
    json += (i ? ", " : "") + JsonString(spec.name) +
            ": {\"value\": " + Number(chosen.at(spec.name)) +
            ", \"unit\": " + JsonString(spec.unit) +
            ", \"better\": " + JsonString(spec.better) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace perfbench
