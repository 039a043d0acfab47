// perfbench: the repository benchmark (perfbench/README.md).
//
// Runs one named campaign workload through core::FleetExecutor as a
// closed loop with one client: hand the plan to Run, render the three
// fleet reports, check every report byte against a reference, then
// submit the next campaign. End-to-end metrics come from untraced
// campaigns; with --trace 1 one more campaign runs with the span tracer
// on and the per-layer metrics are rolled up from its spans, the
// metrics registry and the job results. Every number is measured from
// outside the library, around calls into its public API.
//
//   perfbench --workload crawl_roster --seed 7 --seconds 10 --trace 0
//             [--size full|tiny] [--scratch DIR]
//             [--reference FILE] [--reference-out FILE]
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is 0 only when every output and exact work counter
// matched the reference.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/export.h"
#include "browser/profiles.h"
#include "core/fleet.h"
#include "core/result_cache.h"
#include "device/population.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "util/clock.h"
#include "util/json.h"
#include "util/rng.h"
#include "web/catalog.h"

using namespace panoptes;

namespace {

namespace fs = std::filesystem;

constexpr uint64_t kDefaultSeed = 20231024;
// population_spill's per-job live-store budget: small enough that every
// capture goes through the spill path.
constexpr uint64_t kSpillBudgetBytes = 8192;

// Taken during static initialisation, before main.
const int64_t g_process_start_ns = util::SteadyNowNanos();

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(util::SteadyNowNanos() - start_ns) * 1e-9;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// Starts VmHWM afresh from the current RSS, so that PeakRssMib covers
// only what runs after this call. A no-op where /proc is unavailable.
void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

// VmHWM of this process in MiB; 0 where /proc is unavailable.
double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank quantile, the definition FleetRunStats uses.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  if (rank < 1) rank = 1;
  return values[rank - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Fleet workers: min(4, nproc), the load model's fixed client size.
int FleetWorkers() {
  int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cores, 1, 4);
}

// ---------------------------------------------------------------------
// Command line.

struct Config {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  fs::path scratch;
  fs::path reference;
  fs::path reference_out;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload crawl_roster|population_spill|"
               "warm_replay --seed N --seconds S --trace 0|1\n"
               "                 [--size full|tiny] [--scratch DIR] "
               "[--reference FILE] [--reference-out FILE]\n",
               message);
  std::exit(2);
}

Config ParseArgs(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + key).c_str());
    std::string value = argv[++i];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--size") {
      if (value != "full" && value != "tiny") Usage("--size is full or tiny");
      config.tiny = value == "tiny";
    } else if (key == "--scratch") {
      config.scratch = value;
    } else if (key == "--reference") {
      config.reference = value;
    } else if (key == "--reference-out") {
      config.reference_out = value;
    } else {
      Usage(("unknown argument " + key).c_str());
    }
  }
  if (config.workload != "crawl_roster" &&
      config.workload != "population_spill" &&
      config.workload != "warm_replay") {
    Usage("unknown --workload");
  }
  if (config.scratch.empty()) config.scratch = ".bench_build/scratch";
  return config;
}

// ---------------------------------------------------------------------
// Workloads. Sizes are the ones perfbench/README.md documents; --size
// tiny shrinks every dimension for the self-test.

enum class CacheMode { kNone, kCold, kWarm };

struct Workload {
  core::FleetOptions options;  // cache_dir is set per campaign
  std::vector<core::FleetJob> plan;
  CacheMode cache = CacheMode::kNone;
  fs::path cache_dir;
  fs::path spill_dir;
};

Workload MakeWorkload(const Config& config) {
  Workload w;
  w.options.jobs = FleetWorkers();
  w.options.base_seed = config.seed;
  web::CatalogOptions& catalog = w.options.framework.catalog;
  if (config.workload == "population_spill") {
    // Three sites are too few to average out: a catalog drawn from the
    // run seed changes the campaign's work by up to 40% between seeds
    // (25.8 to 35.1 flows per visit). The web is therefore part of the
    // workload's definition, drawn from the default seed; the cohorts
    // and every job's runtime seed still come from --seed.
    catalog.popular_count = 2;
    catalog.sensitive_count = 1;
    w.options.framework.catalog_seed = kDefaultSeed;
    w.spill_dir = config.scratch / "spill";
    core::CrawlOptions crawl;
    crawl.stream.memory_budget_bytes = kSpillBudgetBytes;
    crawl.stream.spill_dir = w.spill_dir.string();
    auto cohorts = device::PopulationGenerator::Generate(
        config.tiny ? 24 : 2000, config.seed);
    w.plan = core::FleetExecutor::PlanCampaign(
        {*browser::FindSpec("DuckDuckGo")}, cohorts,
        {core::CampaignKind::kCrawl}, 1, crawl);
    return w;
  }
  // crawl_roster and warm_replay share one plan: the paper's campaign.
  int sites = config.tiny ? 12 : 200;
  catalog.popular_count = sites / 2;
  catalog.sensitive_count = sites - sites / 2;
  catalog.sitegen.bounce_fraction = 0.3;
  catalog.sitegen.decoration_fraction = 0.3;
  std::vector<browser::BrowserSpec> browsers = browser::AllBrowserSpecs();
  if (config.tiny) browsers.resize(3);
  w.plan = core::FleetExecutor::PlanCampaign(
      browsers,
      {core::CampaignKind::kCrawl, core::CampaignKind::kIncognitoCrawl,
       core::CampaignKind::kIdle},
      config.tiny ? 2 : 4);
  w.cache = config.workload == "crawl_roster" ? CacheMode::kCold
                                              : CacheMode::kWarm;
  w.cache_dir = config.scratch / "cache";
  return w;
}

// ---------------------------------------------------------------------
// One campaign.

// Deterministic outcome of a campaign: report checksums and exact work
// counts. Two runs of the same plan must produce equal maps at any
// worker count.
using Exact = std::map<std::string, uint64_t>;

struct Campaign {
  Exact exact;
  size_t jobs = 0;
  size_t quarantined = 0;
  int workers = 0;
  double campaign_s = 0;
  double run_s = 0;
  double merge_s = 0;
  double json_s = 0;
  double csv_s = 0;
  double smuggling_s = 0;
  double cpu_s = 0;
  std::vector<double> job_seconds;
  double result_mib = 0;
  double snapshot_write_ms = 0;
  double snapshot_read_ms = 0;
  double index_build_ms = 0;
};

uint64_t CounterValue(std::string_view name) {
  return obs::MetricsRegistry::Default().GetCounter(name).Value();
}

double HistogramMeanMs(std::string_view name) {
  const obs::Histogram& h =
      obs::MetricsRegistry::Default().GetHistogram(name);
  return h.Count() > 0 ? 1e3 * h.Sum() / static_cast<double>(h.Count()) : 0;
}

uint64_t StoreBytes(const std::unique_ptr<proxy::FlowStore>& store) {
  return store ? store->MemoryUsage() : 0;
}

// Runs the workload's plan once. `serial` selects the one-worker
// RunSerial reference path. Cache and spill directories are prepared
// before the clock starts; the timed region is Run plus MergeShards and
// the three renderers.
Campaign RunCampaign(const Workload& w, bool serial, bool fresh_cache) {
  std::error_code ec;
  if (!w.spill_dir.empty()) {
    fs::remove_all(w.spill_dir, ec);
    fs::create_directories(w.spill_dir);
  }
  core::FleetOptions options = w.options;
  if (w.cache != CacheMode::kNone) {
    if (fresh_cache) fs::remove_all(w.cache_dir, ec);
    options.cache_dir = w.cache_dir.string();
  }
  if (serial) options.jobs = 1;
  core::FleetExecutor executor(options);
  obs::MetricsRegistry::Default().Reset();

  Campaign c;
  c.jobs = w.plan.size();
  core::FleetRunStats stats;
  const double cpu_start = CpuSeconds();
  const int64_t run_start = util::SteadyNowNanos();
  std::vector<core::FleetJobResult> results;
  {
    obs::ScopedSpan span("bench.run", "bench");
    results = serial ? executor.RunSerial(w.plan, &stats)
                     : executor.Run(w.plan, &stats);
  }
  c.run_s = SecondsSince(run_start);

  // Per-job accounting, outside the timed region: MergeShards drops
  // quarantined shards and per-job identity.
  uint64_t visits = 0, sends = 0, result_bytes = 0;
  core::IngestStats ingest;
  for (const auto& r : results) {
    if (r.quarantined) ++c.quarantined;
    if (r.crawl) {
      visits += r.crawl->visits.size();
      sends += r.crawl->stack_stats.sends;
      ingest.Accumulate(r.crawl->ingest);
      result_bytes +=
          StoreBytes(r.crawl->engine_flows) + StoreBytes(r.crawl->native_flows);
    }
    if (r.idle) {
      ingest.Accumulate(r.idle->ingest);
      result_bytes += StoreBytes(r.idle->native_flows);
    }
  }

  const int64_t post_start = util::SteadyNowNanos();
  std::vector<core::FleetJobResult> merged;
  {
    obs::ScopedSpan span("bench.merge", "bench");
    merged = core::FleetExecutor::MergeShards(std::move(results));
  }
  const int64_t merged_at = util::SteadyNowNanos();
  std::string json, csv, smuggling;
  {
    obs::ScopedSpan span("bench.report_json", "bench");
    json = analysis::FleetReportJson(merged);
  }
  const int64_t json_at = util::SteadyNowNanos();
  {
    obs::ScopedSpan span("bench.report_csv", "bench");
    csv = analysis::FleetSummaryCsv(merged);
  }
  const int64_t csv_at = util::SteadyNowNanos();
  {
    obs::ScopedSpan span("bench.report_smuggling", "bench");
    smuggling = analysis::UidSmugglingReportJson(merged);
  }
  const int64_t done_at = util::SteadyNowNanos();
  c.cpu_s = CpuSeconds() - cpu_start;
  c.merge_s = static_cast<double>(merged_at - post_start) * 1e-9;
  c.json_s = static_cast<double>(json_at - merged_at) * 1e-9;
  c.csv_s = static_cast<double>(csv_at - json_at) * 1e-9;
  c.smuggling_s = static_cast<double>(done_at - csv_at) * 1e-9;
  c.campaign_s = c.run_s + static_cast<double>(done_at - post_start) * 1e-9;
  c.workers = stats.workers;
  c.job_seconds = std::move(stats.job_seconds);
  c.result_mib = static_cast<double>(result_bytes) / (1024.0 * 1024.0);
  c.snapshot_write_ms =
      HistogramMeanMs("panoptes_cache_snapshot_write_seconds");
  c.snapshot_read_ms = HistogramMeanMs("panoptes_cache_snapshot_read_seconds");
  c.index_build_ms = HistogramMeanMs("panoptes_index_build_seconds");

  Exact& e = c.exact;
  e["report.json_fnv"] = util::HashString(json);
  e["report.csv_fnv"] = util::HashString(csv);
  e["report.smuggling_fnv"] = util::HashString(smuggling);
  e["report.bytes"] = json.size() + csv.size() + smuggling.size();
  e["jobs"] = c.jobs;
  e["quarantined"] = c.quarantined;
  e["visits"] = visits;
  e["netstack.sends"] = sends;
  e["ingest.spill_segments"] = ingest.spill_segments;
  e["ingest.spill_bytes"] = ingest.spill_bytes;
  e["ingest.backpressure_stalls"] = ingest.backpressure_stalls;
  e["ingest.flows_lost"] = ingest.flows_lost;
  e["registry.visits"] = CounterValue("panoptes_core_visits_total");
  e["registry.proxy_flows"] = CounterValue("panoptes_proxy_flows_total");
  e["registry.proxy_response_bytes"] =
      CounterValue("panoptes_proxy_response_bytes_total");
  e["registry.proxy_forged_certs"] =
      CounterValue("panoptes_proxy_forged_certs_total");
  uint64_t probes = 0, hits = 0, snapshot_bytes = 0;
  if (const core::ResultCache* cache = executor.cache()) {
    core::CacheStats cs = cache->Stats();
    hits = cs.hits;
    probes = cs.hits + cs.misses + cs.invalidated;
    for (const auto& entry : fs::directory_iterator(w.cache_dir)) {
      if (entry.path().extension() == ".snap") {
        snapshot_bytes += entry.file_size();
      }
    }
  }
  e["cache.hits"] = hits;
  e["cache.probes"] = probes;
  e["snapshot.bytes"] = snapshot_bytes;
  return c;
}

// ---------------------------------------------------------------------
// Reference: recorded for the default seed (perfbench/reference.json),
// else computed in set-up with the one-worker RunSerial path.

std::optional<Exact> LoadReference(const fs::path& file,
                                   const std::string& workload) {
  std::ifstream in(file);
  if (!in) return std::nullopt;
  std::stringstream text;
  text << in.rdbuf();
  auto root = util::Json::Parse(text.str());
  if (!root) return std::nullopt;
  const util::Json* entry = root->Find(workload);
  if (entry == nullptr || !entry->is_object()) return std::nullopt;
  Exact exact;
  for (const auto& [key, value] : entry->as_object()) {
    if (!value.is_string()) return std::nullopt;
    exact[key] = std::strtoull(value.as_string().c_str(), nullptr, 10);
  }
  return exact;
}

std::string ExactJson(const Exact& exact) {
  util::JsonObject object;
  for (const auto& [key, value] : exact) object[key] = std::to_string(value);
  return util::Json(std::move(object)).Dump();
}

// Names the keys on which `got` differs from `want`; empty when equal.
std::string Diff(const Exact& want, const Exact& got) {
  std::string out;
  for (const auto& [key, value] : want) {
    auto it = got.find(key);
    if (it == got.end() || it->second != value) {
      out += " " + key + "=" +
             (it == got.end() ? std::string("missing")
                              : std::to_string(it->second)) +
             "(want " + std::to_string(value) + ")";
    }
  }
  for (const auto& [key, value] : got) {
    if (!want.count(key)) out += " " + key + " unexpected";
  }
  return out;
}

bool SameOutputs(const Exact& a, const Exact& b) {
  for (const char* key : {"report.json_fnv", "report.csv_fnv",
                          "report.smuggling_fnv", "report.bytes"}) {
    if (a.at(key) != b.at(key)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// Span rollup for the traced campaign.

struct SpanTotals {
  std::string category;
  uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
  std::vector<double> durations;
};

// Self time per span name: a span's duration minus the time its direct
// children cover. Spans nest per thread (RAII), so a start-ordered
// stack walk per tid recovers the parent of every span.
std::map<std::string, SpanTotals> Rollup(std::vector<obs::SpanEvent> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const obs::SpanEvent& a, const obs::SpanEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.duration_ns > b.duration_ns;
            });
  std::vector<int64_t> child_ns(spans.size(), 0);
  std::vector<size_t> open;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0 && spans[i].tid != spans[i - 1].tid) open.clear();
    while (!open.empty() && spans[open.back()].start_ns +
                                    spans[open.back()].duration_ns <=
                                spans[i].start_ns) {
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += spans[i].duration_ns;
    open.push_back(i);
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    t.category = spans[i].category;
    double seconds = static_cast<double>(spans[i].duration_ns) * 1e-9;
    t.count += 1;
    t.total_s += seconds;
    t.self_s += std::max(0.0, seconds - static_cast<double>(child_ns[i]) *
                                            1e-9);
    t.durations.push_back(seconds);
  }
  return totals;
}

// The src/ module a span's self time belongs to; empty for spans whose
// self time is a thread blocked on others (the Run wrappers on the
// calling thread).
std::string LayerOf(const std::string& name, const std::string& category) {
  if (name == "bench.run" || name == "fleet.run" ||
      name == "fleet.run_serial") {
    return "";
  }
  if (name == "bench.merge") return "core";
  if (category == "fleet" || category == "campaign") return "core";
  return "analysis";  // index, battery, analysis and bench.report_* spans
}

// ---------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Config config = ParseArgs(argc, argv);
  obs::Tracer& tracer = obs::Tracer::Default();
  tracer.SetEnabled(false);
  // Result cache and spill segments live here for the whole run.
  struct ScratchDir {
    fs::path path;
    explicit ScratchDir(fs::path p) : path(std::move(p)) {
      std::error_code ec;
      fs::remove_all(path, ec);
      fs::create_directories(path);
    }
    ~ScratchDir() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;
  } scratch(config.scratch);

  const Workload w = MakeWorkload(config);
  std::fprintf(stderr, "perfbench: %s seed %" PRIu64 ", %zu jobs, %d workers\n",
               config.workload.c_str(), config.seed, w.plan.size(),
               FleetWorkers());

  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  auto check = [&](const char* what, const Exact& got, const Exact& want) {
    std::string diff = Diff(want, got);
    if (!diff.empty()) {
      std::fprintf(stderr, "perfbench: %s mismatch:%s\n", what, diff.c_str());
      correct = false;
    }
    return diff.empty();
  };

  // --- Set-up: reference, cache priming, warm-up -----------------------
  // Every seed computes a reference with the one-worker RunSerial path,
  // so set-up does the same work whatever the seed. At the default seed
  // the timed campaigns are checked against the reference recorded in
  // perfbench/reference.json (keyed by workload and size), and the
  // one-worker run must equal it too; at any other seed they are checked
  // against the one-worker run. Either way the parallel campaigns
  // reproduce the one-worker map: the 1-vs-N-worker gate.
  auto reference_key = [&](const std::string& workload) {
    return config.tiny ? workload + "/tiny" : workload;
  };
  const bool recording = !config.reference_out.empty();
  std::optional<Exact> recorded;
  std::optional<Exact> roster_recorded;
  if (config.seed == kDefaultSeed && !recording) {
    recorded = LoadReference(config.reference, reference_key(config.workload));
    roster_recorded =
        LoadReference(config.reference, reference_key("crawl_roster"));
    if (!recorded || (w.cache == CacheMode::kWarm && !roster_recorded)) {
      std::fprintf(stderr, "perfbench: no recorded reference for %s in %s\n",
                   reference_key(config.workload).c_str(),
                   config.reference.c_str());
      correct = false;
    }
  }
  Exact serial;
  if (w.cache == CacheMode::kWarm) {
    // Prime the cache with a serial cold run of the same plan, then
    // replay it serially. The replay must render the cold run's bytes,
    // and at the default seed the cold run must equal crawl_roster's
    // recorded reference.
    Campaign cold = RunCampaign(w, /*serial=*/true, /*fresh_cache=*/true);
    serial = RunCampaign(w, /*serial=*/true, /*fresh_cache=*/false).exact;
    if (roster_recorded) {
      check("cold priming run", cold.exact, *roster_recorded);
    }
    if (!SameOutputs(cold.exact, serial)) {
      std::fprintf(stderr, "perfbench: warm replay reports differ from the "
                           "cold run's\n");
      correct = false;
    }
  } else {
    serial = RunCampaign(w, /*serial=*/true, /*fresh_cache=*/true).exact;
  }
  if (recorded) check("one-worker reference", serial, *recorded);
  const Exact& reference = recorded ? *recorded : serial;
  std::fprintf(stderr, "perfbench: reference ready at %.3f s\n",
               SecondsSince(g_process_start_ns));
  if (recording) {
    std::ofstream out(config.reference_out);
    out << "{\"" << reference_key(config.workload)
        << "\": " << ExactJson(serial) << "}\n";
  }
  // Every parallel campaign starts from an empty cache on crawl_roster
  // and from the primed one on warm_replay.
  auto run_parallel = [&] {
    return RunCampaign(w, /*serial=*/false, w.cache == CacheMode::kCold);
  };
  check("warm-up campaign", run_parallel().exact, reference);
  const double setup_s = SecondsSince(g_process_start_ns);
  // peak_rss_mib covers the timed campaigns only, not the reference and
  // cache priming runs of set-up.
  ResetPeakRss();

  // --- Timed campaigns ---------------------------------------------------
  std::vector<Campaign> timed;
  const int64_t timed_start = util::SteadyNowNanos();
  do {
    Campaign c = run_parallel();
    attempted += c.jobs;
    failed +=
        check("timed campaign", c.exact, reference) ? c.quarantined : c.jobs;
    std::fprintf(stderr,
                 "perfbench: campaign %zu: %.4f s, Run %.4f s, cpu %.4f s\n",
                 timed.size() + 1, c.campaign_s, c.run_s, c.cpu_s);
    timed.push_back(std::move(c));
  } while (SecondsSince(timed_start) < config.seconds);

  // Job latency quantiles are nearest-rank over the jobs of every timed
  // campaign pooled; even one 135-job campaign leaves 13 beyond the p90.
  std::vector<double> campaign_s, jobs_per_s, cpu_s, job_seconds;
  for (const Campaign& c : timed) {
    campaign_s.push_back(c.campaign_s);
    jobs_per_s.push_back(static_cast<double>(c.jobs) / c.run_s);
    cpu_s.push_back(c.cpu_s);
    job_seconds.insert(job_seconds.end(), c.job_seconds.begin(),
                       c.job_seconds.end());
  }
  const double campaign_median = Median(campaign_s);
  std::printf("perfbench %s: seed %" PRIu64 ", %zu jobs/campaign, %d workers, "
              "%zu timed campaigns, %zu job latency samples\n",
              config.workload.c_str(), config.seed, w.plan.size(),
              FleetWorkers(), timed.size(), job_seconds.size());

  std::vector<Metric> metrics;
  if (!config.trace) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"campaign_s", campaign_median, "s"},
        {"jobs_per_s", Median(jobs_per_s), "1/s"},
        {"job_p50_ms", 1e3 * Quantile(job_seconds, 0.5), "ms"},
        {"job_p90_ms", 1e3 * Quantile(job_seconds, 0.9), "ms"},
        {"cpu_s", Median(cpu_s), "s"},
        {"peak_rss_mib", PeakRssMib(), "MiB"},
        {"ok_job_frac",
         1.0 - Ratio(static_cast<double>(failed),
                     static_cast<double>(attempted)),
         "frac"},
    };
    PrintResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
  }

  // --- Traced campaign -----------------------------------------------------
  tracer.Clear();
  tracer.SetEnabled(true);
  Campaign t = run_parallel();
  tracer.SetEnabled(false);
  attempted += t.jobs;
  failed += check("traced campaign", t.exact, reference) ? t.quarantined : t.jobs;
  const auto totals = Rollup(tracer.Snapshot());
  tracer.Clear();
  auto span = [&](const char* name) -> const SpanTotals& {
    static const SpanTotals kNone;
    auto it = totals.find(name);
    return it == totals.end() ? kNone : it->second;
  };
  auto mean_self_ms = [&](const char* name) {
    const SpanTotals& s = span(name);
    return 1e3 * Ratio(s.self_s, static_cast<double>(s.count));
  };

  // Thread time of the traced campaign: every worker over Run, plus the
  // calling thread over merge and rendering. Self time is attributed to
  // the src/ module that recorded the span; what no span covers (idle
  // workers, dispatch, cache probes and snapshot I/O) is unattributed.
  std::map<std::string, double> layer_s;
  for (const auto& [name, s] : totals) {
    std::string layer = LayerOf(name, s.category);
    if (!layer.empty()) layer_s[layer] += s.self_s;
  }
  std::printf("  span rollup (traced campaign): name, count, total s, "
              "self s\n");
  for (const auto& [name, s] : totals) {
    std::printf("  %-34s %8" PRIu64 " %12.6f %12.6f\n", name.c_str(), s.count,
                s.total_s, s.self_s);
  }
  const double thread_s =
      t.run_s * t.workers + (t.campaign_s - t.run_s);
  const double core_share = Ratio(layer_s["core"], thread_s);
  const double analysis_share = Ratio(layer_s["analysis"], thread_s);

  // web::SiteCatalog::Generate timed directly with the workload's
  // catalog options (every job builds this catalog once).
  std::vector<double> generate_s;
  const int64_t generate_start = util::SteadyNowNanos();
  do {
    const int64_t start = util::SteadyNowNanos();
    web::SiteCatalog catalog = web::SiteCatalog::Generate(
        w.options.framework.catalog_seed.value_or(config.seed),
        w.options.framework.catalog);
    generate_s.push_back(SecondsSince(start));
    if (catalog.sites().empty()) correct = false;
  } while (generate_s.size() < 5 || SecondsSince(generate_start) < 0.5);

  const Exact& e = t.exact;
  const double jobs = static_cast<double>(t.jobs);
  const double reg_visits = static_cast<double>(e.at("registry.visits"));
  const double reg_flows = static_cast<double>(e.at("registry.proxy_flows"));
  double busy_s = 0;
  for (double s : t.job_seconds) busy_s += s;
  metrics = {
      {"core.fleet.run_s", t.run_s, "s"},
      {"core.fleet.worker_busy_frac", Ratio(busy_s, t.workers * t.run_s),
       "frac"},
      {"core.fleet.job_setup_ms", mean_self_ms("fleet.job"), "ms"},
      {"web.catalog.generate_ms", 1e3 * Median(generate_s), "ms"},
      {"browser.startup_ms", mean_self_ms("campaign.crawl"), "ms"},
      {"core.campaign.visit_us", 1e6 * Median(span("campaign.visit").durations),
       "us"},
      {"core.campaign.idle_ms",
       1e3 * Ratio(span("campaign.idle").total_s,
                   static_cast<double>(span("campaign.idle").count)),
       "ms"},
      {"core.campaign.visits", reg_visits, "count"},
      {"core.campaign.flows_per_visit", Ratio(reg_flows, reg_visits), "count"},
      {"proxy.response_bytes_per_flow",
       Ratio(static_cast<double>(e.at("registry.proxy_response_bytes")),
             reg_flows),
       "B"},
      {"proxy.forged_certs_per_job",
       Ratio(static_cast<double>(e.at("registry.proxy_forged_certs")), jobs),
       "count"},
      {"device.netstack.sends_per_visit",
       Ratio(static_cast<double>(e.at("netstack.sends")),
             static_cast<double>(e.at("visits"))),
       "count"},
      {"core.ingest.spill_segments",
       static_cast<double>(e.at("ingest.spill_segments")), "count"},
      {"core.ingest.spill_bytes",
       static_cast<double>(e.at("ingest.spill_bytes")), "B"},
      {"core.ingest.backpressure_stalls",
       static_cast<double>(e.at("ingest.backpressure_stalls")), "count"},
      {"core.fleet.result_mib", t.result_mib, "MiB"},
      {"core.cache.hit_frac",
       Ratio(static_cast<double>(e.at("cache.hits")),
             static_cast<double>(e.at("cache.probes"))),
       "frac"},
      {"core.snapshot.write_ms", t.snapshot_write_ms, "ms"},
      {"core.snapshot.read_ms", t.snapshot_read_ms, "ms"},
      {"core.snapshot.bytes_per_job",
       Ratio(static_cast<double>(e.at("snapshot.bytes")), jobs), "B"},
      {"core.fleet.merge_s", t.merge_s, "s"},
      {"analysis.index.append_ms", 1e3 * span("index.append").total_s, "ms"},
      {"analysis.index.build_ms", t.index_build_ms, "ms"},
      {"analysis.report.json_s", t.json_s, "s"},
      {"analysis.report.csv_s", t.csv_s, "s"},
      {"analysis.report.smuggling_s", t.smuggling_s, "s"},
      {"analysis.report.bytes", static_cast<double>(e.at("report.bytes")),
       "B"},
      {"obs.trace_overhead_frac", t.campaign_s / campaign_median - 1.0,
       "frac"},
      {"layer.core.share", core_share, "frac"},
      {"layer.analysis.share", analysis_share, "frac"},
      {"layer.unattributed.share", 1.0 - core_share - analysis_share, "frac"},
  };
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
