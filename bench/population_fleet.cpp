// Device-population fleet at scale: browser × device-cohort campaigns
// must stay deterministic and near-linear to 10k+ jobs.
//
// Three claims, all through the bounded-memory streaming path (every
// job runs under a fixed --memory-budget with spill-to-disk):
//
//  - Determinism: a 1k-cohort population campaign renders byte-identical
//    JSON and CSV reports at jobs=1 and jobs=8 — the cohort dimension
//    obeys the same plan-order merge discipline as browser×kind×shard.
//    The report/CSV checksums are baseline-gated.
//
//  - Scaling: growing the population 10x (1024 → 10240 jobs) costs at
//    most 10x/0.8 the wall time: per-job cost is flat because each job
//    owns a private framework and the executor's merge work is linear.
//    eff = (jobs_large/jobs_small * t_small) / t_large >= 0.8 is this
//    bench's own exit criterion (PANOPTES_BENCH_LAX_TIMING relaxes it
//    for sanitizer builds; the baseline gate never pins timings).
//
//  - Boundedness: peak RSS (VmHWM) over the 10k-job run is printed and
//    reported — advisory, platform-dependent — while shed accounting
//    must stay clean (no flows lost to the budget).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/export.h"
#include "bench_common.h"
#include "browser/profiles.h"
#include "core/fleet.h"
#include "device/population.h"
#include "util/rng.h"

using namespace panoptes;
using core::CampaignKind;
using core::CrawlOptions;
using core::FleetExecutor;
using core::FleetOptions;

namespace {

namespace fs = std::filesystem;

constexpr int kSmallPopulation = 1024;
constexpr int kLargePopulation = 10240;
constexpr uint64_t kPopulationSeed = 20231024;
// Per-job live-store budget: small enough that campaign captures go
// through the spill machinery instead of degenerating to batch.
constexpr uint64_t kBudgetBytes = 8 * 1024;
constexpr double kMinEfficiency = 0.8;

// Peak resident set (VmHWM) in bytes; 0 where /proc is unavailable.
uint64_t PeakRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

struct CampaignOutcome {
  std::string report;
  std::string csv;
  core::IngestStats ingest;
  double seconds = 0;
};

// One population campaign: `population` cohorts of one cheap browser,
// crawl-only over a 3-site catalog, budgeted + spilling, rendered to
// the full JSON/CSV reports. The work scales linearly in `population`
// by construction; the bench checks the implementation agrees.
CampaignOutcome RunPopulation(int population, int jobs,
                              const std::string& spill_dir) {
  FleetOptions options;
  options.jobs = jobs;
  options.base_seed = kPopulationSeed;
  options.framework.catalog.popular_count = 2;
  options.framework.catalog.sensitive_count = 1;
  CrawlOptions crawl;
  crawl.stream.memory_budget_bytes = kBudgetBytes;
  crawl.stream.spill_dir = spill_dir;
  auto cohorts =
      device::PopulationGenerator::Generate(population, kPopulationSeed);
  auto plan = FleetExecutor::PlanCampaign(
      {*browser::FindSpec("DuckDuckGo")}, cohorts, {CampaignKind::kCrawl}, 1,
      crawl);

  bench::WallTimer timer;
  FleetExecutor executor(options);
  auto results = executor.Run(plan);
  CampaignOutcome out;
  for (const auto& result : results) {
    out.ingest.Accumulate(result.capture().ingest);
  }
  auto merged = FleetExecutor::MergeShards(std::move(results));
  out.report = analysis::FleetReportJson(merged);
  out.csv = analysis::FleetSummaryCsv(merged);
  out.seconds = timer.Seconds();
  return out;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "population_fleet",
      "device-population campaigns are worker-count-invariant and scale "
      "near-linearly to 10k+ jobs through the bounded-memory stream path");

  const fs::path spill_root =
      fs::temp_directory_path() / "panoptes_bench_population_fleet";
  fs::remove_all(spill_root);
  fs::create_directories(spill_root);

  // --- Determinism: 1k cohorts, jobs 1 vs 8 -----------------------
  const CampaignOutcome serial =
      RunPopulation(kSmallPopulation, 1, (spill_root / "serial").string());
  const CampaignOutcome parallel =
      RunPopulation(kSmallPopulation, 8, (spill_root / "parallel").string());
  const bool identical =
      serial.report == parallel.report && serial.csv == parallel.csv;
  const bool population_rendered =
      serial.report.find("\"population\"") != std::string::npos &&
      serial.csv.find("cohort") != std::string::npos;

  std::printf("1k-cohort identity   jobs 1 vs 8: %s (%zu-byte report)\n",
              identical ? "byte-identical" : "DIVERGED",
              serial.report.size());

  // --- Scaling: 1024 -> 10240 jobs --------------------------------
  const CampaignOutcome large = RunPopulation(
      kLargePopulation, 1, (spill_root / "large").string());
  const double scale =
      static_cast<double>(kLargePopulation) / kSmallPopulation;
  const double efficiency =
      large.seconds > 0 ? (scale * serial.seconds) / large.seconds : 0;
  const bool near_linear = efficiency >= kMinEfficiency;
  const uint64_t peak_rss = PeakRssBytes();
  const uint64_t flows_lost =
      serial.ingest.flows_lost + large.ingest.flows_lost;
  const bool clean = flows_lost == 0;
  const bool spilled =
      serial.ingest.spill_segments > 0 && large.ingest.spill_segments > 0;
  fs::remove_all(spill_root);

  std::printf("small run            %d jobs in %.2fs (%.0f jobs/s, %" PRIu64
              " spill segments)\n",
              kSmallPopulation, serial.seconds,
              kSmallPopulation / serial.seconds,
              serial.ingest.spill_segments);
  std::printf("large run            %d jobs in %.2fs (%.0f jobs/s, %" PRIu64
              " spill segments)\n",
              kLargePopulation, large.seconds,
              kLargePopulation / large.seconds,
              large.ingest.spill_segments);
  std::printf("scaling efficiency   %.2f (>= %.2f: %s)\n", efficiency,
              kMinEfficiency, near_linear ? "yes" : "NO");
  std::printf("peak RSS             %.1f MiB over %d jobs\n",
              peak_rss / (1024.0 * 1024.0), kLargePopulation);

  bench::BenchReport report("population_fleet");
  report.Metric("jobs_small", kSmallPopulation);
  report.Metric("jobs_large", kLargePopulation);
  report.Metric("byte_identical", identical ? 1 : 0);
  report.Metric("population_rendered", population_rendered ? 1 : 0);
  report.Metric("spilled", spilled ? 1 : 0);
  report.Metric("flows_lost", static_cast<double>(flows_lost));
  report.Metric("small_seconds", serial.seconds);
  report.Metric("large_seconds", large.seconds);
  report.Metric("scaling_efficiency", efficiency);
  report.Metric("peak_rss_mib", peak_rss / (1024.0 * 1024.0));
  report.Checksum("report_1k", util::HashString(serial.report));
  report.Checksum("csv_1k", util::HashString(serial.csv));
  report.Checksum("report_10k", util::HashString(large.report));
  report.Write();

  const bool lax_timing =
      std::getenv("PANOPTES_BENCH_LAX_TIMING") != nullptr;
  const bool ok = identical && population_rendered && clean && spilled &&
                  (near_linear || lax_timing);
  if (!ok) {
    std::printf("\nFAIL:%s%s%s%s%s\n", identical ? "" : " identity",
                population_rendered ? "" : " population-missing",
                clean ? "" : " flows-lost",
                spilled ? "" : " no-spill",
                near_linear ? "" : " scaling-efficiency");
  }
  return ok ? 0 : 1;
}
