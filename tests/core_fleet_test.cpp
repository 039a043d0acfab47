// FleetExecutor: the determinism-first differential harness.
//
// The permanent guardrail for all parallelism work: a fleet run at
// jobs=4 must produce byte-identical exported reports to the serial
// reference path for the same base seed, no matter how the scheduler
// interleaves the workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "analysis/export.h"
#include "analysis/manifest.h"
#include "analysis/report.h"
#include "browser/profiles.h"
#include "core/fleet.h"
#include "core/run_manifest.h"
#include "device/population.h"
#include "util/rng.h"

namespace panoptes::core {
namespace {

FleetOptions TinyFleet(int jobs) {
  FleetOptions options;
  options.jobs = jobs;
  options.framework.catalog.popular_count = 4;
  options.framework.catalog.sensitive_count = 2;
  return options;
}

std::vector<browser::BrowserSpec> Browsers(
    std::initializer_list<std::string_view> names) {
  std::vector<browser::BrowserSpec> specs;
  for (auto name : names) specs.push_back(*browser::FindSpec(name));
  return specs;
}

IdleOptions ShortIdle() {
  IdleOptions idle;
  idle.duration = util::Duration::Minutes(1);
  return idle;
}

TEST(FleetSeed, DependsOnEveryIdentityComponent) {
  auto seed = [](uint64_t base_seed, const char* name, CampaignKind kind,
                 int shard) {
    return DeriveJobSeed(base_seed, FleetJob{.spec = *browser::FindSpec(name),
                                             .kind = kind,
                                             .shard = shard});
  };
  uint64_t base = seed(1, "Yandex", CampaignKind::kCrawl, 0);
  EXPECT_NE(base, seed(2, "Yandex", CampaignKind::kCrawl, 0));
  EXPECT_NE(base, seed(1, "Opera", CampaignKind::kCrawl, 0));
  EXPECT_NE(base, seed(1, "Yandex", CampaignKind::kIncognitoCrawl, 0));
  EXPECT_NE(base, seed(1, "Yandex", CampaignKind::kCrawl, 1));
  // And is a pure function of those components.
  EXPECT_EQ(base, seed(1, "Yandex", CampaignKind::kCrawl, 0));
}

TEST(FleetPlan, CanonicalOrderAndIdleNeverShards) {
  auto jobs = FleetExecutor::PlanCampaign(
      Browsers({"Yandex", "Opera"}),
      {CampaignKind::kCrawl, CampaignKind::kIdle}, 3);
  // Per browser: 3 crawl shards + 1 idle job.
  ASSERT_EQ(jobs.size(), 8u);
  EXPECT_EQ(jobs[0].spec.name, "Yandex");
  EXPECT_EQ(jobs[0].kind, CampaignKind::kCrawl);
  EXPECT_EQ(jobs[2].shard, 2);
  EXPECT_EQ(jobs[3].kind, CampaignKind::kIdle);
  EXPECT_EQ(jobs[3].shard_count, 1);
  EXPECT_EQ(jobs[4].spec.name, "Opera");
}

// The cohort-less plan forwards to the population plan with no cohorts;
// both must expand to the same paper-testbed jobs.
TEST(FleetPlan, EmptyCohortListPlansTheTestbed) {
  const auto browsers = Browsers({"Yandex", "Opera"});
  const std::vector<CampaignKind> kinds = {
      CampaignKind::kCrawl, CampaignKind::kIncognitoCrawl, CampaignKind::kIdle};
  auto plain = FleetExecutor::PlanCampaign(browsers, kinds, 3);
  auto empty = FleetExecutor::PlanCampaign(browsers, {}, kinds, 3);
  ASSERT_EQ(plain.size(), 14u);
  ASSERT_EQ(empty.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(empty[i].spec.name, plain[i].spec.name);
    EXPECT_EQ(empty[i].kind, plain[i].kind);
    EXPECT_EQ(empty[i].shard, plain[i].shard);
    EXPECT_EQ(empty[i].shard_count, plain[i].shard_count);
    EXPECT_EQ(empty[i].cohort.id, plain[i].cohort.id);
    EXPECT_TRUE(empty[i].cohort.IsDefault());
  }
}

// The acceptance-criteria test: fleet(jobs=4) vs the serial loop,
// compared byte-for-byte on the exported analysis JSON.
TEST(FleetDifferential, ParallelMatchesSerialByteForByte) {
  FleetExecutor executor(TinyFleet(4));
  auto jobs = FleetExecutor::PlanCampaign(
      Browsers({"Yandex", "Opera", "DuckDuckGo"}),
      {CampaignKind::kCrawl, CampaignKind::kIncognitoCrawl,
       CampaignKind::kIdle},
      2, CrawlOptions{}, ShortIdle());

  auto serial = executor.RunSerial(jobs);
  auto parallel = executor.Run(jobs);
  ASSERT_EQ(serial.size(), parallel.size());

  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].job.spec.name + "/" +
                 std::string(CampaignKindName(serial[i].job.kind)) +
                 "/shard" + std::to_string(serial[i].job.shard));
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    ASSERT_EQ(serial[i].crawl.has_value(), parallel[i].crawl.has_value());
    if (serial[i].crawl.has_value()) {
      EXPECT_EQ(serial[i].crawl->EngineRequestCount(),
                parallel[i].crawl->EngineRequestCount());
      EXPECT_EQ(serial[i].crawl->NativeRequestCount(),
                parallel[i].crawl->NativeRequestCount());
      EXPECT_EQ(serial[i].crawl->visits.size(),
                parallel[i].crawl->visits.size());
    }
    if (serial[i].idle.has_value()) {
      EXPECT_EQ(serial[i].idle->cumulative_by_bucket,
                parallel[i].idle->cumulative_by_bucket);
    }
  }

  auto serial_merged = FleetExecutor::MergeShards(std::move(serial));
  auto parallel_merged = FleetExecutor::MergeShards(std::move(parallel));
  EXPECT_EQ(analysis::FleetReportJson(serial_merged),
            analysis::FleetReportJson(parallel_merged));
  EXPECT_EQ(analysis::FleetSummaryCsv(serial_merged),
            analysis::FleetSummaryCsv(parallel_merged));
  EXPECT_EQ(analysis::FleetSummaryTable(serial_merged),
            analysis::FleetSummaryTable(parallel_merged));
}

TEST(FleetMerge, ShardsFoldBackIntoCatalogOrder) {
  FleetExecutor executor(TinyFleet(2));
  auto jobs = FleetExecutor::PlanCampaign(Browsers({"Samsung"}),
                                          {CampaignKind::kCrawl}, 3);
  auto merged = FleetExecutor::MergeShards(executor.Run(jobs));
  ASSERT_EQ(merged.size(), 1u);
  ASSERT_TRUE(merged[0].crawl.has_value());

  // The merged visit list is exactly the catalog, in catalog order:
  // contiguous shards partition the site list without loss or overlap.
  Framework probe(executor.options().framework);
  const auto& sites = probe.catalog().sites();
  ASSERT_EQ(merged[0].crawl->visits.size(), sites.size());
  for (size_t i = 0; i < sites.size(); ++i) {
    EXPECT_EQ(merged[0].crawl->visits[i].hostname, sites[i].hostname);
  }

  // Merged flow totals are the sum of the per-shard stores.
  auto per_shard = executor.Run(jobs);
  uint64_t engine = 0, native = 0, sends = 0;
  for (const auto& shard : per_shard) {
    engine += shard.crawl->EngineRequestCount();
    native += shard.crawl->NativeRequestCount();
    sends += shard.crawl->stack_stats.sends;
  }
  EXPECT_EQ(merged[0].crawl->EngineRequestCount(), engine);
  EXPECT_EQ(merged[0].crawl->NativeRequestCount(), native);
  EXPECT_EQ(merged[0].crawl->stack_stats.sends, sends);
}

// Stress: the full Table 1 roster × 3 shards at jobs=8, repeatedly.
// Any scheduling-dependent state (shared RNG, store cross-talk, seed
// derivation from execution order) shows up as run-to-run drift here.
TEST(FleetStress, FullRosterRepeatedRunsAreIdentical) {
  FleetOptions options = TinyFleet(8);
  options.framework.catalog.popular_count = 3;
  options.framework.catalog.sensitive_count = 0;
  FleetExecutor executor(options);
  auto jobs = FleetExecutor::PlanCampaign(browser::AllBrowserSpecs(),
                                          {CampaignKind::kCrawl}, 3);
  ASSERT_EQ(jobs.size(), browser::AllBrowserSpecs().size() * 3);

  std::string reference;
  for (int repeat = 0; repeat < 3; ++repeat) {
    SCOPED_TRACE("repeat " + std::to_string(repeat));
    auto merged = FleetExecutor::MergeShards(executor.Run(jobs));
    std::string json = analysis::FleetReportJson(merged);
    if (repeat == 0) {
      reference = std::move(json);
      // One merged result per browser, in Table 1 order.
      ASSERT_EQ(merged.size(), browser::AllBrowserSpecs().size());
    } else {
      EXPECT_EQ(json, reference);
    }
  }
}

// Regression: the quantile helper on a stats object that never ran a
// job must return 0, not index into an empty vector.
TEST(FleetStats, JobLatencyQuantileOnEmptyStatsIsZero) {
  FleetRunStats stats;
  EXPECT_EQ(stats.JobLatencyQuantile(0.0), 0.0);
  EXPECT_EQ(stats.JobLatencyQuantile(0.5), 0.0);
  EXPECT_EQ(stats.JobLatencyQuantile(1.0), 0.0);
}

// Salvage: a quarantined shard is dropped from the merge and the
// surviving shards still fold into one degraded-but-genuine result.
TEST(FleetMerge, QuarantinedShardsAreSalvagedAround) {
  FleetExecutor executor(TinyFleet(2));
  auto jobs = FleetExecutor::PlanCampaign(Browsers({"Samsung"}),
                                          {CampaignKind::kCrawl}, 3);
  auto results = executor.Run(jobs);
  ASSERT_EQ(results.size(), 3u);

  // Quarantine the middle shard, then shard 0 — exercising both the
  // "skip mid-group" and "surviving shard becomes the group head"
  // paths.
  for (int dead : {1, 0}) {
    auto damaged = executor.Run(jobs);
    damaged[dead].quarantined = true;
    auto merged = FleetExecutor::MergeShards(std::move(damaged));
    ASSERT_EQ(merged.size(), 1u);
    ASSERT_TRUE(merged[0].crawl.has_value());

    size_t surviving_visits = 0;
    uint64_t surviving_engine = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      if (static_cast<int>(i) == dead) continue;
      surviving_visits += results[i].crawl->visits.size();
      surviving_engine += results[i].crawl->EngineRequestCount();
    }
    EXPECT_EQ(merged[0].crawl->visits.size(), surviving_visits);
    EXPECT_EQ(merged[0].crawl->EngineRequestCount(), surviving_engine);
    EXPECT_FALSE(merged[0].quarantined);
  }
}

TEST(FleetSeed, JobSeedsAreDistinctAcrossThePlan) {
  auto jobs = FleetExecutor::PlanCampaign(
      browser::AllBrowserSpecs(),
      {CampaignKind::kCrawl, CampaignKind::kIncognitoCrawl,
       CampaignKind::kIdle},
      4);
  std::set<uint64_t> seeds;
  for (const auto& job : jobs) {
    seeds.insert(DeriveJobSeed(20231024, job));
  }
  EXPECT_EQ(seeds.size(), jobs.size());
}

// Shared immutable web: a fleet run builds one SiteCatalog and every
// job's testbed borrows it. Sharing must be invisible in every output.

FrameworkOptions SharedWebOptions() {
  FrameworkOptions options;
  options.catalog_seed = 7;
  options.catalog.popular_count = 4;
  options.catalog.sensitive_count = 2;
  options.catalog.sitegen.bounce_fraction = 0.5;
  options.catalog.sitegen.decoration_fraction = 0.5;
  return options;
}

// The landing responses `framework`'s web serves for `site`, as bytes:
// the plain landing request (a bounce site answers it with a 302) and
// the decorated one a finished bounce chain arrives with.
std::string LandingBytes(Framework& framework, const web::Site& site) {
  const net::HostBinding* host =
      framework.network().FindByHost(site.hostname);
  EXPECT_NE(host, nullptr) << site.hostname;
  if (host == nullptr) return "";
  net::Url decorated = site.landing_url;
  decorated.AddQueryParam("pan_uid", site.smuggle_uid);
  std::string out;
  for (const net::Url& url : {site.landing_url, decorated}) {
    net::HttpRequest request;
    request.url = url;
    auto response = framework.network().Deliver(host->ip, request, {});
    out += std::to_string(response.status) + "\n" +
           response.headers.Get("Location").value_or("") + "\n" +
           response.headers.Get("Set-Cookie").value_or("") + "\n" +
           response.body + "\n";
  }
  return out;
}

TEST(FleetSharedWeb, FrameworkExposesTheSharedCatalog) {
  FrameworkOptions options = SharedWebOptions();
  auto catalog = GenerateCatalog(options);
  Framework framework(options, catalog);
  EXPECT_EQ(&framework.catalog(), catalog.get());
  // A standalone framework generates a private catalog of its own.
  Framework standalone(options);
  EXPECT_NE(&standalone.catalog(), catalog.get());
}

TEST(FleetSharedWeb, SharedFrameworksServeSelfGeneratedPages) {
  FrameworkOptions options = SharedWebOptions();
  auto catalog = GenerateCatalog(options);
  // Two job testbeds on one catalog, with different runtime seeds (as
  // two fleet jobs have), against a framework that generated its own.
  FrameworkOptions first = options, second = options;
  first.seed = 1;
  second.seed = 2;
  Framework a(first, catalog);
  Framework b(second, catalog);
  Framework reference(options);
  const auto& sites = reference.catalog().sites();
  ASSERT_EQ(sites.size(), catalog->sites().size());
  for (size_t i = 0; i < sites.size(); ++i) {
    SCOPED_TRACE(sites[i].hostname);
    EXPECT_EQ(catalog->sites()[i].hostname, sites[i].hostname);
    EXPECT_EQ(catalog->landing_html(i), reference.catalog().landing_html(i));
    std::string expected = LandingBytes(reference, sites[i]);
    EXPECT_NE(expected.find("<!doctype html>"), std::string::npos);
    EXPECT_EQ(LandingBytes(a, catalog->sites()[i]), expected);
    EXPECT_EQ(LandingBytes(b, catalog->sites()[i]), expected);
  }
}

// Every report the fleet exports, from `results`.
std::string AllReports(std::vector<FleetJobResult> results) {
  auto merged = FleetExecutor::MergeShards(std::move(results));
  return analysis::FleetReportJson(merged) + analysis::FleetSummaryCsv(merged) +
         analysis::UidSmugglingReportJson(merged) +
         analysis::UidSmugglingCsv(merged);
}

TEST(FleetSharedWeb, ParallelMatchesSerialReports) {
  FleetOptions options = TinyFleet(4);
  options.framework = SharedWebOptions();
  FleetExecutor executor(options);
  auto jobs = FleetExecutor::PlanCampaign(
      Browsers({"Yandex", "Opera", "DuckDuckGo"}),
      {CampaignKind::kCrawl, CampaignKind::kIncognitoCrawl,
       CampaignKind::kIdle},
      3, CrawlOptions{}, ShortIdle());
  std::string serial = AllReports(executor.RunSerial(jobs));
  EXPECT_NE(serial.find("\"findings\""), std::string::npos);
  EXPECT_EQ(AllReports(executor.Run(jobs)), serial);
}

TEST(FleetSharedWeb, ParallelMatchesSerialUnderChaosRetries) {
  FleetOptions options = TinyFleet(4);
  options.framework = SharedWebOptions();
  options.framework.chaos = *chaos::FaultProfile::Named("dns-storm");
  options.max_job_retries = 2;
  FleetExecutor executor(options);
  // One site per shard, no per-visit retry: a failed landing kills its
  // job, which re-runs on a fresh attempt seed over the same shared web.
  auto jobs = FleetExecutor::PlanCampaign(
      Browsers({"Yandex", "Opera", "DuckDuckGo"}),
      {CampaignKind::kCrawl, CampaignKind::kIncognitoCrawl}, 6);
  auto serial = executor.RunSerial(jobs);
  auto parallel = executor.Run(jobs);
  ASSERT_EQ(serial.size(), parallel.size());
  int retried = 0;
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].attempts, parallel[i].attempts) << i;
    EXPECT_EQ(serial[i].seed, parallel[i].seed) << i;
    if (serial[i].attempts > 1) ++retried;
  }
  EXPECT_GT(retried, 0);
  EXPECT_EQ(AllReports(std::move(parallel)), AllReports(std::move(serial)));
}

// Golden bytes of every fleet renderer and of both manifests, over a
// plan that crosses every campaign kind with device cohorts and the
// UID-smuggling web: the perfbench pins cover neither cohorts with idle
// or incognito runs nor the smuggling CSV, the table or run-manifest.
TEST(FleetReports, GoldenBytesAcrossKindsAndCohorts) {
  FleetOptions options = TinyFleet(2);
  options.framework.catalog.sitegen.bounce_fraction = 0.3;
  options.framework.catalog.sitegen.decoration_fraction = 0.3;
  device::PopulationOptions population;
  population.size = 2;
  struct Golden {
    uint64_t json, csv, smuggling_json, smuggling_csv, table, manifest;
  };
  const Golden goldens[] = {
      {0xa4c3700d5f081f05ull, 0xc019abc9a7b63703ull,
       0x242e25b8acace60cull, 0xd36b7ef5c3d168ccull,
       0x08ff86e70589fdb9ull, 0xfbf2fb6083a15924ull},
      {0xf76e5106ce8cb576ull, 0x30e1b862107fc610ull,
       0xc4a6dc7f8bd3a189ull, 0xb1f6a13eede0fdefull,
       0x66bc9a060f9d84afull, 0x23df940cb106be71ull},
  };
  const std::vector<device::DeviceCohort> cohort_plans[] = {
      {}, device::PopulationGenerator::Generate(population)};
  for (size_t plan = 0; plan < 2; ++plan) {
    SCOPED_TRACE(plan == 0 ? "testbed" : "cohorts");
    auto jobs = FleetExecutor::PlanCampaign(
        Browsers({"Yandex", "DuckDuckGo"}), cohort_plans[plan],
        {CampaignKind::kCrawl, CampaignKind::kIncognitoCrawl,
         CampaignKind::kIdle},
        2, CrawlOptions{}, ShortIdle());
    auto results = FleetExecutor(options).Run(jobs);
    std::string manifest = BuildRunManifest(options, results, nullptr).ToJson();
    auto merged = FleetExecutor::MergeShards(std::move(results));
    const Golden& golden = goldens[plan];
    EXPECT_EQ(util::HashString(analysis::FleetReportJson(merged)),
              golden.json);
    EXPECT_EQ(util::HashString(analysis::FleetSummaryCsv(merged)), golden.csv);
    EXPECT_EQ(util::HashString(analysis::UidSmugglingReportJson(merged)),
              golden.smuggling_json);
    const std::string smuggling_csv = analysis::UidSmugglingCsv(merged);
    EXPECT_GT(std::count(smuggling_csv.begin(), smuggling_csv.end(), '\n'), 1)
        << "the plan must produce smuggling findings";
    EXPECT_EQ(util::HashString(smuggling_csv), golden.smuggling_csv);
    EXPECT_EQ(util::HashString(analysis::FleetSummaryTable(merged)),
              golden.table);
    EXPECT_EQ(util::HashString(manifest), golden.manifest);
  }

  // `run-manifest`: one entry of each kind.
  auto parsed = analysis::Manifest::FromJson(
      R"({"popular_sites":4,"sensitive_sites":2,"entries":[)"
      R"({"browser":"Yandex"},{"browser":"Yandex","incognito":true},)"
      R"({"browser":"DuckDuckGo","mode":"idle","idle_minutes":1}]})");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(util::HashString(analysis::RunManifest(*parsed).ToJson()),
            0xd7548fc884a1a7ddull);
}

}  // namespace
}  // namespace panoptes::core
