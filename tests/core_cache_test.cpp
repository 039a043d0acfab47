// Result cache + snapshot format: a completed fleet job round-trips to
// bytes and back with full fidelity, warm runs replay entirely from
// cache with byte-identical reports, and every input change invalidates
// exactly the jobs it affects — no silent reuse, no over-invalidation.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/export.h"
#include "analysis/flow_index.h"
#include "browser/profiles.h"
#include "chaos/profile.h"
#include "core/fleet.h"
#include "core/result_cache.h"
#include "core/run_manifest.h"
#include "core/snapshot.h"
#include "net/url.h"
#include "proxy/flowstore.h"
#include "util/binio.h"

namespace panoptes {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test.
fs::path ScratchDir(std::string_view name) {
  fs::path dir = fs::temp_directory_path() / "panoptes_cache_test" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<browser::BrowserSpec> Browsers(
    std::initializer_list<std::string_view> names) {
  std::vector<browser::BrowserSpec> specs;
  for (auto name : names) specs.push_back(*browser::FindSpec(name));
  return specs;
}

core::FleetOptions SmallFleet(const fs::path& cache_dir = {}) {
  core::FleetOptions options;
  options.jobs = 2;
  options.framework.catalog.popular_count = 3;
  options.framework.catalog.sensitive_count = 1;
  options.cache_dir = cache_dir.string();
  return options;
}

std::vector<core::FleetJob> SmallPlan() {
  return core::FleetExecutor::PlanCampaign(
      Browsers({"Yandex", "DuckDuckGo"}),
      {core::CampaignKind::kCrawl, core::CampaignKind::kIdle}, 2);
}

std::string ReportOf(std::vector<core::FleetJobResult> results) {
  return analysis::FleetReportJson(
      core::FleetExecutor::MergeShards(std::move(results)));
}

TEST(Snapshot, RoundTripIsByteFaithful) {
  core::FleetExecutor executor(SmallFleet());
  auto jobs = SmallPlan();
  auto results = executor.RunSerial(jobs);
  ASSERT_EQ(results.size(), jobs.size());

  for (size_t i = 0; i < results.size(); ++i) {
    std::string bytes = core::snapshot::Write(results[i], /*fingerprint=*/i);
    auto header = core::snapshot::PeekHeader(bytes);
    ASSERT_TRUE(header.has_value());
    EXPECT_EQ(header->schema, core::snapshot::kSchemaVersion);
    EXPECT_EQ(header->fingerprint, i);

    core::FleetJobResult restored;
    ASSERT_TRUE(core::snapshot::Read(bytes, jobs[i], &restored)) << i;
    // Re-encoding the restored result must reproduce the exact bytes:
    // nothing in the payload was lost or normalized.
    EXPECT_EQ(core::snapshot::Write(restored, i), bytes) << i;

    // A snapshot never decodes as some *other* job.
    core::FleetJob other = jobs[(i + 1) % jobs.size()];
    EXPECT_FALSE(core::snapshot::Read(bytes, other, &restored)) << i;
  }
}

TEST(Snapshot, RejectsCorruptionAndForeignBytes) {
  core::FleetExecutor executor(SmallFleet());
  auto jobs = SmallPlan();
  auto results = executor.RunSerial(jobs);
  std::string bytes = core::snapshot::Write(results[0], 1);

  core::FleetJobResult restored;
  EXPECT_FALSE(core::snapshot::Read("", jobs[0], &restored));
  EXPECT_FALSE(core::snapshot::Read("definitely-not-a-snapshot", jobs[0],
                                    &restored));
  // Any truncation fails soft.
  for (size_t cut : {size_t{4}, size_t{20}, bytes.size() / 2,
                     bytes.size() - 1}) {
    EXPECT_FALSE(core::snapshot::Read(std::string_view(bytes).substr(0, cut),
                                      jobs[0], &restored))
        << cut;
  }
  // Trailing garbage is corruption, not a longer snapshot.
  EXPECT_FALSE(core::snapshot::Read(bytes + "x", jobs[0], &restored));

  // Pre-v6 store layouts and a missing index are corruption too: a
  // store starting 0x00/0x01 (the v2 layout) or 0xF3 (v3), and an index
  // presence byte of 0 (every result carries its indexes). The decoder
  // returns null and the cache counts an invalidation.
  util::BinWriter store_out;
  results[0].crawl->engine_flows->SerializeTo(store_out);
  const std::string store_bytes = store_out.Take();
  const size_t store_at = bytes.find(store_bytes);
  ASSERT_NE(store_at, std::string::npos);
  const size_t index_flag_at = store_at + store_bytes.size();
  ASSERT_EQ(bytes[index_flag_at], '\x01');
  core::ResultCache cache(ScratchDir("reject"));
  uint64_t invalidated = 0;
  auto expect_rejected = [&](size_t at, char byte) {
    std::string bad = bytes;
    bad[at] = byte;
    EXPECT_FALSE(core::snapshot::Read(bad, jobs[0], &restored)) << at;
    std::ofstream(cache.PathFor(jobs[0]), std::ios::binary) << bad;
    EXPECT_FALSE(cache.Load(jobs[0], 1, /*skip_quarantined=*/false));
    EXPECT_EQ(cache.Stats().invalidated, ++invalidated);
  };
  for (char tag : {'\x00', '\x01', '\xF3'}) {
    std::string old_store = store_bytes;
    old_store[0] = tag;
    util::BinReader in(old_store);
    EXPECT_EQ(proxy::FlowStore::Deserialize(in), nullptr) << int(tag);
    expect_rejected(store_at, tag);
  }
  expect_rejected(index_flag_at, '\x00');

  // A v6 snapshot still decodes: its stores carry the v4 tag and
  // records without the trailing redirect fields, which are the last
  // 12 bytes of a one-record stream.
  core::FleetJobResult v6_result;
  v6_result.job = jobs[0];
  v6_result.crawl.emplace();
  core::CrawlResult& crawl = *v6_result.crawl;
  for (auto* store : {&crawl.engine_flows, &crawl.native_flows}) {
    proxy::Flow flow;
    flow.url = net::Url::MustParse("https://legacy.example/x?q=1");
    *store = std::make_unique<proxy::FlowStore>();
    (*store)->Add(flow);
  }
  crawl.engine_index = std::make_shared<const analysis::FlowIndex>(
      analysis::FlowIndex::Build(*crawl.engine_flows));
  crawl.native_index = std::make_shared<const analysis::FlowIndex>(
      analysis::FlowIndex::Build(*crawl.native_flows));
  std::string v6 = core::snapshot::Write(v6_result, 1);
  for (const auto* store : {&crawl.engine_flows, &crawl.native_flows}) {
    util::BinWriter out;
    (*store)->SerializeTo(out);
    const std::string v5_store = out.Take();
    std::string v4_store = v5_store.substr(0, v5_store.size() - 12);
    v4_store[0] = '\xF4';
    const size_t at = v6.find(v5_store);
    ASSERT_NE(at, std::string::npos);
    v6.replace(at, v5_store.size(), v4_store);
  }
  v6[core::snapshot::kMagic.size()] = 6;  // little-endian schema version
  ASSERT_EQ(core::snapshot::PeekHeader(v6)->schema, 6u);
  ASSERT_TRUE(core::snapshot::Read(v6, jobs[0], &restored));
  ASSERT_EQ(restored.crawl->native_flows->size(), 1u);
  EXPECT_EQ(restored.crawl->native_flows->flow(0).url.Serialize(),
            "https://legacy.example/x?q=1");

  // The identity names a known campaign kind and the payload holds
  // exactly one capture, of that kind. An unknown kind byte, no
  // capture, a capture of the other kind or both captures is corrupt,
  // whether decoded against a plan or plan-free (`explain`).
  const size_t kind_at =
      core::snapshot::kMagic.size() + 4 + 8 + 4 + jobs[0].spec.name.size();
  ASSERT_EQ(bytes[kind_at], static_cast<char>(core::CampaignKind::kCrawl));
  for (char kind : {'\x03', '\xFF'}) {
    std::string bad = bytes;
    bad[kind_at] = kind;
    EXPECT_FALSE(core::snapshot::ReadAny(bad, &restored)) << int(kind);
  }
  auto decodes = [&](const core::FleetJobResult& result) {
    const std::string image = core::snapshot::Write(result, 1);
    return core::snapshot::Read(image, result.job, &restored) ||
           core::snapshot::ReadAny(image, &restored);
  };
  core::FleetJobResult& crawl_result = results[0];
  core::FleetJobResult& idle_result = results[2];
  ASSERT_EQ(idle_result.job.kind, core::CampaignKind::kIdle);
  EXPECT_TRUE(decodes(crawl_result));
  EXPECT_TRUE(decodes(idle_result));
  core::FleetJobResult neither;
  neither.job = jobs[0];
  EXPECT_FALSE(decodes(neither));
  crawl_result.job.kind = core::CampaignKind::kIdle;
  EXPECT_FALSE(decodes(crawl_result));
  crawl_result.job.kind = core::CampaignKind::kCrawl;
  idle_result.job.kind = core::CampaignKind::kCrawl;
  EXPECT_FALSE(decodes(idle_result));
  crawl_result.idle = std::move(idle_result.idle);
  EXPECT_FALSE(decodes(crawl_result));
}

TEST(ResultCache, WarmRunIsAllHitsAndByteIdentical) {
  fs::path dir = ScratchDir("warm");
  auto jobs = SmallPlan();

  core::FleetExecutor cold(SmallFleet(dir));
  auto cold_results = cold.Run(jobs);
  ASSERT_NE(cold.cache(), nullptr);
  EXPECT_EQ(cold.cache()->Stats().misses, jobs.size());
  EXPECT_EQ(cold.cache()->Stats().writes, jobs.size());
  EXPECT_EQ(cold.cache()->Stats().hits, 0u);
  for (const auto& result : cold_results) EXPECT_FALSE(result.cache_hit);
  std::string cold_report = ReportOf(std::move(cold_results));

  // Warm: a new executor over the same inputs replays everything.
  core::FleetExecutor warm(SmallFleet(dir));
  auto warm_results = warm.Run(jobs);
  auto stats = warm.cache()->Stats();
  EXPECT_EQ(stats.hits, jobs.size());
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.invalidated, 0u);
  EXPECT_EQ(stats.writes, 0u);
  for (const auto& result : warm_results) EXPECT_TRUE(result.cache_hit);

  core::RunManifest manifest =
      core::BuildRunManifest(warm.options(), warm_results, &stats);
  EXPECT_TRUE(manifest.cache_enabled);
  EXPECT_EQ(manifest.cache_hits, jobs.size());
  EXPECT_EQ(manifest.cache_misses, 0u);
  for (const auto& job : manifest.jobs) EXPECT_TRUE(job.cache_hit);

  EXPECT_EQ(ReportOf(std::move(warm_results)), cold_report);
}

TEST(ResultCache, SpecChangeInvalidatesOnlyThatBrowsersJobs) {
  fs::path dir = ScratchDir("spec_change");
  auto jobs = SmallPlan();
  core::FleetExecutor cold(SmallFleet(dir));
  cold.Run(jobs);

  // Bump one browser's version — as a real spec update would.
  auto changed_jobs = jobs;
  size_t changed = 0;
  for (auto& job : changed_jobs) {
    if (job.spec.name == "Yandex") {
      job.spec.version += "-next";
      ++changed;
    }
  }
  ASSERT_GT(changed, 0u);
  ASSERT_LT(changed, changed_jobs.size());

  core::FleetExecutor warm(SmallFleet(dir));
  auto results = warm.Run(changed_jobs);
  auto stats = warm.cache()->Stats();
  EXPECT_EQ(stats.invalidated, changed);
  EXPECT_EQ(stats.hits, changed_jobs.size() - changed);
  EXPECT_EQ(stats.misses, 0u);
  for (const auto& result : results) {
    EXPECT_EQ(result.cache_hit, result.job.spec.name != "Yandex")
        << result.job.spec.name;
  }
}

TEST(ResultCache, SeedOrChaosChangeInvalidatesEverything) {
  fs::path dir = ScratchDir("global_change");
  auto jobs = SmallPlan();
  core::FleetExecutor cold(SmallFleet(dir));
  cold.Run(jobs);

  core::FleetOptions reseeded = SmallFleet(dir);
  reseeded.base_seed += 1;
  core::FleetExecutor warm_seed(reseeded);
  warm_seed.Run(jobs);
  EXPECT_EQ(warm_seed.cache()->Stats().hits, 0u);
  EXPECT_EQ(warm_seed.cache()->Stats().invalidated, jobs.size());

  // The reseeded run overwrote the snapshots; a chaos-profile change on
  // top invalidates them all again.
  core::FleetOptions chaotic = SmallFleet(dir);
  chaotic.base_seed = reseeded.base_seed;
  chaotic.framework.chaos = *chaos::FaultProfile::Named("flaky");
  core::FleetExecutor warm_chaos(chaotic);
  warm_chaos.Run(jobs);
  EXPECT_EQ(warm_chaos.cache()->Stats().hits, 0u);
  EXPECT_EQ(warm_chaos.cache()->Stats().invalidated, jobs.size());
}

TEST(ResultCache, MissingOrCorruptSnapshotReexecutesJustThatJob) {
  fs::path dir = ScratchDir("damage");
  auto jobs = SmallPlan();
  core::FleetExecutor cold(SmallFleet(dir));
  std::string cold_report = ReportOf(cold.Run(jobs));
  ASSERT_NE(cold.cache(), nullptr);

  // Delete one snapshot, corrupt another.
  fs::remove(cold.cache()->PathFor(jobs[0]));
  {
    std::ofstream out(cold.cache()->PathFor(jobs[1]),
                      std::ios::binary | std::ios::trunc);
    out << "garbage";
  }

  core::FleetExecutor warm(SmallFleet(dir));
  auto results = warm.Run(jobs);
  auto stats = warm.cache()->Stats();
  EXPECT_EQ(stats.misses, 1u);       // the deleted file
  EXPECT_EQ(stats.invalidated, 1u);  // the corrupt file
  EXPECT_EQ(stats.hits, jobs.size() - 2);
  EXPECT_EQ(stats.writes, 2u);  // both repaired
  EXPECT_EQ(ReportOf(std::move(results)), cold_report);
}

TEST(ResultCache, ResumeReexecutesCachedQuarantines) {
  fs::path dir = ScratchDir("resume_quarantine");
  auto jobs = core::FleetExecutor::PlanCampaign(
      Browsers({"Yandex"}), {core::CampaignKind::kCrawl}, 2);

  core::FleetOptions options = SmallFleet(dir);
  options.framework.chaos = *chaos::FaultProfile::Named("blackout");
  core::FleetExecutor cold(options);
  auto cold_results = cold.Run(jobs);
  for (const auto& result : cold_results) ASSERT_TRUE(result.quarantined);

  // Plain warm run: the quarantine replays as a hit (a finished run
  // stays byte-identical on re-render, failures included).
  core::FleetExecutor warm(options);
  auto warm_results = warm.Run(jobs);
  EXPECT_EQ(warm.cache()->Stats().hits, jobs.size());
  for (const auto& result : warm_results) {
    EXPECT_TRUE(result.quarantined);
    EXPECT_TRUE(result.cache_hit);
  }

  // Resume: cached quarantines don't count as done — the jobs re-run
  // (and, the world still being dead, quarantine again with fresh
  // attempt accounting rather than a replayed flag).
  core::FleetOptions resume_options = options;
  resume_options.resume = true;
  core::FleetExecutor resumed(resume_options);
  auto resumed_results = resumed.Run(jobs);
  EXPECT_EQ(resumed.cache()->Stats().hits, 0u);
  EXPECT_EQ(resumed.cache()->Stats().misses, jobs.size());
  for (const auto& result : resumed_results) {
    EXPECT_FALSE(result.cache_hit);
    EXPECT_TRUE(result.quarantined);
  }
}

TEST(ResultCache, FingerprintIsPureAndSensitive) {
  auto jobs = SmallPlan();
  core::FleetOptions options = SmallFleet();
  uint64_t fp = core::ResultCache::FingerprintJob(options, jobs[0]);
  EXPECT_EQ(core::ResultCache::FingerprintJob(options, jobs[0]), fp);
  EXPECT_NE(core::ResultCache::FingerprintJob(options, jobs[1]), fp);

  core::FleetOptions reseeded = options;
  reseeded.base_seed += 1;
  EXPECT_NE(core::ResultCache::FingerprintJob(reseeded, jobs[0]), fp);

  core::FleetOptions retried = options;
  retried.max_job_retries = 3;
  EXPECT_NE(core::ResultCache::FingerprintJob(retried, jobs[0]), fp);

  core::FleetJob respecced = jobs[0];
  respecced.spec.user_agent += "x";
  EXPECT_NE(core::ResultCache::FingerprintJob(options, respecced), fp);
}

}  // namespace
}  // namespace panoptes
