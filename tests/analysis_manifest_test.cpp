#include "analysis/manifest.h"

#include <gtest/gtest.h>

#include "analysis/export.h"
#include "browser/profiles.h"
#include "core/fleet.h"
#include "util/json.h"

namespace panoptes::analysis {
namespace {

constexpr const char* kManifestJson = R"({
  "seed": 7,
  "popular_sites": 4,
  "sensitive_sites": 2,
  "entries": [
    {"browser": "Yandex", "mode": "crawl"},
    {"browser": "Edge", "mode": "crawl", "incognito": true},
    {"browser": "Opera", "mode": "idle", "idle_minutes": 2}
  ]
})";

TEST(ManifestParse, AcceptsWellFormed) {
  auto manifest = Manifest::FromJson(kManifestJson);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->seed, 7u);
  EXPECT_EQ(manifest->popular_sites, 4);
  EXPECT_EQ(manifest->sensitive_sites, 2);
  ASSERT_EQ(manifest->entries.size(), 3u);
  EXPECT_EQ(manifest->entries[0].browser, "Yandex");
  EXPECT_EQ(manifest->entries[1].mode, ManifestMode::kCrawl);
  EXPECT_TRUE(manifest->entries[1].incognito);
  EXPECT_EQ(manifest->entries[2].mode, ManifestMode::kIdle);
  EXPECT_EQ(manifest->entries[2].idle_minutes, 2);
}

TEST(ManifestParse, RoundTripsThroughToJson) {
  auto manifest = Manifest::FromJson(kManifestJson);
  ASSERT_TRUE(manifest.has_value());
  auto again = Manifest::FromJson(manifest->ToJson());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->ToJson(), manifest->ToJson());
}

TEST(ManifestParse, RejectsBadInput) {
  EXPECT_FALSE(Manifest::FromJson("").has_value());
  EXPECT_FALSE(Manifest::FromJson("[]").has_value());
  EXPECT_FALSE(Manifest::FromJson("{}").has_value());  // no entries
  EXPECT_FALSE(
      Manifest::FromJson(R"({"entries":[]})").has_value());
  EXPECT_FALSE(
      Manifest::FromJson(R"({"entries":[{"browser":"Netscape"}]})")
          .has_value());
  EXPECT_FALSE(
      Manifest::FromJson(
          R"({"entries":[{"browser":"Edge","mode":"teleport"}]})")
          .has_value());
  EXPECT_FALSE(
      Manifest::FromJson(
          R"({"popular_sites":0,"sensitive_sites":0,
              "entries":[{"browser":"Edge"}]})")
          .has_value());
  EXPECT_FALSE(
      Manifest::FromJson(
          R"({"entries":[{"browser":"Opera","mode":"idle","idle_minutes":0}]})")
          .has_value());
  // Numbers must be integers that fit their field: no truncation, no
  // out-of-range cast.
  for (const char* bad : {
           R"({"seed":1e20,"entries":[{"browser":"Edge"}]})",
           R"({"seed":-3,"entries":[{"browser":"Edge"}]})",
           R"({"seed":9007199254740994,"entries":[{"browser":"Edge"}]})",
           R"({"popular_sites":2.7,"entries":[{"browser":"Edge"}]})",
           R"({"sensitive_sites":1e10,"entries":[{"browser":"Edge"}]})",
           R"({"popular_sites":2147483647,"sensitive_sites":1,
               "entries":[{"browser":"Edge"}]})",
           R"({"entries":[{"browser":"Opera","mode":"idle",
                           "idle_minutes":1.9}]})",
           R"({"entries":[{"browser":"Opera","mode":"idle",
                           "idle_minutes":1e300}]})",
       }) {
    EXPECT_FALSE(Manifest::FromJson(bad).has_value()) << bad;
  }
  // A field present with the wrong JSON type is an error, not a
  // silent fall back to its default.
  for (const char* bad : {
           R"({"seed":"7","popular_sites":"4","sensitive_sites":2,
               "entries":[{"browser":"Yandex","incognito":"yes",
                           "mode":"idle","idle_minutes":"2"}]})",
           R"({"seed":"7","entries":[{"browser":"Edge"}]})",
           R"({"popular_sites":"4","entries":[{"browser":"Edge"}]})",
           R"({"sensitive_sites":null,"entries":[{"browser":"Edge"}]})",
           R"({"entries":[{"browser":"Opera","mode":"idle",
                           "idle_minutes":"2"}]})",
           R"({"entries":[{"browser":"Edge","incognito":1}]})",
           R"({"entries":[{"browser":"Edge","incognito":"yes"}]})",
           R"({"entries":[{"browser":"Edge","mode":1}]})",
       }) {
    EXPECT_FALSE(Manifest::FromJson(bad).has_value()) << bad;
  }
  // The largest accepted seed round-trips exactly.
  auto top = Manifest::FromJson(
      R"({"seed":9007199254740992,"entries":[{"browser":"Edge"}]})");
  ASSERT_TRUE(top.has_value());
  EXPECT_EQ(top->seed, uint64_t{1} << 53);
  EXPECT_EQ(Manifest::FromJson(top->ToJson())->seed, top->seed);
}

TEST(ManifestRun, ExecutesCrawlAndIdleEntries) {
  auto manifest = Manifest::FromJson(kManifestJson);
  ASSERT_TRUE(manifest.has_value());
  auto result = RunManifest(*manifest);
  ASSERT_EQ(result.entries.size(), 3u);

  const auto& yandex = result.entries[0];
  EXPECT_GT(yandex.engine_requests, 0u);
  EXPECT_GT(yandex.native_requests, 0u);
  EXPECT_GE(yandex.full_url_leak_destinations, 1u);  // sba.yandex.net
  EXPECT_EQ(yandex.pii_fields, 6u);
  EXPECT_FALSE(yandex.incognito_effective);

  const auto& edge = result.entries[1];
  EXPECT_TRUE(edge.incognito_effective);
  EXPECT_GE(edge.host_only_leak_destinations, 1u);  // Bing + DoH

  const auto& opera_idle = result.entries[2];
  EXPECT_EQ(opera_idle.engine_requests, 0u);
  EXPECT_GT(opera_idle.native_requests, 0u);
  EXPECT_EQ(opera_idle.native_ratio, 1.0);

  // Result JSON is parseable and complete.
  auto json = util::Json::Parse(result.ToJson());
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(json->Find("results")->as_array().size(), 3u);
}

// run-manifest is a front end to the fleet: each entry runs as the one
// FleetJob it describes, so the fleet report of the same plan carries
// the same counts.
TEST(ManifestRun, MatchesFleetForSamePlan) {
  auto manifest = Manifest::FromJson(kManifestJson);
  ASSERT_TRUE(manifest.has_value());
  auto result = RunManifest(*manifest);

  core::FleetOptions options;
  options.base_seed = 7;
  options.framework.catalog.popular_count = 4;
  options.framework.catalog.sensitive_count = 2;
  core::FleetJob opera_idle{.spec = *browser::FindSpec("Opera"),
                            .kind = core::CampaignKind::kIdle};
  opera_idle.idle.duration = util::Duration::Minutes(2);
  std::vector<core::FleetJob> jobs = {
      {.spec = *browser::FindSpec("Yandex")},
      {.spec = *browser::FindSpec("Edge"),
       .kind = core::CampaignKind::kIncognitoCrawl},
      opera_idle,
  };
  auto report = util::Json::Parse(
      FleetReportJson(core::FleetExecutor(options).Run(jobs)));
  ASSERT_TRUE(report.has_value());
  const auto& fleet = report->Find("results")->as_array();
  ASSERT_EQ(fleet.size(), result.entries.size());

  for (size_t i = 0; i < fleet.size(); ++i) {
    SCOPED_TRACE(result.entries[i].entry.browser);
    const ManifestEntryResult& entry = result.entries[i];
    auto count = [&](const char* key) {
      const util::Json* field = fleet[i].Find(key);
      return field == nullptr ? 0 : static_cast<uint64_t>(field->as_number());
    };
    EXPECT_EQ(entry.engine_requests, count("engine_requests"));
    EXPECT_EQ(entry.native_requests, count("native_requests"));
    EXPECT_EQ(entry.pii_fields,
              fleet[i].Find("pii_fields")->as_array().size());
    // Idle entries report no ratio: their traffic is all native.
    if (const util::Json* ratio = fleet[i].Find("native_ratio")) {
      EXPECT_EQ(entry.native_ratio, ratio->as_number());
    }
  }
}

}  // namespace
}  // namespace panoptes::analysis
