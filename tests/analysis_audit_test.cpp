#include "analysis/audit.h"

#include <gtest/gtest.h>

#include "browser/profiles.h"
#include "vendors/geo_plan.h"

namespace panoptes::analysis {
namespace {

core::FleetOptions AuditOptions() {
  core::FleetOptions options;
  options.framework.catalog.popular_count = 6;
  options.framework.catalog.sensitive_count = 2;
  return options;
}

class AuditTest : public ::testing::Test {
 protected:
  // Audits a one-job fleet crawl of the fixture's catalog.
  BrowserAuditReport Audit(const char* name) {
    core::FleetJob job{.spec = *browser::FindSpec(name)};
    job.crawl.compact_engine_store = false;
    auto results = core::FleetExecutor(options_).Run({job});
    return AuditBrowser(results.front(), *catalog_, hosts_list_, geo_);
  }

  core::FleetOptions options_ = AuditOptions();
  std::shared_ptr<const web::SiteCatalog> catalog_ =
      core::FleetCatalog(options_);
  const std::vector<web::Site>& sites_ = catalog_->sites();
  HostsList hosts_list_ = HostsList::Default();
  GeoIpDb geo_{vendors::GeoPlan::Default().ranges()};
};

TEST_F(AuditTest, YandexAuditIsSelfConsistent) {
  auto report = Audit("Yandex");
  EXPECT_EQ(report.browser, "Yandex");
  EXPECT_EQ(report.version, "23.3.7.24");
  EXPECT_EQ(report.sites_visited, sites_.size());
  EXPECT_GT(report.requests.native_requests, 0u);
  EXPECT_GT(report.requests.native_ratio, 0.2);
  EXPECT_TRUE(report.LeaksFullUrl());
  EXPECT_TRUE(report.ContactsNonEu());
  EXPECT_EQ(report.pii.LeakCount(), 6u);  // Table 2 row
  EXPECT_EQ(report.domains.ad_related_hosts, 1u);  // yandexadexchange
  // Countries: everything Yandex-native lands in RU.
  ASSERT_FALSE(report.countries.empty());
  EXPECT_EQ(report.countries.front().country_code, "RU");
}

TEST_F(AuditTest, ChromeAuditIsClean) {
  auto report = Audit("Chrome");
  EXPECT_FALSE(report.LeaksFullUrl());
  EXPECT_EQ(report.pii.LeakCount(), 0u);
  EXPECT_EQ(report.domains.ad_related_hosts, 0u);
  EXPECT_LT(report.requests.native_ratio, 0.15);
  EXPECT_GT(report.stack.pin_failures, 0u);  // clients4 pinned
  // Even a natively clean browser shows the classic engine channel:
  // third-party embeds learn the visited page via Referer.
  EXPECT_GT(report.referer.leaking_requests, 0u);
  EXPECT_FALSE(report.referer.leaks.empty());
}

TEST_F(AuditTest, MarkdownRendererCoversFindings) {
  std::vector<BrowserAuditReport> reports = {Audit("Yandex"),
                                             Audit("Chrome")};
  std::string markdown = RenderAuditMarkdown(reports);
  EXPECT_NE(markdown.find("# Panoptes browser audit"), std::string::npos);
  EXPECT_NE(markdown.find("## Yandex 23.3.7.24"), std::string::npos);
  EXPECT_NE(markdown.find("`sba.yandex.net`"), std::string::npos);
  EXPECT_NE(markdown.find("persistent identifier"), std::string::npos);
  EXPECT_NE(markdown.find("**YES**"), std::string::npos);  // full-URL cell
  EXPECT_NE(markdown.find("lower bound"), std::string::npos);  // Chrome pins
}

}  // namespace
}  // namespace panoptes::analysis
