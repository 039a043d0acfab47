#include "analysis/dns_leakage.h"

#include <gtest/gtest.h>

#include "analysis/flow_index.h"
#include "browser/profiles.h"
#include "core/campaign.h"
#include "core/framework.h"

namespace panoptes::analysis {
namespace {

proxy::Flow DohFlow(std::string_view provider, std::string_view name) {
  proxy::Flow flow;
  flow.url = net::Url::MustParse(std::string("https://") +
                                 std::string(provider) + "/dns-query");
  flow.url.AddQueryParam("name", name);
  flow.url.AddQueryParam("type", "A");
  return flow;
}

TEST(DnsLeakage, CountsQueriesAndClassifiesVisited) {
  proxy::FlowStore store;
  store.Add(DohFlow("cloudflare-dns.com", "shop.example.com"));
  store.Add(DohFlow("cloudflare-dns.com", "shop.example.com"));
  store.Add(DohFlow("cloudflare-dns.com", "update.vendor.com"));
  // Non-DoH traffic is ignored.
  proxy::Flow other;
  other.url = net::Url::MustParse("https://update.vendor.com/check");
  store.Add(other);

  auto report = AnalyzeDnsLeakage(FlowIndex::Build(store),
                                  {"shop.example.com", "unvisited.org"});
  EXPECT_TRUE(report.uses_doh);
  EXPECT_EQ(report.provider_host, "cloudflare-dns.com");
  EXPECT_EQ(report.queries, 3u);
  EXPECT_EQ(report.domains_leaked.size(), 2u);
  EXPECT_EQ(report.visited_site_lookups, 2u);
}

TEST(DnsLeakage, StubBrowserShowsNothing) {
  proxy::FlowStore store;
  proxy::Flow flow;
  flow.url = net::Url::MustParse("https://sba.yandex.net/report");
  store.Add(flow);
  auto report = AnalyzeDnsLeakage(FlowIndex::Build(store));
  EXPECT_FALSE(report.uses_doh);
  EXPECT_EQ(report.queries, 0u);
}

TEST(DnsLeakage, RealCrawlSplitsDohFromStubBrowsers) {
  core::FrameworkOptions options;
  options.catalog.popular_count = 5;
  options.catalog.sensitive_count = 0;
  core::Framework framework(options);
  std::vector<const web::Site*> sites;
  std::set<std::string> visited_hosts;
  for (const auto& site : framework.catalog().sites()) {
    sites.push_back(&site);
    visited_hosts.insert(site.hostname);
  }

  auto edge = core::RunCrawl(framework, *browser::FindSpec("Edge"), sites);
  auto edge_report =
      AnalyzeDnsLeakage(*edge.native_index, visited_hosts);
  EXPECT_TRUE(edge_report.uses_doh);
  EXPECT_EQ(edge_report.provider_host, "cloudflare-dns.com");
  // Every visited site's hostname reached the resolver operator.
  EXPECT_EQ(edge_report.visited_site_lookups, sites.size());

  auto whale =
      core::RunCrawl(framework, *browser::FindSpec("Whale"), sites);
  auto whale_report =
      AnalyzeDnsLeakage(*whale.native_index, visited_hosts);
  EXPECT_FALSE(whale_report.uses_doh);  // local stub resolver
}

}  // namespace
}  // namespace panoptes::analysis
