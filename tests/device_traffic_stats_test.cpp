// Per-UID traffic ledger tests, including the device-vs-proxy
// byte-accounting cross-check over a real crawl.
#include "device/traffic_stats.h"

#include <gtest/gtest.h>

#include "browser/profiles.h"
#include "core/campaign.h"
#include "core/framework.h"

namespace panoptes::device {
namespace {

TEST(TrafficStatsRegistry, PerUidAccounting) {
  TrafficStatsRegistry registry;
  registry.RecordExchange(10050, 100, 2000);
  registry.RecordExchange(10050, 50, 500);
  registry.RecordExchange(10051, 10, 20);
  registry.RecordFailure(10050);

  auto first = registry.ForUid(10050);
  EXPECT_EQ(first.tx_bytes, 150u);
  EXPECT_EQ(first.rx_bytes, 2500u);
  EXPECT_EQ(first.tx_packets, 2u);
  EXPECT_EQ(first.failed_attempts, 1u);

  EXPECT_EQ(registry.ForUid(99999).tx_bytes, 0u);
  EXPECT_EQ(registry.TrackedUids(), 2u);

  auto total = registry.Total();
  EXPECT_EQ(total.tx_bytes, 160u);
  EXPECT_EQ(total.rx_bytes, 2520u);
  EXPECT_EQ(total.tx_packets, 3u);

  registry.Reset();
  EXPECT_EQ(registry.TrackedUids(), 0u);
}

TEST(TrafficStatsRegistry, DeviceLedgerMatchesProxyCapture) {
  // With QUIC blocked and the MITM CA installed, every successful
  // exchange of the browser's UID flows through the proxy — so the
  // device-side TrafficStats ledger and the proxy's flow databases
  // must agree byte-for-byte on sent traffic.
  core::FrameworkOptions options;
  options.catalog.popular_count = 6;
  options.catalog.sensitive_count = 2;
  core::Framework framework(options);
  framework.netstack().ResetTrafficStats();

  std::vector<const web::Site*> sites;
  for (const auto& site : framework.catalog().sites()) sites.push_back(&site);

  // DuckDuckGo: no pinned hosts, so no handshake ever fails and the
  // comparison is exact.
  auto result =
      core::RunCrawl(framework, *browser::FindSpec("DuckDuckGo"), sites);

  const auto* app =
      framework.device().FindApp("com.duckduckgo.mobile.android");
  ASSERT_NE(app, nullptr);
  auto ledger = framework.netstack().traffic_stats().ForUid(app->uid);

  uint64_t proxy_tx = result.engine_index->request_bytes_total() +
                     result.native_index->request_bytes_total();
  uint64_t proxy_flows =
      result.engine_flows->size() + result.native_flows->size();

  EXPECT_EQ(ledger.tx_bytes, proxy_tx);
  EXPECT_EQ(ledger.tx_packets, proxy_flows);
  EXPECT_EQ(ledger.failed_attempts, 0u);
  EXPECT_GT(ledger.rx_bytes, ledger.tx_bytes);  // responses dominate
}

TEST(TrafficStatsRegistry, PinFailuresShowAsFailedAttempts) {
  core::FrameworkOptions options;
  options.catalog.popular_count = 2;
  options.catalog.sensitive_count = 0;
  core::Framework framework(options);
  framework.netstack().ResetTrafficStats();

  auto& runtime =
      framework.PrepareBrowser(*browser::FindSpec("Brave"));
  runtime.Startup();  // go-updater.brave.com pinned → lost handshake

  const auto* app = framework.device().FindApp("com.brave.browser");
  auto ledger = framework.netstack().traffic_stats().ForUid(app->uid);
  EXPECT_GT(ledger.failed_attempts, 0u);
  framework.TeardownBrowser();
}

}  // namespace
}  // namespace panoptes::device
