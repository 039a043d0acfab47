// §3.2: which browsers leak the browsing history, at what granularity,
// through which mechanism, and with what identifiers.
//
// Paper findings to reproduce:
//  - Yandex: full URL (Base64) to sba.yandex.net on *every* visit, plus
//    hostname + persistent identifier to api.browser.yandex.ru — users
//    trackable across Tor/VPN/IP changes.
//  - QQ: full URL via native phone-home.
//  - UC International: full URL + city-level geo + ISP via a JS snippet
//    injected into every page (engine traffic, not native).
//  - Edge: every visited domain to the Bing API.
//  - Opera: every visited domain to Opera Sitecheck.
#include "analysis/historyleak.h"
#include "analysis/report.h"
#include "bench_common.h"
#include "util/rng.h"

using namespace panoptes;

int main() {
  bench::BenchReport bench_report("sec32_history_leaks");
  bench::WallTimer bench_timer;
  bench::PrintHeader(
      "§3.2 — browsing-history leaks",
      "full URL: Yandex (base64 + persistent id), QQ, UC (JS "
      "injection); host-only: Edge→Bing, Opera→Sitecheck");

  core::FrameworkOptions options = bench::DefaultOptions();
  options.catalog.popular_count = 60;
  options.catalog.sensitive_count = 40;
  core::Framework framework(options);
  auto sites = bench::AllSites(framework);

  std::vector<net::Url> visited;
  for (const auto* site : sites) visited.push_back(site->landing_url);
  analysis::HistoryLeakDetector detector(visited);

  analysis::TextTable table({"Browser", "Destination", "Granularity",
                             "Encoding", "Reports", "Persistent id",
                             "Mechanism"});
  int full_url_leakers = 0;
  bench::ForEachBrowserCrawl(
      framework, sites, {}, [&](const core::CrawlResult& result) {
        auto native =
            detector.Scan(*result.native_flows, *result.native_index);
        auto engine =
            detector.Scan(*result.engine_flows, *result.engine_index, true);
        bool full = false;
        for (const auto* findings : {&native, &engine}) {
          for (const auto& leak : *findings) {
            if (leak.granularity == analysis::LeakGranularity::kFullUrl) {
              full = true;
            }
            table.AddRow(
                {result.browser, leak.destination_host,
                 std::string(LeakGranularityName(leak.granularity)),
                 leak.encoding, std::to_string(leak.report_count),
                 leak.persistent_identifier ? "yes" : "no",
                 leak.via_engine_injection ? "JS injection" : "native"});
          }
        }
        if (full) ++full_url_leakers;
      });
  std::printf("%s\n", table.Render().c_str());
  std::printf("browsers leaking the FULL visited URL: %d (paper: 3 — "
              "Yandex, QQ, UC International)\n",
              full_url_leakers);

  // Persistence: the Yandex identifier survives cookie clearing and an
  // IP change (Tor / VPN / proxy).
  std::printf("\n--- persistence across cookie wipe + IP change ---\n");
  const auto* yandex = browser::FindSpec("Yandex");
  std::vector<const web::Site*> two_sites(sites.begin(), sites.begin() + 2);

  auto first = core::RunCrawl(framework, *yandex, two_sites);
  const auto& api = *framework.vendor_world().yandex_api;
  std::string uuid_before = api.last_uuid();

  framework.device().ClearCookies(yandex->package);  // "clear browsing data"
  framework.device().SetPublicIp(net::IpAddress(185, 220, 101, 42));  // Tor

  core::CrawlOptions no_reset;
  no_reset.factory_reset = false;  // same installation, new identity?
  auto second = core::RunCrawl(framework, *yandex, two_sites, no_reset);
  std::string uuid_after = api.last_uuid();

  std::printf("identifier before: %s\n", uuid_before.c_str());
  std::printf("identifier after : %s\n", uuid_after.c_str());
  std::printf("distinct identifiers the vendor saw: %zu\n",
              api.uuids_seen().size());
  std::printf("=> %s\n", uuid_before == uuid_after
                             ? "SAME identifier: Tor/VPN/IP rotation does "
                               "not help (paper finding)"
                             : "identifiers differ (unexpected)");
  bench_report.Metric("full_url_leakers", full_url_leakers);
  bench_report.Checksum("table", util::HashString(table.Render()));
  bench_report.Metric("wall_seconds", bench_timer.Seconds());
  bench_report.Write();
  return uuid_before == uuid_after ? 0 : 1;
}
