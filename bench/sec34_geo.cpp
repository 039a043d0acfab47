// §3.4: international data transfers. Crawling happens from an EU
// vantage point, yet the browsers that leak the full browsing history
// phone home to servers outside the EU: Yandex → Russia, QQ → China,
// UC International → Canada.
#include "analysis/geoip.h"
#include "analysis/historyleak.h"
#include "analysis/report.h"
#include "bench_common.h"
#include "util/rng.h"

using namespace panoptes;

int main() {
  bench::BenchReport bench_report("sec34_geo");
  bench::WallTimer bench_timer;
  bench::PrintHeader("§3.4 — international data transfers",
                     "history-leak destinations: Yandex→Russia, "
                     "QQ→China, UC International→Canada (all outside EU)");

  core::FrameworkOptions options = bench::DefaultOptions();
  options.catalog.popular_count = 40;
  options.catalog.sensitive_count = 0;
  core::Framework framework(options);
  auto sites = bench::AllSites(framework);
  analysis::GeoIpDb geo(framework.geo_plan().ranges());

  std::vector<net::Url> visited;
  for (const auto* site : sites) visited.push_back(site->landing_url);
  analysis::HistoryLeakDetector detector(visited);

  std::printf("device vantage point: %s (EU member)\n\n",
              framework.device().profile().country.c_str());

  analysis::TextTable table({"Browser", "Leak destination", "Country",
                             "Outside EU?"});
  int outside_eu_leakers = 0;
  bench::ForEachBrowserCrawl(
      framework, sites, {}, [&](const core::CrawlResult& result) {
        bool browser_flagged = false;
        for (bool engine : {false, true}) {
          const auto& store =
              engine ? *result.engine_flows : *result.native_flows;
          const auto& index =
              engine ? *result.engine_index : *result.native_index;
          for (const auto& leak : detector.Scan(store, index, engine)) {
            if (leak.granularity != analysis::LeakGranularity::kFullUrl) {
              continue;  // §3.4 focuses on the full-history leakers
            }
            auto transfers = analysis::ClassifyTransfers(
                index, {leak.destination_host}, geo);
            for (const auto& transfer : transfers) {
              table.AddRow({result.browser, transfer.host,
                            transfer.country_name,
                            transfer.outside_eu ? "YES" : "no"});
              if (transfer.outside_eu) browser_flagged = true;
            }
          }
        }
        if (browser_flagged) ++outside_eu_leakers;
      });
  std::printf("%s\n", table.Render().c_str());
  std::printf("browsers whose full-history reports leave the EU: %d "
              "(paper: 3)\n\n",
              outside_eu_leakers);

  // Wider view: every country receiving native traffic, per browser.
  std::printf("--- all countries receiving native traffic ---\n");
  bench::ForEachBrowserCrawl(
      framework, sites, {}, [&](const core::CrawlResult& result) {
        auto countries =
            analysis::CountriesContacted(*result.native_index, geo);
        std::string line = result.browser + ": ";
        for (size_t i = 0; i < countries.size(); ++i) {
          if (i != 0) line += ", ";
          line += countries[i].country_code + "(" +
                  std::to_string(countries[i].flows) + ")";
        }
        std::printf("%s\n", line.c_str());
      });
  bench_report.Metric("outside_eu_leakers", outside_eu_leakers);
  bench_report.Checksum("table", util::HashString(table.Render()));
  bench_report.Metric("wall_seconds", bench_timer.Seconds());
  bench_report.Write();
  return outside_eu_leakers == 3 ? 0 : 1;
}
