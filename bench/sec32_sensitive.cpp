// §3.2 (sensitive content): the full-URL leakers apply no local
// filtering — visits to religion / sexuality / health / society sites
// are reported in exactly the same detail as everything else.
#include "analysis/historyleak.h"
#include "analysis/report.h"
#include "bench_common.h"
#include "util/rng.h"

using namespace panoptes;

int main() {
  bench::BenchReport bench_report("sec32_sensitive");
  bench::WallTimer bench_timer;
  bench::PrintHeader(
      "§3.2 — reporting visits to sensitive content",
      "Yandex, QQ and UC International leak the full URL of sensitive "
      "visits (religion, sexuality, health, society) too");

  core::FrameworkOptions options = bench::DefaultOptions();
  options.catalog.popular_count = 0;
  options.catalog.sensitive_count = 60;
  core::Framework framework(options);
  auto sites = bench::AllSites(framework);

  analysis::TextTable table({"Browser", "Category", "Visits",
                             "Full-URL reports received", "Filtered?"});

  for (const char* name : {"Yandex", "QQ", "UC International"}) {
    const auto* spec = browser::FindSpec(name);
    for (auto category :
         {web::SiteCategory::kSociety, web::SiteCategory::kReligion,
          web::SiteCategory::kSexuality, web::SiteCategory::kHealth}) {
      auto category_sites = framework.catalog().SitesInCategory(category);
      auto result = core::RunCrawl(framework, *spec, category_sites);

      std::vector<net::Url> visited;
      for (const auto* site : category_sites) {
        visited.push_back(site->landing_url);
      }
      analysis::HistoryLeakDetector detector(visited);
      uint64_t full_reports = 0;
      for (bool engine : {false, true}) {
        const auto& store =
            engine ? *result.engine_flows : *result.native_flows;
        const auto& index =
            engine ? *result.engine_index : *result.native_index;
        for (const auto& leak : detector.Scan(store, index, engine)) {
          if (leak.granularity == analysis::LeakGranularity::kFullUrl) {
            full_reports += leak.report_count;
          }
        }
      }
      bool filtered = full_reports < category_sites.size();
      table.AddRow({spec->name,
                    std::string(web::SiteCategoryName(category)),
                    std::to_string(category_sites.size()),
                    std::to_string(full_reports),
                    filtered ? "some filtering?" : "NO filtering"});
    }
  }
  std::printf("%s\n", table.Render().c_str());
  bench_report.Checksum("table", util::HashString(table.Render()));
  bench_report.Metric("wall_seconds", bench_timer.Seconds());
  bench_report.Write();
  return 0;
}
