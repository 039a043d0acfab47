// Audits every browser and writes a single Markdown report — the
// deliverable a DPA / privacy team would actually read.
//
//   ./build/examples/full_report [--sites N] [--jobs N] [--out REPORT.md]
//
// Every browser is crawled through the fleet executor, then audited.
// --jobs sets the analyzer battery's worker count per browser; any
// value produces a byte-identical report (pinned by the Determinism
// suite), so it is purely a wall-clock knob.
#include <cstdio>
#include <fstream>

#include "analysis/audit.h"
#include "browser/profiles.h"
#include "core/fleet.h"
#include "util/args.h"
#include "vendors/geo_plan.h"

using namespace panoptes;

int main(int argc, char** argv) {
  auto args = util::Args::Parse(argc, argv);
  int site_count = static_cast<int>(args.IntOptionOr("sites", 60));
  int analysis_jobs = static_cast<int>(args.IntOptionOr("jobs", 1));

  core::FleetOptions options;
  options.framework.catalog.popular_count = site_count / 2;
  options.framework.catalog.sensitive_count = site_count - site_count / 2;
  core::CrawlOptions crawl;
  crawl.compact_engine_store = false;  // the Referer analysis reads headers
  auto jobs = core::FleetExecutor::PlanCampaign(
      browser::AllBrowserSpecs(), {core::CampaignKind::kCrawl}, 1, crawl);
  std::fprintf(stderr, "crawling %zu browsers...\n", jobs.size());
  auto results = core::FleetExecutor(options).Run(jobs);

  auto catalog = core::FleetCatalog(options);
  auto hosts_list = analysis::HostsList::Default();
  analysis::GeoIpDb geo(vendors::GeoPlan::Default().ranges());
  std::vector<analysis::BrowserAuditReport> reports;
  for (const auto& result : results) {
    std::fprintf(stderr, "auditing %s...\n", result.job.spec.name.c_str());
    reports.push_back(analysis::AuditBrowser(result, *catalog, hosts_list,
                                             geo, analysis_jobs));
  }

  std::string markdown = analysis::RenderAuditMarkdown(reports);
  std::string out_path = args.OptionOr("out", "");
  if (out_path.empty()) {
    std::printf("%s", markdown.c_str());
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << markdown;
    std::printf("wrote %s (%zu browsers, %zu sites each)\n",
                out_path.c_str(), reports.size(), catalog->sites().size());
  }
  return 0;
}
