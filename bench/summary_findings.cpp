// §5 capstone: programmatically verify the paper's six summary
// findings against a single reproduction run. Exits non-zero if any
// finding fails to reproduce.
#include "analysis/geoip.h"
#include "analysis/historyleak.h"
#include "analysis/hostslist.h"
#include "analysis/pii.h"
#include "analysis/report.h"
#include "analysis/stats.h"
#include "bench_common.h"

using namespace panoptes;

namespace {

struct Verdict {
  std::string finding;
  bool reproduced = false;
  std::string detail;
};

}  // namespace

int main() {
  bench::BenchReport bench_report("summary_findings");
  bench::WallTimer bench_timer;
  bench::PrintHeader("Summary — the paper's six findings (§5)",
                     "all six must reproduce");

  // The paper's 50/50 popular/sensitive mix; finding (1) is a ratio
  // over exactly this workload.
  core::Framework framework(bench::DefaultOptions());
  auto sites = bench::AllSites(framework);
  analysis::GeoIpDb geo(framework.geo_plan().ranges());
  auto hosts_list = analysis::HostsList::Default();

  std::vector<net::Url> visited;
  for (const auto* site : sites) visited.push_back(site->landing_url);
  analysis::HistoryLeakDetector detector(visited);

  double max_ratio = 0;
  std::set<std::string> full_url_leakers;
  std::set<std::string> incognito_leakers;
  std::set<std::string> persistent_id_leakers;
  std::set<std::string> outside_eu_leakers;
  std::set<std::string> ad_talkers;
  std::set<std::string> pii_leakers;

  core::CrawlOptions incognito;
  incognito.incognito = true;
  analysis::PiiScanner scanner(framework.device().profile());

  for (const auto& spec : browser::AllBrowserSpecs()) {
    auto result = core::RunCrawl(framework, spec, sites);
    max_ratio = std::max(max_ratio,
                         analysis::ComputeRequestStats(result).native_ratio);

    auto domain_stats = analysis::ComputeDomainStats(
        result, analysis::VendorDomainsFor(spec.name), hosts_list);
    if (domain_stats.ad_related_hosts > 0) ad_talkers.insert(spec.name);

    auto pii = scanner.Scan(*result.native_index);
    if (pii.LeakCount() > 0) pii_leakers.insert(spec.name);

    for (bool engine : {false, true}) {
      const auto& store = engine ? *result.engine_flows : *result.native_flows;
      const auto& index = engine ? *result.engine_index : *result.native_index;
      for (const auto& leak : detector.Scan(store, index, engine)) {
        if (leak.granularity != analysis::LeakGranularity::kFullUrl) {
          continue;
        }
        full_url_leakers.insert(spec.name);
        if (leak.persistent_identifier) {
          persistent_id_leakers.insert(spec.name);
        }
        auto transfers =
            analysis::ClassifyTransfers(index, {leak.destination_host}, geo);
        if (!transfers.empty() && transfers.front().outside_eu) {
          outside_eu_leakers.insert(spec.name);
        }
      }
    }
    // Same mechanism checked for Yandex's *companion* host-only report:
    // the persistent identifier rides api.browser.yandex.ru.
    for (const auto& leak :
         detector.Scan(*result.native_flows, *result.native_index)) {
      if (leak.persistent_identifier &&
          leak.destination_host != "cloudflare-dns.com" &&
          leak.destination_host != "dns.google") {
        persistent_id_leakers.insert(spec.name);
      }
    }
  }

  // Incognito sweep over the leakers.
  for (const char* name : {"Yandex", "QQ", "UC International"}) {
    auto result = core::RunCrawl(framework, *browser::FindSpec(name),
                                 sites, incognito);
    for (bool engine : {false, true}) {
      const auto& store = engine ? *result.engine_flows : *result.native_flows;
      const auto& index = engine ? *result.engine_index : *result.native_index;
      for (const auto& leak : detector.Scan(store, index, engine)) {
        if (leak.granularity == analysis::LeakGranularity::kFullUrl) {
          incognito_leakers.insert(name);
        }
      }
    }
  }

  std::vector<Verdict> verdicts;
  verdicts.push_back(
      {"(1) native traffic reaches ~1/3 of total requests",
       max_ratio > 1.0 / 3.0,
       "max native ratio " + analysis::Ratio(max_ratio)});
  verdicts.push_back(
      {"(2) Yandex, QQ, UC International report the exact page browsed",
       full_url_leakers ==
           std::set<std::string>{"Yandex", "QQ", "UC International"},
       "full-URL leakers: " + std::to_string(full_url_leakers.size())});
  verdicts.push_back(
      {"(3) Yandex reports ride a persistent identifier (Tor-proof)",
       persistent_id_leakers.count("Yandex") > 0,
       "persistent-id leakers incl. Yandex"});
  verdicts.push_back(
      {"(4) leaking persists in incognito / for sensitive content",
       incognito_leakers.size() == 3,
       std::to_string(incognito_leakers.size()) +
           "/3 still leak under the incognito request"});
  verdicts.push_back(
      {"(5) history reports land outside the EU",
       outside_eu_leakers ==
           std::set<std::string>{"Yandex", "QQ", "UC International"},
       "outside-EU leakers: " + std::to_string(outside_eu_leakers.size())});
  bool finding6 = ad_talkers.count("Opera") && ad_talkers.count("CocCoc") &&
                  ad_talkers.count("Dolphin") && ad_talkers.count("Mint") &&
                  pii_leakers.count("Opera") && pii_leakers.count("CocCoc");
  verdicts.push_back(
      {"(6) Opera/CocCoc/Dolphin/Mint talk to ad servers natively, "
       "leaking PII",
       finding6,
       std::to_string(ad_talkers.size()) + " ad-talking browsers, " +
           std::to_string(pii_leakers.size()) + " PII-leaking"});

  bool all_ok = true;
  for (const auto& verdict : verdicts) {
    std::printf("[%s] %s — %s\n",
                verdict.reproduced ? "REPRODUCED" : "FAILED   ",
                verdict.finding.c_str(), verdict.detail.c_str());
    all_ok = all_ok && verdict.reproduced;
  }
  int reproduced = 0;
  for (const auto& verdict : verdicts) {
    if (verdict.reproduced) ++reproduced;
  }
  bench_report.Metric("findings_reproduced", reproduced);
  bench_report.Metric("wall_seconds", bench_timer.Seconds());
  bench_report.Write();
  return all_ok ? 0 : 1;
}
