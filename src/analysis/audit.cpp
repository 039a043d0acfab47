#include "analysis/audit.h"

#include "analysis/battery.h"
#include "analysis/flow_index.h"
#include "analysis/report.h"

namespace panoptes::analysis {

bool BrowserAuditReport::LeaksFullUrl() const {
  for (const auto* findings : {&native_leaks, &engine_leaks}) {
    for (const auto& leak : *findings) {
      if (leak.granularity == LeakGranularity::kFullUrl) return true;
    }
  }
  return false;
}

bool BrowserAuditReport::ContactsNonEu() const {
  for (const auto& share : countries) {
    if (!share.eu_member) return true;
  }
  return false;
}

BrowserAuditReport AuditBrowser(const core::FleetJobResult& result,
                                const web::SiteCatalog& catalog,
                                const HostsList& hosts_list,
                                const GeoIpDb& geo, int analysis_jobs) {
  const browser::BrowserSpec& spec = result.job.spec;
  const core::CrawlResult& crawl = *result.crawl;
  BrowserAuditReport report;
  report.browser = spec.name;
  report.version = spec.version;
  report.sites_visited = crawl.visits.size();
  report.stack = crawl.stack_stats;

  // The crawl indexed both stores at capture end; every analysis below
  // consumes the pre-parsed columns instead of rescanning the flows.
  // The analyzers are independent — each reads the frozen (stores,
  // indexes) pair and writes its own report field — so the battery may
  // run them concurrently without changing a byte of output.
  PiiScanner scanner(result.job.cohort.profile);

  std::vector<net::Url> visited;
  visited.reserve(catalog.sites().size());
  for (const auto& site : catalog.sites()) visited.push_back(site.landing_url);
  HistoryLeakDetector detector(std::move(visited));

  AnalysisBattery battery(analysis_jobs);
  battery.Add("battery.stats.requests", [&] {
    report.requests = ComputeRequestStats(crawl);
  });
  battery.Add("battery.stats.volume", [&] {
    report.volume = ComputeVolumeStats(crawl);
  });
  battery.Add("battery.stats.domains", [&] {
    report.domains =
        ComputeDomainStats(crawl, VendorDomainsFor(spec.name), hosts_list);
  });
  battery.Add("battery.pii", [&] {
    report.pii = scanner.Scan(*crawl.native_index);
  });
  battery.Add("battery.history.native", [&] {
    report.native_leaks =
        detector.Scan(*crawl.native_flows, *crawl.native_index);
  });
  battery.Add("battery.history.engine", [&] {
    report.engine_leaks =
        detector.Scan(*crawl.engine_flows, *crawl.engine_index, true);
  });
  battery.Add("battery.geo", [&] {
    report.countries = CountriesContacted(*crawl.native_index, geo);
  });
  battery.Add("battery.referer", [&] {
    report.referer =
        AnalyzeRefererLeakage(*crawl.engine_flows, *crawl.engine_index);
  });
  battery.Add("battery.uid_smuggling", [&] {
    report.smuggling =
        AnalyzeUidSmuggling(*crawl.engine_flows, *crawl.engine_index,
                            *crawl.native_flows, *crawl.native_index);
  });
  battery.Run();
  return report;
}

std::string RenderAuditMarkdown(
    const std::vector<BrowserAuditReport>& reports) {
  std::string out = "# Panoptes browser audit\n\n";

  out += "| Browser | Native ratio | Native bytes | Ad hosts | "
         "Full-URL leak | PII fields | Non-EU contact |\n";
  out += "|---|---|---|---|---|---|---|\n";
  for (const auto& report : reports) {
    out += "| " + report.browser + " | " +
           Ratio(report.requests.native_ratio) + " | +" +
           Percent(report.volume.native_extra_fraction) + " | " +
           std::to_string(report.domains.ad_related_hosts) + " | " +
           (report.LeaksFullUrl() ? "**YES**" : "no") + " | " +
           std::to_string(report.pii.LeakCount()) + " | " +
           (report.ContactsNonEu() ? "yes" : "no") + " |\n";
  }
  out += "\n";

  for (const auto& report : reports) {
    out += "## " + report.browser + " " + report.version + "\n\n";
    out += "- crawled " + std::to_string(report.sites_visited) +
           " sites: " + std::to_string(report.requests.engine_requests) +
           " engine / " + std::to_string(report.requests.native_requests) +
           " native requests (ratio " +
           Ratio(report.requests.native_ratio) + ")\n";
    out += "- distinct native hosts: " +
           std::to_string(report.domains.distinct_hosts) + " (" +
           Percent(report.domains.ad_related_fraction) +
           " ad/analytics-related)\n";

    for (const auto* findings :
         {&report.native_leaks, &report.engine_leaks}) {
      for (const auto& leak : *findings) {
        out += "- history leak → `" + leak.destination_host + "` (" +
               std::string(LeakGranularityName(leak.granularity)) + ", " +
               leak.encoding +
               (leak.persistent_identifier ? ", persistent identifier"
                                           : "") +
               (leak.via_engine_injection ? ", via JS injection" : "") +
               ", " + std::to_string(leak.report_count) + " reports)\n";
      }
    }

    if (report.pii.LeakCount() > 0) {
      out += "- PII leaked natively:";
      for (size_t i = 0; i < kPiiFieldCount; ++i) {
        if (report.pii.leaked[i]) {
          out += " ";
          out += PiiFieldName(static_cast<PiiField>(i));
          out += ";";
        }
      }
      out += "\n";
    }

    if (!report.countries.empty()) {
      out += "- native traffic lands in:";
      for (const auto& share : report.countries) {
        out += " " + share.country_code + "(" +
               std::to_string(share.flows) + ")";
      }
      out += "\n";
    }
    if (report.referer.leaking_requests > 0) {
      out += "- for contrast, the classic engine-side channel: " +
             std::to_string(report.referer.leaking_requests) +
             " cross-site embed fetches carried the visited page in "
             "their Referer\n";
    }
    if (!report.smuggling.findings.empty()) {
      out += "- " + std::to_string(report.smuggling.findings.size()) +
             " identifier value(s) smuggled across registrable domains "
             "(widest reached " +
             std::to_string(report.smuggling.findings.front().domains) +
             " domains)\n";
    }
    if (report.stack.pin_failures > 0) {
      out += "- " + std::to_string(report.stack.pin_failures) +
             " pinned handshakes were lost to the MITM (results are a "
             "lower bound)\n";
    }
    out += "\n";
  }
  return out;
}

}  // namespace panoptes::analysis
