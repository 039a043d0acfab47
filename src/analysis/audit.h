// One-call browser audit: everything the paper measures about a
// browser, gathered from a single fleet crawl into one structure, plus a
// Markdown renderer. This is the API a downstream adopter (regulator,
// vendor QA, researcher) calls; the bench binaries print the same
// numbers figure by figure.
#pragma once

#include <string>
#include <vector>

#include "analysis/geoip.h"
#include "analysis/historyleak.h"
#include "analysis/hostslist.h"
#include "analysis/pii.h"
#include "analysis/referer.h"
#include "analysis/stats.h"
#include "analysis/uid_smuggling.h"
#include "core/fleet.h"
#include "web/catalog.h"

namespace panoptes::analysis {

struct BrowserAuditReport {
  std::string browser;
  std::string version;
  size_t sites_visited = 0;

  RequestStats requests;       // Fig 2 row
  VolumeStats volume;          // Fig 4 row
  DomainStats domains;         // Fig 3 row
  PiiReport pii;               // Table 2 row
  std::vector<LeakFinding> native_leaks;   // §3.2
  std::vector<LeakFinding> engine_leaks;   // §3.2 (UC-style injection)
  std::vector<CountryShare> countries;     // §3.4
  RefererReport referer;                   // classic engine-side channel
  UidSmugglingReport smuggling;            // cross-site identifier joins
  device::NetworkStackStats stack;         // pinning/QUIC accounting

  bool LeaksFullUrl() const;
  bool ContactsNonEu() const;
};

// Assembles the report from a crawl job's fleet result (run it with
// CrawlOptions::compact_engine_store off: the Referer analysis reads
// engine headers). `catalog` is the run's web (core::FleetCatalog),
// whose landing pages the history-leak scan looks for; the PII scan
// uses the job's device profile. `analysis_jobs` sets the analyzer
// battery's worker count (analysis/battery.h); any value produces
// byte-identical reports — 1 (the default) runs the analyzers serially.
BrowserAuditReport AuditBrowser(const core::FleetJobResult& result,
                                const web::SiteCatalog& catalog,
                                const HostsList& hosts_list,
                                const GeoIpDb& geo, int analysis_jobs = 1);

// Renders audits as a Markdown document (one section per browser plus
// a comparison table).
std::string RenderAuditMarkdown(
    const std::vector<BrowserAuditReport>& reports);

}  // namespace panoptes::analysis
