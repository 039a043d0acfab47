// CSV export of analysis results, so downstream tooling (spreadsheets,
// pandas, gnuplot) can consume crawl output without linking the
// library. Quoting follows RFC 4180.
#pragma once

#include <string>
#include <vector>

#include "analysis/stats.h"
#include "core/fleet.h"
#include "core/run_manifest.h"
#include "proxy/flowstore.h"

namespace panoptes::analysis {

// Quotes a single CSV field when needed (commas, quotes, newlines).
std::string CsvField(std::string_view value);

// Renders one CSV document from a header row and data rows.
std::string RenderCsv(const std::vector<std::string>& header,
                      const std::vector<std::vector<std::string>>& rows);

// Fig 2 rows: browser, engine_requests, native_requests, native_ratio.
std::string RequestStatsCsv(const std::vector<RequestStats>& stats);

// Fig 4 rows: browser, engine_bytes, native_bytes, native_extra.
std::string VolumeStatsCsv(const std::vector<VolumeStats>& stats);

// Fig 3 rows: browser, distinct_hosts, third_party_%, ad_%.
std::string DomainStatsCsv(const std::vector<DomainStats>& stats);

// Raw flow dump: one row per flow with its classification.
std::string FlowStoreCsv(const proxy::FlowStore& store);

// The fleet renderers below read every result through its
// core::CaptureView, so crawl and idle results share one layout; an
// idle row reports an empty engine side.
//
// Fleet rows: browser, campaign, seed, request counts, ratio, request
// bytes, PII field count. One row per (merged) fleet job result. The
// PII scan of each row searches for the values of *that job's* device
// cohort profile. Population runs (any non-default cohort) gain
// cohort/device/weight columns; default-cohort runs keep the legacy
// nine-column layout byte-identically.
std::string FleetSummaryCsv(const std::vector<core::FleetJobResult>& results);

// Canonical JSON export of a fleet campaign, in result order. Fully
// deterministic for a given result set — the differential harness
// compares serial and parallel runs byte-for-byte on this output.
// Each entry's PII scan uses its job's cohort profile. Crawl entries
// add the engine side, the native ratio, incognito, visit counts and
// native hosts; idle entries add the cumulative per-bucket timeline.
// Population runs
// add a per-entry "cohort" object and a root "population" section of
// weighted aggregates per (browser, campaign); default-cohort runs
// render byte-identically to the pre-population format.
std::string FleetReportJson(const std::vector<core::FleetJobResult>& results);

// The run manifest (degradation ledger) as JSON. Same determinism
// contract as FleetReportJson: simulated time and counts only.
std::string RunManifestJson(const core::RunManifest& manifest);

// UID-smuggling report family (analysis/uid_smuggling.h) over a fleet
// run: per result, the token-like parameter values observed at two or
// more registrable domains, each sighting carrying resolvable flow
// provenance (flow_id, visit, redirect-chain hop/predecessor/head).
// Deterministic for a given result set — the differential harness
// compares serial and parallel runs byte-for-byte on this output too.
// Population runs add a per-entry "cohort" object and a root
// "population" section of weighted per-(browser, campaign) aggregates;
// default-cohort runs omit both.
std::string UidSmugglingReportJson(
    const std::vector<core::FleetJobResult>& results);

// CSV twin: one row per finding (browser, campaign, seed, value,
// domains, carrier/chain counts). Population runs gain cohort/device/
// weight columns.
std::string UidSmugglingCsv(const std::vector<core::FleetJobResult>& results);

// Rolling-window report: answered entirely from the live incremental
// FlowIndex (no flow store, no terminal batch pass) — request counts,
// byte totals, distinct hosts/domains, the cumulative per-time-bucket
// timeline and the PII scan against `profile`'s values. Deterministic
// for a given (index, profile).
std::string WindowReportJson(std::string_view browser,
                             const analysis::FlowIndex& index,
                             const device::DeviceProfile& profile);

}  // namespace panoptes::analysis
