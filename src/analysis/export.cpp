#include "analysis/export.h"

#include <array>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <set>
#include <unordered_map>

#include "analysis/flow_index.h"
#include "analysis/pii.h"
#include "analysis/uid_smuggling.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "util/clock.h"
#include "util/json.h"
#include "util/strings.h"

namespace panoptes::analysis {

namespace {

// Report-generation timing: spans for the trace view plus a histogram
// so slow exports show up in the metrics dump. Timing is telemetry
// only — the rendered report bytes never depend on it.
class ReportTimer {
 public:
  explicit ReportTimer(const char* name)
      : span_(name, "analysis"), start_ns_(util::SteadyNowNanos()) {}
  ~ReportTimer() {
    auto& registry = obs::MetricsRegistry::Default();
    static obs::Counter& reports = registry.GetCounter(
        "panoptes_analysis_reports_total", "Fleet reports rendered");
    static obs::Histogram& seconds = registry.GetHistogram(
        "panoptes_analysis_report_seconds",
        "Wall-clock time to render one fleet report");
    reports.Inc();
    seconds.Observe(
        static_cast<double>(util::SteadyNowNanos() - start_ns_) * 1e-9);
  }

 private:
  obs::ScopedSpan span_;
  int64_t start_ns_;
};

}  // namespace

std::string CsvField(std::string_view value) {
  bool needs_quoting =
      value.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quoting) return std::string(value);
  std::string out = "\"";
  out += util::ReplaceAll(value, "\"", "\"\"");
  out += "\"";
  return out;
}

std::string RenderCsv(const std::vector<std::string>& header,
                      const std::vector<std::vector<std::string>>& rows) {
  std::string out;
  auto append_row = [&](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size(); ++i) {
      if (i != 0) out += ',';
      out += CsvField(cells[i]);
    }
    out += '\n';
  };
  append_row(header);
  for (const auto& row : rows) append_row(row);
  return out;
}

std::string RequestStatsCsv(const std::vector<RequestStats>& stats) {
  std::vector<std::vector<std::string>> rows;
  for (const auto& row : stats) {
    rows.push_back({row.browser, std::to_string(row.engine_requests),
                    std::to_string(row.native_requests),
                    util::FormatDouble(row.native_ratio, 4)});
  }
  return RenderCsv(
      {"browser", "engine_requests", "native_requests", "native_ratio"},
      rows);
}

std::string VolumeStatsCsv(const std::vector<VolumeStats>& stats) {
  std::vector<std::vector<std::string>> rows;
  for (const auto& row : stats) {
    rows.push_back({row.browser, std::to_string(row.engine_bytes),
                    std::to_string(row.native_bytes),
                    util::FormatDouble(row.native_extra_fraction, 4)});
  }
  return RenderCsv(
      {"browser", "engine_bytes", "native_bytes", "native_extra_fraction"},
      rows);
}

std::string DomainStatsCsv(const std::vector<DomainStats>& stats) {
  std::vector<std::vector<std::string>> rows;
  for (const auto& row : stats) {
    rows.push_back({row.browser, std::to_string(row.distinct_hosts),
                    util::FormatDouble(row.third_party_fraction, 4),
                    util::FormatDouble(row.ad_related_fraction, 4),
                    util::Join(row.ad_hosts, ";")});
  }
  return RenderCsv({"browser", "distinct_hosts", "third_party_fraction",
                    "ad_related_fraction", "ad_hosts"},
                   rows);
}

std::string FlowStoreCsv(const proxy::FlowStore& store) {
  std::vector<std::vector<std::string>> rows;
  for (const auto& flow : store.flows()) {
    rows.push_back({util::FormatTimestamp(flow.time),
                    std::string(flow.browser),
                    std::string(proxy::TrafficOriginName(flow.origin)),
                    std::string(net::MethodName(flow.method)),
                    std::string(flow.url.text()),
                    std::to_string(flow.response_status),
                    std::to_string(flow.request_bytes),
                    std::to_string(flow.response_bytes),
                    flow.server_ip.ToString(),
                    flow.blocked ? "blocked" : ""});
  }
  return RenderCsv({"time", "browser", "origin", "method", "url", "status",
                    "request_bytes", "response_bytes", "server_ip", "note"},
                   rows);
}

namespace {

std::string SeedHex(uint64_t seed) {
  std::array<char, 19> buf{};
  std::snprintf(buf.data(), buf.size(), "0x%016llx",
                static_cast<unsigned long long>(seed));
  return std::string(buf.data());
}

// PII field names a report marks as leaked, in Table 2 order.
std::vector<std::string> PiiFieldNames(const PiiReport& report) {
  std::vector<std::string> names;
  for (size_t i = 0; i < kPiiFieldCount; ++i) {
    if (report.leaked[i]) {
      names.emplace_back(PiiFieldName(static_cast<PiiField>(i)));
    }
  }
  return names;
}

// True when any result simulates a synthesized cohort — the switch
// that turns on population columns/sections. A run of default-cohort
// jobs must render byte-identically to the pre-population format.
bool HasPopulation(const std::vector<core::FleetJobResult>& results) {
  for (const auto& result : results) {
    if (!result.job.cohort.IsDefault()) return true;
  }
  return false;
}

// The per-result findings array: one entry per PII evidence record,
// each carrying the full provenance chain of the ISSUE's observatory
// contract — flow_id, job (result index), visit, attempt,
// fault_injected. Everything is computed from data the result always
// carries (stores, visits, attempt count), never from the journal, so
// the report stays byte-identical with journaling on or off.
util::JsonArray FindingsJson(const PiiReport& report,
                             const proxy::FlowStore& store,
                             const std::vector<core::VisitRecord>& visits,
                             size_t job_index, int attempts) {
  std::unordered_map<uint64_t, uint32_t> ordinal_by_uid;
  ordinal_by_uid.reserve(store.size());
  for (uint32_t i = 0; i < store.size(); ++i) {
    ordinal_by_uid.emplace(store.flow(i).uid, i);
  }

  util::JsonArray findings;
  for (const PiiEvidence& evidence : report.evidence) {
    util::JsonObject finding;
    finding["analyzer"] = std::string("pii");
    finding["field"] = std::string(PiiFieldName(evidence.field));
    finding["host"] = evidence.host;
    finding["sample"] = evidence.sample;
    finding["flow_id"] = obs::FlowIdHex(evidence.flow_uid);
    finding["job"] = static_cast<uint64_t>(job_index);
    finding["attempt"] = static_cast<int64_t>(attempts);
    finding["visit"] = core::VisitOfUid(evidence.flow_uid, visits);
    auto it = ordinal_by_uid.find(evidence.flow_uid);
    finding["fault_injected"] =
        it != ordinal_by_uid.end() && store.flow(it->second).fault_injected;
    findings.push_back(util::Json(std::move(finding)));
  }
  return findings;
}

using CsvRows = std::vector<std::vector<std::string>>;

// One CSV over fleet results. `rows_of` gives a result's cells under
// `columns`; every row starts with the job's browser, campaign and seed
// and, in a population run, ends with its cohort, device and weight.
std::string FleetCsv(
    const std::vector<core::FleetJobResult>& results,
    const std::vector<std::string>& columns,
    const std::function<CsvRows(const core::FleetJobResult&)>& rows_of) {
  const bool population = HasPopulation(results);
  std::vector<std::string> header = {"browser", "campaign", "seed"};
  header.insert(header.end(), columns.begin(), columns.end());
  if (population) {
    header.insert(header.end(), {"cohort", "device", "cohort_weight"});
  }
  CsvRows rows;
  for (const auto& result : results) {
    for (auto& cells : rows_of(result)) {
      std::vector<std::string> row = {
          result.job.spec.name,
          std::string(core::CampaignKindName(result.job.kind)),
          SeedHex(result.seed)};
      row.insert(row.end(), std::make_move_iterator(cells.begin()),
                 std::make_move_iterator(cells.end()));
      if (population) {
        row.push_back(result.job.cohort.Label());
        row.push_back(result.job.cohort.profile.model);
        row.push_back(util::FormatDouble(result.job.cohort.weight, 6));
      }
      rows.push_back(std::move(row));
    }
  }
  return RenderCsv(header, rows);
}

// Population-weighted view of per-job metrics: what the *average
// synthetic user* of a population sees, per (browser, campaign) group
// in first-appearance (plan) order. Each group sums w_i * metric_i and
// unions the jobs' members; weighted means normalize by the group's
// weight mass so a sharded or partial run still reports per-user
// expectations.
class PopulationFold {
 public:
  void Add(const core::FleetJobResult& result,
           std::initializer_list<double> metrics,
           const std::vector<std::string>& members) {
    Group& group = GroupOf(result);
    const double w = result.job.cohort.weight;
    group.weight += w;
    if (group.sums.empty()) group.sums.resize(metrics.size());
    size_t i = 0;
    for (double metric : metrics) group.sums[i++] += w * metric;
    group.members.insert(members.begin(), members.end());
    ++group.cohorts;
  }

  // One JSON object per group: the weighted mean of metric i under
  // `metric_keys[i]` and the sorted member union under `members_key`.
  util::JsonArray Json(const std::vector<std::string>& metric_keys,
                       const std::string& members_key) const {
    util::JsonArray out;
    for (const Group& group : groups_) {
      util::JsonObject json;
      json["browser"] = group.browser;
      json["campaign"] = group.campaign;
      json["cohorts"] = group.cohorts;
      json["weight"] = group.weight;
      const double norm = group.weight > 0 ? group.weight : 1.0;
      for (size_t i = 0; i < metric_keys.size(); ++i) {
        json[metric_keys[i]] = group.sums[i] / norm;
      }
      json[members_key] =
          util::JsonArray(group.members.begin(), group.members.end());
      out.push_back(util::Json(std::move(json)));
    }
    return out;
  }

 private:
  struct Group {
    std::string browser;
    std::string campaign;
    double weight = 0;
    std::vector<double> sums;
    std::set<std::string> members;
    uint64_t cohorts = 0;
  };

  Group& GroupOf(const core::FleetJobResult& result) {
    std::string campaign(core::CampaignKindName(result.job.kind));
    for (Group& group : groups_) {
      if (group.browser == result.job.spec.name &&
          group.campaign == campaign) {
        return group;
      }
    }
    Group& group = groups_.emplace_back();
    group.browser = result.job.spec.name;
    group.campaign = std::move(campaign);
    return group;
  }

  std::vector<Group> groups_;
};

util::JsonObject SightingJson(const UidSighting& sighting,
                              const std::vector<core::VisitRecord>& visits) {
  util::JsonObject out;
  out["flow_id"] = obs::FlowIdHex(sighting.flow_uid);
  out["host"] = sighting.host;
  out["domain"] = sighting.domain;
  out["key"] = sighting.key;
  out["carrier"] = std::string(UidCarrierName(sighting.carrier));
  out["embedded"] = sighting.embedded;
  out["visit"] = core::VisitOfUid(sighting.flow_uid, visits);
  if (sighting.redirect_hop > 0) {
    out["hop"] = static_cast<uint64_t>(sighting.redirect_hop);
    out["redirect_of"] = obs::FlowIdHex(sighting.redirect_of);
    out["chain_head"] = obs::FlowIdHex(sighting.chain_head);
  }
  return out;
}

}  // namespace

std::string FleetSummaryCsv(
    const std::vector<core::FleetJobResult>& results) {
  ReportTimer timer("analysis.fleet_summary_csv");
  return FleetCsv(
      results,
      {"engine_requests", "native_requests", "native_ratio", "engine_bytes",
       "native_bytes", "pii_fields"},
      [](const core::FleetJobResult& result) -> CsvRows {
        const core::CaptureView capture = result.capture();
        const size_t pii = PiiScanner(result.job.cohort.profile)
                               .Scan(capture.native_index)
                               .LeakCount();
        return {{std::to_string(capture.engine_flows.size()),
                 std::to_string(capture.native_flows.size()),
                 util::FormatDouble(capture.NativeRatio(), 4),
                 std::to_string(capture.engine_index.request_bytes_total()),
                 std::to_string(capture.native_index.request_bytes_total()),
                 std::to_string(pii)}};
      });
}

std::string FleetReportJson(
    const std::vector<core::FleetJobResult>& results) {
  ReportTimer timer("analysis.fleet_report_json");
  const bool population = HasPopulation(results);
  PopulationFold fold;
  util::JsonArray entries;
  for (size_t job_index = 0; job_index < results.size(); ++job_index) {
    const auto& result = results[job_index];
    const core::CaptureView capture = result.capture();
    util::JsonObject entry;
    entry["browser"] = result.job.spec.name;
    entry["campaign"] =
        std::string(core::CampaignKindName(result.job.kind));
    entry["seed"] = SeedHex(result.seed);
    if (population && !result.job.cohort.IsDefault()) {
      const device::DeviceCohort& cohort = result.job.cohort;
      util::JsonObject cohort_json;
      cohort_json["label"] = cohort.Label();
      cohort_json["id"] = SeedHex(cohort.id);
      cohort_json["weight"] = cohort.weight;
      cohort_json["manufacturer"] = cohort.profile.manufacturer;
      cohort_json["model"] = cohort.profile.model;
      cohort_json["locale"] = cohort.profile.locale;
      cohort_json["country"] = cohort.profile.country;
      cohort_json["connection"] = cohort.profile.connection_type;
      cohort_json["rooted"] = cohort.profile.rooted;
      entry["cohort"] = util::Json(std::move(cohort_json));
    }
    const uint64_t native = capture.native_flows.size();
    entry["native_requests"] = native;
    entry["native_request_bytes"] = capture.native_index.request_bytes_total();
    // Keys only one campaign kind reports.
    if (result.crawl.has_value()) {
      entry["engine_requests"] =
          static_cast<uint64_t>(capture.engine_flows.size());
      entry["native_ratio"] = capture.NativeRatio();
      entry["engine_request_bytes"] =
          capture.engine_index.request_bytes_total();
      entry["incognito_effective"] = result.crawl->incognito_effective;
      entry["visits"] = static_cast<uint64_t>(capture.visits.size());
      uint64_t ok = 0;
      for (const auto& visit : capture.visits) ok += visit.ok ? 1 : 0;
      entry["visits_ok"] = ok;
      util::JsonArray hosts;
      for (auto& host : capture.native_index.SortedHosts()) {
        hosts.emplace_back(std::move(host));
      }
      entry["native_hosts"] = std::move(hosts);
    } else {
      util::JsonArray buckets;
      for (uint64_t count : result.idle->cumulative_by_bucket) {
        buckets.emplace_back(count);
      }
      entry["cumulative_by_bucket"] = std::move(buckets);
    }
    // PII fields and findings of the native capture, plus the job's
    // share of the population aggregate.
    PiiReport pii_report =
        PiiScanner(result.job.cohort.profile).Scan(capture.native_index);
    std::vector<std::string> pii_names = PiiFieldNames(pii_report);
    entry["pii_fields"] = util::JsonArray(pii_names.begin(), pii_names.end());
    entry["findings"] = FindingsJson(pii_report, capture.native_flows,
                                     capture.visits, job_index,
                                     result.attempts);
    if (population) {
      fold.Add(result,
               {static_cast<double>(native), capture.NativeRatio(),
                static_cast<double>(pii_names.size())},
               pii_names);
    }
    entries.push_back(util::Json(std::move(entry)));
  }
  util::JsonObject root;
  root["results"] = std::move(entries);
  if (population) {
    root["population"] = fold.Json({"weighted_native_requests",
                                    "weighted_native_ratio",
                                    "weighted_pii_fields"},
                                   "pii_field_union");
  }
  return util::Json(std::move(root)).Dump();
}

std::string UidSmugglingReportJson(
    const std::vector<core::FleetJobResult>& results) {
  ReportTimer timer("analysis.uid_smuggling_json");
  const bool population = HasPopulation(results);
  PopulationFold fold;
  util::JsonArray entries;
  for (const auto& result : results) {
    const core::CaptureView capture = result.capture();
    const UidSmugglingReport smuggling =
        AnalyzeUidSmuggling(capture.engine_flows, capture.engine_index,
                            capture.native_flows, capture.native_index);
    util::JsonObject entry;
    entry["browser"] = result.job.spec.name;
    entry["campaign"] = std::string(core::CampaignKindName(result.job.kind));
    entry["seed"] = SeedHex(result.seed);
    if (population && !result.job.cohort.IsDefault()) {
      const device::DeviceCohort& cohort = result.job.cohort;
      util::JsonObject cohort_json;
      cohort_json["label"] = cohort.Label();
      cohort_json["id"] = SeedHex(cohort.id);
      cohort_json["weight"] = cohort.weight;
      cohort_json["model"] = cohort.profile.model;
      entry["cohort"] = util::Json(std::move(cohort_json));
    }
    entry["values_examined"] = smuggling.values_examined;
    entry["flows_with_chains"] = smuggling.flows_with_chains;
    util::JsonArray findings;
    std::vector<std::string> values;
    for (const UidSmugglingFinding& finding : smuggling.findings) {
      util::JsonObject finding_json;
      finding_json["value"] = finding.value;
      finding_json["domains"] = finding.domains;
      finding_json["engine_sightings"] = finding.engine_sightings;
      finding_json["native_sightings"] = finding.native_sightings;
      finding_json["embedded_sightings"] = finding.embedded_sightings;
      finding_json["chained_sightings"] = finding.chained_sightings;
      finding_json["max_chain_hops"] =
          static_cast<uint64_t>(finding.max_chain_hops);
      finding_json["first_seen"] = finding.first_seen_millis;
      finding_json["last_seen"] = finding.last_seen_millis;
      util::JsonArray sightings;
      for (const UidSighting& sighting : finding.sightings) {
        sightings.push_back(util::Json(SightingJson(sighting, capture.visits)));
      }
      finding_json["sightings"] = std::move(sightings);
      findings.push_back(util::Json(std::move(finding_json)));
      if (population) values.push_back(finding.value);
    }
    entry["findings"] = std::move(findings);
    entries.push_back(util::Json(std::move(entry)));
    if (population) {
      fold.Add(result,
               {static_cast<double>(smuggling.findings.size()),
                static_cast<double>(smuggling.TotalSightings())},
               values);
    }
  }

  util::JsonObject root;
  root["results"] = std::move(entries);
  if (population) {
    root["population"] = fold.Json(
        {"weighted_findings", "weighted_sightings"}, "value_union");
  }
  return util::Json(std::move(root)).Dump();
}

std::string UidSmugglingCsv(
    const std::vector<core::FleetJobResult>& results) {
  ReportTimer timer("analysis.uid_smuggling_csv");
  return FleetCsv(
      results,
      {"value", "domains", "engine_sightings", "native_sightings",
       "embedded_sightings", "chained_sightings", "max_chain_hops"},
      [](const core::FleetJobResult& result) {
        const core::CaptureView capture = result.capture();
        const UidSmugglingReport smuggling =
            AnalyzeUidSmuggling(capture.engine_flows, capture.engine_index,
                                capture.native_flows, capture.native_index);
        CsvRows rows;
        for (const UidSmugglingFinding& finding : smuggling.findings) {
          rows.push_back({finding.value, std::to_string(finding.domains),
                          std::to_string(finding.engine_sightings),
                          std::to_string(finding.native_sightings),
                          std::to_string(finding.embedded_sightings),
                          std::to_string(finding.chained_sightings),
                          std::to_string(finding.max_chain_hops)});
        }
        return rows;
      });
}

std::string RunManifestJson(const core::RunManifest& manifest) {
  ReportTimer timer("analysis.run_manifest_json");
  return manifest.ToJson();
}

std::string WindowReportJson(std::string_view browser, const FlowIndex& index,
                             const device::DeviceProfile& profile) {
  ReportTimer timer("analysis.window_report_json");
  util::JsonObject root;
  root["browser"] = std::string(browser);
  root["native_requests"] = static_cast<uint64_t>(index.flow_count());
  root["native_request_bytes"] = index.request_bytes_total();
  root["native_response_bytes"] = index.response_bytes_total();

  util::JsonArray hosts;
  for (auto& host : index.SortedHosts()) hosts.emplace_back(std::move(host));
  root["native_hosts"] = std::move(hosts);
  std::set<std::string_view> domains;
  for (const auto& host : index.hosts()) domains.insert(host.domain);
  root["distinct_domains"] = static_cast<uint64_t>(domains.size());

  // Cumulative request count per absolute 10-second bucket (the Fig 5
  // shape, answered from the postings instead of a store rescan).
  util::JsonArray buckets;
  uint64_t cumulative = 0;
  for (const auto& [bucket, flows] : index.by_time_bucket()) {
    util::JsonObject entry;
    entry["t"] = bucket;
    cumulative += flows.size();
    entry["cumulative"] = cumulative;
    buckets.push_back(util::Json(std::move(entry)));
  }
  root["by_time_bucket"] = std::move(buckets);

  PiiScanner scanner(profile);
  PiiReport pii_report = scanner.Scan(index);
  util::JsonArray pii;
  for (size_t i = 0; i < kPiiFieldCount; ++i) {
    if (pii_report.leaked[i]) {
      pii.emplace_back(std::string(PiiFieldName(static_cast<PiiField>(i))));
    }
  }
  root["pii_fields"] = std::move(pii);
  return util::Json(std::move(root)).Dump();
}

}  // namespace panoptes::analysis
