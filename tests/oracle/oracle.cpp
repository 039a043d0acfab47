#include "oracle/oracle.h"

#include <algorithm>
#include <map>

#include "net/psl.h"
#include "net/url.h"
#include "util/base64.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/strings.h"

namespace panoptes::oracle {

// The analyzers' private per-value PII scan and history-leak matching
// are shared with the index path; only flow decoding is re-done here.
struct Access {
  static void ScanPiiFlow(const analysis::PiiScanner& scanner,
                          const proxy::FlowView& flow,
                          analysis::PiiReport& report);
  static std::vector<analysis::LeakFinding> ScanHistory(
      const analysis::HistoryLeakDetector& detector,
      const proxy::FlowStore& flows, bool engine_store);
};

void Access::ScanPiiFlow(const analysis::PiiScanner& scanner,
                         const proxy::FlowView& flow,
                         analysis::PiiReport& report) {
  const std::string host(flow.Host());
  const uint64_t flow_uid = flow.uid;

  for (const auto& [key, value] : flow.url.QueryParams()) {
    scanner.ScanText(key, value, host, flow_uid, report);
    // Values may be Base64-wrapped (the paper decodes them too).
    if (auto decoded = util::Base64Decode(value);
        decoded && value.size() >= 8) {
      scanner.ScanText(key, *decoded, host, flow_uid, report);
    }
  }

  if (flow.request_body.empty()) return;
  auto json = util::Json::Parse(flow.request_body);
  if (!json || !json->is_object()) return;
  for (const auto& [key, value] : json->as_object()) {
    if (value.is_string()) {
      scanner.ScanText(key, value.as_string(), host, flow_uid, report);
    } else if (value.is_number()) {
      double number = value.as_number();
      // Exact integers print bare; keep enough precision for lat/lon.
      std::string text = number == static_cast<int64_t>(number)
                             ? std::to_string(static_cast<int64_t>(number))
                             : util::FormatDouble(number, 4);
      scanner.ScanText(key, text, host, flow_uid, report);
    } else if (value.is_bool()) {
      scanner.ScanText(key, value.as_bool() ? "true" : "false", host,
                       flow_uid, report);
    }
  }

  // Resolution split across two JSON numbers (Opera's oleads body).
  const device::DeviceProfile& profile = scanner.profile_;
  const auto* width = json->Find("deviceScreenWidth");
  const auto* height = json->Find("deviceScreenHeight");
  if (width != nullptr && height != nullptr && width->is_number() &&
      height->is_number() &&
      static_cast<int>(width->as_number()) == profile.screen_width &&
      static_cast<int>(height->as_number()) == profile.screen_height) {
    std::string joined = std::to_string(profile.screen_width) + "x" +
                         std::to_string(profile.screen_height);
    analysis::PiiScanner::Mark(report, analysis::PiiField::kResolution, host,
                               util::HashString(joined),
                               "deviceScreenWidth/Height=" + joined, flow_uid);
  }
}

std::vector<analysis::LeakFinding> Access::ScanHistory(
    const analysis::HistoryLeakDetector& detector,
    const proxy::FlowStore& flows, bool engine_store) {
  std::map<std::string, analysis::HistoryLeakDetector::Accumulator>
      by_destination;

  for (const auto& flow : flows.flows()) {
    const std::string destination(flow.Host());
    // Flows to a visited site itself are the visit, not a leak; the
    // interesting case is a *different* destination learning the URL.
    if (detector.visited_hosts_.count(destination) > 0) continue;

    // Candidate texts: decoded query parameter values (each followed by
    // its Base64-decoded twin when one exists), then the raw body, then
    // its percent-decoded form (form posts may carry the URL
    // percent-encoded). `owned` keeps the query strings alive for the
    // duration of the automaton pass.
    std::vector<std::string> owned;
    for (auto& [key, value] : flow.url.QueryParams()) {
      (void)key;
      auto decoded = util::Base64Decode(value);
      const bool twin = decoded.has_value() && value.size() >= 8;
      owned.push_back(std::move(value));
      if (twin) owned.push_back(std::move(*decoded));
    }
    std::string decoded_body;
    bool has_decoded_body = false;
    if (!flow.request_body.empty() &&
        flow.request_body.find('%') != std::string_view::npos) {
      decoded_body = util::PercentDecode(flow.request_body);
      has_decoded_body = true;
    }
    std::vector<std::string_view> candidates(owned.begin(), owned.end());
    if (!flow.request_body.empty()) {
      candidates.push_back(flow.request_body);
      if (has_decoded_body) candidates.push_back(decoded_body);
    }

    bool flow_matched = false;
    auto best_hit = detector.BestHit(candidates, flow_matched);
    if (!flow_matched) continue;

    auto& acc = by_destination[destination];
    if (best_hit.full_url) {
      ++acc.full_reports;
    } else {
      ++acc.host_reports;
    }
    if (acc.sample.empty() || best_hit.full_url) {
      acc.encoding = best_hit.encoding;
      acc.sample = best_hit.sample;
      acc.flow_uid = flow.uid;
    }

    // Does a stable identifier accompany the report?
    for (const auto& [key, value] : flow.url.QueryParams()) {
      (void)key;
      if (analysis::LooksLikeIdentifier(value)) {
        acc.persistent_identifier = true;
        acc.identifier_sample = value;
      }
    }
    if (!flow.request_body.empty()) {
      if (auto json = util::Json::Parse(flow.request_body);
          json && json->is_object()) {
        for (const auto& [key, value] : json->as_object()) {
          (void)key;
          if (value.is_string() &&
              analysis::LooksLikeIdentifier(value.as_string())) {
            acc.persistent_identifier = true;
            acc.identifier_sample = value.as_string();
          }
        }
      }
    }
  }

  return analysis::HistoryLeakDetector::Finalize(by_destination, engine_store);
}

analysis::PiiReport ScanPii(const analysis::PiiScanner& scanner,
                            const proxy::FlowStore& flows) {
  analysis::PiiReport report;
  for (const auto& flow : flows.flows()) {
    Access::ScanPiiFlow(scanner, flow, report);
  }
  return report;
}

std::vector<analysis::LeakFinding> ScanHistory(
    const analysis::HistoryLeakDetector& detector,
    const proxy::FlowStore& flows, bool engine_store) {
  return Access::ScanHistory(detector, flows, engine_store);
}

analysis::RefererReport AnalyzeRefererLeakage(
    const proxy::FlowStore& engine_flows) {
  struct PerHost {
    uint64_t requests = 0;
    std::set<std::string> sites;
  };
  analysis::RefererReport report;
  std::map<std::string, PerHost> by_host;

  for (const auto& flow : engine_flows.flows()) {
    ++report.engine_requests;
    auto referer = flow.request_headers.Get("Referer");
    if (!referer) continue;
    auto referer_url = net::Url::Parse(*referer);
    if (!referer_url) continue;
    if (net::RegistrableDomain(flow.Host()) ==
        net::RegistrableDomain(referer_url->host())) {
      continue;
    }
    ++report.leaking_requests;
    auto& entry = by_host[std::string(flow.Host())];
    ++entry.requests;
    entry.sites.insert(referer_url->host());
  }

  for (auto& [host, entry] : by_host) {
    analysis::RefererLeak leak;
    leak.third_party_host = host;
    leak.requests = entry.requests;
    leak.distinct_sites = entry.sites.size();
    report.leaks.push_back(std::move(leak));
  }
  std::sort(report.leaks.begin(), report.leaks.end(),
            [](const analysis::RefererLeak& a, const analysis::RefererLeak& b) {
              return a.requests > b.requests;
            });
  return report;
}

std::vector<analysis::CountryShare> CountriesContacted(
    const proxy::FlowStore& flows, const analysis::GeoIpDb& db) {
  std::map<std::string, analysis::CountryShare> by_code;
  std::map<std::string, std::set<std::string>> hosts_by_code;
  for (const auto& flow : flows.flows()) {
    auto info = db.Lookup(flow.server_ip);
    std::string code = info ? info->country_code : "??";
    auto& share = by_code[code];
    if (share.flows == 0) {
      share.country_code = code;
      share.country_name = info ? info->country_name : "unknown";
      share.eu_member = info && info->eu_member;
    }
    ++share.flows;
    hosts_by_code[code].insert(std::string(flow.Host()));
  }
  std::vector<analysis::CountryShare> out;
  for (auto& [code, share] : by_code) {
    for (const auto& host : hosts_by_code[code]) {
      share.hosts.push_back(host);
    }
    out.push_back(std::move(share));
  }
  std::sort(out.begin(), out.end(),
            [](const analysis::CountryShare& a,
               const analysis::CountryShare& b) { return a.flows > b.flows; });
  return out;
}

std::vector<analysis::TransferFinding> ClassifyTransfers(
    const proxy::FlowStore& flows, const std::vector<std::string>& hosts,
    const analysis::GeoIpDb& db) {
  std::vector<analysis::TransferFinding> out;
  for (const auto& host : hosts) {
    auto matching = flows.ToHost(host);
    if (matching.empty()) continue;
    auto info = db.Lookup(matching.front().server_ip);
    analysis::TransferFinding finding;
    finding.host = host;
    finding.country_code = info ? info->country_code : "??";
    finding.country_name = info ? info->country_name : "unknown";
    finding.outside_eu = !info || !info->eu_member;
    out.push_back(std::move(finding));
  }
  return out;
}

analysis::NaiveSplitter::Score EvaluateSplit(
    const analysis::NaiveSplitter& splitter,
    const proxy::FlowStore& engine_flows,
    const proxy::FlowStore& native_flows) {
  analysis::NaiveSplitter::Score score;
  auto score_store = [&](const proxy::FlowStore& flows,
                         proxy::TrafficOrigin truth) {
    for (const auto& flow : flows.flows()) {
      ++score.total;
      proxy::TrafficOrigin predicted = splitter.PredictHost(flow.Host());
      if (predicted == truth) {
        ++score.correct;
      } else if (truth == proxy::TrafficOrigin::kNative) {
        ++score.native_as_engine;
      } else {
        ++score.engine_as_native;
      }
    }
  };
  score_store(engine_flows, proxy::TrafficOrigin::kEngine);
  score_store(native_flows, proxy::TrafficOrigin::kNative);
  if (score.total > 0) {
    score.accuracy =
        static_cast<double>(score.correct) / static_cast<double>(score.total);
  }
  return score;
}

analysis::DnsLeakageReport AnalyzeDnsLeakage(
    const proxy::FlowStore& native_flows,
    const std::set<std::string>& visited_hosts) {
  analysis::DnsLeakageReport report;
  for (const auto& flow : native_flows.flows()) {
    if (!analysis::IsDohProviderHost(flow.Host()) ||
        flow.url.path() != "/dns-query") {
      continue;
    }

    auto name = flow.url.QueryParam("name");
    if (!name) continue;
    report.uses_doh = true;
    report.provider_host = flow.Host();
    ++report.queries;
    std::string lowered = util::ToLower(*name);
    report.domains_leaked.insert(lowered);
    if (visited_hosts.count(lowered) > 0) {
      ++report.visited_site_lookups;
    }
  }
  return report;
}

uint64_t RequestBytes(const proxy::FlowStore& flows) {
  uint64_t total = 0;
  for (const auto& flow : flows.flows()) total += flow.request_bytes;
  return total;
}

std::set<std::string> DistinctHosts(const proxy::FlowStore& flows) {
  std::set<std::string> out;
  for (const auto& flow : flows.flows()) out.insert(std::string(flow.Host()));
  return out;
}

}  // namespace panoptes::oracle
