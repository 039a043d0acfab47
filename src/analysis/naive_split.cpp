#include "analysis/naive_split.h"

#include "analysis/flow_index.h"
#include "net/psl.h"
#include "web/thirdparty.h"

namespace panoptes::analysis {

NaiveSplitter::NaiveSplitter(std::set<std::string> site_hosts) {
  // Canonicalize up front so lookups are case- and trailing-dot-
  // insensitive without per-flow rework.
  for (const auto& host : site_hosts) {
    std::string canonical = net::CanonicalHost(host);
    site_domains_.insert(net::RegistrableDomain(canonical));
    site_hosts_.insert(std::move(canonical));
  }
}

proxy::TrafficOrigin NaiveSplitter::PredictHost(
    std::string_view raw_host) const {
  return PredictCanonical(net::CanonicalHost(raw_host));
}

proxy::TrafficOrigin NaiveSplitter::PredictCanonical(
    const std::string& host) const {
  // Heuristic 1: requests to a crawled site (or its subdomains) are
  // engine traffic.
  if (site_hosts_.count(host) > 0 ||
      site_domains_.count(net::RegistrableDomain(host)) > 0) {
    return proxy::TrafficOrigin::kEngine;
  }
  // Heuristic 2: well-known web third parties (ads, analytics, CDNs,
  // fonts, social) are assumed to be page embeds.
  if (web::IsAdOrAnalyticsDomain(host)) return proxy::TrafficOrigin::kEngine;
  for (const auto& service : web::ThirdPartyPool()) {
    if (net::HostMatchesDomain(host, service.domain)) {
      return proxy::TrafficOrigin::kEngine;
    }
  }
  // Everything else looks vendor-ish.
  return proxy::TrafficOrigin::kNative;
}

void NaiveSplitter::ScoreIndex(const FlowIndex& index,
                               proxy::TrafficOrigin truth,
                               Score& score) const {
  for (size_t host_id = 0; host_id < index.hosts().size(); ++host_id) {
    const uint64_t count = index.by_host()[host_id].size();
    score.total += count;
    proxy::TrafficOrigin predicted =
        PredictCanonical(index.hosts()[host_id].canonical);
    if (predicted == truth) {
      score.correct += count;
    } else if (truth == proxy::TrafficOrigin::kNative) {
      score.native_as_engine += count;
    } else {
      score.engine_as_native += count;
    }
  }
}

NaiveSplitter::Score NaiveSplitter::Evaluate(
    const FlowIndex& engine_index, const FlowIndex& native_index) const {
  Score score;
  ScoreIndex(engine_index, proxy::TrafficOrigin::kEngine, score);
  ScoreIndex(native_index, proxy::TrafficOrigin::kNative, score);
  if (score.total > 0) {
    score.accuracy =
        static_cast<double>(score.correct) / static_cast<double>(score.total);
  }
  return score;
}

}  // namespace panoptes::analysis
