// DNS-channel analysis (§3.2, DNS paragraph): 8 of the 15 browsers
// resolve visited domains through Cloudflare's or Google's
// DNS-over-HTTPS service — which means the resolver operator, a party
// the user never chose, learns every domain the user visits. This
// module quantifies that channel from the native flow store.
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "proxy/flowstore.h"

namespace panoptes::analysis {

class FlowIndex;

struct DnsLeakageReport {
  bool uses_doh = false;
  std::string provider_host;        // "cloudflare-dns.com" / "dns.google"
  uint64_t queries = 0;             // DoH lookups observed on the wire
  std::set<std::string> domains_leaked;  // distinct names asked for
  // How many of the leaked names were sites the user visited (vs the
  // browser's own infrastructure) — requires the visited list.
  uint64_t visited_site_lookups = 0;
};

// True when `host` is (or is a subdomain of) one of the DoH provider
// hosts the paper names. Case- and trailing-dot-insensitive,
// label-boundary-aware.
bool IsDohProviderHost(std::string_view host);

// Scans a native capture for DoH queries. `visited_hosts` (may be
// empty) classifies which lookups expose the browsing history itself.
// The provider classification runs once per distinct host and the
// query parameters come pre-decoded from the index.
DnsLeakageReport AnalyzeDnsLeakage(
    const FlowIndex& native_index,
    const std::set<std::string>& visited_hosts = {});

}  // namespace panoptes::analysis
