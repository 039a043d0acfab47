// Declarative experiment manifests: describe a measurement campaign as
// JSON (which browsers, crawl or idle, incognito or not, how many
// sites), run it with one call, get structured JSON results back.
// This is how the CLI exposes "bring your own experiment" without
// writing C++ (panoptes_cli run-manifest campaign.json).
//
// Lives in analysis (not core) because each entry's result is already
// analysed: split ratio, leak destinations, PII field count.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace panoptes::analysis {

enum class ManifestMode { kCrawl, kIdle };

struct ManifestEntry {
  std::string browser;   // display name from Table 1
  ManifestMode mode = ManifestMode::kCrawl;
  bool incognito = false;
  int64_t idle_minutes = 10;  // idle entries only
};

struct Manifest {
  uint64_t seed = 20231024;
  int popular_sites = 50;
  int sensitive_sites = 50;
  std::vector<ManifestEntry> entries;

  // Parses {"seed":..,"popular_sites":..,"sensitive_sites":..,
  //         "entries":[{"browser":"Yandex","mode":"crawl",
  //                     "incognito":false,"idle_minutes":10}, ...]}.
  // Every field but "entries" and "browser" is optional. Returns
  // nullopt on structural errors, unknown browsers or modes, and fields
  // present with the wrong JSON type or out of range.
  static std::optional<Manifest> FromJson(std::string_view text);

  std::string ToJson() const;
};

struct ManifestEntryResult {
  ManifestEntry entry;
  bool incognito_effective = false;
  uint64_t engine_requests = 0;
  uint64_t native_requests = 0;
  double native_ratio = 0;
  uint64_t full_url_leak_destinations = 0;
  uint64_t host_only_leak_destinations = 0;
  uint64_t pii_fields = 0;
};

struct ManifestResult {
  std::vector<ManifestEntryResult> entries;

  std::string ToJson() const;
};

// Plans each entry as one FleetJob (crawl, incognito crawl or idle) and
// runs the plan through a default core::FleetExecutor with the
// manifest's seed as base seed and its site counts as the catalog.
ManifestResult RunManifest(const Manifest& manifest);

}  // namespace panoptes::analysis
