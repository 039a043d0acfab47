#include "analysis/manifest.h"

#include <cmath>
#include <limits>

#include "analysis/flow_index.h"
#include "analysis/historyleak.h"
#include "analysis/pii.h"
#include "analysis/stats.h"
#include "browser/profiles.h"
#include "core/fleet.h"
#include "util/json.h"

namespace panoptes::analysis {

namespace {

std::string_view ModeName(ManifestMode mode) {
  return mode == ManifestMode::kCrawl ? "crawl" : "idle";
}

std::optional<ManifestMode> ParseMode(std::string_view name) {
  if (name == "crawl") return ManifestMode::kCrawl;
  if (name == "idle") return ManifestMode::kIdle;
  return std::nullopt;
}

// Reads the optional number `key` of `object` into `*out`. False when
// it is present but not an integer in [lo, hi]: a plain cast would
// truncate a fraction silently, and is undefined behaviour out of range.
template <typename T>
bool ReadInteger(const util::Json& object, std::string_view key, int64_t lo,
                 int64_t hi, T* out) {
  const auto* field = object.Find(key);
  if (field == nullptr) return true;
  if (!field->is_number()) return false;
  double value = field->as_number();
  if (!(value >= static_cast<double>(lo) &&
        value <= static_cast<double>(hi)) ||
      std::trunc(value) != value) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

}  // namespace

std::optional<Manifest> Manifest::FromJson(std::string_view text) {
  auto json = util::Json::Parse(text);
  if (!json || !json->is_object()) return std::nullopt;

  Manifest manifest;
  // Seeds stop at 2^53, the last integer a JSON number (a double) holds
  // exactly, so ToJson round-trips every accepted seed.
  constexpr int64_t kMaxSites = std::numeric_limits<int>::max();
  if (!ReadInteger(*json, "seed", 0, int64_t{1} << 53, &manifest.seed) ||
      !ReadInteger(*json, "popular_sites", 0, kMaxSites,
                   &manifest.popular_sites) ||
      !ReadInteger(*json, "sensitive_sites", 0, kMaxSites,
                   &manifest.sensitive_sites)) {
    return std::nullopt;
  }
  const int64_t sites =
      int64_t{manifest.popular_sites} + manifest.sensitive_sites;
  if (sites == 0 || sites > kMaxSites) return std::nullopt;

  const auto* entries = json->Find("entries");
  if (entries == nullptr || !entries->is_array() ||
      entries->as_array().empty()) {
    return std::nullopt;
  }
  for (const auto& item : entries->as_array()) {
    if (!item.is_object()) return std::nullopt;
    ManifestEntry entry;
    const auto* name = item.Find("browser");
    if (name == nullptr || !name->is_string()) return std::nullopt;
    entry.browser = name->as_string();
    if (browser::FindSpec(entry.browser) == nullptr) return std::nullopt;

    if (const auto* mode = item.Find("mode"); mode != nullptr) {
      auto parsed = mode->is_string() ? ParseMode(mode->as_string())
                                      : std::nullopt;
      if (!parsed) return std::nullopt;
      entry.mode = *parsed;
    }
    if (const auto* incognito = item.Find("incognito"); incognito != nullptr) {
      if (!incognito->is_bool()) return std::nullopt;
      entry.incognito = incognito->as_bool();
    }
    // At most the minutes a util::Duration (int64 milliseconds) holds.
    if (!ReadInteger(item, "idle_minutes", 1,
                     std::numeric_limits<int64_t>::max() / 60000,
                     &entry.idle_minutes)) {
      return std::nullopt;
    }
    manifest.entries.push_back(std::move(entry));
  }
  return manifest;
}

std::string Manifest::ToJson() const {
  util::JsonObject root;
  root["seed"] = static_cast<int64_t>(seed);
  root["popular_sites"] = popular_sites;
  root["sensitive_sites"] = sensitive_sites;
  util::JsonArray entry_array;
  for (const auto& entry : entries) {
    util::JsonObject object;
    object["browser"] = entry.browser;
    object["mode"] = std::string(ModeName(entry.mode));
    object["incognito"] = entry.incognito;
    if (entry.mode == ManifestMode::kIdle) {
      object["idle_minutes"] = entry.idle_minutes;
    }
    entry_array.emplace_back(std::move(object));
  }
  root["entries"] = std::move(entry_array);
  return util::Json(std::move(root)).Dump();
}

std::string ManifestResult::ToJson() const {
  util::JsonArray array;
  for (const auto& result : entries) {
    util::JsonObject object;
    object["browser"] = result.entry.browser;
    object["mode"] = std::string(ModeName(result.entry.mode));
    object["incognito_requested"] = result.entry.incognito;
    object["incognito_effective"] = result.incognito_effective;
    object["engine_requests"] = static_cast<int64_t>(result.engine_requests);
    object["native_requests"] = static_cast<int64_t>(result.native_requests);
    object["native_ratio"] = result.native_ratio;
    object["full_url_leak_destinations"] =
        static_cast<int64_t>(result.full_url_leak_destinations);
    object["host_only_leak_destinations"] =
        static_cast<int64_t>(result.host_only_leak_destinations);
    object["pii_fields"] = static_cast<int64_t>(result.pii_fields);
    array.emplace_back(std::move(object));
  }
  util::JsonObject root;
  root["results"] = std::move(array);
  return util::Json(std::move(root)).Dump();
}

ManifestResult RunManifest(const Manifest& manifest) {
  core::FleetOptions options;
  options.base_seed = manifest.seed;
  options.framework.catalog.popular_count = manifest.popular_sites;
  options.framework.catalog.sensitive_count = manifest.sensitive_sites;

  std::vector<core::FleetJob> jobs;
  for (const auto& entry : manifest.entries) {
    core::FleetJob& job = jobs.emplace_back();
    job.spec = *browser::FindSpec(entry.browser);
    if (entry.mode == ManifestMode::kIdle) {
      job.kind = core::CampaignKind::kIdle;
      job.idle.duration = util::Duration::Minutes(entry.idle_minutes);
    } else if (entry.incognito) {
      job.kind = core::CampaignKind::kIncognitoCrawl;
    }
  }
  auto results = core::FleetExecutor(options).Run(jobs);

  // Held in a local: a range-for over the temporary's sites() would
  // free the catalog before the loop reads it.
  const auto catalog = core::FleetCatalog(options);
  std::vector<net::Url> visited;
  for (const auto& site : catalog->sites()) {
    visited.push_back(site.landing_url);
  }
  HistoryLeakDetector detector(std::move(visited));

  ManifestResult result;
  for (size_t i = 0; i < results.size(); ++i) {
    const core::FleetJobResult& job_result = results[i];
    ManifestEntryResult& entry_result = result.entries.emplace_back();
    entry_result.entry = manifest.entries[i];
    const core::CaptureView capture = job_result.capture();
    entry_result.engine_requests = capture.engine_flows.size();
    entry_result.native_requests = capture.native_flows.size();
    entry_result.native_ratio = capture.NativeRatio();
    entry_result.pii_fields = PiiScanner(job_result.job.cohort.profile)
                                  .Scan(capture.native_index)
                                  .LeakCount();
    // History leaks are a crawl finding: an idle run visits no site.
    if (!job_result.crawl.has_value()) continue;
    entry_result.incognito_effective = job_result.crawl->incognito_effective;
    for (bool engine : {false, true}) {
      const auto& store = engine ? capture.engine_flows : capture.native_flows;
      const auto& index = engine ? capture.engine_index : capture.native_index;
      for (const auto& leak : detector.Scan(store, index, engine)) {
        if (leak.granularity == LeakGranularity::kFullUrl) {
          ++entry_result.full_url_leak_destinations;
        } else {
          ++entry_result.host_only_leak_destinations;
        }
      }
    }
  }
  return result;
}

}  // namespace panoptes::analysis
