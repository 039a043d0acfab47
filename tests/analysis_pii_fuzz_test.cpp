// Property suite for the PII scanner: randomised embeddings of device
// values must be found; randomised clean traffic must never trigger.
#include <gtest/gtest.h>

#include "analysis/flow_index.h"
#include "analysis/pii.h"
#include "util/base64.h"
#include "util/json.h"
#include "util/rng.h"

namespace panoptes::analysis {
namespace {

struct Embedding {
  PiiField field;
  std::string key;
  std::string value;
};

// The twelve fields with plausible key spellings per field, as
// different vendors would name them.
std::vector<Embedding> CandidateEmbeddings(
    const device::DeviceProfile& profile, util::Rng& rng) {
  auto pick = [&](std::initializer_list<const char*> keys) {
    std::vector<const char*> v(keys);
    return std::string(v[rng.NextBelow(v.size())]);
  };
  std::string resolution = std::to_string(profile.screen_width) + "x" +
                           std::to_string(profile.screen_height);
  return {
      {PiiField::kDeviceType, pick({"devtype", "deviceType", "device_type"}),
       profile.device_type},
      {PiiField::kManufacturer, pick({"manuf", "vendor", "deviceVendor"}),
       profile.manufacturer},
      {PiiField::kTimezone, pick({"tz", "timezone", "zone"}),
       profile.timezone},
      {PiiField::kResolution, pick({"res", "screen", "display"}),
       resolution},
      {PiiField::kLocalIp, pick({"lip", "localIp", "ip_local"}),
       profile.local_ip.ToString()},
      {PiiField::kDpi, pick({"dpi", "screenDpi"}),
       std::to_string(profile.dpi)},
      {PiiField::kRooted, pick({"rooted", "isRooted", "root_status"}),
       profile.rooted ? "true" : "false"},
      {PiiField::kLocale, pick({"locale", "lang", "languageCode"}),
       profile.locale},
      {PiiField::kCountry, pick({"country", "countryCode", "cc"}),
       profile.country},
      {PiiField::kConnectionType, pick({"conn", "metering"}),
       profile.network_metering},
      {PiiField::kNetworkType, pick({"net", "connectionType", "network"}),
       profile.connection_type},
  };
}

class PiiFuzz : public ::testing::TestWithParam<int> {
 protected:
  PiiFuzz() : scanner_(device::DeviceProfile::PaperTestbed()) {}

  // Scans one flow the way a capture is scanned: through its index.
  PiiReport ScanOne(const proxy::Flow& flow) const {
    proxy::FlowStore store;
    store.Add(flow);
    return scanner_.Scan(FlowIndex::Build(store));
  }

  PiiScanner scanner_;
};

TEST_P(PiiFuzz, EmbeddedFieldsAreFound) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  auto profile = device::DeviceProfile::PaperTestbed();
  auto embeddings = CandidateEmbeddings(profile, rng);
  rng.Shuffle(embeddings);
  size_t take = 1 + rng.NextBelow(embeddings.size());

  proxy::Flow flow;
  flow.url = net::Url::MustParse("https://vendor.example/t");
  // Sprinkle noise parameters around the PII.
  flow.url.AddQueryParam(rng.NextToken(4), rng.NextHex(8));
  for (size_t i = 0; i < take; ++i) {
    flow.url.AddQueryParam(embeddings[i].key, embeddings[i].value);
    flow.url.AddQueryParam(rng.NextToken(5), rng.NextToken(7));
  }

  PiiReport report = ScanOne(flow);
  for (size_t i = 0; i < take; ++i) {
    EXPECT_TRUE(report.Leaks(embeddings[i].field))
        << "missed " << PiiFieldName(embeddings[i].field) << " as "
        << embeddings[i].key << "=" << embeddings[i].value;
  }
}

TEST_P(PiiFuzz, JsonBodiesAreFoundToo) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 97 + 1);
  auto profile = device::DeviceProfile::PaperTestbed();
  auto embeddings = CandidateEmbeddings(profile, rng);
  const auto& chosen = embeddings[rng.NextBelow(embeddings.size())];

  util::JsonObject body;
  body[rng.NextToken(5)] = rng.NextToken(9);
  body[chosen.key] = chosen.value;
  proxy::Flow flow;
  flow.url = net::Url::MustParse("https://vendor.example/collect");
  flow.request_body = util::Json(std::move(body)).Dump();

  PiiReport report = ScanOne(flow);
  EXPECT_TRUE(report.Leaks(chosen.field))
      << PiiFieldName(chosen.field) << " in body " << flow.request_body;
}

TEST_P(PiiFuzz, RandomCleanTrafficNeverTriggers) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 131 + 3);
  proxy::Flow flow;
  flow.url = net::Url::MustParse("https://clean.example/api");
  for (int i = 0; i < 8; ++i) {
    // Random tokens: lowercase alphanumerics can never equal the
    // profile's distinctive values (which contain uppercase, dots or
    // dashes), and key-anchored rules need matching keys AND values.
    flow.url.AddQueryParam(rng.NextToken(6), rng.NextToken(10));
    flow.url.AddQueryParam(rng.NextToken(4), std::to_string(rng.NextBelow(100000)));
  }
  PiiReport report = ScanOne(flow);
  EXPECT_EQ(report.LeakCount(), 0u)
      << "false positive on " << flow.url.Serialize();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PiiFuzz, ::testing::Range(0, 25));

}  // namespace
}  // namespace panoptes::analysis
