#include "web/catalog.h"

#include <array>
#include <set>

#include "web/origin_server.h"
#include "web/thirdparty.h"

namespace panoptes::web {

namespace {

// Word pools for plausible hostnames. Popular names read like consumer
// brands; sensitive names follow each Curlie category's vocabulary.
constexpr std::array<std::string_view, 28> kPopularA = {
    "stream", "news",  "shop",   "cloud", "media",  "play",  "social",
    "video",  "photo", "travel", "food",  "sport",  "tech",  "game",
    "music",  "mail",  "search", "chat",  "market", "daily", "world",
    "smart",  "fast",  "meta",   "micro", "hyper",  "open",  "net",
};
constexpr std::array<std::string_view, 22> kPopularB = {
    "hub",    "zone",  "box",   "space", "base",  "dock",  "point",
    "lab",    "works", "land",  "link",  "gram",  "flix",  "ify",
    "ster",   "ly",    "io",    "now",   "plus",  "pro",   "go",
    "center",
};
constexpr std::array<std::string_view, 6> kPopularTld = {
    "com", "net", "org", "io", "co", "app",
};

constexpr std::array<std::string_view, 12> kSociety = {
    "conflictwatch", "warreport",   "civilrights",  "refugeeaid",
    "protestnews",   "antiwar",     "peaceforum",   "humanrights",
    "warfarearchive", "dissent",    "activistnet",  "libertyvoice",
};
constexpr std::array<std::string_view, 12> kReligion = {
    "faithpath",   "biblestudy",  "qurancenter", "dharmatalk",
    "templegate",  "prayerline",  "gospelhour",  "torahweekly",
    "meditatenow", "pilgrimway",  "sacredtexts", "parishhome",
};
constexpr std::array<std::string_view, 12> kSexuality = {
    "lgbtqsupport", "pridecommunity", "queeryouth",  "datingadvice",
    "intimacyhelp", "sexualhealth",   "rainbowlife", "identityforum",
    "comingoutaid", "transresource",  "acespace",    "partnertalk",
};
constexpr std::array<std::string_view, 12> kHealth = {
    "mentalcare",   "therapyhub",    "depressionaid", "anxietyhelp",
    "cancersupport", "hivinfo",      "addictionfree", "fertilityclinic",
    "painclinic",   "sleepdisorder", "eatingdisorder", "griefcounsel",
};

std::string MakePopularName(util::Rng& rng, int index,
                            std::set<std::string>& used) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::string a(kPopularA[rng.NextBelow(kPopularA.size())]);
    std::string b(kPopularB[rng.NextBelow(kPopularB.size())]);
    // Drop any non-ASCII pool entry artefact defensively.
    std::string stem;
    for (char c : a + b) {
      if (static_cast<unsigned char>(c) < 0x80) stem.push_back(c);
    }
    std::string tld(kPopularTld[rng.NextBelow(kPopularTld.size())]);
    std::string name = stem + "." + tld;
    if (used.insert(name).second) return name;
  }
  // Fall back to an indexed name; always unique.
  std::string name = "site" + std::to_string(index) + ".com";
  used.insert(name);
  return name;
}

std::string MakeSensitiveName(util::Rng& rng, SiteCategory category,
                              int index, std::set<std::string>& used) {
  const std::string_view* pool = nullptr;
  size_t pool_size = 0;
  switch (category) {
    case SiteCategory::kSociety:
      pool = kSociety.data();
      pool_size = kSociety.size();
      break;
    case SiteCategory::kReligion:
      pool = kReligion.data();
      pool_size = kReligion.size();
      break;
    case SiteCategory::kSexuality:
      pool = kSexuality.data();
      pool_size = kSexuality.size();
      break;
    case SiteCategory::kHealth:
      pool = kHealth.data();
      pool_size = kHealth.size();
      break;
    case SiteCategory::kPopular:
      break;
  }
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::string stem(pool[rng.NextBelow(pool_size)]);
    std::string name = stem + std::to_string(rng.NextInRange(1, 999)) +
                       ".org";
    if (used.insert(name).second) return name;
  }
  std::string name = std::string(SiteCategoryName(category)) +
                     std::to_string(index) + ".org";
  used.insert(name);
  return name;
}

}  // namespace

SiteCatalog::SiteCatalog(std::vector<Site> sites) : sites_(std::move(sites)) {
  landing_html_.reserve(sites_.size());
  for (const auto& site : sites_) {
    landing_html_.push_back(RenderLandingHtml(site));
  }
}

SiteCatalog SiteCatalog::Generate(uint64_t seed,
                                  const CatalogOptions& options) {
  std::vector<Site> sites;
  util::Rng rng(seed);
  std::set<std::string> used;

  for (int i = 0; i < options.popular_count; ++i) {
    std::string name = MakePopularName(rng, i, used);
    sites.push_back(GenerateSite(std::move(name), SiteCategory::kPopular,
                                 i + 1, rng.Fork("site"), options.sitegen));
  }

  constexpr SiteCategory kSensitive[] = {
      SiteCategory::kSociety, SiteCategory::kReligion,
      SiteCategory::kSexuality, SiteCategory::kHealth};
  for (int i = 0; i < options.sensitive_count; ++i) {
    SiteCategory category = kSensitive[i % 4];
    std::string name = MakeSensitiveName(rng, category, i, used);
    sites.push_back(GenerateSite(std::move(name), category, i + 1,
                                 rng.Fork("site"), options.sitegen));
  }
  return SiteCatalog(std::move(sites));
}

SiteCatalog SiteCatalog::FromSites(std::vector<Site> sites) {
  return SiteCatalog(std::move(sites));
}

const Site* SiteCatalog::FindByHost(std::string_view hostname) const {
  for (const auto& site : sites_) {
    if (site.hostname == hostname) return &site;
  }
  return nullptr;
}

std::vector<const Site*> SiteCatalog::SitesInCategory(
    SiteCategory category) const {
  std::vector<const Site*> out;
  for (const auto& site : sites_) {
    if (site.category == category) out.push_back(&site);
  }
  return out;
}

std::vector<const Site*> SiteCatalog::PopularSites() const {
  return SitesInCategory(SiteCategory::kPopular);
}

std::vector<const Site*> SiteCatalog::SensitiveSites() const {
  std::vector<const Site*> out;
  for (const auto& site : sites_) {
    if (IsSensitiveCategory(site.category)) out.push_back(&site);
  }
  return out;
}

void InstallWeb(const SiteCatalog& catalog, net::Network& network,
                std::vector<net::IpAllocator>& origin_blocks,
                net::IpAllocator& thirdparty_block) {
  const auto& sites = catalog.sites();
  for (size_t i = 0; i < sites.size(); ++i) {
    auto& block = origin_blocks[i % origin_blocks.size()];
    network.Host(sites[i].hostname, block.Next(),
                 std::make_shared<OriginServer>(sites[i],
                                                catalog.landing_html(i)),
                 sites[i].supports_h3);
  }
  for (const auto& service : ThirdPartyPool()) {
    network.Host(service.request_host, thirdparty_block.Next(),
                 std::make_shared<ThirdPartyServer>(service),
                 /*supports_h3=*/true);
  }
}

}  // namespace panoptes::web
