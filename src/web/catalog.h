// The crawl dataset: 500 Tranco-style popular sites plus 500 sensitive
// sites (society / religion / sexuality / health, as selected from the
// Curlie directory in the paper), all generated deterministically and
// installable into the network fabric.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "net/ipalloc.h"
#include "util/rng.h"
#include "web/site.h"
#include "web/sitegen.h"

namespace panoptes::web {

struct CatalogOptions {
  int popular_count = 500;
  int sensitive_count = 500;  // split evenly across the four categories
  SiteGenOptions sitegen;
};

// Immutable once built: a fleet run generates one catalog and shares it
// read-only across every job's testbed.
class SiteCatalog {
 public:
  // Generates the dataset from one seed.
  static SiteCatalog Generate(uint64_t seed, const CatalogOptions& options = {});

  // Wraps an externally built site vector (e.g. loaded from a site
  // list file) into a catalog.
  static SiteCatalog FromSites(std::vector<Site> sites);

  const std::vector<Site>& sites() const { return sites_; }
  // RenderLandingHtml(sites()[index]), rendered once when the catalog
  // is built.
  const std::string& landing_html(size_t index) const {
    return landing_html_[index];
  }

  const Site* FindByHost(std::string_view hostname) const;

  std::vector<const Site*> SitesInCategory(SiteCategory category) const;

  // All popular sites, in rank order.
  std::vector<const Site*> PopularSites() const;
  // All sensitive-category sites.
  std::vector<const Site*> SensitiveSites() const;

 private:
  explicit SiteCatalog(std::vector<Site> sites);

  std::vector<Site> sites_;
  std::vector<std::string> landing_html_;  // parallel to sites_
};

// Installs origin servers for every catalog site and a generic server
// for every third-party service into `network`. Origin addresses are
// drawn from `origin_blocks` round-robin (so the dataset spans hosting
// regions); third parties from `thirdparty_block`. The origin servers
// borrow `catalog`'s sites and pages, so it must outlive `network`.
void InstallWeb(const SiteCatalog& catalog, net::Network& network,
                std::vector<net::IpAllocator>& origin_blocks,
                net::IpAllocator& thirdparty_block);

}  // namespace panoptes::web
