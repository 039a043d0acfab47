// Servers for the generated web: one origin per catalog site plus a
// shared generic server per third-party service.
#pragma once

#include <memory>
#include <string>

#include "net/fabric.h"
#include "web/site.h"
#include "web/thirdparty.h"

namespace panoptes::web {

// Serves one site's landing page and its first-party subresources.
// The site and its rendered landing page are borrowed, not copied:
// they belong to a SiteCatalog that must outlive the server.
class OriginServer : public net::Server {
 public:
  OriginServer(const Site& site, const std::string& landing_html);

  net::HttpResponse Handle(const net::HttpRequest& request,
                           const net::ConnectionMeta& meta) override;

  const Site& site() const { return site_; }

  // How many requests this origin has answered (all paths).
  uint64_t hits() const { return hits_; }

 private:
  const Site& site_;
  const std::string& landing_html_;
  uint64_t hits_ = 0;
};

// Serves one third-party service's endpoints: bid responses for ad
// slots, pixels for analytics, script bodies for CDNs/social, font
// bytes. Body sizes are deterministic per path; script and font bodies
// are sized (net::HttpResponse::Filler), never materialized.
class ThirdPartyServer : public net::Server {
 public:
  explicit ThirdPartyServer(ThirdPartyService service);

  net::HttpResponse Handle(const net::HttpRequest& request,
                           const net::ConnectionMeta& meta) override;

  const ThirdPartyService& service() const { return service_; }
  uint64_t hits() const { return hits_; }

 private:
  ThirdPartyService service_;
  uint64_t hits_ = 0;
};

// A body of exactly `size` bytes, deterministic in `tag`: `tag|`
// repeated while a whole unit fits, then '.' padding.
std::string FillerBody(std::string_view tag, size_t size);

}  // namespace panoptes::web
