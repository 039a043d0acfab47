#include "web/origin_server.h"

#include <algorithm>

#include "util/json.h"
#include "util/rng.h"

namespace panoptes::web {

namespace {

// Location for the first hop of `site`'s bounce chain. The remaining
// tracker hosts ride a `hops` parameter and the decorated landing URL
// rides `dest`, so each ThirdPartyServer hop is stateless.
std::string BounceLocation(const Site& site) {
  net::Url dest = site.landing_url;
  dest.AddQueryParam("pan_uid", site.smuggle_uid);
  net::Url loc =
      net::Url::MustParse("https://" + site.bounce_hosts.front() + "/bounce");
  loc.AddQueryParam("uid", site.smuggle_uid);
  std::string rest;
  for (size_t i = 1; i < site.bounce_hosts.size(); ++i) {
    if (!rest.empty()) rest += ',';
    rest += site.bounce_hosts[i];
  }
  if (!rest.empty()) loc.AddQueryParam("hops", rest);
  loc.AddQueryParam("dest", dest.Serialize());
  return loc.Serialize();
}

}  // namespace

std::string FillerBody(std::string_view tag, size_t size) {
  // The whole units are built by doubling the string, not one by one.
  size_t unit = tag.size() + 1;
  size_t repeated = size / unit * unit;
  std::string out;
  out.reserve(size);
  if (repeated > 0) {
    out.append(tag);
    out.push_back('|');
    while (out.size() < repeated) {
      out.append(out, 0, std::min(out.size(), repeated - out.size()));
    }
  }
  out.append(size - repeated, '.');
  return out;
}

OriginServer::OriginServer(const Site& site, const std::string& landing_html)
    : site_(site), landing_html_(landing_html) {}

net::HttpResponse OriginServer::Handle(const net::HttpRequest& request,
                                       const net::ConnectionMeta& meta) {
  (void)meta;
  ++hits_;
  const std::string& path = request.url.path();
  if (path == site_.landing_url.path()) {
    // First-party bounce: a landing hit that doesn't yet carry the
    // decoration parameter is 302'd through the site's tracker hops,
    // which hand the navigation back decorated with ?pan_uid=<uid>.
    if (site_.bounce_tracking && !site_.bounce_hosts.empty() &&
        !request.url.QueryParam("pan_uid")) {
      return net::HttpResponse::Redirect(BounceLocation(site_));
    }
    auto resp = net::HttpResponse::Ok(landing_html_);
    // First-party session cookie, deterministic per site. Lets the
    // engine's cookie jar (and incognito's refusal to persist it) be
    // observable in traffic.
    std::string cookie =
        "sid=" +
        std::to_string(util::HashString(site_.hostname) % 1000000007ULL) +
        "; Path=/";
    // `Secure` is only valid when the cookie is set over TLS: browsers
    // reject a Secure cookie arriving on plain http, which silently
    // killed sessions on http sites.
    if (site_.landing_url.scheme() == "https") cookie += "; Secure";
    resp.headers.Set("Set-Cookie", cookie);
    return resp;
  }
  for (const auto& resource : site_.resources) {
    if (!resource.third_party && resource.url.path() == path) {
      return net::HttpResponse::Filler(resource.body_size,
                                       ResourceContentType(resource.type));
    }
  }
  return net::HttpResponse::NotFound();
}

ThirdPartyServer::ThirdPartyServer(ThirdPartyService service)
    : service_(std::move(service)) {}

net::HttpResponse ThirdPartyServer::Handle(const net::HttpRequest& request,
                                           const net::ConnectionMeta& meta) {
  (void)meta;
  ++hits_;
  // Bounce-chain hop: drop a tracker cookie and forward the
  // navigation to the next hop, or to the decorated destination when
  // this tracker is the last. Stateless — uid/hops/dest all ride the
  // query string.
  if (request.url.path() == "/bounce") {
    auto uid = request.url.QueryParam("uid");
    auto dest = request.url.QueryParam("dest");
    if (uid && dest) {
      auto hops = request.url.QueryParam("hops");
      std::string location;
      if (hops && !hops->empty()) {
        size_t comma = hops->find(',');
        net::Url next = net::Url::MustParse(
            "https://" + hops->substr(0, comma) + "/bounce");
        next.AddQueryParam("uid", *uid);
        if (comma != std::string::npos) {
          next.AddQueryParam("hops", hops->substr(comma + 1));
        }
        next.AddQueryParam("dest", *dest);
        location = next.Serialize();
      } else {
        location = *dest;
      }
      auto resp = net::HttpResponse::Redirect(std::move(location));
      resp.headers.Set("Set-Cookie", "tuid=" + *uid + "; Path=/; Secure");
      return resp;
    }
    return net::HttpResponse::NotFound();
  }
  // Deterministic size per path so repeated crawls byte-match.
  util::Rng rng(util::HashString(request.url.RequestTarget()) ^
                util::HashString(service_.domain));
  switch (service_.kind) {
    case ThirdPartyKind::kAd: {
      util::JsonObject bid;
      bid["id"] = rng.NextHex(16);
      bid["cur"] = "USD";
      bid["price_cpm"] = rng.NextInRange(10, 450) / 100.0;
      bid["adm"] = FillerBody("creative", static_cast<size_t>(
                                              rng.NextInRange(1500, 6000)));
      return net::HttpResponse::Json(util::Json(std::move(bid)).Dump());
    }
    case ThirdPartyKind::kAnalytics: {
      net::HttpResponse resp;
      resp.status = 204;
      resp.headers.Set("Content-Length", "0");
      return resp;
    }
    case ThirdPartyKind::kSocial:
    case ThirdPartyKind::kCdn:
      return net::HttpResponse::Filler(
          static_cast<size_t>(rng.NextInRange(30'000, 150'000)),
          "application/javascript");
    case ThirdPartyKind::kFont:
      return net::HttpResponse::Filler(
          static_cast<size_t>(rng.NextInRange(20'000, 80'000)),
          "font/woff2");
  }
  return net::HttpResponse::NotFound();
}

}  // namespace panoptes::web
