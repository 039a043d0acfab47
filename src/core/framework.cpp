#include "core/framework.h"

#include "util/rng.h"

namespace panoptes::core {

std::shared_ptr<const web::SiteCatalog> GenerateCatalog(
    const FrameworkOptions& options) {
  return std::make_shared<const web::SiteCatalog>(web::SiteCatalog::Generate(
      options.catalog_seed.value_or(options.seed), options.catalog));
}

Framework::Framework(FrameworkOptions options,
                     std::shared_ptr<const web::SiteCatalog> catalog)
    : options_(options),
      catalog_(catalog != nullptr ? std::move(catalog)
                                  : GenerateCatalog(options)),
      network_(options.seed ^ 0xFAB51Cull),
      geo_plan_(vendors::GeoPlan::Default()),
      device_(options.device_profile),
      netstack_(&device_, &network_, &clock_) {
  // The generated web.
  std::vector<net::IpAllocator> origin_blocks = {
      geo_plan_.Allocator("US-HOSTING"),
      geo_plan_.Allocator("DE-HOSTING"),
      geo_plan_.Allocator("NL-HOSTING"),
  };
  // Note: copies of the allocators are fine here — origin installation
  // happens once, and the geo ranges (not offsets) drive geolocation.
  web::InstallWeb(*catalog_, network_, origin_blocks,
                  geo_plan_.Allocator("US-ADTECH"));

  // The vendor backends.
  vendor_world_ = vendors::InstallVendors(network_, geo_plan_);

  // The proxy and its addon chain.
  proxy_ = std::make_unique<proxy::MitmProxy>(&network_,
                                              options_.seed ^ 0x917Full);
  taint_addon_ = std::make_shared<TaintFilterAddon>();
  proxy_->AddAddon(taint_addon_);
  proxy_->SetJournal(options_.journal);
  netstack_.SetDiverter(proxy_.get());
  netstack_.SetLatency(options_.latency);
  if (options_.use_geo_latency) {
    netstack_.SetLatencyModel(std::make_unique<net::GeoLatencyModel>(
        net::GeoLatencyModel::FromVantageGreece(geo_plan_.ranges())));
  }

  // Chaos fabric: one injector per framework, seeded from
  // (seed, profile) so the same job replays the same fault timeline
  // regardless of scheduling. A disabled profile leaves every hook
  // detached — the default path is bit-identical to a build without
  // chaos.
  if (options_.chaos.Enabled()) {
    chaos_ = std::make_unique<chaos::Injector>(options_.seed, options_.chaos,
                                               &clock_);
    chaos_->SetJournal(options_.journal);
    network_.SetChaos(chaos_.get());
    netstack_.SetChaos(chaos_.get());
    proxy_->SetChaos(chaos_.get());
    if (options_.use_geo_latency) {
      netstack_.SetLatencyModel(std::make_unique<net::ChaosLatencyModel>(
          std::make_unique<net::GeoLatencyModel>(
              net::GeoLatencyModel::FromVantageGreece(geo_plan_.ranges())),
          chaos_.get()));
    } else {
      netstack_.SetLatencyModel(std::make_unique<net::ChaosLatencyModel>(
          std::make_unique<net::FixedLatency>(options_.latency),
          chaos_.get()));
    }
  }

  // Device trust: the public web PKI always; the Panoptes CA when
  // interception is wanted.
  device_.trust_store().Trust(network_.web_ca().name());
  if (options_.install_mitm_ca) {
    device_.trust_store().Trust(proxy_->ca_name());
  }

  // HTTP/3 blocking (mitmproxy cannot intercept QUIC — §2.2).
  if (options_.block_quic) {
    device_.iptables().Append(device::Iptables::BlockQuic());
  }
}

browser::BrowserRuntime& Framework::PrepareBrowser(
    const browser::BrowserSpec& spec, bool factory_reset) {
  TeardownBrowser();

  if (factory_reset) {
    device_.FactoryResetApp(spec.package);  // no-op if not yet installed
  }

  uint64_t seed = util::HashString(spec.name) ^ options_.seed ^
                  (++browser_counter_ * 0x9E3779B97F4A7C15ull);
  runtime_ = std::make_unique<browser::BrowserRuntime>(
      spec, &device_, &netstack_, &network_, &clock_, seed);

  int uid = runtime_->context().app().uid;
  device_.iptables().Append(device::Iptables::DivertUidTcp(uid));
  proxy_->SetBrowserLabel(spec.name);
  return *runtime_;
}

void Framework::TeardownBrowser() {
  if (runtime_ == nullptr) return;
  int uid = runtime_->context().app().uid;
  device_.iptables().DeleteByComment("panoptes-divert-uid-" +
                                     std::to_string(uid));
  runtime_.reset();
}

}  // namespace panoptes::core
