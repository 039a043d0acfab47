// Panoptes: the top-level framework (paper Fig 1).
//
// Owns the whole testbed — simulated clock, network fabric with the
// generated web and the vendor backends, the Android device, the
// transparent MITM proxy with the taint-filter addon — and exposes the
// two campaign types of the evaluation: crawls (§3.1-3.4) and idle
// runs (§3.5).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "browser/runtime.h"
#include "browser/spec.h"
#include "chaos/injector.h"
#include "chaos/profile.h"
#include "core/taint_addon.h"
#include "device/device.h"
#include "device/netstack.h"
#include "net/fabric.h"
#include "proxy/mitm.h"
#include "util/clock.h"
#include "vendors/geo_plan.h"
#include "vendors/world.h"
#include "web/catalog.h"

namespace panoptes::obs {
class Journal;
}  // namespace panoptes::obs

namespace panoptes::core {

struct FrameworkOptions {
  uint64_t seed = 20231024;  // IMC'23 first day
  // The simulated device this framework's testbed runs on. Defaults to
  // the paper's Samsung SM-T580; population campaigns substitute a
  // synthesized cohort profile here, which changes the PII payloads,
  // request cadence and vendor endpoints the browsers produce.
  device::DeviceProfile device_profile = device::DeviceProfile::PaperTestbed();
  // When set, the generated web (site catalog) draws from this seed
  // instead of `seed`. A fleet run's web (core::FleetCatalog) draws
  // from it too, defaulting to the run's base seed, so every shard of
  // a sharded crawl sees the *same* web while their runtime streams
  // (derived per-job seeds) stay decorrelated.
  std::optional<uint64_t> catalog_seed;
  web::CatalogOptions catalog;
  // Per-exchange simulated latency (used when use_geo_latency is off).
  util::Duration latency = util::Duration::Millis(25);
  // Model per-destination RTTs from the Greek vantage point instead of
  // a flat latency (affects timing only, never counts or bytes).
  bool use_geo_latency = true;
  // Install the HTTP/3-blocking iptables rule (the paper always does;
  // switching it off is the A2 ablation).
  bool block_quic = true;
  // Install the Panoptes CA into the device trust store (switching it
  // off demonstrates that interception then fails).
  bool install_mitm_ca = true;
  // Fault profile for the chaos injector. The default ("none") disables
  // injection entirely; any enabled profile builds a per-framework
  // injector seeded from (seed, profile), so identical seeds replay
  // identical fault timelines.
  chaos::FaultProfile chaos;
  // Observatory journal this framework's layers (proxy, chaos, flow
  // stores, campaigns) emit structured events into. Not owned;
  // must outlive the framework. Null disables journaling — strictly
  // additive either way, no report byte depends on it. The fleet wires
  // one private journal per job here.
  obs::Journal* journal = nullptr;
};

// The generated web a framework with `options` crawls:
// SiteCatalog::Generate(catalog_seed.value_or(seed), catalog).
std::shared_ptr<const web::SiteCatalog> GenerateCatalog(
    const FrameworkOptions& options);

class Framework {
 public:
  // Builds the testbed on `catalog` when given: a fleet run shares one
  // read-only catalog (core::FleetCatalog) across its jobs. Otherwise
  // the framework generates its own, GenerateCatalog(options).
  explicit Framework(FrameworkOptions options = {},
                     std::shared_ptr<const web::SiteCatalog> catalog = nullptr);

  Framework(const Framework&) = delete;
  Framework& operator=(const Framework&) = delete;

  const FrameworkOptions& options() const { return options_; }
  util::SimClock& clock() { return clock_; }
  net::Network& network() { return network_; }
  const web::SiteCatalog& catalog() const { return *catalog_; }
  vendors::GeoPlan& geo_plan() { return geo_plan_; }
  vendors::VendorWorld& vendor_world() { return vendor_world_; }
  device::AndroidDevice& device() { return device_; }
  device::NetworkStack& netstack() { return netstack_; }
  proxy::MitmProxy& proxy() { return *proxy_; }
  TaintFilterAddon& taint_addon() { return *taint_addon_; }
  // Null when the chaos profile is disabled.
  chaos::Injector* chaos() { return chaos_.get(); }
  // Null when no journal was configured (FrameworkOptions::journal).
  obs::Journal* journal() { return options_.journal; }

  // Prepares a browser for a campaign: factory-resets the app (Appium
  // reset in the paper), builds a fresh runtime, installs the per-UID
  // divert rule and labels the proxy's flows. The returned runtime is
  // valid until the next Prepare/teardown.
  browser::BrowserRuntime& PrepareBrowser(const browser::BrowserSpec& spec,
                                          bool factory_reset = true);

  // Removes the divert rule for the current browser and drops it.
  void TeardownBrowser();

  browser::BrowserRuntime* current_browser() { return runtime_.get(); }

 private:
  FrameworkOptions options_;
  util::SimClock clock_;
  std::unique_ptr<chaos::Injector> chaos_;
  // Declared before network_: the origin servers borrow its sites.
  std::shared_ptr<const web::SiteCatalog> catalog_;
  net::Network network_;
  vendors::GeoPlan geo_plan_;
  vendors::VendorWorld vendor_world_;
  device::AndroidDevice device_;
  device::NetworkStack netstack_;
  std::unique_ptr<proxy::MitmProxy> proxy_;
  std::shared_ptr<TaintFilterAddon> taint_addon_;
  std::unique_ptr<browser::BrowserRuntime> runtime_;
  uint64_t browser_counter_ = 0;
};

}  // namespace panoptes::core
