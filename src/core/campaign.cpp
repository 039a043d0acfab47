#include "core/campaign.h"

#include <cmath>
#include <optional>
#include <string_view>

#include "analysis/flow_index.h"
#include "browser/cdp.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "util/logging.h"
#include "util/rng.h"

namespace panoptes::core {

namespace {

// Campaign-layer metrics. The native/engine split mirrors the paper's
// taint split; counts are bulk-added from the job's private stores so
// the per-flow hot path stays untouched.
struct CampaignMetrics {
  obs::Counter& visits_total;
  obs::Counter& idle_ticks_total;
  obs::Counter& engine_flows_total;
  obs::Counter& native_flows_total;

  static CampaignMetrics& Get() {
    auto& registry = obs::MetricsRegistry::Default();
    static CampaignMetrics* metrics = new CampaignMetrics{
        registry.GetCounter("panoptes_core_visits_total",
                            "Site visits across all crawl campaigns"),
        registry.GetCounter("panoptes_core_idle_ticks_total",
                            "Idle-campaign monitor ticks"),
        registry.GetCounter(
            "panoptes_core_engine_flows_total",
            "Flows attributed to the web engine (tainted)"),
        registry.GetCounter(
            "panoptes_core_native_flows_total",
            "Flows attributed to the browser app (untainted)"),
    };
    return *metrics;
  }
};

// Bounded exponential backoff with deterministic jitter. `failures` is
// the number of failed attempts so far (>= 1).
util::Duration BackoffDelay(int failures, util::Rng& rng) {
  double delay = static_cast<double>(kVisitBackoffBase.millis) *
                 std::pow(kVisitBackoffMultiplier, failures - 1);
  delay = std::min(delay, static_cast<double>(kVisitBackoffMax.millis));
  delay *= 1.0 + kVisitBackoffJitter * (2.0 * rng.NextDouble() - 1.0);
  return util::Duration::Millis(static_cast<int64_t>(delay));
}

// The injected fault kind observed since `events_before`, for the
// manifest's per-visit cause. Empty when the failure was not caused by
// an injected fault.
std::string FaultCauseSince(const chaos::Injector* injector,
                            size_t events_before) {
  if (injector == nullptr) return "";
  const auto& events = injector->events();
  if (events.size() <= events_before) return "";
  return std::string(chaos::FaultKindName(events[events_before].kind));
}

// The capture buffer of one stream ("engine"/"native") of a campaign.
StreamBuffer::Config BufferConfig(Framework& framework,
                                  const StreamOptions& stream, uint32_t tag,
                                  std::string_view role,
                                  bool compact = false) {
  return {.compact = compact, .provenance_tag = tag,
          .seed = framework.options().seed, .stream = stream,
          .chaos = framework.chaos(), .journal = framework.journal(),
          .clock = &framework.clock(), .role = role};
}

// Drains `buffer` into a detached store — spill segments folded back
// in, byte-identical to an unbounded capture — and its index.
void TakeCapture(StreamBuffer& buffer,
                 std::unique_ptr<proxy::FlowStore>& store,
                 std::shared_ptr<const analysis::FlowIndex>& index,
                 IngestStats& ingest) {
  auto out = buffer.Materialize();
  ingest.Accumulate(buffer.stats());
  store = std::move(out.store);
  store->SetChaos(nullptr);
  store->SetJournal(nullptr);
  index = std::make_shared<const analysis::FlowIndex>(std::move(out.index));
}

// Watchdog: true once `elapsed` reaches `deadline` (0 = none), when a
// wedged campaign is cancelled into the fleet's retry/quarantine path.
// The journal event records the run's progress under `progress_key`.
template <typename Progress>
bool WatchdogFires(Framework& framework, const browser::BrowserSpec& spec,
                   util::Duration deadline, util::Duration elapsed,
                   std::string_view progress_key, Progress progress) {
  if (deadline.millis <= 0 || elapsed < deadline) return false;
  static obs::Counter& watchdog_fires =
      obs::MetricsRegistry::Default().GetCounter(
          "panoptes_ingest_watchdog_cancels_total",
          "Campaigns cancelled by the per-job watchdog deadline");
  watchdog_fires.Inc();
  if (obs::Journal* journal = framework.journal()) {
    journal->Emit(framework.clock().Now().millis, "campaign",
                  "watchdog_cancel")
        .Str("browser", spec.name)
        .Num(progress_key, progress)
        .Num("deadline_millis", deadline.millis);
  }
  return true;
}

// The native monitor of idle and window campaigns (§3.5): the browser
// sits untouched at its start page for `length` of simulated ticks and
// only native flows are captured. `on_tick(elapsed, buffer)` runs after
// each tick; `finish(buffer, journal)` takes the capture before teardown.
// `tick_span` names a per-tick tracer span (empty: none).
template <typename Options, typename Result, typename OnTick, typename Finish>
void MonitorNative(Framework& framework, const browser::BrowserSpec& spec,
                   const Options& options, util::Duration length,
                   bool factory_reset, std::string_view begin_event,
                   std::string_view length_key, std::string_view tick_span,
                   Result& result, OnTick on_tick, Finish finish) {
  const uint32_t native_tag =
      proxy::MakeProvenanceTag(framework.options().seed, /*role=*/1);
  auto& runtime = framework.PrepareBrowser(spec, factory_reset);
  obs::Journal* journal = framework.journal();
  StreamBuffer native_buffer(
      BufferConfig(framework, options.stream, native_tag, "native"));
  // Monitor runs only need the native database.
  framework.taint_addon().SetSinks(nullptr, &native_buffer);

  if (journal != nullptr) {
    journal->Emit(framework.clock().Now().millis, "campaign", begin_event)
        .Str("browser", spec.name)
        .Num("native_tag", static_cast<uint64_t>(native_tag))
        .Num(length_key, length.millis);
  }
  uint64_t fault_flows_before = framework.taint_addon().fault_injected_flows();

  util::SimTime start = framework.clock().Now();
  runtime.Startup();  // launch traffic is part of the monitored timeline

  util::Duration elapsed{0};
  while (elapsed < length) {
    if (WatchdogFires(framework, spec, options.watchdog_deadline, elapsed,
                      "elapsed_millis", elapsed.millis)) {
      result.watchdog_cancelled = true;
      break;
    }
    std::optional<obs::ScopedSpan> span;
    if (!tick_span.empty()) span.emplace(tick_span, "campaign");
    CampaignMetrics::Get().idle_ticks_total.Inc();
    framework.clock().Advance(options.tick);
    elapsed = framework.clock().Now() - start;
    runtime.IdleTick(elapsed);
    on_tick(elapsed, native_buffer);
  }

  result.fault_injected_flows =
      framework.taint_addon().fault_injected_flows() - fault_flows_before;
  framework.taint_addon().SetSinks(nullptr, nullptr);
  finish(native_buffer, journal);
  framework.TeardownBrowser();
}

}  // namespace

int64_t VisitOfUid(uint64_t uid, const std::vector<VisitRecord>& visits) {
  if (uid == 0) return -1;
  const uint32_t tag = static_cast<uint32_t>(uid >> 32);
  const uint32_t ord = static_cast<uint32_t>(uid);
  for (size_t v = 0; v < visits.size(); ++v) {
    const VisitRecord& rec = visits[v];
    if ((rec.native_tag == tag && ord >= rec.native_flow_begin &&
         ord < rec.native_flow_end) ||
        (rec.engine_tag == tag && ord >= rec.engine_flow_begin &&
         ord < rec.engine_flow_end)) {
      return static_cast<int64_t>(v);
    }
  }
  return -1;
}

double NativeRatio(uint64_t engine_requests, uint64_t native_requests) {
  double engine = static_cast<double>(engine_requests);
  double native = static_cast<double>(native_requests);
  if (engine + native == 0) return 0;
  return native / (engine + native);
}

CrawlResult RunCrawl(Framework& framework, const browser::BrowserSpec& spec,
                     const std::vector<const web::Site*>& sites,
                     const CrawlOptions& options) {
  CampaignMetrics& metrics = CampaignMetrics::Get();
  obs::ScopedSpan crawl_span("campaign.crawl", "campaign");
  crawl_span.Arg("browser", spec.name);
  crawl_span.Arg("sites", static_cast<int64_t>(sites.size()));
  if (options.incognito) crawl_span.Arg("incognito", "true");

  CrawlResult result;
  result.browser = spec.name;
  result.incognito_requested = options.incognito;
  result.incognito_effective = options.incognito && spec.has_incognito;
  // Provenance tags: every flow stored below gets a uid of
  // (tag << 32) | ordinal, resolvable across the whole fleet run.
  const uint32_t engine_tag =
      proxy::MakeProvenanceTag(framework.options().seed, /*role=*/0);
  const uint32_t native_tag =
      proxy::MakeProvenanceTag(framework.options().seed, /*role=*/1);

  auto& runtime = framework.PrepareBrowser(spec, options.factory_reset);
  framework.netstack().ResetStats();
  chaos::Injector* injector = framework.chaos();
  obs::Journal* journal = framework.journal();

  // Capture is push-based: the taint addon pushes each completed flow
  // into a budgeted StreamBuffer, which keeps the live ring, updates
  // the incremental index, and spills/sheds under memory pressure.
  StreamBuffer engine_buffer(BufferConfig(framework, options.stream,
                                          engine_tag, "engine",
                                          options.compact_engine_store));
  StreamBuffer native_buffer(
      BufferConfig(framework, options.stream, native_tag, "native"));
  framework.taint_addon().SetSinks(&engine_buffer, &native_buffer);

  if (journal != nullptr) {
    journal->Emit(framework.clock().Now().millis, "campaign", "crawl_begin")
        .Str("browser", spec.name)
        .Num("sites", static_cast<uint64_t>(sites.size()))
        .Num("engine_tag", static_cast<uint64_t>(engine_tag))
        .Num("native_tag", static_cast<uint64_t>(native_tag))
        .BoolF("incognito", options.incognito);
  }
  uint64_t fault_flows_before = framework.taint_addon().fault_injected_flows();
  // Deterministic jitter stream for retry backoff: derived from the
  // framework seed, consumed in visit order.
  util::Rng backoff_rng(framework.options().seed ^ 0xBAC0FFull);

  // Navigation is driven through CDP (Page.navigate) or, for browsers
  // without a CDP endpoint, a Frida WebView hook — never the address
  // bar, so autocomplete cannot pollute the traces (§2.1).
  auto driver = browser::MakeDriver(&runtime);
  driver->Attach();

  const util::SimTime campaign_start = framework.clock().Now();
  runtime.Startup();

  for (const web::Site* site : sites) {
    if (WatchdogFires(framework, spec, options.watchdog_deadline,
                      framework.clock().Now() - campaign_start, "visits_done",
                      static_cast<uint64_t>(result.visits.size()))) {
      result.watchdog_cancelled = true;
      break;
    }
    obs::ScopedSpan visit_span("campaign.visit", "campaign");
    visit_span.Arg("host", site->hostname);
    metrics.visits_total.Inc();

    VisitRecord record;
    record.hostname = site->hostname;
    record.category = site->category;
    record.engine_tag = engine_tag;
    record.native_tag = native_tag;
    if (journal != nullptr) {
      journal->Emit(framework.clock().Now().millis, "campaign", "visit_begin")
          .Str("host", site->hostname)
          .Num("visit", static_cast<uint64_t>(result.visits.size()));
    }

    // Self-healing visit loop: a failed attempt rolls both sinks back
    // to their pre-attempt marks (retries never double-count flows —
    // store and incremental index together), backs off on the simulated
    // clock, and tries again with the same driver. With the default
    // policy (max_visit_retries = 0) this runs the single attempt of the
    // legacy path.
    const uint64_t engine_mark = engine_buffer.FlowCount();
    const uint64_t native_mark = native_buffer.FlowCount();
    engine_buffer.BeginTransaction();
    native_buffer.BeginTransaction();
    browser::NavigateOutcome outcome;
    int failures = 0;
    for (;;) {
      const size_t events_before =
          injector != nullptr ? injector->events().size() : 0;
      outcome = driver->Navigate(site->landing_url, options.incognito);
      framework.clock().Advance(options.settle);
      record.attempts = failures + 1;
      if (outcome.page.ok) break;
      ++failures;
      record.fault_cause = FaultCauseSince(injector, events_before);
      if (record.fault_cause.empty()) record.fault_cause = "page-load-failed";
      if (failures > options.max_visit_retries) {
        if (options.max_visit_retries > 0) {
          // Final failure under an active retry policy: a degraded
          // visit contributes nothing, partial flows included.
          engine_buffer.RollbackTransaction();
          native_buffer.RollbackTransaction();
        }
        break;
      }
      engine_buffer.RollbackTransaction();
      native_buffer.RollbackTransaction();
      static obs::Counter& retries = obs::MetricsRegistry::Default().GetCounter(
          "panoptes_fleet_visit_retries_total",
          "Visit attempts retried after a failure");
      retries.Inc();
      util::Duration delay = BackoffDelay(failures, backoff_rng);
      if (journal != nullptr) {
        journal->Emit(framework.clock().Now().millis, "campaign",
                      "visit_retry")
            .Str("host", site->hostname)
            .Num("failures", static_cast<int64_t>(failures))
            .Str("cause", record.fault_cause)
            .Num("backoff_millis", delay.millis);
      }
      framework.clock().Advance(delay);
      record.backoff_millis += delay.millis;
      static obs::Histogram& backoff_hist =
          obs::MetricsRegistry::Default().GetHistogram(
              "panoptes_fleet_backoff_delay_seconds",
              "Simulated backoff delay before a retry",
              obs::Histogram::LatencyBounds());
      backoff_hist.Observe(static_cast<double>(delay.millis) / 1000.0);
    }

    // Close the visit transaction; commit releases the spill deferral,
    // so a budgeted buffer seals at visit boundaries.
    engine_buffer.CommitTransaction();
    native_buffer.CommitTransaction();

    record.ok = outcome.page.ok;
    record.dom_content_loaded = outcome.page.dom_content_loaded;
    record.incognito_honored = outcome.incognito_honored;
    record.engine_requests = outcome.page.requests_attempted;
    record.blocked_by_adblock = outcome.page.blocked_by_adblock;
    // Final (post-rollback) flow ordinal ranges: the uid span this
    // visit contributed to each store, for finding→visit resolution.
    // FlowCount is the global ordinal, so the ranges stay valid when
    // earlier flows have been spilled out of the live store.
    record.engine_flow_begin = static_cast<uint32_t>(engine_mark);
    record.engine_flow_end = static_cast<uint32_t>(engine_buffer.FlowCount());
    record.native_flow_begin = static_cast<uint32_t>(native_mark);
    record.native_flow_end = static_cast<uint32_t>(native_buffer.FlowCount());
    if (journal != nullptr) {
      journal->Emit(framework.clock().Now().millis, "campaign", "visit_end")
          .Str("host", site->hostname)
          .Num("visit", static_cast<uint64_t>(result.visits.size()))
          .BoolF("ok", record.ok)
          .Num("attempts", static_cast<int64_t>(record.attempts))
          .Str("fault_cause", record.fault_cause)
          .Num("engine_flows", static_cast<uint64_t>(record.engine_flow_end -
                                                     record.engine_flow_begin))
          .Num("native_flows", static_cast<uint64_t>(record.native_flow_end -
                                                     record.native_flow_begin));
    }
    result.visits.push_back(std::move(record));
  }

  result.stack_stats = framework.netstack().stats();
  result.fault_injected_flows =
      framework.taint_addon().fault_injected_flows() - fault_flows_before;
  framework.taint_addon().SetSinks(nullptr, nullptr);

  TakeCapture(engine_buffer, result.engine_flows, result.engine_index,
              result.ingest);
  TakeCapture(native_buffer, result.native_flows, result.native_index,
              result.ingest);
  if (journal != nullptr) {
    journal->Emit(framework.clock().Now().millis, "campaign", "crawl_end")
        .Str("browser", spec.name)
        .Num("engine_flows", static_cast<uint64_t>(result.engine_flows->size()))
        .Num("native_flows",
             static_cast<uint64_t>(result.native_flows->size()));
  }
  framework.TeardownBrowser();

  metrics.engine_flows_total.Inc(result.engine_flows->size());
  metrics.native_flows_total.Inc(result.native_flows->size());

  PANOPTES_LOG(kInfo, "crawl")
      << spec.name << ": " << result.visits.size() << " visits, "
      << result.engine_flows->size() << " engine / "
      << result.native_flows->size() << " native flows";
  return result;
}

double IdleResult::ShareToHost(std::string_view host) const {
  if (native_flows->empty()) return 0;
  const auto* postings = native_index->FlowsToHost(host);
  const size_t to_host = postings != nullptr ? postings->size() : 0;
  return static_cast<double>(to_host) /
         static_cast<double>(native_flows->size());
}

double IdleResult::ShareToDomain(std::string_view domain) const {
  if (native_flows->empty()) return 0;
  size_t to_domain = 0;
  // Registrable domains are precomputed per distinct host; summing
  // postings replaces the per-flow RegistrableDomain of ToDomain().
  for (uint32_t id = 0; id < native_index->hosts().size(); ++id) {
    if (native_index->host(id).domain == domain) {
      to_domain += native_index->by_host()[id].size();
    }
  }
  return static_cast<double>(to_domain) /
         static_cast<double>(native_flows->size());
}

IdleResult RunIdle(Framework& framework, const browser::BrowserSpec& spec,
                   const IdleOptions& options) {
  obs::ScopedSpan idle_span("campaign.idle", "campaign");
  idle_span.Arg("browser", spec.name);

  IdleResult result;
  result.browser = spec.name;
  result.bucket = options.bucket;
  const size_t bucket_count =
      static_cast<size_t>(options.duration.millis / options.bucket.millis);
  util::Duration next_bucket = options.bucket;
  MonitorNative(
      framework, spec, options, options.duration, options.factory_reset,
      "idle_begin", "duration_millis", "campaign.idle_tick", result,
      [&](util::Duration elapsed, const StreamBuffer& buffer) {
        while (elapsed >= next_bucket && next_bucket <= options.duration) {
          result.cumulative_by_bucket.push_back(buffer.FlowCount());
          next_bucket = next_bucket + options.bucket;
        }
      },
      [&](StreamBuffer& buffer, obs::Journal* journal) {
        // Buckets a cancelled run never reached hold its final count.
        if (result.cumulative_by_bucket.size() < bucket_count) {
          result.cumulative_by_bucket.resize(bucket_count, buffer.FlowCount());
        }
        TakeCapture(buffer, result.native_flows, result.native_index,
                    result.ingest);
        if (journal != nullptr) {
          journal->Emit(framework.clock().Now().millis, "campaign", "idle_end")
              .Str("browser", spec.name)
              .Num("native_flows",
                   static_cast<uint64_t>(result.native_flows->size()));
        }
      });
  CampaignMetrics::Get().native_flows_total.Inc(result.native_flows->size());
  return result;
}

WindowResult RunWindow(Framework& framework, const browser::BrowserSpec& spec,
                       const WindowOptions& options) {
  obs::ScopedSpan window_span("campaign.window", "campaign");
  window_span.Arg("browser", spec.name);

  WindowResult result;
  result.browser = spec.name;
  // No per-tick span: a window may run for days.
  MonitorNative(
      framework, spec, options, options.window, /*factory_reset=*/true,
      "window_begin", "window_millis", /*tick_span=*/"", result,
      [](util::Duration, const StreamBuffer&) {},
      [&](StreamBuffer& buffer, obs::Journal* journal) {
        // Rolling-window contract: no terminal batch pass. The report is
        // answered from the live incremental index; spilled flows stay on
        // disk and are discarded with the buffer.
        result.native_flows = buffer.FlowCount();
        result.ingest = buffer.stats();
        result.native_index = buffer.TakeIndex();
        if (journal != nullptr) {
          journal->Emit(framework.clock().Now().millis, "campaign",
                        "window_end")
              .Str("browser", spec.name)
              .Num("native_flows", result.native_flows)
              .Num("flows_shed", result.ingest.flows_shed);
        }
      });
  CampaignMetrics::Get().native_flows_total.Inc(
      result.native_index.flow_count());
  return result;
}

}  // namespace panoptes::core
