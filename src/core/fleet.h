// Parallel campaign fleet executor.
//
// The paper's evaluation is embarrassingly parallel: 15 browsers, each
// crawled (plain and incognito) and left idle, with no shared state
// between browsers. The executor shards that work into jobs — one per
// (browser, campaign kind, site shard) — and runs them on a pool of
// worker threads, each job owning a *private* Framework seeded from a
// deterministically derived per-job seed. The only thing jobs share is
// the run's generated web: an immutable SiteCatalog built once, read
// by every job. Because no two jobs touch the same mutable testbed,
// results are bit-identical to running the same job list one at a time
// on a single thread, regardless of how the scheduler interleaves
// workers. `RunSerial` is that reference path and the
// differential harness (tests/core_fleet_test.cpp) pins `Run` to it.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "browser/spec.h"
#include "core/campaign.h"
#include "core/framework.h"
#include "device/population.h"
#include "obs/journal.h"

namespace panoptes::core {

class ResultCache;

// The three campaign types of the evaluation (§3.1 crawl, §3.2
// incognito crawl, §3.5 idle run).
enum class CampaignKind { kCrawl, kIncognitoCrawl, kIdle };

std::string_view CampaignKindName(CampaignKind kind);

// One unit of fleet work: a browser × device cohort × campaign kind ×
// site shard. Crawl shards split the catalog into `shard_count`
// contiguous ranges (shard s visits sites [s*n/count, (s+1)*n/count));
// idle runs never shard (the 10-minute timeline is indivisible). The
// default cohort (id 0) is the paper testbed: such jobs execute and
// report exactly like the pre-population scheme.
struct FleetJob {
  browser::BrowserSpec spec;
  CampaignKind kind = CampaignKind::kCrawl;
  int shard = 0;
  int shard_count = 1;
  device::DeviceCohort cohort{};  // the synthetic user this job simulates
  CrawlOptions crawl{};  // crawl kinds; `incognito` is set from `kind`
  IdleOptions idle{};    // idle kind
};

// One job's seed: a pure function of the base seed, the job's identity
// (browser, kind, shard, device profile) and the retry `attempt`, never
// of scheduling. Attempt 0 and the paper testbed's profile leave the
// chain unperturbed, which keeps every pinned golden seed valid.
uint64_t DeriveJobSeed(uint64_t base_seed, const FleetJob& job,
                       int attempt = 0);

// What one fleet result captured, whatever its campaign kind: the
// engine and native (store, index) pairs, the visits and the capture
// accounting. An idle run has no engine side and visits nothing, so
// its engine pair is one shared empty store and index (a two-sided
// analyzer such as the UID-smuggling join still runs its native
// self-join) and its visits are empty. Borrows from the result that
// handed it out.
struct CaptureView {
  const proxy::FlowStore& engine_flows;
  const analysis::FlowIndex& engine_index;
  const proxy::FlowStore& native_flows;
  const analysis::FlowIndex& native_index;
  const std::vector<VisitRecord>& visits;
  uint64_t fault_injected_flows;
  const IngestStats& ingest;
  bool watchdog_cancelled;

  // Native share of all captured requests: 1 for an idle run with any
  // traffic, 0 for a capture without flows.
  double NativeRatio() const {
    return core::NativeRatio(engine_flows.size(), native_flows.size());
  }
};

struct FleetJobResult {
  FleetJob job;
  uint64_t seed = 0;  // the derived per-job seed, for provenance
  // Exactly one of the two is set, matching job.kind: executed,
  // replayed and decoded results all hold their capture, quarantined
  // ones included. Only kind-specific fields are read from them;
  // everything else goes through capture().
  std::optional<CrawlResult> crawl;
  std::optional<IdleResult> idle;
  // Self-healing accounting (run manifest): executions this job took
  // (1 = no retry), whether it was quarantined after exhausting the
  // retry budget, the fault timeline its injector produced on the
  // final attempt, and flow-database writes lost to injected faults.
  int attempts = 1;
  bool quarantined = false;
  std::vector<chaos::FaultEvent> faults;
  uint64_t flow_writes_dropped = 0;
  // True when this result was replayed from a result-cache snapshot
  // instead of executing (never serialized; set at load time).
  bool cache_hit = false;
  // Observatory events this job emitted (FleetOptions::journal). Never
  // serialized into snapshots; a replayed job carries only its
  // cache_hit event. Merged in plan order by MergeJournal, so the
  // merged journal is byte-identical at any worker count.
  obs::Journal journal;

  CaptureView capture() const;
};

struct FleetOptions {
  // Worker threads. 1 still goes through the pool; RunSerial is the
  // in-line reference path.
  int jobs = 1;
  uint64_t base_seed = 20231024;
  // Template for every job's framework; `seed` is overwritten per job.
  FrameworkOptions framework;
  // Job-level self-healing: a job whose every visit failed is re-run
  // up to this many extra times, each attempt with a fresh derived
  // seed; a job still dead after the budget is quarantined (reported
  // in the run manifest, excluded from merged findings).
  int max_job_retries = 0;
  // Per-job watchdog: when non-zero, every campaign is cancelled once
  // its *simulated* timeline exceeds this deadline (chaos timeouts and
  // retry backoff can stretch a wedged job arbitrarily). A cancelled
  // job counts as failed and goes through the same retry/quarantine
  // machinery as a dead one. Overrides the per-job campaign options.
  util::Duration watchdog_deadline{0};
  // Result cache directory (core/result_cache.h). Empty disables
  // caching: every job executes. Non-empty: completed jobs persist as
  // fingerprinted snapshots and matching snapshots replay instead of
  // executing.
  std::string cache_dir;
  // Resume semantics for a cache-backed run: cached *quarantined* jobs
  // re-execute (a restarted run gives dead jobs a fresh chance) instead
  // of replaying the recorded failure. Plain warm runs leave this off
  // so a completed run replays byte-identically, quarantines included.
  bool resume = false;
  // Invoked after each job completes (executed and persisted, or
  // replayed from cache), from whichever worker thread ran it. Used by
  // the CLI's crash-simulation flag; never affects results.
  std::function<void(const FleetJobResult&)> on_job_complete;
  // Observatory: when true every job records structured events (job
  // start/finish/retry/quarantine/cache-hit, visits, faults, flows)
  // into a private per-job journal, returned in
  // FleetJobResult::journal. Strictly additive — reports and
  // snapshots are byte-identical with this on or off.
  bool journal = false;
};

// The generated web every job of a fleet run crawls:
// SiteCatalog::Generate(framework.catalog_seed.value_or(base_seed),
// framework.catalog). The catalog seed defaults to the base seed, so
// all jobs and shards see the same web while their derived job seeds
// keep the runtime streams apart.
std::shared_ptr<const web::SiteCatalog> FleetCatalog(
    const FleetOptions& options);

// Wall-clock accounting for one Run/RunSerial call. Telemetry only —
// timings are steady-clock and scheduling-dependent, so none of this
// may ever flow into an exported report (determinism contract).
struct FleetRunStats {
  int workers = 0;
  double wall_seconds = 0;
  // Jobs each worker completed, indexed by worker. RunSerial reports a
  // single worker.
  std::vector<int> jobs_per_worker;
  // Per-job execution time, indexed like the job list (plan order).
  std::vector<double> job_seconds;

  // Latency quantile over job_seconds (q in [0,1], nearest-rank);
  // 0 when no jobs ran.
  double JobLatencyQuantile(double q) const;
};

class FleetExecutor {
 public:
  explicit FleetExecutor(FleetOptions options);
  ~FleetExecutor();

  const FleetOptions& options() const { return options_; }

  // Null when options.cache_dir is empty.
  const ResultCache* cache() const { return cache_.get(); }

  // Runs every job on `options.jobs` worker threads. Results come back
  // indexed exactly like `jobs`, independent of scheduling. When
  // `stats` is given it is filled with this run's wall-clock telemetry.
  std::vector<FleetJobResult> Run(const std::vector<FleetJob>& jobs,
                                  FleetRunStats* stats = nullptr) const;

  // Reference implementation: the same jobs, the same derived seeds,
  // executed one at a time on the calling thread.
  std::vector<FleetJobResult> RunSerial(const std::vector<FleetJob>& jobs,
                                        FleetRunStats* stats = nullptr) const;

  // Expands browsers × kinds × shards into the canonical job list:
  // browsers in the given (Table 1) order, kinds in the given order,
  // shards ascending. Idle kinds always get a single shard.
  static std::vector<FleetJob> PlanCampaign(
      const std::vector<browser::BrowserSpec>& browsers,
      const std::vector<CampaignKind>& kinds, int shard_count,
      const CrawlOptions& crawl = {}, const IdleOptions& idle = {});

  // Population form: browsers × cohorts × kinds × shards, cohorts in
  // population (index) order nested inside each browser. An empty
  // cohort list plans the single default (paper testbed) cohort.
  static std::vector<FleetJob> PlanCampaign(
      const std::vector<browser::BrowserSpec>& browsers,
      const std::vector<device::DeviceCohort>& cohorts,
      const std::vector<CampaignKind>& kinds, int shard_count,
      const CrawlOptions& crawl = {}, const IdleOptions& idle = {});

  // Folds shard results of the same (browser, kind) back into one
  // per-browser result: flows appended in shard order (contiguous
  // shards ⇒ catalog order), visits concatenated, stack stats summed.
  // Quarantined shards are skipped (salvage: the merged result covers
  // the surviving shards only — degraded, never fabricated). Input must
  // be in PlanCampaign order; merged entries report shard = 0,
  // shard_count = 1.
  static std::vector<FleetJobResult> MergeShards(
      std::vector<FleetJobResult> results);

  // Folds every job's journal into `out` in plan order (the
  // order `results` came back from Run/RunSerial — call before
  // MergeShards, which drops per-job identity). Deterministic at any
  // worker count because each job's buffer is private and complete.
  static void MergeJournal(const std::vector<FleetJobResult>& results,
                           obs::Journal* out);

 private:
  // One run's generated web, built by the first job that executes.
  class SharedWeb;

  FleetJobResult ExecuteJob(const FleetJob& job, int attempt,
                            obs::Journal* journal, SharedWeb& web) const;
  // Runs the job, re-running with fresh attempt seeds while every
  // visit fails, up to options.max_job_retries; quarantines after.
  FleetJobResult ExecuteJobWithRetry(const FleetJob& job,
                                     obs::Journal* journal,
                                     SharedWeb& web) const;
  // The timed job step both Run and RunSerial go through: probe the
  // cache (when enabled), execute on a miss, persist the fresh result,
  // fire options.on_job_complete, and time it all into `*seconds`.
  FleetJobResult RunJobCached(const FleetJob& job, SharedWeb& web,
                              double* seconds) const;

  FleetOptions options_;
  std::unique_ptr<ResultCache> cache_;
};

}  // namespace panoptes::core
