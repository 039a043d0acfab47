#include "core/snapshot.h"

#include <utility>

#include "analysis/flow_index.h"
#include "browser/profiles.h"
#include "util/binio.h"

namespace panoptes::core::snapshot {

namespace {

// Each index payload keeps its leading presence byte, always 1: every
// result carries its indexes, so a snapshot without one (or with one
// that does not cover its store) is corrupt.
void WriteIndex(const analysis::FlowIndex& index, util::BinWriter& out) {
  out.Bool(true);
  index.SerializeTo(out);
}

bool ReadIndex(util::BinReader& in, const proxy::FlowStore& store,
               std::shared_ptr<const analysis::FlowIndex>* index) {
  if (!in.Bool()) return false;
  std::unique_ptr<analysis::FlowIndex> restored =
      analysis::FlowIndex::Deserialize(in);
  if (!restored || !in.ok() || restored->flow_count() != store.size()) {
    return false;
  }
  *index = std::move(restored);
  return true;
}

void WriteStackStats(const device::NetworkStackStats& stats,
                     util::BinWriter& out) {
  out.U64(stats.sends);
  out.U64(stats.ok);
  out.U64(stats.dns_failures);
  out.U64(stats.tls_failures);
  out.U64(stats.pin_failures);
  out.U64(stats.timeouts);
  out.U64(stats.quic_blocked);
  out.U64(stats.quic_direct);
  out.U64(stats.diverted);
}

void ReadStackStats(util::BinReader& in, device::NetworkStackStats* stats) {
  stats->sends = in.U64();
  stats->ok = in.U64();
  stats->dns_failures = in.U64();
  stats->tls_failures = in.U64();
  stats->pin_failures = in.U64();
  stats->timeouts = in.U64();
  stats->quic_blocked = in.U64();
  stats->quic_direct = in.U64();
  stats->diverted = in.U64();
}

void WriteIngest(const IngestStats& ingest, util::BinWriter& out) {
  out.U64(ingest.flows_pushed);
  out.U64(ingest.flows_shed);
  out.U64(ingest.spill_segments);
  out.U64(ingest.spill_bytes);
  out.U64(ingest.spill_failures);
  out.U64(ingest.backpressure_stalls);
  out.U64(ingest.segments_quarantined);
  out.U64(ingest.flows_lost);
  out.U64(ingest.peak_live_bytes);
}

void ReadIngest(util::BinReader& in, IngestStats* ingest) {
  ingest->flows_pushed = in.U64();
  ingest->flows_shed = in.U64();
  ingest->spill_segments = in.U64();
  ingest->spill_bytes = in.U64();
  ingest->spill_failures = in.U64();
  ingest->backpressure_stalls = in.U64();
  ingest->segments_quarantined = in.U64();
  ingest->flows_lost = in.U64();
  ingest->peak_live_bytes = in.U64();
}

void WriteVisit(const VisitRecord& visit, util::BinWriter& out) {
  out.Str(visit.hostname);
  out.U8(static_cast<uint8_t>(visit.category));
  out.Bool(visit.ok);
  out.Bool(visit.dom_content_loaded);
  out.Bool(visit.incognito_honored);
  out.I64(visit.engine_requests);
  out.I64(visit.blocked_by_adblock);
  out.I64(visit.attempts);
  out.Str(visit.fault_cause);
  out.I64(visit.backoff_millis);
  out.U32(visit.engine_tag);
  out.U32(visit.native_tag);
  out.U32(visit.engine_flow_begin);
  out.U32(visit.engine_flow_end);
  out.U32(visit.native_flow_begin);
  out.U32(visit.native_flow_end);
}

void ReadVisit(util::BinReader& in, VisitRecord* visit) {
  visit->hostname = in.Str();
  visit->category = static_cast<web::SiteCategory>(in.U8());
  visit->ok = in.Bool();
  visit->dom_content_loaded = in.Bool();
  visit->incognito_honored = in.Bool();
  visit->engine_requests = static_cast<int>(in.I64());
  visit->blocked_by_adblock = static_cast<int>(in.I64());
  visit->attempts = static_cast<int>(in.I64());
  visit->fault_cause = in.Str();
  visit->backoff_millis = in.I64();
  visit->engine_tag = in.U32();
  visit->native_tag = in.U32();
  visit->engine_flow_begin = in.U32();
  visit->engine_flow_end = in.U32();
  visit->native_flow_begin = in.U32();
  visit->native_flow_end = in.U32();
}

void WriteCrawl(const CrawlResult& crawl, util::BinWriter& out) {
  out.Str(crawl.browser);
  out.Bool(crawl.incognito_requested);
  out.Bool(crawl.incognito_effective);
  crawl.engine_flows->SerializeTo(out);
  WriteIndex(*crawl.engine_index, out);
  crawl.native_flows->SerializeTo(out);
  WriteIndex(*crawl.native_index, out);
  out.U32(static_cast<uint32_t>(crawl.visits.size()));
  for (const auto& visit : crawl.visits) WriteVisit(visit, out);
  WriteStackStats(crawl.stack_stats, out);
  out.U64(crawl.fault_injected_flows);
  WriteIngest(crawl.ingest, out);
  out.Bool(crawl.watchdog_cancelled);
}

bool ReadCrawl(util::BinReader& in, CrawlResult* crawl) {
  crawl->browser = in.Str();
  crawl->incognito_requested = in.Bool();
  crawl->incognito_effective = in.Bool();
  crawl->engine_flows = proxy::FlowStore::Deserialize(in);
  if (crawl->engine_flows == nullptr) return false;
  if (!ReadIndex(in, *crawl->engine_flows, &crawl->engine_index)) return false;
  crawl->native_flows = proxy::FlowStore::Deserialize(in);
  if (crawl->native_flows == nullptr) return false;
  if (!ReadIndex(in, *crawl->native_flows, &crawl->native_index)) return false;
  uint32_t visit_count = in.U32();
  if (!in.ok() || visit_count > in.remaining()) return false;
  crawl->visits.clear();
  crawl->visits.reserve(visit_count);
  for (uint32_t i = 0; i < visit_count; ++i) {
    VisitRecord visit;
    ReadVisit(in, &visit);
    crawl->visits.push_back(std::move(visit));
  }
  ReadStackStats(in, &crawl->stack_stats);
  crawl->fault_injected_flows = in.U64();
  ReadIngest(in, &crawl->ingest);
  crawl->watchdog_cancelled = in.Bool();
  return in.ok();
}

void WriteIdle(const IdleResult& idle, util::BinWriter& out) {
  out.Str(idle.browser);
  idle.native_flows->SerializeTo(out);
  WriteIndex(*idle.native_index, out);
  out.U64(idle.fault_injected_flows);
  out.U32(static_cast<uint32_t>(idle.cumulative_by_bucket.size()));
  for (uint64_t value : idle.cumulative_by_bucket) out.U64(value);
  out.I64(idle.bucket.millis);
  WriteIngest(idle.ingest, out);
  out.Bool(idle.watchdog_cancelled);
}

bool ReadIdle(util::BinReader& in, IdleResult* idle) {
  idle->browser = in.Str();
  idle->native_flows = proxy::FlowStore::Deserialize(in);
  if (idle->native_flows == nullptr) return false;
  if (!ReadIndex(in, *idle->native_flows, &idle->native_index)) return false;
  idle->fault_injected_flows = in.U64();
  uint32_t bucket_count = in.U32();
  if (!in.ok() || bucket_count > in.remaining() / 8) return false;
  idle->cumulative_by_bucket.clear();
  idle->cumulative_by_bucket.reserve(bucket_count);
  for (uint32_t i = 0; i < bucket_count; ++i) {
    idle->cumulative_by_bucket.push_back(in.U64());
  }
  idle->bucket.millis = in.I64();
  ReadIngest(in, &idle->ingest);
  idle->watchdog_cancelled = in.Bool();
  return in.ok();
}

void WriteFaults(const std::vector<chaos::FaultEvent>& faults,
                 util::BinWriter& out) {
  out.U32(static_cast<uint32_t>(faults.size()));
  for (const auto& fault : faults) {
    out.U8(static_cast<uint8_t>(fault.kind));
    out.Str(fault.host);
    out.I64(fault.sim_millis);
  }
}

bool ReadFaults(util::BinReader& in, std::vector<chaos::FaultEvent>* faults) {
  uint32_t count = in.U32();
  if (!in.ok() || count > in.remaining()) return false;
  faults->clear();
  faults->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    chaos::FaultEvent event;
    uint8_t kind = in.U8();
    if (kind >= chaos::kFaultKindCount) return false;
    event.kind = static_cast<chaos::FaultKind>(kind);
    event.host = in.Str();
    event.sim_millis = in.I64();
    faults->push_back(std::move(event));
  }
  return in.ok();
}

void WriteProfile(const device::DeviceProfile& profile, util::BinWriter& out) {
  out.Str(profile.manufacturer);
  out.Str(profile.model);
  out.Str(profile.device_type);
  out.Str(profile.os);
  out.Str(profile.os_version);
  out.I64(profile.screen_width);
  out.I64(profile.screen_height);
  out.I64(profile.dpi);
  out.Str(profile.timezone);
  out.I64(profile.timezone_offset_minutes);
  out.Str(profile.locale);
  out.Str(profile.country);
  out.Str(profile.city);
  out.F64(profile.latitude);
  out.F64(profile.longitude);
  out.Bool(profile.rooted);
  out.Str(profile.connection_type);
  out.Str(profile.network_metering);
  out.Str(profile.isp);
  out.U32(profile.local_ip.value());
  out.U32(profile.public_ip.value());
}

void ReadProfile(util::BinReader& in, device::DeviceProfile* profile) {
  profile->manufacturer = in.Str();
  profile->model = in.Str();
  profile->device_type = in.Str();
  profile->os = in.Str();
  profile->os_version = in.Str();
  profile->screen_width = static_cast<int>(in.I64());
  profile->screen_height = static_cast<int>(in.I64());
  profile->dpi = static_cast<int>(in.I64());
  profile->timezone = in.Str();
  profile->timezone_offset_minutes = static_cast<int>(in.I64());
  profile->locale = in.Str();
  profile->country = in.Str();
  profile->city = in.Str();
  profile->latitude = in.F64();
  profile->longitude = in.F64();
  profile->rooted = in.Bool();
  profile->connection_type = in.Str();
  profile->network_metering = in.Str();
  profile->isp = in.Str();
  profile->local_ip = net::IpAddress(in.U32());
  profile->public_ip = net::IpAddress(in.U32());
}

void WriteCohort(const device::DeviceCohort& cohort, util::BinWriter& out) {
  out.U32(static_cast<uint32_t>(cohort.index));
  out.U64(cohort.id);
  out.F64(cohort.weight);
  WriteProfile(cohort.profile, out);
}

void ReadCohort(util::BinReader& in, device::DeviceCohort* cohort) {
  cohort->index = static_cast<int>(in.U32());
  cohort->id = in.U64();
  cohort->weight = in.F64();
  ReadProfile(in, &cohort->profile);
}

// Payload from `seed` onward (everything after the job identity).
bool ReadPayload(util::BinReader& in, FleetJobResult* result) {
  result->seed = in.U64();
  result->attempts = static_cast<int>(in.I64());
  result->quarantined = in.Bool();
  if (!ReadFaults(in, &result->faults)) return false;
  result->flow_writes_dropped = in.U64();
  // Exactly one capture, of the job's kind: FleetJobResult::capture()
  // and the reports built on it rely on that.
  const bool idle = result->job.kind == CampaignKind::kIdle;
  if (in.Bool() == idle) return false;
  if (!idle) {
    result->crawl.emplace();
    if (!ReadCrawl(in, &*result->crawl)) return false;
  }
  if (in.Bool() != idle) return false;
  if (idle) {
    result->idle.emplace();
    if (!ReadIdle(in, &*result->idle)) return false;
  }
  // Trailing garbage is corruption too — the snapshot is the whole file.
  return in.ok() && in.AtEnd();
}

// Checks the header of `bytes` and reads the job identity that follows
// it into `job` (name, kind, shard, shard count, cohort), leaving `in`
// at the payload. False for a bad magic, a schema outside the readable
// range, an unknown campaign kind or a truncated identity.
bool ReadIdentity(std::string_view bytes, util::BinReader& in, FleetJob* job) {
  auto header = PeekHeader(bytes);
  if (!header.has_value() || header->schema < kMinReadableSchema ||
      header->schema > kSchemaVersion) {
    return false;
  }
  for (size_t i = 0; i < kMagic.size(); ++i) in.U8();
  in.U32();
  in.U64();
  job->spec.name = in.Str();
  const uint8_t kind = in.U8();
  if (kind > static_cast<uint8_t>(CampaignKind::kIdle)) return false;
  job->kind = static_cast<CampaignKind>(kind);
  job->shard = static_cast<int>(in.U32());
  job->shard_count = static_cast<int>(in.U32());
  ReadCohort(in, &job->cohort);
  return in.ok();
}

}  // namespace

std::string Write(const FleetJobResult& result, uint64_t fingerprint) {
  util::BinWriter out;
  for (char c : kMagic) out.U8(static_cast<uint8_t>(c));
  out.U32(kSchemaVersion);
  out.U64(fingerprint);
  // Job identity, so a misplaced file can be detected at read time. The
  // full BrowserSpec is deliberately absent: the executor re-attaches
  // it from the current plan, and spec changes are caught by the
  // fingerprint, not by diffing specs.
  out.Str(result.job.spec.name);
  out.U8(static_cast<uint8_t>(result.job.kind));
  out.U32(static_cast<uint32_t>(result.job.shard));
  out.U32(static_cast<uint32_t>(result.job.shard_count));
  // v6: the simulated user. The full profile rides along (unlike the
  // BrowserSpec) because cohorts are synthesized per run — there is no
  // static registry to re-attach them from at `explain` time.
  WriteCohort(result.job.cohort, out);
  out.U64(result.seed);
  out.I64(result.attempts);
  out.Bool(result.quarantined);
  WriteFaults(result.faults, out);
  out.U64(result.flow_writes_dropped);
  out.Bool(result.crawl.has_value());
  if (result.crawl.has_value()) WriteCrawl(*result.crawl, out);
  out.Bool(result.idle.has_value());
  if (result.idle.has_value()) WriteIdle(*result.idle, out);
  return out.Take();
}

std::optional<Header> PeekHeader(std::string_view bytes) {
  util::BinReader in(bytes);
  for (char expected : kMagic) {
    if (in.U8() != static_cast<uint8_t>(expected)) return std::nullopt;
  }
  Header header;
  header.schema = in.U32();
  header.fingerprint = in.U64();
  if (!in.ok()) return std::nullopt;
  return header;
}

bool Read(std::string_view bytes, const FleetJob& job,
          FleetJobResult* result) {
  util::BinReader in(bytes);
  FleetJob stored;
  if (!ReadIdentity(bytes, in, &stored) || stored.spec.name != job.spec.name ||
      stored.kind != job.kind || stored.shard != job.shard ||
      stored.shard_count != job.shard_count ||
      stored.cohort.id != job.cohort.id ||
      stored.cohort.index != job.cohort.index) {
    return false;
  }
  *result = FleetJobResult();
  result->job = job;
  return ReadPayload(in, result);
}

bool ReadAny(std::string_view bytes, FleetJobResult* result) {
  util::BinReader in(bytes);
  FleetJob job;
  if (!ReadIdentity(bytes, in, &job) || job.shard < 0 ||
      job.shard_count <= 0 || job.shard >= job.shard_count) {
    return false;
  }
  if (const browser::BrowserSpec* spec = browser::FindSpec(job.spec.name);
      spec != nullptr) {
    job.spec = *spec;
  }
  *result = FleetJobResult();
  result->job = std::move(job);
  return ReadPayload(in, result);
}

}  // namespace panoptes::core::snapshot
