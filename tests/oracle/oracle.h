// Reference store scans for the analyzers.
//
// Each analyzer in src/analysis runs over a FlowIndex. The functions
// here compute the same reports the straightforward way: one pass over
// the stored flows, re-parsing every URL and JSON body per flow. The
// differential tests diff the index path against them, and
// bench/analysis_index times them as its legacy column. They share no
// decoding code with the index, so a FlowIndex bug cannot hide in both.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "analysis/dns_leakage.h"
#include "analysis/geoip.h"
#include "analysis/historyleak.h"
#include "analysis/naive_split.h"
#include "analysis/pii.h"
#include "analysis/referer.h"
#include "proxy/flowstore.h"

namespace panoptes::oracle {

// PiiScanner::Scan over every flow of `flows`.
analysis::PiiReport ScanPii(const analysis::PiiScanner& scanner,
                            const proxy::FlowStore& flows);

// HistoryLeakDetector::Scan over every flow of `flows`.
std::vector<analysis::LeakFinding> ScanHistory(
    const analysis::HistoryLeakDetector& detector,
    const proxy::FlowStore& flows, bool engine_store = false);

analysis::RefererReport AnalyzeRefererLeakage(
    const proxy::FlowStore& engine_flows);

std::vector<analysis::CountryShare> CountriesContacted(
    const proxy::FlowStore& flows, const analysis::GeoIpDb& db);

std::vector<analysis::TransferFinding> ClassifyTransfers(
    const proxy::FlowStore& flows, const std::vector<std::string>& hosts,
    const analysis::GeoIpDb& db);

analysis::NaiveSplitter::Score EvaluateSplit(
    const analysis::NaiveSplitter& splitter,
    const proxy::FlowStore& engine_flows,
    const proxy::FlowStore& native_flows);

analysis::DnsLeakageReport AnalyzeDnsLeakage(
    const proxy::FlowStore& native_flows,
    const std::set<std::string>& visited_hosts = {});

// Sum of request wire bytes over the stored flows.
uint64_t RequestBytes(const proxy::FlowStore& flows);

// Distinct request hosts of the stored flows.
std::set<std::string> DistinctHosts(const proxy::FlowStore& flows);

}  // namespace panoptes::oracle
