// Synthetic device populations: from the paper's single tablet to N
// heterogeneous users.
//
// The evaluation measures one Samsung SM-T580 from a Greek vantage
// point. A population campaign replays the same browsers over
// thousands of synthesized DeviceProfiles — manufacturer/model/DPI/
// screen sweeps, locale/timezone/geo spread across hemispheres,
// root-status and connection mixes — drawn deterministically from a
// population seed with realistic marginals. Every cohort is a pure
// function of (seed, index): regenerating a population never shuffles
// it, and a cohort's id is derived like the fleet's job-seed scheme so
// snapshots, journals and reports can name cohorts stably across runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "device/profile.h"

namespace panoptes::device {

// Content hash of every DeviceProfile field, FNV-1a + splitmix64
// chained in declaration order (stable across platforms — no
// std::hash). Any field change moves the digest: the fleet folds this
// into per-job seeds and snapshot fingerprints so a cohort sweep can
// never alias another cohort's cache entries.
uint64_t DeviceProfileFingerprint(const DeviceProfile& profile);

// Fingerprint of DeviceProfile::PaperTestbed(), computed once. The
// identity element of core::DeriveJobSeed's device term: jobs running
// the paper's testbed derive bit-identical seeds to the pre-population
// scheme, keeping every pinned golden value valid.
uint64_t PaperTestbedFingerprint();

// Stable per-cohort id: splitmix chain over (population_seed, index),
// like core::DeriveJobSeed. Never returns 0 — id 0 is reserved for the
// default (paper testbed) cohort.
uint64_t DeriveCohortId(uint64_t population_seed, int index);

// One synthetic user group: a device profile plus its share of the
// population. The default-constructed cohort (id 0, weight 1, paper
// testbed profile) is what every non-population fleet job carries;
// reports and snapshots treat it as "no cohort" to stay byte-identical
// with pre-population output.
struct DeviceCohort {
  int index = 0;
  uint64_t id = 0;     // 0 = the default / paper-testbed cohort
  double weight = 1.0; // population share; generated cohorts sum to 1
  DeviceProfile profile = DeviceProfile::PaperTestbed();

  bool IsDefault() const { return id == 0; }
  // "c0042" — filename- and report-safe label (index, zero-padded).
  std::string Label() const;
};

struct PopulationOptions {
  int size = 0;
  uint64_t seed = 20231024;
  // Marginal knobs (defaults follow published mobile-market shapes:
  // a rooted long tail around 5%, roughly a third of sessions on
  // cellular, and most cellular plans metered).
  double rooted_fraction = 0.05;
  double cellular_fraction = 0.35;
  double metered_cellular_fraction = 0.8;
};

class PopulationGenerator {
 public:
  // Deterministically synthesizes `options.size` cohorts. Each cohort
  // draws manufacturer/model/screen/DPI from weighted market marginals,
  // a vantage (country/city/timezone/locale/geo/ISP/public IP block)
  // spanning both hemispheres — negative latitudes, longitudes and
  // UTC offsets included — plus root status and connection type.
  // Weights are an exponential population-mass draw normalized to sum
  // to 1. Same options ⇒ byte-identical population, any call order.
  static std::vector<DeviceCohort> Generate(const PopulationOptions& options);
  static std::vector<DeviceCohort> Generate(int size, uint64_t seed);
};

}  // namespace panoptes::device
