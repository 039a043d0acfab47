// Concurrent analyzer battery.
//
// A browser audit runs half a dozen independent analyses (PII scan,
// history-leak scans, geo attribution, Referer leakage, traffic stats)
// over immutable inputs — the crawl's flow stores and their FlowIndexes
// are frozen once capture ends, and every analyzer writes its own
// report field. That makes the battery embarrassingly parallel: tasks
// share nothing but const data, so any schedule produces byte-identical
// reports (the determinism test in tests/core_determinism_test.cpp pins
// concurrent against serial execution).
//
// The battery mirrors the fleet executor's shape one level down: a
// short-lived pool of workers pulling tasks off an atomic cursor. Each
// task runs under its own obs::ScopedSpan, so a trace of an audit shows
// per-analyzer wall time whichever thread ran it.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace panoptes::analysis {

class AnalysisBattery {
 public:
  // `jobs` <= 1 runs tasks serially, in Add() order, on the caller's
  // thread (the reference schedule). More jobs never changes results —
  // only which thread runs which analyzer.
  explicit AnalysisBattery(int jobs = 1) : jobs_(jobs) {}

  // Registers one analyzer. `name` becomes the task's span name
  // (category "battery"). Tasks must not touch another task's outputs;
  // inputs they share must stay unmutated for the battery's lifetime.
  void Add(std::string name, std::function<void()> fn);

  // Runs every registered task exactly once and returns when all are
  // done. May be called once per battery.
  void Run();

  size_t task_count() const { return tasks_.size(); }

 private:
  struct Task {
    std::string name;
    std::function<void()> fn;
  };

  int jobs_;
  std::vector<Task> tasks_;
};

}  // namespace panoptes::analysis
