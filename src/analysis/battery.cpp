#include "analysis/battery.h"

#include <atomic>
#include <thread>
#include <utility>

#include "obs/tracer.h"

namespace panoptes::analysis {

void AnalysisBattery::Add(std::string name, std::function<void()> fn) {
  tasks_.push_back(Task{std::move(name), std::move(fn)});
}

void AnalysisBattery::Run() {
  obs::ScopedSpan span("battery.run", "battery");
  span.Arg("tasks", static_cast<int64_t>(tasks_.size()));
  span.Arg("jobs", static_cast<int64_t>(jobs_));

  auto run_task = [this](size_t i) {
    const Task& task = tasks_[i];
    obs::ScopedSpan task_span(task.name, "battery");
    task.fn();
  };

  if (jobs_ <= 1 || tasks_.size() <= 1) {
    for (size_t i = 0; i < tasks_.size(); ++i) run_task(i);
  } else {
    // Short-lived pool: the calling thread works too, so `jobs_` is the
    // worker count, not the spawn count. Tasks are claimed off an
    // atomic cursor; since every task writes disjoint state, claim
    // order (and thus scheduling) cannot leak into results.
    std::atomic<size_t> next{0};
    auto worker = [&] {
      for (;;) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= tasks_.size()) return;
        run_task(i);
      }
    };

    size_t extra = static_cast<size_t>(jobs_) - 1;
    if (extra > tasks_.size() - 1) extra = tasks_.size() - 1;
    std::vector<std::thread> threads;
    threads.reserve(extra);
    for (size_t i = 0; i < extra; ++i) threads.emplace_back(worker);
    worker();
    for (std::thread& thread : threads) thread.join();
  }
}

}  // namespace panoptes::analysis
