// Baseline B1: ReCon-style learned PII detection vs the paper's
// value-matching methodology.
//
// The deterministic scanner knows the device's exact values, so on its
// own device it is perfect by construction — but it cannot run for a
// user whose values it does not know. The ReCon-style classifier
// learns key/value *shapes* from a labeled corpus and is then scored
// on (a) a held-out corpus from a different device and (b) real crawl
// traffic labeled by the deterministic scanner.
#include "analysis/flow_index.h"
#include "analysis/pii.h"
#include "analysis/recon.h"
#include "analysis/report.h"
#include "bench_common.h"
#include "util/rng.h"

using namespace panoptes;

int main() {
  bench::BenchReport bench_report("baseline_recon");
  bench::WallTimer bench_timer;
  bench::PrintHeader(
      "Baseline B1 — ReCon-style learned PII detection (§4 related work)",
      "no published number; shows the taint-split traffic can feed a "
      "learning-based detector that generalises across devices");

  // Train on a synthetic corpus from a *different* device.
  device::DeviceProfile train_device;
  train_device.model = "Pixel-6";
  train_device.screen_width = 1080;
  train_device.screen_height = 2400;
  train_device.local_ip = net::IpAddress(10, 0, 0, 7);
  train_device.locale = "de-DE";
  train_device.timezone = "Europe/Berlin";
  train_device.latitude = 52.52;
  train_device.longitude = 13.405;
  util::Rng rng(20231024);
  auto corpus = analysis::GenerateTrainingCorpus(train_device, rng, 4000);

  analysis::ReconClassifier classifier;
  classifier.Train(corpus);
  std::printf("trained on %zu synthetic examples (vocabulary %zu)\n\n",
              corpus.size(), classifier.vocabulary_size());

  // Evaluate on real crawl traffic from the paper's testbed device,
  // labeled flow-by-flow with the deterministic scanner.
  core::FrameworkOptions options = bench::DefaultOptions();
  options.catalog.popular_count = 30;
  options.catalog.sensitive_count = 0;
  core::Framework framework(options);
  auto sites = bench::AllSites(framework);
  analysis::PiiScanner scanner(framework.device().profile());

  analysis::TextTable table(
      {"Browser", "Native flows", "PII flows (scanner)", "Recon precision",
       "Recon recall"});
  for (const char* name : {"Yandex", "Opera", "Whale", "CocCoc", "Chrome"}) {
    auto result =
        core::RunCrawl(framework, *browser::FindSpec(name), sites);

    analysis::ReconEvaluation eval;
    uint64_t pii_flows = 0;
    const proxy::FlowStore& native = *result.native_flows;
    for (size_t i = 0; i < native.size(); ++i) {
      const proxy::FlowView& flow = native.flow(i);
      // Label each flow on its own: a one-flow index, so evidence
      // deduplication across flows cannot hide a repeat leak.
      analysis::FlowIndex one_flow;
      analysis::FlowIndex::Cursor cursor;
      one_flow.AddFlow(native, i, cursor);
      bool truth = scanner.Scan(one_flow).LeakCount() > 0;
      if (truth) ++pii_flows;
      bool predicted =
          classifier.Predict(analysis::ReconClassifier::Tokenize(flow));
      if (predicted && truth) ++eval.true_positives;
      if (predicted && !truth) {
        ++eval.false_positives;
        if (std::getenv("PANOPTES_DEBUG_FP") != nullptr &&
            eval.false_positives <= 3) {
          std::printf("FP[%s]: %s %.80s\n", name,
                      flow.url.Serialize().c_str(),
                      std::string(flow.request_body).c_str());
        }
      }
      if (!predicted && truth) ++eval.false_negatives;
      if (!predicted && !truth) ++eval.true_negatives;
    }
    table.AddRow({name, std::to_string(result.native_flows->size()),
                  std::to_string(pii_flows),
                  pii_flows == 0 && eval.false_positives == 0
                      ? "-"
                      : analysis::Percent(eval.Precision()),
                  pii_flows == 0 ? "-" : analysis::Percent(eval.Recall())});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("the classifier never saw the testbed device's values — "
              "only shapes learned from another device.\n");
  bench_report.Checksum("table", util::HashString(table.Render()));
  bench_report.Metric("wall_seconds", bench_timer.Seconds());
  bench_report.Write();
  return 0;
}
