// Table 2: PII and device-specific information leaked natively by each
// browser, mined from URL parameters and request bodies (Android
// version and device model excluded: they travel in every User-Agent).
//
// The printed Yes/No matrix must match the paper's Table 2 exactly;
// the bench checks it against the expected matrix and reports
// mismatches.
#include <array>

#include "analysis/pii.h"
#include "analysis/report.h"
#include "bench_common.h"
#include "util/rng.h"

using namespace panoptes;

namespace {

// Paper Table 2, row per browser, columns in PiiField order.
struct ExpectedRow {
  const char* browser;
  std::array<bool, analysis::kPiiFieldCount> fields;
};

constexpr bool Y = true, N = false;
const ExpectedRow kExpected[] = {
    //                 type  man   tz    res   lip   dpi   root  loc   cty   geo   conn  net
    {"Chrome",        {N,    N,    N,    N,    N,    N,    N,    N,    N,    N,    N,    N}},
    {"Edge",          {N,    Y,    Y,    Y,    N,    N,    N,    Y,    N,    N,    Y,    Y}},
    {"Opera",         {N,    Y,    Y,    Y,    N,    N,    N,    Y,    Y,    Y,    N,    Y}},
    {"Vivaldi",       {N,    N,    N,    Y,    N,    N,    N,    N,    N,    N,    N,    N}},
    {"Yandex",        {Y,    Y,    N,    Y,    N,    Y,    N,    Y,    N,    N,    N,    Y}},
    {"Brave",         {N,    N,    N,    N,    N,    N,    N,    N,    N,    N,    N,    N}},
    {"Samsung",       {N,    N,    N,    N,    N,    N,    N,    Y,    N,    N,    N,    N}},
    {"DuckDuckGo",    {N,    N,    N,    N,    N,    N,    N,    N,    N,    N,    N,    N}},
    {"Dolphin",       {N,    N,    N,    N,    N,    N,    N,    N,    N,    N,    N,    N}},
    {"Whale",         {N,    N,    N,    Y,    Y,    N,    Y,    Y,    Y,    N,    N,    Y}},
    {"Mint",          {N,    N,    Y,    Y,    N,    N,    N,    Y,    Y,    N,    N,    N}},
    {"Kiwi",          {N,    N,    N,    N,    N,    N,    N,    N,    N,    N,    N,    N}},
    {"CocCoc",        {Y,    Y,    N,    Y,    N,    N,    N,    Y,    Y,    N,    N,    N}},
    {"QQ",            {Y,    Y,    N,    Y,    N,    N,    N,    N,    N,    N,    N,    N}},
    {"UC International", {N, N,    N,    N,    N,    N,    N,    Y,    N,    N,    N,    Y}},
};

const std::array<bool, analysis::kPiiFieldCount>* ExpectedFor(
    const std::string& browser) {
  for (const auto& row : kExpected) {
    if (browser == row.browser) return &row.fields;
  }
  return nullptr;
}

}  // namespace

int main() {
  bench::BenchReport bench_report("table2_pii");
  bench::WallTimer bench_timer;
  bench::PrintHeader("Table 2 — PII / device identifiers leaked natively",
                     "exact Yes/No matrix; e.g. Whale leaks the local IP "
                     "and rooted status, Opera ships lat/long to its ad "
                     "SDK");

  core::Framework framework(bench::DefaultOptions());
  auto sites = bench::AllSites(framework);
  analysis::PiiScanner scanner(framework.device().profile());

  std::vector<std::string> headers = {"Browser"};
  for (size_t i = 0; i < analysis::kPiiFieldCount; ++i) {
    headers.emplace_back(
        analysis::PiiFieldName(static_cast<analysis::PiiField>(i)));
  }
  analysis::TextTable table(headers);

  int mismatches = 0;
  bench::ForEachBrowserCrawl(
      framework, sites, {}, [&](const core::CrawlResult& result) {
        auto report = scanner.Scan(*result.native_index);
        std::vector<std::string> row = {result.browser};
        const auto* expected = ExpectedFor(result.browser);
        for (size_t i = 0; i < analysis::kPiiFieldCount; ++i) {
          bool leaked = report.leaked[i];
          std::string cell = leaked ? "Yes" : "No";
          if (expected != nullptr && (*expected)[i] != leaked) {
            cell += "(!)";
            ++mismatches;
          }
          row.push_back(std::move(cell));
        }
        table.AddRow(std::move(row));
      });
  std::printf("%s\n", table.Render().c_str());
  std::printf("cells disagreeing with the paper's Table 2: %d / %zu\n",
              mismatches, 15 * analysis::kPiiFieldCount);
  bench_report.Metric("matrix_mismatches", mismatches);
  bench_report.Checksum("table", util::HashString(table.Render()));
  bench_report.Metric("wall_seconds", bench_timer.Seconds());
  bench_report.Write();
  return mismatches == 0 ? 0 : 1;
}
