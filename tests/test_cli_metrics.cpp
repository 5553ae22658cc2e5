// End-to-end test of the observability surface of the CLI: `artsparse_cli
// metrics` must emit Prometheus text and JSON covering the hot-path
// metrics after its write+read selftest, `--trace` must produce a Chrome
// trace with the nested commit spans, and `read/scan --json` must carry a
// telemetry block. The binary path is injected via ARTSPARSE_CLI_PATH.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "obs/metrics.hpp"
#include "storage/file_io.hpp"
#include "test_support.hpp"

namespace artsparse {
namespace {

namespace fs = std::filesystem;

#if defined(ARTSPARSE_OBS_ENABLED)

/// Runs the CLI and captures stdout (stderr discarded). Returns the output
/// or fails the test on a non-zero exit.
std::string run_cli_capture(const std::string& arguments) {
  const std::string command =
      std::string(ARTSPARSE_CLI_PATH) + " " + arguments + " 2>/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << command;
    return "";
  }
  std::string output;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, got);
  }
  const int status = ::pclose(pipe);
  EXPECT_EQ(status, 0) << "non-zero exit from: " << command;
  return output;
}

TEST(ObsCliMetrics, SelftestCoversEveryHotPathArea) {
  const std::string text = run_cli_capture("metrics --format prometheus");
  // One representative metric per instrumented area, all required to be
  // present and non-zero after the selftest workload (this mirrors the CI
  // smoke gate).
  for (const char* name :
       {"artsparse_cache_hits_total", "artsparse_cache_misses_total",
        "artsparse_store_writes_total", "artsparse_store_io_attempts_total",
        "artsparse_read_fragments_resolved_total",
        "artsparse_tiled_writes_total"}) {
    // Anchor at line start so the `# TYPE name counter` header can't match.
    const std::string line_start = std::string("\n") + name + " ";
    const std::size_t pos = text.find(line_start);
    ASSERT_NE(pos, std::string::npos) << name;
    const std::size_t value_at = pos + line_start.size();
    const std::string value =
        text.substr(value_at, text.find('\n', value_at) - value_at);
    EXPECT_GT(std::stod(value), 0.0) << name;
  }
  // Histogram families expand into _bucket/_sum/_count.
  EXPECT_NE(text.find("artsparse_cache_load_ns_bucket{le="),
            std::string::npos);
  EXPECT_NE(text.find("artsparse_format_build_ns_count{org="),
            std::string::npos);
}

TEST(ObsCliMetrics, JsonFormatEmitsMetricsArray) {
  const std::string json = run_cli_capture("metrics --format json");
  EXPECT_EQ(json.find("# TYPE"), std::string::npos);
  EXPECT_NE(json.find("{\"metrics\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"artsparse_store_writes_total\""),
            std::string::npos);
  EXPECT_NE(json.find("\"type\": \"histogram\""), std::string::npos);
}

TEST(ObsCliMetrics, BothFormatEmitsBoth) {
  const std::string out = run_cli_capture("metrics --format both");
  EXPECT_NE(out.find("# TYPE artsparse_store_writes_total counter"),
            std::string::npos);
  EXPECT_NE(out.find("{\"metrics\": ["), std::string::npos);
}

TEST(ObsCliMetrics, TraceFileHoldsNestedCommitSpans) {
  const fs::path trace =
      testing::fresh_temp_dir("cli_metrics_trace") / "trace.json";
  run_cli_capture("metrics --trace " + trace.string());
  ASSERT_TRUE(fs::exists(trace));
  const Bytes raw = read_file(trace.string());
  const std::string json(reinterpret_cast<const char*>(raw.data()),
                         raw.size());
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  // The commit chain the acceptance criterion names: encode -> fsync ->
  // rename, all present as spans.
  for (const char* name :
       {"tiled.write", "store.write", "write.encode", "store.commit",
        "commit.fsync", "commit.rename"}) {
    EXPECT_NE(json.find("\"name\": \"" + std::string(name) + "\""),
              std::string::npos)
        << name;
  }
  std::error_code ec;
  fs::remove_all(trace.parent_path(), ec);
}

TEST(ObsCliMetrics, MetricsOverExistingStoreReflectsReads) {
  const fs::path dir = testing::fresh_temp_dir("cli_metrics_store");
  run_cli_capture("generate --shape 32,32 --pattern gsp --density 0.05 "
                  "--seed 5 --store " +
                  dir.string() + " --org gcsr");
  const std::string text =
      run_cli_capture("metrics --store " + dir.string());
  // Two scan passes: the first misses, the second hits.
  EXPECT_NE(text.find("artsparse_cache_misses_total 1"), std::string::npos);
  EXPECT_NE(text.find("artsparse_cache_hits_total 1"), std::string::npos);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(ObsCliMetrics, ReadAndScanJsonCarryTelemetry) {
  const fs::path dir = testing::fresh_temp_dir("cli_metrics_json");
  run_cli_capture("generate --shape 32,32 --pattern gsp --density 0.05 "
                  "--seed 5 --store " +
                  dir.string() + " --org gcsr");
  for (const char* verb : {"read", "scan"}) {
    const std::string json = run_cli_capture(std::string(verb) +
                                             " --store " + dir.string() +
                                             " --json");
    EXPECT_EQ(json.find("points from"), std::string::npos) << verb;
    EXPECT_NE(json.find("\"command\": \"" + std::string(verb) + "\""),
              std::string::npos);
    EXPECT_NE(json.find("\"telemetry\": {\"metrics\": ["),
              std::string::npos);
    EXPECT_NE(json.find("\"fragments_visited\": 1"), std::string::npos);
    EXPECT_NE(json.find("artsparse_read_queries_total"), std::string::npos);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(ObsCliMetrics, RejectsUnknownFormat) {
  const std::string command = std::string(ARTSPARSE_CLI_PATH) +
                              " metrics --format xml > /dev/null 2>&1";
  EXPECT_NE(std::system(command.c_str()), 0);
}

#else

TEST(ObsCliMetrics, DisabledBuildSkips) {
  GTEST_SKIP() << "observability compiled out (ARTSPARSE_OBS=OFF)";
}

#endif  // ARTSPARSE_OBS_ENABLED

}  // namespace
}  // namespace artsparse
