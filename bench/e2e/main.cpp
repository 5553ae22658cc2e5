// artsparse_bench: the end-to-end benchmark.
//
//   artsparse_bench --workload W --seed N [--seconds S] [--trace 0|1]
//                   [--work-dir DIR] [--out FILE] [--smoke] [--saturate]
//
// Runs one workload and prints its metrics as a table, then, as the last
// line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json,
// or with --trace 1 its per-layer metrics (plus a Chrome trace of the run
// in the work directory). Without --workload every workload runs, one
// after another, each in a fresh child process. --out writes the full
// record (host facts, sample counts, workload extras) for bench_diff.py.
// --saturate runs service_mix with every client in a closed loop; its
// analytics_ops_per_s and ingest_writes_per_s extras are the saturation
// the mix's offered rates are set from (README.md).
//
// Exit codes: 0 every op succeeded and every check passed; 1 an op failed
// or a check did not pass; 2 the benchmark refused to run (bad arguments,
// a behaviour-changing ARTSPARSE_* variable set, or a non-optimised build
// outside --smoke).
#include <sys/vfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>

#include "harness.hpp"

extern char** environ;

namespace artsparse::e2e {

namespace {

struct WorkloadEntry {
  const char* name;
  RunRecord (*run)(const Options&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"paper_grid", run_paper_grid},
    {"scan_hot", run_scan_hot},
    {"scan_cold", run_scan_cold},
    {"service_mix", run_service_mix},
};

/// Knobs that change what the library does; the benchmark passes every
/// tunable through constructors, so a run under any of these would not be
/// comparable with another.
constexpr const char* kRefusedEnv[] = {
    "ARTSPARSE_THREADS", "ARTSPARSE_CACHE_BYTES", "ARTSPARSE_FAULT_SPEC",
    "ARTSPARSE_PARANOID", "ARTSPARSE_TRACE"};
constexpr std::string_view kRefusedEnvPrefix = "ARTSPARSE_TENANT_";

std::string refused_env() {
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string_view var(*entry);
    const std::string_view name = var.substr(0, var.find('='));
    if (name.starts_with(kRefusedEnvPrefix)) return std::string(name);
    for (const char* refused : kRefusedEnv) {
      if (name == refused) return std::string(name);
    }
  }
  return {};
}

bool optimised_build() {
  const std::string_view type = E2E_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo";
}

std::string filesystem_of(const std::filesystem::path& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x6969:
      return "nfs";
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%lx",
                static_cast<unsigned long>(info.f_type));
  return hex;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", ch);
      out += escaped;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char text[40];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

std::string host_json(const Options& options) {
  std::ostringstream out;
  out << "{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"build_type\":" << json_string(E2E_BUILD_TYPE)
      << ",\"obs\":" << json_string(E2E_OBS)
      << ",\"compiler\":" << json_string(__VERSION__)
      << ",\"commit\":" << json_string(E2E_GIT_COMMIT)
      << ",\"work_dir_fs\":"
      << json_string(filesystem_of(options.work_dir)) << "}";
  return out.str();
}

/// {"name":{"value":v,"unit":u[,"samples":n]},...}
std::string metrics_json(const std::vector<Metric>& metrics,
                         bool with_samples) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ',';
    out += json_string(m.name);
    out += ":{\"value\":" + json_number(m.value);
    out += ",\"unit\":" + json_string(m.unit);
    if (with_samples) out += ",\"samples\":" + std::to_string(m.samples);
    out += '}';
  }
  return out + '}';
}

const std::vector<Metric>& reported(const RunRecord& record,
                                    const Options& options) {
  return options.trace ? record.layers : record.end_to_end;
}

/// The full record --out keeps: one element of its "runs" list.
std::string record_json(const RunRecord& record, const Options& options) {
  const Outcome& outcome = record.outcome;
  std::string errors = "[";
  for (const std::string& e : outcome.errors) {
    if (errors.size() > 1) errors += ',';
    errors += json_string(e);
  }
  errors += ']';
  std::ostringstream out;
  out << "{\"workload\":" << json_string(record.workload)
      << ",\"seed\":" << options.seed
      << ",\"seconds\":" << json_number(options.seconds)
      << ",\"trace\":" << (options.trace ? "true" : "false")
      << ",\"smoke\":" << (options.smoke ? "true" : "false")
      << ",\"host\":" << host_json(options)
      << ",\"correct\":" << (outcome.correct() ? "true" : "false")
      << ",\"attempted\":" << outcome.attempted
      << ",\"failed\":" << outcome.failed
      << ",\"mismatches\":" << outcome.mismatches << ",\"errors\":" << errors
      << ",\"metrics\":" << metrics_json(reported(record, options), true)
      << ",\"extras\":" << metrics_json(record.extras, true) << "}";
  return out.str();
}

void print_table(const RunRecord& record, const Options& options) {
  std::printf("== %s  seed %llu  %.0f s  %s%s\n", record.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? "traced (per-layer)" : "untraced (end-to-end)",
              options.smoke ? "  smoke" : "");
  std::printf("   host %s\n", host_json(options).c_str());
  std::printf("   %-40s %16s  %-10s %8s\n", "metric", "value", "unit",
              "samples");
  auto rows = [](const std::vector<Metric>& metrics) {
    for (const Metric& m : metrics) {
      std::printf("   %-40s %16.6g  %-10s %8zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
  };
  rows(reported(record, options));
  if (!record.extras.empty()) {
    std::printf("   -- extras (not gated)\n");
    rows(record.extras);
  }
  std::printf("   ops attempted %llu, failed %llu (wrong output: %llu)\n",
              static_cast<unsigned long long>(record.outcome.attempted),
              static_cast<unsigned long long>(record.outcome.failed),
              static_cast<unsigned long long>(record.outcome.mismatches));
  for (const std::string& e : record.outcome.errors) {
    std::printf("   error: %s\n", e.c_str());
  }
}

int run_one(const Options& options, const std::filesystem::path& out) {
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& w : kWorkloads) {
    if (options.workload == w.name) entry = &w;
  }
  if (entry == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  RunRecord record;
  try {
    record = entry->run(options);
  } catch (const std::exception& e) {
    // Set-up failed: no measurement, so no result line either.
    std::fprintf(stderr, "%s: set-up failed: %s\n", entry->name, e.what());
    return 1;
  }
  print_table(record, options);
  if (!out.empty()) {
    std::ofstream file(out);
    file << "{\"runs\":[" << record_json(record, options) << "]}\n";
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              record.outcome.correct() ? "true" : "false",
              static_cast<unsigned long long>(record.outcome.attempted),
              static_cast<unsigned long long>(record.outcome.failed),
              metrics_json(reported(record, options), false).c_str());
  std::fflush(stdout);
  return record.outcome.failed == 0 ? 0 : 1;
}

/// Every workload in turn, each in a fresh child process (its own RSS,
/// caches and heap), merging their --out records into one file.
int run_all(const std::vector<std::string>& args,
            const std::filesystem::path& work_dir,
            const std::filesystem::path& out) {
  int status = 0;
  std::string runs;
  for (const WorkloadEntry& w : kWorkloads) {
    const std::filesystem::path part = work_dir / (std::string(w.name) +
                                                   ".record.json");
    std::vector<std::string> child_args = args;
    for (const std::string& extra :
         {std::string("--workload"), std::string(w.name),
          std::string("--work-dir"), work_dir.string(), std::string("--out"),
          part.string()}) {
      child_args.push_back(extra);
    }
    std::vector<char*> argv;
    for (std::string& a : child_args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 2;
    }
    if (pid == 0) {
      execv("/proc/self/exe", argv.data());
      std::perror("execv");
      _exit(2);
    }
    int wstatus = 0;
    waitpid(pid, &wstatus, 0);
    const int code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : 2;
    status = std::max(status, code);
    std::ifstream in(part);
    std::stringstream text;
    text << in.rdbuf();
    const std::string record = text.str();
    // The child wrote {"runs":[<record>]}; keep the record.
    const std::size_t open = record.find('[');
    const std::size_t close = record.rfind(']');
    if (open != std::string::npos && close != std::string::npos) {
      if (!runs.empty()) runs += ",\n";
      runs += record.substr(open + 1, close - open - 1);
    }
    std::filesystem::remove(part);
  }
  if (!out.empty()) {
    std::ofstream file(out);
    file << "{\"runs\":[" << runs << "]}\n";
  }
  return status;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: artsparse_bench [--workload NAME] [--seed N] "
               "[--seconds S] [--trace 0|1] [--work-dir DIR] [--out FILE] "
               "[--smoke] [--saturate]\n",
               message);
  return 2;
}

int main_impl(int argc, char** argv) {
  Options options;
  std::filesystem::path out;
  bool seconds_given = false;
  // Arguments every child of run_all() inherits.
  std::vector<std::string> forwarded = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      forwarded.push_back("--smoke");
      continue;
    }
    if (arg == "--saturate") {
      options.saturate = true;
      continue;
    }
    if (arg == "--trace") {
      // Bare --trace means 1; --trace 0 and --trace 1 are explicit.
      if (i + 1 < argc && (std::string_view(argv[i + 1]) == "0" ||
                           std::string_view(argv[i + 1]) == "1")) {
        options.trace = std::string_view(argv[++i]) == "1";
      } else {
        options.trace = true;
      }
      forwarded.push_back("--trace");
      forwarded.push_back(options.trace ? "1" : "0");
      continue;
    }
    if (i + 1 >= argc) {
      return usage(("missing value for " + std::string(arg)).c_str());
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      forwarded.push_back("--seed");
      forwarded.push_back(value);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
      seconds_given = true;
      forwarded.push_back("--seconds");
      forwarded.push_back(value);
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--out") {
      out = value;
    } else {
      return usage(("bad argument: " + std::string(arg)).c_str());
    }
  }
  if (options.smoke && !seconds_given) options.seconds = 1.0;
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  if (options.saturate &&
      (options.workload != "service_mix" || options.trace)) {
    return usage("--saturate needs --workload service_mix and no --trace");
  }

  const std::string env = refused_env();
  if (!env.empty()) {
    std::fprintf(stderr,
                 "refusing to run: %s is set and changes the library's "
                 "behaviour; unset it for comparable numbers\n",
                 env.c_str());
    return 2;
  }
  if (!options.smoke && !optimised_build()) {
    std::fprintf(stderr,
                 "refusing to time a %s build; build Release or "
                 "RelWithDebInfo (or pass --smoke)\n",
                 E2E_BUILD_TYPE);
    return 2;
  }

  const bool own_work_dir = options.work_dir.empty();
  if (own_work_dir) {
    options.work_dir = std::filesystem::temp_directory_path() /
                       ("artsparse_e2e_" + std::to_string(::getpid()));
  }
  std::filesystem::create_directories(options.work_dir);
  const int status = options.workload.empty()
                         ? run_all(forwarded, options.work_dir, out)
                         : run_one(options, out);
  if (own_work_dir && !options.trace) {
    std::filesystem::remove_all(options.work_dir);
  }
  return status;
}

}  // namespace

}  // namespace artsparse::e2e

int main(int argc, char** argv) {
  return artsparse::e2e::main_impl(argc, argv);
}
