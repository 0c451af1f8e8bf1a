// era_perfbench: the ERA benchmark driver.
//
//   era_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --work-dir <dir>
//
// Runs one workload against era_core's public entry points on PosixEnv (the
// page cache; no modeled device), checks every answer against a suffix-array
// oracle, and prints one "name value unit" line per metric followed by the
// one-line JSON result. With --trace 0 the JSON carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics, which come from
// timing the calls into each layer from this program. perfbench/README.md
// lists the workloads and which layer metric should move which end-to-end
// metric.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "build_phase.h"
#include "inputs.h"
#include "io/env.h"
#include "oracle.h"
#include "query_phase.h"
#include "report.h"
#include "suffixtree/validator.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr uint64_t kMiB = 1ull << 20;
constexpr uint64_t kKiB = 1ull << 10;
/// ValidateIndex is quadratic-ish in practice; it runs on texts up to this
/// size, and the suffix-array check runs on every text.
constexpr uint64_t kValidateIndexMaxBytes = 64 * kKiB;

struct Args {
  std::string driver;  // this program's path, to start build processes
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
};

struct Workload {
  const char* name;
  std::vector<Corpus> (*texts)(uint64_t seed);
  BuildSpec build;
  /// Build workloads rebuild every round and report their builds' peak RSS.
  /// Query workloads build once (twice when traced) and report the peak RSS
  /// of this process, which only serves.
  bool build_workload;
  /// Query work per round and text.
  QuerySpec query;
  /// Closed-loop seconds per round, as a share of --seconds.
  double loop_share;
};

/// Rounds run until --seconds have passed, and at least this many.
constexpr int kMinRounds = 3;
/// Each round repeats the set-up at least kMinSetupsPerRound times and
/// until kSetupSecondsPerRound have passed.
constexpr int kMinSetupsPerRound = 3;
constexpr double kSetupSecondsPerRound = 0.3;

std::vector<Corpus> DnaText(uint64_t seed) {
  return {{"dna", RandomDna(4 * kMiB, seed), {}, {}}};
}

// Under a 2 MiB budget FM is 7372, so the 8 KiB unary text must be split
// by vertical partitioning, which then takes about 40% of its build.
std::vector<Corpus> RepetitiveTexts(uint64_t seed) {
  return {{"periodic", PeriodFour(16 * kKiB, seed), {}, {}},
          {"fibonacci", Fibonacci(32 * kKiB, seed + 1), {}, {}},
          {"unary", Unary(8 * kKiB, seed + 2), {}, {}}};
}

// A build workload's round is one build of every text followed by a fixed
// amount of query work on the new index, so its query samples spread over
// the whole run. A query workload's round is a closed loop of --seconds / 8.
// build_dna serves through a small cache, as query_cold does; query_warm
// holds the whole index in its cache.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"build_dna", DnaText, {16 * kMiB, 2}, true,
       {.cache_bytes = 4 * kMiB, .num_patterns = 1008, .loop_passes = 1,
        .dict_patterns = 2000, .dict_passes = 4},
       0},
      {"build_repetitive", RepetitiveTexts, {2 * kMiB, 2}, true,
       {.cache_bytes = 0, .num_patterns = 1008, .loop_passes = 5,
        .dict_patterns = 2000, .dict_passes = 100},
       0},
      {"query_cold", DnaText, {16 * kMiB, 2}, false,
       {.cache_bytes = 4 * kMiB, .num_patterns = 2016, .loop_passes = 1,
        .dict_patterns = 8000, .dict_passes = 2},
       1.0 / 8},
      {"query_warm", DnaText, {16 * kMiB, 2}, false,
       {.cache_bytes = 0, .num_patterns = 2016, .loop_passes = 1,
        .dict_patterns = 8000, .dict_passes = 40},
       1.0 / 8},
  };
  return workloads;
}

/// Checks each built index and every recorded answer against the oracle;
/// returns the occurrence checksum (counts plus located offsets).
uint64_t Verify(era::Env* env, const std::vector<Corpus>& corpora,
                const std::vector<QueryAnswers>& answers, Report* report) {
  uint64_t checksum = 0;
  for (std::size_t c = 0; c < corpora.size(); ++c) {
    const Corpus& corpus = corpora[c];
    const SuffixOracle oracle(corpus.text);
    report->Attempt();
    auto index = era::TreeIndex::Load(env, corpus.index_dir);
    era::Status status =
        index.ok() ? oracle.CheckIndex(env, *index) : index.status();
    if (status.ok() && corpus.text.size() <= kValidateIndexMaxBytes) {
      status = era::ValidateIndex(env, *index, corpus.text);
    }
    if (!status.ok()) {
      report->Fail("index of " + corpus.name + ": " + status.ToString());
    }

    const QueryAnswers& a = answers[c];
    for (std::size_t p = 0; p < a.patterns.size(); ++p) {
      uint64_t expected = 0;
      if (IsLocate(p)) {
        const auto offsets = oracle.Locate(a.patterns[p], kLocateLimit);
        for (uint64_t offset : offsets) checksum += offset + 1;
        expected = LocateDigest(offsets);
      } else {
        const uint64_t count = oracle.Count(a.patterns[p]);
        checksum += count;
        expected = CountDigest(count);
      }
      if (a.digests[p] != expected) {
        report->Fail(corpus.name + " query '" + a.patterns[p] +
                     "' disagrees with the oracle");
      }
    }
    for (std::size_t i = 0; i < a.dict_counts.size(); ++i) {
      if (a.dict_counts[i] != oracle.Count(a.dictionary[i])) {
        report->Fail(corpus.name + " dictionary pattern '" + a.dictionary[i] +
                     "' disagrees with the oracle");
      }
    }
  }
  return checksum;
}

/// Writes each text to its file with the library's MaterializeText.
bool Materialize(era::Env* env, const std::string& work_dir,
                 std::vector<Corpus>* corpora) {
  for (Corpus& corpus : *corpora) {
    auto info = era::MaterializeText(env, work_dir + "/" + corpus.name + ".txt",
                                     era::Alphabet::Dna(), corpus.text);
    if (!info.ok()) {
      std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
      return false;
    }
    corpus.info = *info;
  }
  return true;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

using Tallies = std::vector<const QueryTally*>;

/// Sum of `f` over the texts' tallies.
template <typename F>
double Sum(const Tallies& tallies, F f) {
  double sum = 0;
  for (const QueryTally* t : tallies) sum += static_cast<double>(f(*t));
  return sum;
}

double Total(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return sum;
}

void SetQueryMetrics(const Tallies& q, Report* r) {
  const double texts = static_cast<double>(q.size());
  r->Set("query_qps",
         Ratio(Sum(q, [](const QueryTally& t) { return t.latencies_ms.size(); }),
               Sum(q, [](const QueryTally& t) { return t.loop_s; })),
         "1/s");
  // Percentiles per text, averaged over the texts: pooling texts whose
  // latencies differ several-fold would put the pooled median on the
  // boundary between them, where it jumps from run to run.
  r->Set("query_p50_ms",
         Sum(q, [](const QueryTally& t) {
           return Quantile(t.latencies_ms, 0.5);
         }) / texts,
         "ms");
  r->Set("query_p99_ms",
         Sum(q, [](const QueryTally& t) {
           return Quantile(t.latencies_ms, 0.99);
         }) / texts,
         "ms");
  r->Set("dict_patterns_per_s",
         Ratio(Sum(q, [](const QueryTally& t) { return t.dict_patterns; }),
               Sum(q, [](const QueryTally& t) { return t.dict_s; })),
         "1/s");
}

void SetLayerMetrics(const BuildOutcome& b, const Tallies& q, Report* r) {
  static const std::map<std::string, std::string> kBuildUnits = {
      {"era.vertical_s", "s"},        {"era.vertical_rounds", "count"},
      {"era.prepare_s", "s"},         {"era.prepare_rounds", "count"},
      {"era.build_subtree_s", "s"},   {"era.subtree_write_s", "s"},
      {"era.worker_busy_frac", "ratio"}, {"era.unattributed_frac", "ratio"},
      {"io.amplification", "ratio"},  {"io.tile_hit_rate", "ratio"},
      {"io.device_reads", "count"},   {"io.modeled_device_s", "s"},
  };
  for (const auto& [name, unit] : kBuildUnits) {
    auto it = b.layers.find(name);
    r->Set(name, it == b.layers.end() ? 0 : it->second, unit);
  }

  std::vector<double> open_ms;
  for (const QueryTally* t : q) {
    open_ms.insert(open_ms.end(), t->open_ms.begin(), t->open_ms.end());
  }
  const double opens = Sum(q, [](const QueryTally& t) { return t.open_probes; });
  r->Set("suffixtree.load_s", Sum(q, [](const QueryTally& t) { return t.load_s; }),
         "s");
  r->Set("suffixtree.open_p50_ms", Quantile(open_ms, 0.5), "ms");
  r->Set("suffixtree.open_p99_ms", Quantile(open_ms, 0.99), "ms");
  r->Set("suffixtree.open_samples", static_cast<double>(open_ms.size()),
         "count");
  r->Set("suffixtree.open_read_ms",
         Ratio(Sum(q, [](const QueryTally& t) { return t.open_read_ms; }), opens),
         "ms");
  r->Set("suffixtree.open_crc_ms",
         Ratio(Sum(q, [](const QueryTally& t) { return t.open_crc_ms; }), opens),
         "ms");
  r->Set("suffixtree.open_decode_ms",
         Ratio(Sum(q, [](const QueryTally& t) { return t.open_decode_ms; }),
               opens),
         "ms");

  const double traced_ops = Sum(
      q, [](const QueryTally& t) { return t.traced_latencies_ms.size(); });
  const double hits = Sum(q, [](const QueryTally& t) { return t.cache_hits; });
  const double misses =
      Sum(q, [](const QueryTally& t) { return t.cache_misses; });
  r->Set("query.cache_hit_rate", Ratio(hits, hits + misses), "ratio");
  r->Set("query.evicted_bytes_per_query",
         Ratio(Sum(q, [](const QueryTally& t) { return t.evicted_bytes; }),
               traced_ops),
         "B");
  const double probes = Sum(q, [](const QueryTally& t) { return t.probes; });
  const double probe_queries =
      Sum(q, [](const QueryTally& t) { return t.probe_queries; });
  r->Set("query.route_us",
         Ratio(Sum(q, [](const QueryTally& t) { return t.route_us; }), probes),
         "us");
  r->Set("query.match_us",
         Ratio(Sum(q, [](const QueryTally& t) { return t.match_us; }), probes),
         "us");
  r->Set("query.collect_us",
         Ratio(Sum(q, [](const QueryTally& t) { return t.collect_us; }), probes),
         "us");
  r->Set("query.nodes_visited_per_query",
         Ratio(Sum(q, [](const QueryTally& t) { return t.nodes; }),
               probe_queries),
         "count");
  r->Set("query.text_reads_per_query",
         Ratio(Sum(q, [](const QueryTally& t) { return t.text_reads; }),
               probe_queries),
         "count");
  r->Set("query.leaves_per_locate",
         Ratio(Sum(q, [](const QueryTally& t) { return t.leaves; }), probes),
         "count");
  const double dict_size =
      Sum(q, [](const QueryTally& t) { return t.dict_size; });
  const double shared =
      Sum(q, [](const QueryTally& t) { return t.dict_shared; });
  const double saved = Sum(q, [](const QueryTally& t) { return t.dict_saved; });
  r->Set("query.dict_groups",
         Sum(q, [](const QueryTally& t) { return t.dict_groups; }), "count");
  r->Set("query.dict_nodes_per_pattern",
         Ratio(Sum(q, [](const QueryTally& t) { return t.dict_nodes; }),
               dict_size),
         "count");
  r->Set("query.dict_saved_ratio", Ratio(saved, shared + saved), "ratio");
  const double traced_ms = Sum(q, [](const QueryTally& t) {
    return Total(t.traced_latencies_ms);
  });
  r->Set("query.unattributed_frac",
         traced_ms > 0
             ? 1 - Sum(q, [](const QueryTally& t) { return t.explained_ms; }) /
                       traced_ms
             : 0,
         "ratio");

  r->Set("trace.build_s_delta",
         b.traced_s.empty() ? 0 : Median(b.traced_s) - Median(b.untraced_s),
         "s");
  r->Set("trace.query_p50_ms_delta",
         Sum(q,
             [](const QueryTally& t) {
               return Quantile(t.traced_latencies_ms, 0.5) -
                      Quantile(t.latencies_ms, 0.5);
             }) / static_cast<double>(q.size()),
         "ms");
  r->Set("trace.query_qps_delta",
         Ratio(traced_ops,
               Sum(q, [](const QueryTally& t) { return t.traced_loop_s; })) -
             r->Get("query_qps"),
         "1/s");
}

const std::vector<std::string> kEndToEnd = {
    "setup_s",           "build_s",      "index_bytes_per_text_byte",
    "peak_rss_mb",       "query_qps",    "query_p50_ms",
    "query_p99_ms",      "dict_patterns_per_s"};

int Run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  era::Env* env = era::GetDefaultEnv();
  Report report;
  std::printf("host nproc=%u compiler=\"%s\" build_type=%s env=posix\n",
              std::thread::hardware_concurrency(), __VERSION__,
              PERFBENCH_BUILD_TYPE);

  std::vector<Corpus> corpora = workload->texts(args.seed);
  for (Corpus& corpus : corpora) {
    corpus.index_dir = args.work_dir + "/" + corpus.name + ".idx";
  }
  if (!Materialize(env, args.work_dir, &corpora)) return 1;
  for (const Corpus& c : corpora) {
    std::printf("text %s bytes=%zu\n", c.name.c_str(), c.text.size());
  }

  QuerySpec query = workload->query;
  query.loop_seconds = workload->loop_share * args.seconds;
  query.seed = args.seed;

  // The rounds. Builds run in processes of their own.
  BuildOutcome built;
  std::vector<std::unique_ptr<QueryPhase>> phases;
  std::vector<double> setup_s;  // per round, the fastest set-up
  const int query_workload_builds = args.trace ? 2 : 1;
  const auto start = Clock::now();
  for (int round = 0;
       round < kMinRounds || SecondsSince(start) < args.seconds; ++round) {
    const bool traced = args.trace && round % 2 == 1;
    if (workload->build_workload || round < query_workload_builds) {
      const era::Status status =
          RunBuildRep(args.driver, corpora, workload->build, traced, &built);
      if (!status.ok()) {
        report.Attempt(built.builds);
        report.Fail(status.ToString());
        std::printf("%s\n", report.Json({}).c_str());
        return 1;
      }
    }
    if (phases.empty()) {
      for (const Corpus& corpus : corpora) {
        phases.push_back(std::make_unique<QueryPhase>(env, corpus, query));
      }
    }
    // Set-up, timed on its own: write the texts, then set up an engine on
    // each index as a round does. Each round repeats it and keeps its
    // fastest set-up; the run reports the median round. A shared host runs
    // the same few milliseconds of work at changing speeds, and the fastest
    // of several repeats moves least with its load.
    const auto setups_start = Clock::now();
    double fastest = 0;
    for (int i = 0; i < kMinSetupsPerRound ||
                    SecondsSince(setups_start) < kSetupSecondsPerRound;
         ++i) {
      const auto setup_start = Clock::now();
      if (!Materialize(env, args.work_dir, &corpora)) return 1;
      for (auto& phase : phases) phase->SetUp(&report);
      const double seconds = SecondsSince(setup_start);
      fastest = i == 0 ? seconds : std::min(fastest, seconds);
    }
    setup_s.push_back(fastest);
    for (auto& phase : phases) phase->Round(traced, &report);
  }
  report.Attempt(built.builds);
  const double peak_rss_mb = workload->build_workload
                                 ? Median(built.peak_rss_mb)
                                 : PeakRssMb();

  Tallies tallies;
  std::vector<QueryAnswers> answers;
  for (auto& phase : phases) {
    if (args.trace) phase->Probe(&report);
    tallies.push_back(&phase->tally());
    answers.push_back(phase->Answers());
  }
  const uint64_t checksum = Verify(env, corpora, answers, &report);

  report.Set("setup_s", Median(setup_s), "s");
  report.Set("build_s", Median(built.untraced_s), "s");
  report.Set("index_bytes_per_text_byte",
             Ratio(built.index_bytes, built.text_bytes), "ratio");
  report.Set("peak_rss_mb", peak_rss_mb, "MB");
  SetQueryMetrics(tallies, &report);
  if (args.trace) SetLayerMetrics(built, tallies, &report);

  std::map<std::string, double> fingerprint = built.fingerprint;
  fingerprint["query.occurrence_checksum"] =
      static_cast<double>(checksum & ((1ull << 52) - 1));
  if (args.trace) {
    fingerprint["query.nodes_visited_per_query"] =
        report.Get("query.nodes_visited_per_query");
  }

  std::printf("workload %s seed %llu: %.0f untraced queries, %zu untraced "
              "build(s)\n",
              workload->name, static_cast<unsigned long long>(args.seed),
              Sum(tallies,
                  [](const QueryTally& t) { return t.latencies_ms.size(); }),
              built.untraced_s.size());
  std::printf("set-up rounds %zu, quartiles %.6g %.6g %.6g s\n",
              setup_s.size(), Quantile(setup_s, 0.25), Median(setup_s),
              Quantile(setup_s, 0.75));
  for (double s : built.untraced_s) std::printf("build repetition %.6g s\n", s);
  for (double s : built.traced_s) {
    std::printf("build repetition (traced) %.6g s\n", s);
  }
  for (const auto& [name, value] : report.metrics()) {
    std::printf("%-34s %.6g %s\n", name.c_str(), value.value,
                value.unit.c_str());
  }
  for (const auto& [name, value] : fingerprint) {
    std::printf("fingerprint %-29s %.17g\n", name.c_str(), value);
  }
  std::printf("error_rate %.6g (%llu failed / %llu attempted)\n",
              Ratio(report.failed(), report.attempted()),
              static_cast<unsigned long long>(report.failed()),
              static_cast<unsigned long long>(report.attempted()));

  std::vector<std::string> names;
  if (args.trace) {
    for (const auto& [name, value] : report.metrics()) {
      if (std::find(kEndToEnd.begin(), kEndToEnd.end(), name) ==
          kEndToEnd.end()) {
        names.push_back(name);
      }
    }
  } else {
    names = kEndToEnd;
  }
  std::printf("%s\n", report.Json(names).c_str());
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "build-rep") {
    return perfbench::BuildRepMain(argc, argv);
  }
  perfbench::Args args;
  args.driver = argv[0];
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: era_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n");
    return 2;
  }
  return perfbench::Run(args);
}
