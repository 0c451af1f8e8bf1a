#include "build_phase.h"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "era/parallel_builder.h"
#include "era/vertical_partitioner.h"
#include "io/io_stats.h"
#include "report.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct OneBuild {
  double seconds = 0;
  era::ParallelBuildResult result;
  uint64_t index_bytes = 0;
  // PartitionPlan.rounds of a direct VerticalPartition call (traced builds
  // only).
  uint32_t vertical_rounds = 0;
};

era::StatusOr<OneBuild> BuildOnce(era::Env* env, const Corpus& corpus,
                                  const BuildSpec& spec, bool traced) {
  std::error_code ec;
  fs::remove_all(corpus.index_dir, ec);
  fs::create_directories(corpus.index_dir, ec);
  if (ec) return era::Status::IOError("cannot create " + corpus.index_dir);

  era::BuildOptions options;
  options.memory_budget = spec.budget_bytes;
  options.work_dir = corpus.index_dir;
  options.env = env;
  options.format = era::SubTreeFormat::kPacked;

  OneBuild one;
  const auto start = Clock::now();
  era::ParallelBuilder builder(options, spec.workers);
  auto result = builder.Build(corpus.info);
  one.seconds = SecondsSince(start);
  if (!result.ok()) return result.status();
  one.result = std::move(*result);
  // The served index: the manifest and the sub-tree files it lists (the
  // build's CHECKPOINT is bookkeeping, and its length varies by a digit).
  std::vector<std::string> files = {"MANIFEST"};
  for (const era::SubTreeEntry& entry : one.result.index.subtrees()) {
    files.push_back(entry.filename);
  }
  for (const std::string& file : files) {
    one.index_bytes += fs::file_size(corpus.index_dir + "/" + file, ec);
    if (ec) return era::Status::IOError("cannot size " + file);
  }

  if (traced) {
    // BuildStats has no round count, so the plan is made again with the
    // build's per-worker share and FM. This call has no tile cache, unlike
    // the builder's, so only its count is used: era.vertical_s is the
    // build's own vertical_partition time.
    era::BuildOptions per_worker = options;
    per_worker.memory_budget /= spec.workers;
    ERA_ASSIGN_OR_RETURN(
        era::PartitionPlan plan,
        era::VerticalPartition(corpus.info, per_worker,
                               one.result.stats.fm));
    one.vertical_rounds = plan.rounds;
  }
  return one;
}

/// era.* and io.* metrics of one traced repetition (all corpora).
std::map<std::string, double> LayerMetrics(const std::vector<OneBuild>& builds,
                                           unsigned workers) {
  double wall = 0, attributed = 0, vertical_s = 0, vertical_rounds = 0;
  double prepare_s = 0, build_subtree_s = 0, subtree_write_s = 0;
  double prepare_rounds = 0, busy = 0, worker_time = 0, text_bytes = 0;
  era::IoStats io;
  for (const OneBuild& b : builds) {
    const era::BuildStats& stats = b.result.stats;
    wall += b.seconds;
    vertical_s += stats.vertical_seconds;
    vertical_rounds += b.vertical_rounds;
    prepare_rounds += static_cast<double>(stats.prepare_rounds);
    text_bytes += static_cast<double>(stats.text_bytes);
    io.Add(stats.io);
    for (double s : b.result.worker_busy_seconds) busy += s;
    for (double s : b.result.worker_seconds) worker_time += s;
    // Phases on build workers share the wall clock between `workers`
    // threads; the background writer (worker id == workers) overlaps them
    // and is not on the critical path.
    double worker_phases = 0;
    for (const auto& e : stats.phases) {
      if (e.phase == "prepare") prepare_s += e.seconds;
      if (e.phase == "build_subtree" || e.phase == "branch_edge") {
        build_subtree_s += e.seconds;
      }
      if (e.phase == "subtree_write") subtree_write_s += e.seconds;
      if (e.phase == "vertical_partition" || e.phase == "assemble_index") {
        attributed += e.seconds;
      } else if (e.worker < workers) {
        worker_phases += e.seconds;
      }
    }
    attributed += worker_phases / workers;
  }
  const double lookups = static_cast<double>(io.tile_hits + io.tile_misses);
  const double device_reads =
      lookups > 0 ? static_cast<double>(io.tile_misses)
                  : static_cast<double>(io.sequential_refills + io.seeks);
  return {
      {"era.vertical_s", vertical_s},
      {"era.vertical_rounds", vertical_rounds},
      {"era.prepare_s", prepare_s},
      {"era.prepare_rounds", prepare_rounds},
      {"era.build_subtree_s", build_subtree_s},
      {"era.subtree_write_s", subtree_write_s},
      {"era.worker_busy_frac", worker_time > 0 ? busy / worker_time : 0},
      {"era.unattributed_frac", wall > 0 ? 1 - attributed / wall : 0},
      {"io.amplification", static_cast<double>(io.bytes_read) / text_bytes},
      {"io.tile_hit_rate",
       lookups > 0 ? static_cast<double>(io.tile_hits) / lookups : 0},
      {"io.device_reads", device_reads},
      {"io.modeled_device_s", era::DiskModel{}.ModeledSeconds(io)},
  };
}

/// What one repetition (every text built once) reports to the parent.
struct RepOutcome {
  double seconds = 0;
  double peak_rss_mb = 0;
  uint64_t index_bytes = 0;
  uint64_t text_bytes = 0;
  uint64_t bytes_read = 0;
  uint64_t prepare_rounds = 0;
  /// Per text: prepare rounds, device bytes read, index bytes, sub-trees.
  std::vector<uint64_t> counts;
  std::map<std::string, double> layers;
  std::string error;

  std::string Serialize() const {
    std::ostringstream s;
    s.precision(17);
    s << "seconds " << seconds << "\npeak_rss_mb " << peak_rss_mb
      << "\nindex_bytes " << index_bytes << "\ntext_bytes " << text_bytes
      << "\nbytes_read " << bytes_read << "\nprepare_rounds "
      << prepare_rounds << "\n";
    for (uint64_t c : counts) s << "count " << c << "\n";
    for (const auto& [k, v] : layers) s << "layer " << k << " " << v << "\n";
    if (!error.empty()) s << "error " << error << "\n";
    return s.str();
  }

  static RepOutcome Parse(const std::string& serialized) {
    RepOutcome r;
    r.error = "build process reported nothing";
    std::istringstream in(serialized);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string key, name;
      fields >> key;
      uint64_t n = 0;
      double v = 0;
      if (key == "seconds" && fields >> r.seconds) r.error.clear();
      if (key == "peak_rss_mb") fields >> r.peak_rss_mb;
      if (key == "index_bytes") fields >> r.index_bytes;
      if (key == "text_bytes") fields >> r.text_bytes;
      if (key == "bytes_read") fields >> r.bytes_read;
      if (key == "prepare_rounds") fields >> r.prepare_rounds;
      if (key == "count" && fields >> n) r.counts.push_back(n);
      if (key == "layer" && fields >> name >> v) r.layers[name] = v;
      if (key == "error") r.error = line.substr(6);
    }
    return r;
  }
};

/// Builds every text once (runs in the build process).
RepOutcome RunRep(era::Env* env, const std::vector<Corpus>& corpora,
                  const BuildSpec& spec, bool traced) {
  RepOutcome r;
  std::vector<OneBuild> builds;
  for (const Corpus& corpus : corpora) {
    auto one = BuildOnce(env, corpus, spec, traced);
    if (!one.ok()) {
      r.error = "build of " + corpus.name + ": " + one.status().ToString();
      return r;
    }
    const era::BuildStats& stats = one->result.stats;
    r.seconds += one->seconds;
    r.index_bytes += one->index_bytes;
    r.text_bytes += stats.text_bytes;
    r.bytes_read += stats.io.bytes_read;
    r.prepare_rounds += stats.prepare_rounds;
    r.counts.insert(r.counts.end(),
                    {stats.prepare_rounds, stats.io.bytes_read,
                     one->index_bytes, stats.num_subtrees});
    builds.push_back(std::move(*one));
  }
  if (traced) r.layers = LayerMetrics(builds, spec.workers);
  r.peak_rss_mb = PeakRssMb();
  return r;
}

/// Runs `argv` (this driver in build-rep mode) and returns its standard
/// output, or sets `error`.
std::string RunChild(const std::vector<std::string>& argv,
                     std::string* error) {
  int fds[2];
  if (pipe(fds) != 0) {
    *error = "pipe failed";
    return "";
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  std::fflush(nullptr);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, args[0], &actions, nullptr,
                                  args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string data;
  if (spawned == 0) {
    char buf[4096];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof(buf))) > 0) data.append(buf, n);
  }
  close(fds[0]);
  if (spawned != 0) {
    *error = "cannot start " + argv[0];
    return "";
  }
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "build process did not exit cleanly";
  }
  return data;
}

}  // namespace

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

int BuildRepMain(int argc, char** argv) {
  // argv: <driver> build-rep <budget> <workers> <traced>, then
  // <name> <text path> <text length> <index dir> per text.
  if (argc < 9 || (argc - 5) % 4 != 0) return 2;
  BuildSpec spec;
  spec.budget_bytes = std::strtoull(argv[2], nullptr, 10);
  spec.workers = static_cast<unsigned>(std::strtoul(argv[3], nullptr, 10));
  const bool traced = std::string(argv[4]) == "1";
  std::vector<Corpus> corpora;
  for (int i = 5; i + 3 < argc; i += 4) {
    Corpus corpus;
    corpus.name = argv[i];
    corpus.info.path = argv[i + 1];
    corpus.info.length = std::strtoull(argv[i + 2], nullptr, 10);
    corpus.index_dir = argv[i + 3];
    corpora.push_back(std::move(corpus));
  }
  const std::string out =
      RunRep(era::GetDefaultEnv(), corpora, spec, traced).Serialize();
  std::fwrite(out.data(), 1, out.size(), stdout);
  return std::fflush(stdout) == 0 ? 0 : 1;
}

era::Status RunBuildRep(const std::string& driver,
                        const std::vector<Corpus>& corpora,
                        const BuildSpec& spec, bool traced, BuildOutcome* out) {
  out->builds += corpora.size();
  std::vector<std::string> argv = {driver, "build-rep",
                                   std::to_string(spec.budget_bytes),
                                   std::to_string(spec.workers),
                                   traced ? "1" : "0"};
  for (const Corpus& corpus : corpora) {
    argv.insert(argv.end(), {corpus.name, corpus.info.path,
                             std::to_string(corpus.info.length),
                             corpus.index_dir});
  }
  std::string error;
  const RepOutcome r = RepOutcome::Parse(RunChild(argv, &error));
  if (!error.empty() || !r.error.empty()) {
    return era::Status::IOError(error.empty() ? r.error : error);
  }
  if (out->first_counts.empty()) {
    out->first_counts = r.counts;
  } else if (r.counts != out->first_counts) {
    return era::Status::Corruption(
        "a repeated build did not repeat its counts (prepare rounds, device "
        "bytes, index bytes, sub-trees)");
  }
  (traced ? out->traced_s : out->untraced_s).push_back(r.seconds);
  out->peak_rss_mb.push_back(r.peak_rss_mb);
  out->index_bytes = r.index_bytes;
  out->text_bytes = r.text_bytes;
  out->fingerprint["era.prepare_rounds"] =
      static_cast<double>(r.prepare_rounds);
  out->fingerprint["io.amplification"] =
      static_cast<double>(r.bytes_read) / static_cast<double>(r.text_bytes);
  out->fingerprint["index_bytes_per_text_byte"] =
      static_cast<double>(r.index_bytes) / static_cast<double>(r.text_bytes);
  if (traced) {
    out->layers = r.layers;
    const double vertical_rounds = r.layers.at("era.vertical_rounds");
    auto [it, first] =
        out->fingerprint.emplace("era.vertical_rounds", vertical_rounds);
    if (!first && it->second != vertical_rounds) {
      return era::Status::Corruption(
          "a repeated traced build did not repeat its vertical rounds");
    }
  }
  return era::Status::OK();
}

}  // namespace perfbench
