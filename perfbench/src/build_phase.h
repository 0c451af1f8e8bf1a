// The build phase: repeated ParallelBuilder::Build calls over the workload's
// texts, with the era and io layers read from what the calls return.

#ifndef PERFBENCH_BUILD_PHASE_H_
#define PERFBENCH_BUILD_PHASE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "io/env.h"
#include "text/corpus.h"

namespace perfbench {

/// One input text of a workload, materialized as a file.
struct Corpus {
  std::string name;
  std::string text;  // terminal included
  era::TextInfo info;
  std::string index_dir;  // receives the index of each build
};

struct BuildSpec {
  uint64_t budget_bytes = 0;  // total, split over the workers
  unsigned workers = 2;
};

struct BuildOutcome {
  /// Wall seconds of the Build calls, summed over the texts, per
  /// repetition.
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  /// Peak RSS of each repetition's build process, in MiB.
  std::vector<double> peak_rss_mb;
  uint64_t builds = 0;
  /// On-disk index bytes and text bytes of one repetition.
  uint64_t index_bytes = 0;
  uint64_t text_bytes = 0;
  /// era.* and io.* metrics of the last traced repetition.
  std::map<std::string, double> layers;
  /// Counts that must repeat exactly within a run (prepare rounds, io
  /// amplification, index size, and with tracing the vertical rounds).
  std::map<std::string, double> fingerprint;
  /// Per text, the first repetition's prepare rounds, device bytes, index
  /// bytes and sub-trees; every later repetition must match.
  std::vector<uint64_t> first_counts;
};

/// Builds every text into its index_dir once and adds the repetition to
/// `out`. The repetition runs in a process of its own, this driver started
/// as `driver build-rep ...`, so its peak RSS and heap are its own. A traced
/// repetition follows each build with a direct VerticalPartition call for
/// the plan's round count and records the layer metrics. Returns an error
/// when a build fails or does not repeat its counts.
era::Status RunBuildRep(const std::string& driver,
                        const std::vector<Corpus>& corpora,
                        const BuildSpec& spec, bool traced, BuildOutcome* out);

/// Entry point of the build-rep process: builds, and prints the outcome for
/// RunBuildRep to read.
int BuildRepMain(int argc, char** argv);

/// Total size of the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_BUILD_PHASE_H_
