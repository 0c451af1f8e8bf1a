// The query phase: engine set-up, a closed loop of single-pattern queries
// from several clients, dictionary passes, and (traced) probes of the
// suffixtree and query layers through their public calls.

#ifndef PERFBENCH_QUERY_PHASE_H_
#define PERFBENCH_QUERY_PHASE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "build_phase.h"
#include "io/env.h"
#include "report.h"

namespace perfbench {

/// Query work per round and text. The workload table sets the sizes; the
/// run sets `loop_seconds` and `seed`.
struct QuerySpec {
  /// Sub-tree cache budget; 0 means twice the index, filled during set-up.
  uint64_t cache_bytes;
  /// Patterns of the SamplePatternWorkload mix (3 Count : 1 Locate, Locate
  /// limited to kLocateLimit, 10% absent, lengths 4-24 in equal shares).
  std::size_t num_patterns;
  /// Per round, the closed loop runs at least `loop_passes` times through
  /// the patterns and for at least `loop_seconds`.
  std::size_t loop_passes;
  double loop_seconds;
  /// Dictionary size, and MatchDictionary passes per round, shared by the
  /// clients.
  std::size_t dict_patterns;
  int dict_passes;
  uint64_t seed;
};

inline constexpr std::size_t kLocateLimit = 100;

/// Pattern `i` of the mix is a Locate when i mod 4 = 0, else a Count.
inline bool IsLocate(std::size_t i) { return i % 4 == 0; }
/// Closed-loop client threads.
inline constexpr unsigned kClients = 2;

/// Raw measurements of one text's query phase.
struct QueryTally {
  // Untraced and traced closed loops.
  std::vector<double> latencies_ms, traced_latencies_ms;
  double loop_s = 0, traced_loop_s = 0;
  // Dictionary loops: patterns matched and wall seconds, summed over the
  // rounds; patterns per pass.
  uint64_t dict_patterns = 0;
  double dict_s = 0;
  uint64_t dict_size = 0;
  // Per-layer sums (traced probes and loop).
  double load_s = 0;
  std::vector<double> open_ms;
  double open_read_ms = 0, open_crc_ms = 0, open_decode_ms = 0;
  uint64_t open_probes = 0;
  double route_us = 0, match_us = 0, collect_us = 0;
  uint64_t probes = 0, probe_queries = 0, nodes = 0, text_reads = 0,
           leaves = 0;
  uint64_t cache_hits = 0, cache_misses = 0, evicted_bytes = 0;
  uint64_t dict_groups = 0, dict_nodes = 0, dict_shared = 0, dict_saved = 0;
  // Traced-loop time the layer probes explain: per query the route span, a
  // warm Count, Locate's collection on one query in four, and a cold open
  // per cache miss; times the traced queries.
  double explained_ms = 0;
};

/// What the oracle must confirm after timing: the first answer seen for
/// each pattern (every later answer was compared with it in flight) and the
/// dictionary counts.
struct QueryAnswers {
  std::vector<std::string> patterns;
  std::vector<uint64_t> digests;
  std::vector<std::string> dictionary;
  std::vector<uint64_t> dict_counts;
};

/// Serving one text's index over the rounds of a run. Failed or
/// inconsistent operations are counted in the report.
class QueryPhase {
 public:
  QueryPhase(era::Env* env, const Corpus& corpus, const QuerySpec& spec);

  /// Sets up an engine as a round does (QueryEngine::Open, plus the cache
  /// fill when warm), then closes it.
  void SetUp(Report* report);

  /// One round on a freshly set-up engine: the closed loop, then a closed
  /// loop of dictionary passes. A traced round also times a TreeIndex::Route span before each
  /// query and reads the cache counters.
  void Round(bool traced, Report* report);

  /// Traced runs: the suffixtree and query layer probes, on their own
  /// engine and index. The query probe runs twice and must visit the same
  /// nodes both times.
  void Probe(Report* report);

  const QueryTally& tally() const { return tally_; }
  /// The first answers seen; call after the last round.
  QueryAnswers Answers() const;

 private:
  era::Env* env_;
  const Corpus& corpus_;
  QuerySpec spec_;
  uint64_t cache_bytes_;
  std::vector<std::string> patterns_;
  std::vector<std::atomic<uint64_t>> digests_;  // 0 = no answer yet
  std::vector<std::string> dictionary_;
  std::vector<uint64_t> dict_counts_;           // from the first pass seen
  QueryTally tally_;
};

}  // namespace perfbench

#endif  // PERFBENCH_QUERY_PHASE_H_
