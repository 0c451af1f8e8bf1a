#include "query_phase.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "common/crc32.h"
#include "oracle.h"
#include "query/query_engine.h"
#include "query/query_workload.h"
#include "suffixtree/serializer.h"
#include "suffixtree/tree_index.h"

namespace perfbench {
namespace {

double MsSince(Clock::time_point start) { return SecondsSince(start) * 1e3; }

/// TreeIndex::Load repetitions; the probe reports the median.
constexpr int kLoadRepeats = 3;

/// Single-thread probe size and cold-open sample target.
constexpr std::size_t kProbePatterns = 256;
constexpr std::size_t kOpenSamples = 1000;

/// Pattern lengths of the mix: SamplePatternWorkload's default range.
constexpr std::size_t kMinPatternLen = 4;
constexpr std::size_t kMaxPatternLen = 24;

/// The SamplePatternWorkload mix with fixed shares: pattern i has length
/// kMinPatternLen + (i / 4) mod 21, so every length has the same share of
/// Counts and of Locates whatever the seed. Drawing lengths at random would
/// move the p99 with the seed: the Locates of the shortest patterns, which
/// have the most occurrences, are about 1% of the queries.
std::vector<std::string> SampleMix(const std::string& text, std::size_t n,
                                   uint64_t seed) {
  constexpr std::size_t kLengths = kMaxPatternLen - kMinPatternLen + 1;
  std::vector<std::size_t> per_length(kLengths, 0);
  for (std::size_t i = 0; i < n; ++i) ++per_length[(i / 4) % kLengths];
  std::vector<std::vector<std::string>> by_length(kLengths);
  for (std::size_t l = 0; l < kLengths; ++l) {
    era::QueryWorkloadOptions mix;
    mix.num_patterns = per_length[l];
    mix.min_len = mix.max_len = kMinPatternLen + l;
    mix.locate_limit = kLocateLimit;
    mix.seed = seed * kLengths + l;
    by_length[l] = era::SamplePatternWorkload(text, mix);
  }
  std::vector<std::string> patterns;
  std::vector<std::size_t> taken(kLengths, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t l = (i / 4) % kLengths;
    patterns.push_back(std::move(by_length[l][taken[l]++]));
  }
  return patterns;
}

/// Answers pattern `p` of the mix; returns its digest, or 0 on failure.
uint64_t Answer(era::QueryEngine* engine, const std::string& pattern,
                std::size_t p, era::Status* status) {
  if (IsLocate(p)) {
    auto offsets = engine->Locate(pattern, kLocateLimit);
    if (offsets.ok()) return LocateDigest(*offsets);
    *status = offsets.status();
  } else {
    auto count = engine->Count(pattern);
    if (count.ok()) return CountDigest(*count);
    *status = count.status();
  }
  return 0;
}

struct LoopResult {
  std::vector<double> latencies_ms;
  double seconds = 0;
  uint64_t ops = 0;
  uint64_t failures = 0;
  std::string note;
};

/// Closed loop: each of kClients threads sends its next query only after
/// the previous one returned. Runs for `seconds` and at least `min_ops`
/// queries (a whole number of passes through the pattern list). Every answer
/// is compared with the first answer seen for its pattern (`digests`, 0 =
/// none yet). A traced query also times a separate TreeIndex::Route span
/// before the call.
LoopResult ClosedLoop(era::QueryEngine* engine,
                      const std::vector<std::string>& patterns,
                      std::vector<std::atomic<uint64_t>>* digests,
                      uint64_t min_ops, double seconds, bool traced) {
  struct Client {
    std::vector<double> latencies_ms;
    uint64_t failures = 0;
    std::string note;
  };
  std::vector<Client> per_client(kClients);
  std::atomic<uint64_t> next{0};
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto run = [&](Client* c) {
    for (;;) {
      const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= min_ops && Clock::now() >= deadline) break;
      const std::size_t p = i % patterns.size();
      const auto t0 = Clock::now();
      if (traced) static_cast<void>(engine->index().Route(patterns[p]));
      era::Status status;
      const uint64_t digest = Answer(engine, patterns[p], p, &status);
      c->latencies_ms.push_back(MsSince(t0));
      uint64_t expected = 0;
      if (digest != 0 &&
          ((*digests)[p].compare_exchange_strong(expected, digest) ||
           expected == digest)) {
        continue;
      }
      ++c->failures;
      if (c->note.empty()) {
        c->note = "query '" + patterns[p] + "': " +
                  (digest == 0 ? status.ToString()
                               : std::string("answer changed between calls"));
      }
    }
  };
  std::vector<std::thread> threads;
  for (Client& c : per_client) threads.emplace_back(run, &c);
  for (std::thread& t : threads) t.join();

  LoopResult out;
  out.seconds = SecondsSince(start);
  for (Client& c : per_client) {
    out.latencies_ms.insert(out.latencies_ms.end(), c.latencies_ms.begin(),
                            c.latencies_ms.end());
    out.failures += c.failures;
    if (out.note.empty()) out.note = c.note;
  }
  out.ops = out.latencies_ms.size();
  return out;
}

struct DictResult {
  double seconds = 0;
  uint64_t passes = 0;
  /// Per client, the counts of its first pass; its later passes were
  /// compared with them.
  std::vector<std::vector<uint64_t>> first_counts;
  uint64_t failures = 0;
  std::string note;
};

/// Closed loop of MatchDictionary passes, `passes` in all, from kClients
/// threads: each client starts its next pass when its previous one
/// returned. One thread alone would feel every slow spell of the core it
/// runs on.
DictResult DictionaryLoop(era::QueryEngine* engine,
                          const std::vector<std::string>& dictionary,
                          int passes) {
  struct Client {
    std::vector<uint64_t> counts;
    uint64_t passes = 0;
    uint64_t failures = 0;
    std::string note;
  };
  std::vector<Client> per_client(kClients);
  std::atomic<int> next{0};
  const auto start = Clock::now();
  auto run = [&](Client* c) {
    while (next.fetch_add(1, std::memory_order_relaxed) < passes) {
      ++c->passes;
      auto outcomes = engine->MatchDictionary(dictionary);
      if (!outcomes.ok()) {
        c->failures += dictionary.size();
        c->note = "dictionary pass: " + outcomes.status().ToString();
        continue;
      }
      const bool first = c->counts.empty();
      for (std::size_t i = 0; i < outcomes->size(); ++i) {
        const era::DictOutcome& o = (*outcomes)[i];
        if (first) c->counts.push_back(o.count);
        if (!o.status.ok() || o.count != c->counts[i]) {
          ++c->failures;
          c->note = "dictionary pattern '" + dictionary[i] + "'";
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (Client& c : per_client) threads.emplace_back(run, &c);
  for (std::thread& t : threads) t.join();

  DictResult out;
  out.seconds = SecondsSince(start);
  for (Client& c : per_client) {
    out.passes += c.passes;
    out.failures += c.failures;
    if (out.note.empty()) out.note = c.note;
    if (!c.counts.empty()) out.first_counts.push_back(std::move(c.counts));
  }
  return out;
}

std::unique_ptr<era::QueryEngine> SetUpEngine(era::Env* env,
                                              const Corpus& corpus,
                                              uint64_t cache_bytes, bool warm,
                                              Report* report) {
  era::QueryEngineOptions options;
  options.cache.budget_bytes = cache_bytes;
  report->Attempt();
  auto engine = era::QueryEngine::Open(env, corpus.index_dir, options);
  if (!engine.ok()) {
    report->Fail("open " + corpus.index_dir + ": " +
                 engine.status().ToString());
    return nullptr;
  }
  if (warm) {
    const era::TreeIndex& index = (*engine)->index();
    for (uint32_t id = 0; id < index.subtrees().size(); ++id) {
      auto tree = index.OpenSubTree(env, id, nullptr);
      if (!tree.ok()) {
        report->Fail("open sub-tree: " + tree.status().ToString());
        return nullptr;
      }
    }
  }
  return std::move(*engine);
}

/// suffixtree layer: index load and cold sub-tree opens, the latter split
/// into file read, CRC-32C and decode-and-validate.
void ProbeSuffixTree(era::Env* env, const Corpus& corpus, Report* report,
                     QueryTally* tally) {
  std::vector<double> loads;
  std::unique_ptr<era::TreeIndex> index;
  for (int i = 0; i < kLoadRepeats; ++i) {
    const auto start = Clock::now();
    auto loaded = era::TreeIndex::Load(env, corpus.index_dir);
    loads.push_back(SecondsSince(start));
    report->Attempt();
    if (!loaded.ok()) {
      report->Fail("load index: " + loaded.status().ToString());
      return;
    }
    index = std::make_unique<era::TreeIndex>(std::move(*loaded));
  }
  tally->load_s += Median(loads);

  const std::size_t n = index->subtrees().size();
  const std::size_t passes = n == 0 ? 0 : (kOpenSamples + n - 1) / n;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (uint32_t id = 0; id < n; ++id) {
      report->Attempt();
      index->EvictCache();
      auto start = Clock::now();
      auto tree = index->OpenSubTree(env, id, nullptr);
      tally->open_ms.push_back(MsSince(start));

      const std::string path =
          corpus.index_dir + "/" + index->subtrees()[id].filename;
      std::string bytes;
      start = Clock::now();
      era::Status read = env->ReadFileToString(path, &bytes);
      const double read_ms = MsSince(start);
      start = Clock::now();
      static_cast<void>(era::Crc32c(bytes.data(), bytes.size()));
      const double crc_ms = MsSince(start);
      era::ServedSubTree served;
      start = Clock::now();
      era::Status decoded =
          era::ReadServedSubTree(env, path, &served, nullptr, nullptr);
      const double served_ms = MsSince(start);
      if (!tree.ok() || !read.ok() || !decoded.ok()) {
        report->Fail("cold open of " + path);
        continue;
      }
      tally->open_read_ms += read_ms;
      tally->open_crc_ms += crc_ms;
      tally->open_decode_ms += std::max(0.0, served_ms - read_ms - crc_ms);
      ++tally->open_probes;
    }
  }
}

/// query layer, single thread: per pattern a warm-up Count makes its
/// sub-tree resident, then Route, a warm Count and a warm Locate are timed.
/// The answer of the pattern's own kind must equal the loop's (`digests`).
/// Returns the nodes the pass visited, a count that must repeat exactly.
uint64_t ProbeQuery(era::QueryEngine* engine,
                    const std::vector<std::string>& patterns,
                    const std::vector<std::atomic<uint64_t>>& digests,
                    Report* report, QueryTally* tally) {
  const era::QueryStats stats0 = engine->stats();
  const era::IoStats io0 = engine->io();
  const std::size_t stride = std::max<std::size_t>(
      1, patterns.size() / kProbePatterns);
  for (std::size_t p = 0; p < patterns.size(); p += stride) {
    const std::string& pattern = patterns[p];
    report->Attempt();
    auto warm = engine->Count(pattern);
    auto start = Clock::now();
    static_cast<void>(engine->index().Route(pattern));
    tally->route_us += SecondsSince(start) * 1e6;
    start = Clock::now();
    auto count = engine->Count(pattern);
    const double count_us = SecondsSince(start) * 1e6;
    start = Clock::now();
    auto offsets = engine->Locate(pattern, kLocateLimit);
    const double locate_us = SecondsSince(start) * 1e6;
    if (!warm.ok() || !count.ok() || !offsets.ok() || *warm != *count ||
        offsets->size() != std::min<uint64_t>(*count, kLocateLimit) ||
        digests[p] != (IsLocate(p) ? LocateDigest(*offsets)
                                   : CountDigest(*count))) {
      report->Fail("probe of '" + pattern + "'");
      continue;
    }
    tally->match_us += count_us;
    tally->collect_us += locate_us - count_us;
    ++tally->probes;
  }
  const era::QueryStats stats1 = engine->stats();
  const era::IoStats io1 = engine->io();
  tally->probe_queries += stats1.queries - stats0.queries;
  tally->nodes += stats1.nodes_visited - stats0.nodes_visited;
  tally->leaves += stats1.leaves_enumerated - stats0.leaves_enumerated;
  tally->text_reads += (io1.seeks + io1.sequential_refills) -
                       (io0.seeks + io0.sequential_refills);
  return stats1.nodes_visited - stats0.nodes_visited;
}

}  // namespace

QueryPhase::QueryPhase(era::Env* env, const Corpus& corpus,
                       const QuerySpec& spec)
    : env_(env),
      corpus_(corpus),
      spec_(spec),
      cache_bytes_(spec.cache_bytes == 0
                       ? 2 * DirectoryBytes(corpus.index_dir)
                       : spec.cache_bytes) {
  patterns_ = SampleMix(corpus.text, spec.num_patterns, spec.seed);
  digests_ = std::vector<std::atomic<uint64_t>>(patterns_.size());
  era::DictWorkloadOptions dict_mix;
  dict_mix.num_patterns = spec.dict_patterns;
  dict_mix.seed = spec.seed;
  dictionary_ = era::SampleDictionaryWorkload(corpus.text, dict_mix);
}

void QueryPhase::SetUp(Report* report) {
  static_cast<void>(
      SetUpEngine(env_, corpus_, cache_bytes_, spec_.cache_bytes == 0, report));
}

void QueryPhase::Round(bool traced, Report* report) {
  std::unique_ptr<era::QueryEngine> engine =
      SetUpEngine(env_, corpus_, cache_bytes_, spec_.cache_bytes == 0, report);
  if (engine == nullptr) return;

  const era::TreeIndex::CacheSnapshot cache0 = engine->cache();
  LoopResult loop = ClosedLoop(engine.get(), patterns_, &digests_,
                               patterns_.size() * spec_.loop_passes,
                               spec_.loop_seconds, traced);
  const era::TreeIndex::CacheSnapshot cache1 = engine->cache();
  report->Attempt(loop.ops);
  for (uint64_t i = 0; i < loop.failures; ++i) report->Fail(loop.note);
  if (traced) {
    tally_.traced_latencies_ms.insert(tally_.traced_latencies_ms.end(),
                                      loop.latencies_ms.begin(),
                                      loop.latencies_ms.end());
    tally_.traced_loop_s += loop.seconds;
    tally_.cache_hits += cache1.hits - cache0.hits;
    tally_.cache_misses += cache1.misses - cache0.misses;
    tally_.evicted_bytes += cache1.evicted_bytes - cache0.evicted_bytes;
  } else {
    tally_.latencies_ms.insert(tally_.latencies_ms.end(),
                               loop.latencies_ms.begin(),
                               loop.latencies_ms.end());
    tally_.loop_s += loop.seconds;
  }

  const era::QueryStats before = engine->stats();
  DictResult dict = DictionaryLoop(engine.get(), dictionary_,
                                   spec_.dict_passes);
  const era::QueryStats after = engine->stats();
  report->Attempt(dict.passes * dictionary_.size());
  for (uint64_t i = 0; i < dict.failures; ++i) report->Fail(dict.note);
  for (const std::vector<uint64_t>& counts : dict.first_counts) {
    if (dict_counts_.empty()) dict_counts_ = counts;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] != dict_counts_[i]) {
        report->Fail("dictionary pattern '" + dictionary_[i] +
                     "' changed its count between clients");
      }
    }
  }
  tally_.dict_patterns += dict.passes * dictionary_.size();
  tally_.dict_s += dict.seconds;
  if (tally_.dict_size == 0 && dict.passes > 0) {
    // Every pass does the same work, so the counters split evenly.
    tally_.dict_size = dictionary_.size();
    tally_.dict_groups =
        (after.dict_groups_formed - before.dict_groups_formed) / dict.passes;
    tally_.dict_nodes = (after.nodes_visited - before.nodes_visited) /
                        dict.passes;
    tally_.dict_shared =
        (after.dict_descents_shared - before.dict_descents_shared) /
        dict.passes;
    tally_.dict_saved =
        (after.dict_descents_saved - before.dict_descents_saved) /
        dict.passes;
  }
}

void QueryPhase::Probe(Report* report) {
  ProbeSuffixTree(env_, corpus_, report, &tally_);
  std::unique_ptr<era::QueryEngine> engine =
      SetUpEngine(env_, corpus_, cache_bytes_, spec_.cache_bytes == 0, report);
  if (engine == nullptr) return;
  const uint64_t nodes =
      ProbeQuery(engine.get(), patterns_, digests_, report, &tally_);
  if (ProbeQuery(engine.get(), patterns_, digests_, report, &tally_) !=
      nodes) {
    report->Invalidate("a repeated query probe visited another node count");
  }
  const double ops = static_cast<double>(tally_.traced_latencies_ms.size());
  const double probes = std::max<double>(1, tally_.probes);
  const double per_query_ms =
      (tally_.route_us + tally_.match_us + tally_.collect_us / 4) / probes /
          1e3 +
      static_cast<double>(tally_.cache_misses) / std::max(1.0, ops) *
          Median(tally_.open_ms);
  tally_.explained_ms = ops * per_query_ms;
}

QueryAnswers QueryPhase::Answers() const {
  QueryAnswers a;
  a.patterns = patterns_;
  for (const auto& d : digests_) a.digests.push_back(d.load());
  a.dictionary = dictionary_;
  a.dict_counts = dict_counts_;
  return a;
}

}  // namespace perfbench
