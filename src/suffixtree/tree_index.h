// The full disk-resident suffix-tree index: trie + sub-tree files + manifest.
//
// Every construction algorithm in this repository (ERA, WaveFront, B2ST,
// TRELLIS) produces a TreeIndex, so validation, canonicalization and the
// query engine are shared.
//
// The reading side serves sub-trees through a sharded, byte-budgeted LRU
// cache of ServedSubTree values, all in the packed form (v1/v2 files are
// re-encoded at load): the cache charges the packed size, which fits 2-4x
// more sub-trees in a budget than 32-byte records. Lookups lock only their
// shard, loads run outside any lock, and entries are handed out as
// shared_ptr so an eviction never invalidates a tree an in-flight query is
// still walking. Pattern-to-sub-tree routing goes through a flat k-mer
// dispatch table built over the trie at Load time (Route()).

#ifndef ERA_SUFFIXTREE_TREE_INDEX_H_
#define ERA_SUFFIXTREE_TREE_INDEX_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "io/env.h"
#include "io/io_stats.h"
#include "io/retry_policy.h"
#include "suffixtree/compressed_tree.h"
#include "suffixtree/tree_buffer.h"
#include "suffixtree/trie.h"
#include "text/corpus.h"

namespace era {

/// One serialized sub-tree in the manifest.
struct SubTreeEntry {
  std::string prefix;
  uint64_t frequency = 0;  // leaf count
  std::string filename;    // relative to the index directory
};

/// Tuning knobs for the sub-tree cache.
struct TreeCacheOptions {
  /// Total bytes of resident sub-trees across all shards. A shard evicts
  /// from its LRU end once it exceeds its share (budget / shards), but never
  /// below one resident entry, so a single oversized sub-tree still caches.
  uint64_t budget_bytes = 64ull << 20;
  /// Number of independently locked shards (sub-tree id modulo shards).
  uint32_t shards = 8;
  /// Retry schedule for sub-tree loads. Only IOError is retried; a
  /// Corruption (bad checksum) fails immediately and is never cached.
  RetryPolicy retry;
};

/// Disk layout:
///   <dir>/MANIFEST   key:value text lines + serialized trie blob
///   <dir>/st_<id>    sub-tree files (serializer.h format)
class TreeIndex {
 public:
  TreeIndex() = default;

  // ---- building side ----
  void SetText(const TextInfo& text) { text_ = text; }
  /// Registers a sub-tree file; returns its id.
  uint32_t AddSubTree(const std::string& prefix, uint64_t frequency,
                      const std::string& filename);
  PrefixTrie& mutable_trie() { return trie_; }

  /// Writes MANIFEST into `dir` (sub-tree files must already be there).
  Status Save(Env* env, const std::string& dir) const;

  // ---- reading side ----
  static StatusOr<TreeIndex> Load(Env* env, const std::string& dir);

  /// Reads (and caches) sub-tree `id` in its packed served form, whatever
  /// its file version. Thread-safe; cache hits/misses and
  /// eviction volume are billed to `stats` when given. Concurrent misses on
  /// the same id may load the file more than once; exactly one copy is
  /// retained. `ctx` (may be null) is the caller's deadline/cancellation
  /// context: a cache hit always succeeds, but a miss checks it before
  /// touching the device and its retry backoffs never sleep past the
  /// deadline.
  StatusOr<std::shared_ptr<const ServedSubTree>> OpenSubTree(
      Env* env, uint32_t id, IoStats* stats,
      const QueryContext* ctx = nullptr) const;

  /// Routes `pattern` to its deepest trie node — one k-mer table probe in
  /// the common case, a trie map walk otherwise. Equivalent to
  /// trie().Descend(pattern).
  PrefixTrie::DescendResult Route(const std::string& pattern) const {
    return dispatch_.Route(trie_, pattern);
  }

  const KmerDispatchTable& dispatch() const { return dispatch_; }

  /// Replaces the cache with a fresh one using `options`. Call before
  /// serving traffic; NOT safe concurrently with OpenSubTree.
  void ConfigureCache(const TreeCacheOptions& options) const;

  /// Drops every cached sub-tree (memory control for sweeps). Thread-safe;
  /// in-flight queries keep their pinned trees alive. Not counted as LRU
  /// evictions.
  void EvictCache() const;

  /// Point-in-time cache totals across shards.
  struct CacheSnapshot {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t evicted_bytes = 0;
    uint64_t resident_bytes = 0;
    uint64_t resident_trees = 0;
  };
  CacheSnapshot CacheStats() const;

  const TextInfo& text() const { return text_; }
  const PrefixTrie& trie() const { return trie_; }
  const std::vector<SubTreeEntry>& subtrees() const { return subtrees_; }
  const std::string& dir() const { return dir_; }

  /// Total number of suffixes indexed (sub-tree frequencies + direct
  /// leaves); equals text().length when the index is complete.
  uint64_t TotalSuffixes() const;

 private:
  struct Shard {
    std::mutex mutex;
    /// Most-recently-used at the front.
    std::list<uint32_t> lru;
    struct Entry {
      std::shared_ptr<const ServedSubTree> tree;
      std::list<uint32_t>::iterator pos;
      uint64_t bytes = 0;
    };
    std::unordered_map<uint32_t, Entry> entries;
    uint64_t resident_bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t evicted_bytes = 0;
  };
  // Cache state lives behind a pointer so TreeIndex stays movable despite
  // the shard mutexes.
  struct Cache {
    explicit Cache(const TreeCacheOptions& opts)
        : options(opts),
          shards(opts.shards == 0 ? 1 : opts.shards),
          per_shard_budget(options.budget_bytes /
                           (opts.shards == 0 ? 1 : opts.shards)) {}
    TreeCacheOptions options;
    std::vector<Shard> shards;
    uint64_t per_shard_budget;
  };

  TextInfo text_;
  PrefixTrie trie_;
  KmerDispatchTable dispatch_;
  std::vector<SubTreeEntry> subtrees_;
  std::string dir_;
  mutable std::shared_ptr<Cache> cache_ =
      std::make_shared<Cache>(TreeCacheOptions{});
};

}  // namespace era

#endif  // ERA_SUFFIXTREE_TREE_INDEX_H_
