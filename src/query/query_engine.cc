#include "query/query_engine.h"

#include <algorithm>

namespace era {

const std::vector<QueryStatsField>& QueryStatsFields() {
  static const std::vector<QueryStatsField>* fields =
      new std::vector<QueryStatsField>{
          {"era_query_queries_total", "Completed Count/Locate/Contains calls",
           &QueryStats::queries},
          {"era_query_trie_resolved_counts_total",
           "Counts answered from the trie alone (no sub-tree open)",
           &QueryStats::trie_resolved_counts},
          {"era_query_nodes_visited_total",
           "Sub-tree nodes examined while matching",
           &QueryStats::nodes_visited},
          {"era_query_leaves_enumerated_total",
           "Leaf records materialized (Locate only)",
           &QueryStats::leaves_enumerated},
          {"era_query_unavailable_queries_total",
           "Queries answered Unavailable (sub-tree could not be loaded)",
           &QueryStats::unavailable_queries},
          {"era_query_batch_duplicates_folded_total",
           "Dictionary items answered by copying an identical item",
           &QueryStats::batch_duplicates_folded},
          {"era_dict_groups_formed_total",
           "Same-sub-tree pattern groups formed by MatchDictionary",
           &QueryStats::dict_groups_formed},
          {"era_dict_descents_shared_total",
           "Tree edges walked once for a whole pattern range",
           &QueryStats::dict_descents_shared},
          {"era_dict_descents_saved_total",
           "Edge walks avoided versus the per-pattern loop",
           &QueryStats::dict_descents_saved},
      };
  return *fields;
}

namespace {

/// Process-wide engine numbering for the {engine="N"} instance label: a
/// fresh engine always gets fresh series, so its counters start at zero no
/// matter how many engines this process opened before.
uint64_t NextEngineInstance() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

StatusOr<std::unique_ptr<QueryEngine>> QueryEngine::Open(
    Env* env, const std::string& index_dir, const QueryEngineOptions& options) {
  ERA_ASSIGN_OR_RETURN(TreeIndex index, TreeIndex::Load(env, index_dir));
  index.ConfigureCache(options.cache);
  QueryEngineOptions engine_options = options;
  if (engine_options.metrics_enabled) {
    // The admission controller registers its era_serving_* series under the
    // same instance label as the engine's own counters.
    if (engine_options.registry == nullptr) {
      engine_options.registry = MetricsRegistry::Global();
    }
    engine_options.admission.registry = engine_options.registry;
    engine_options.admission.metric_labels = {
        {"engine", std::to_string(NextEngineInstance())}};
  }
  std::unique_ptr<QueryEngine> engine(
      new QueryEngine(env, std::move(index), engine_options));
  engine->InitObservability();
  // Open (and immediately pool) one session so a missing text file fails at
  // Open rather than on the first query.
  ERA_ASSIGN_OR_RETURN(auto session, engine->AcquireSession());
  engine->ReleaseSession(std::move(session));
  return engine;
}

QueryEngine::~QueryEngine() {
  if (metrics_ != nullptr && metrics_->collector_id != 0) {
    metrics_->registry->RemoveCollector(metrics_->collector_id);
  }
}

void QueryEngine::InitObservability() {
  if (options_.trace.enabled) {
    tracer_ = std::make_unique<TraceRecorder>(options_.trace.recorder);
  }
  if (!options_.metrics_enabled) return;
  metrics_ = std::make_unique<RegistryHooks>();
  metrics_->registry = options_.registry;
  const MetricLabels& labels = options_.admission.metric_labels;
  for (const IoStatsField& field : IoStatsFields()) {
    metrics_->io.push_back(
        metrics_->registry->GetCounter(field.name, field.help, labels));
  }
  for (const QueryStatsField& field : QueryStatsFields()) {
    metrics_->query.push_back(
        metrics_->registry->GetCounter(field.name, field.help, labels));
  }
  // Snapshot-style sources (sharded cache counters, the quarantine map,
  // in-flight, trace rings) contribute through a collector instead of
  // double-booking into counters.
  metrics_->collector_id = metrics_->registry->AddCollector(
      [this, labels](std::vector<MetricSample>* samples) {
        auto add = [&](const char* name, const char* help, MetricKind kind,
                       double value) {
          MetricSample sample;
          sample.name = name;
          sample.help = help;
          sample.kind = kind;
          sample.labels = labels;
          sample.value = value;
          samples->push_back(std::move(sample));
        };
        const TreeIndex::CacheSnapshot cache = index_.CacheStats();
        add("era_cache_hits_total", "Sub-tree cache hits",
            MetricKind::kCounter, static_cast<double>(cache.hits));
        add("era_cache_misses_total", "Sub-tree cache misses",
            MetricKind::kCounter, static_cast<double>(cache.misses));
        add("era_cache_evictions_total", "Sub-tree cache LRU evictions",
            MetricKind::kCounter, static_cast<double>(cache.evictions));
        add("era_cache_evicted_bytes_total",
            "Bytes of sub-trees dropped by LRU evictions",
            MetricKind::kCounter, static_cast<double>(cache.evicted_bytes));
        add("era_cache_resident_bytes", "Resident sub-tree cache bytes",
            MetricKind::kGauge, static_cast<double>(cache.resident_bytes));
        add("era_cache_resident_trees", "Resident cached sub-trees",
            MetricKind::kGauge, static_cast<double>(cache.resident_trees));
        uint64_t quarantined = 0;
        uint64_t failures = 0;
        {
          std::lock_guard<std::mutex> lock(mu_);
          quarantined = quarantine_.size();
          for (const auto& [id, count] : quarantine_) failures += count;
        }
        add("era_query_quarantined_subtrees",
            "Sub-trees whose loads are currently failing",
            MetricKind::kGauge, static_cast<double>(quarantined));
        add("era_query_subtree_load_failures_total",
            "Total failed sub-tree load attempts", MetricKind::kCounter,
            static_cast<double>(failures));
        add("era_serving_in_flight", "Queries currently executing",
            MetricKind::kGauge, static_cast<double>(admission_.in_flight()));
        if (tracer_ != nullptr) {
          add("era_trace_started_total", "Traces started",
              MetricKind::kCounter,
              static_cast<double>(tracer_->traces_started()));
          add("era_trace_completed_total", "Traces completed",
              MetricKind::kCounter,
              static_cast<double>(tracer_->traces_completed()));
          add("era_trace_slow_total",
              "Completed traces over the slow-query threshold",
              MetricKind::kCounter,
              static_cast<double>(tracer_->slow_traces()));
        }
      });
}

std::shared_ptr<Trace> QueryEngine::MaybeStartTrace(const char* label,
                                                    const QueryContext& ctx) {
  if (tracer_ == nullptr) return nullptr;
  if (ctx.trace != nullptr) return nullptr;  // caller already traces this
  const uint64_t tick = trace_tick_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t every = std::max<uint64_t>(1, options_.trace.sample_every);
  if (tick % every != 0) return nullptr;
  return tracer_->StartTrace(label, ctx.client_id);
}

StatusOr<std::unique_ptr<QueryEngine::Session>> QueryEngine::AcquireSession() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!pool_.empty()) {
      auto session = std::move(pool_.back());
      pool_.pop_back();
      return session;
    }
  }
  auto session = std::make_unique<Session>();
  StringReaderOptions reader_options;
  reader_options.buffer_bytes = options_.reader_buffer_bytes;
  ERA_ASSIGN_OR_RETURN(session->reader,
                       OpenStringReader(env_, index_.text().path,
                                        reader_options, &session->io));
  return session;
}

void QueryEngine::ReleaseSession(std::unique_ptr<Session> session) {
  if (metrics_ != nullptr) {
    // Retirement is the fold point: hot loops tally into the session's
    // plain structs contention-free, and one sharded-counter add per field
    // per lease lands them in the registry.
    const auto& io_fields = IoStatsFields();
    for (std::size_t i = 0; i < io_fields.size(); ++i) {
      const uint64_t value = session->io.*(io_fields[i].member);
      if (value != 0) metrics_->io[i]->Increment(value);
    }
    const auto& query_fields = QueryStatsFields();
    for (std::size_t i = 0; i < query_fields.size(); ++i) {
      const uint64_t value = session->stats.*(query_fields[i].member);
      if (value != 0) metrics_->query[i]->Increment(value);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (metrics_ == nullptr) {
    io_.Add(session->io);
    stats_.Add(session->stats);
  }
  session->io = IoStats{};
  session->stats = QueryStats{};
  if (pool_.size() < options_.max_pooled_sessions) {
    pool_.push_back(std::move(session));
  }
}

IoStats QueryEngine::io() const {
  if (metrics_ != nullptr) {
    // Thin view: the registry counters are the source of truth.
    IoStats io;
    const auto& fields = IoStatsFields();
    for (std::size_t i = 0; i < fields.size(); ++i) {
      io.*(fields[i].member) = metrics_->io[i]->Value();
    }
    return io;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return io_;
}

QueryStats QueryEngine::stats() const {
  if (metrics_ != nullptr) {
    QueryStats stats;
    const auto& fields = QueryStatsFields();
    for (std::size_t i = 0; i < fields.size(); ++i) {
      stats.*(fields[i].member) = metrics_->query[i]->Value();
    }
    return stats;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::map<uint32_t, uint64_t> QueryEngine::quarantine() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantine_;
}

StatusOr<std::shared_ptr<const ServedSubTree>>
QueryEngine::OpenSubTreeOrQuarantine(uint32_t id, Session* session,
                                     const QueryContext& ctx) {
  // Checkpoint span: the open either splices the LRU (hit) or loads the
  // sub-tree file from the device (miss); the note records which.
  TraceSpan span(ctx.trace, "subtree_open");
  const uint64_t hits_before = session->io.cache_hits;
  auto tree = index_.OpenSubTree(env_, id, &session->io, &ctx);
  if (ctx.trace != nullptr) {
    span.set_note(session->io.cache_hits > hits_before ? "cache_hit"
                                                       : "cache_miss");
  }
  if (tree.ok()) return tree;
  // A deadline or cancellation abandon says nothing about the file; pass it
  // through so an overloaded moment never poisons the quarantine map.
  if (tree.status().IsDeadlineExceeded() || tree.status().IsCancelled()) {
    return tree.status();
  }
  // The cache never admits a failed load (tree_index.cc), so the damage is
  // observed fresh on every attempt and repair needs no restart.
  ++session->stats.unavailable_queries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++quarantine_[id];
  }
  return Status::Unavailable("sub-tree " + std::to_string(id) +
                             " unavailable: " + tree.status().ToString());
}

QueryEngine::ReaderContextGuard::ReaderContextGuard(Session* session,
                                                    const QueryContext* ctx)
    : session_(session) {
  session_->reader->SetContext(ctx);
}

QueryEngine::ReaderContextGuard::~ReaderContextGuard() {
  session_->reader->SetContext(nullptr);
}

QueryEngine::Lease::~Lease() {
  if (session_ != nullptr && engine_ != nullptr) {
    engine_->ReleaseSession(std::move(session_));
  }
}

Status QueryEngine::Lease::Acquire(QueryEngine* engine) {
  engine_ = engine;
  ERA_ASSIGN_OR_RETURN(session_, engine->AcquireSession());
  return Status::OK();
}

StatusOr<uint32_t> QueryEngine::FindChild(const ServedSubTree& tree,
                                          uint32_t node, char symbol,
                                          Session* session) {
  const NodeView n = tree.node(node);
  uint32_t lo = 0;
  uint32_t hi = n.num_children;
  // The builders sort sibling blocks by unsigned byte value (the radix
  // prepare kernel extracts unsigned symbols), so the probe must compare
  // unsigned too or symbols >= 0x80 would binary-search the wrong half.
  const unsigned char want = static_cast<unsigned char>(symbol);
  char first = '\0';
  uint32_t got = 0;
  while (lo < hi) {
    uint32_t mid = lo + (hi - lo) / 2;
    const NodeView c = tree.node(n.children_begin + mid);
    ERA_RETURN_NOT_OK(
        session->reader->RandomFetch(c.edge_start, 1, &first, &got));
    if (got != 1) return Status::Corruption("edge label out of text");
    ++session->stats.nodes_visited;
    const unsigned char have = static_cast<unsigned char>(first);
    if (have < want) {
      lo = mid + 1;
    } else if (have > want) {
      hi = mid;
    } else {
      return n.children_begin + mid;
    }
  }
  return kNilNode;
}

StatusOr<QueryEngine::SubTreeMatch> QueryEngine::MatchInSubTree(
    const ServedSubTree& tree, const QueryContext& ctx,
    const std::string& pattern, Session* session) {
  TraceSpan span(ctx.trace, "match");
  SubTreeMatch result;
  uint32_t node = 0;
  std::size_t matched = 0;
  char buf[256];
  while (matched < pattern.size()) {
    // Node-visit boundary: the descent abandons between nodes, never inside
    // an edge-label comparison.
    ERA_RETURN_NOT_OK(ctx.Check());
    ERA_ASSIGN_OR_RETURN(uint32_t child,
                         FindChild(tree, node, pattern[matched], session));
    if (child == kNilNode) return result;  // no child continues the pattern
    const NodeView c = tree.node(child);
    // FindChild verified the first label symbol; walk the rest of the label.
    uint32_t j = 1;
    ++matched;
    while (j < c.edge_len && matched < pattern.size()) {
      uint32_t chunk = static_cast<uint32_t>(std::min<uint64_t>(
          sizeof(buf),
          std::min<uint64_t>(c.edge_len - j, pattern.size() - matched)));
      uint32_t got = 0;
      ERA_RETURN_NOT_OK(
          session->reader->RandomFetch(c.edge_start + j, chunk, buf, &got));
      if (got != chunk) return Status::Corruption("edge label truncated");
      for (uint32_t i = 0; i < chunk; ++i) {
        if (buf[i] != pattern[matched + i]) {
          return result;  // mismatch inside the edge: no occurrences
        }
      }
      j += chunk;
      matched += chunk;
    }
    node = child;
  }
  result.matched = true;
  result.node = node;
  return result;
}

StatusOr<uint64_t> QueryEngine::CountWithSession(Session* session,
                                                 const QueryContext& ctx,
                                                 const std::string& pattern) {
  if (pattern.empty()) return Status::InvalidArgument("empty pattern");
  ERA_RETURN_NOT_OK(ctx.Check());
  ++session->stats.queries;

  PrefixTrie::DescendResult walk = index_.Route(pattern);
  if (walk.pattern_exhausted) {
    // Frequencies are precomputed in the trie: no sub-tree I/O needed.
    ++session->stats.trie_resolved_counts;
    return index_.trie().TotalFrequency(walk.node);
  }
  const PrefixTrie::Node& node = index_.trie().node(walk.node);
  if (node.subtree_id < 0) return 0;  // fell off the trie: no occurrences
  ERA_ASSIGN_OR_RETURN(
      auto tree, OpenSubTreeOrQuarantine(
                     static_cast<uint32_t>(node.subtree_id), session, ctx));
  ERA_ASSIGN_OR_RETURN(SubTreeMatch match,
                       MatchInSubTree(*tree, ctx, pattern, session));
  if (!match.matched) return 0;
  // Both serving forms answer from the match node alone — no enumeration.
  return tree->node(match.node).count;
}

StatusOr<std::vector<uint64_t>> QueryEngine::LocateWithSession(
    Session* session, const QueryContext& ctx, const std::string& pattern,
    std::size_t limit, LocateOrder order) {
  if (pattern.empty()) return Status::InvalidArgument("empty pattern");
  ERA_RETURN_NOT_OK(ctx.Check());
  ++session->stats.queries;

  // kSmallest must see every occurrence before selecting; kArbitrary stops
  // decoding leaf slots the moment `limit` are in hand — that bound holds
  // across sub-trees too (the exhausted-pattern path below stops opening
  // further sub-trees once filled).
  const std::size_t collect_limit =
      order == LocateOrder::kArbitrary ? limit : SIZE_MAX;

  std::vector<uint64_t> hits;
  PrefixTrie::DescendResult walk = index_.Route(pattern);
  if (walk.pattern_exhausted) {
    // Every suffix below this trie node starts with the pattern.
    std::vector<PrefixTrie::Entry> entries;
    index_.trie().CollectEntries(walk.node, &entries);
    for (const auto& entry : entries) {
      if (hits.size() >= collect_limit) break;
      ERA_RETURN_NOT_OK(ctx.Check());
      if (entry.subtree_id >= 0) {
        ERA_ASSIGN_OR_RETURN(
            auto tree,
            OpenSubTreeOrQuarantine(static_cast<uint32_t>(entry.subtree_id),
                                    session, ctx));
        TraceSpan span(ctx.trace, "collect");
        ERA_RETURN_NOT_OK(
            tree->CollectLeaves(0, &ctx, collect_limit - hits.size(), &hits));
      } else {
        hits.push_back(entry.leaf_position);
      }
    }
  } else {
    const PrefixTrie::Node& node = index_.trie().node(walk.node);
    if (node.subtree_id < 0) {
      return hits;  // fell off the trie: no occurrences
    }
    ERA_ASSIGN_OR_RETURN(
        auto tree, OpenSubTreeOrQuarantine(
                       static_cast<uint32_t>(node.subtree_id), session, ctx));
    // Sub-tree labels carry the full path from the global root, so match
    // the whole pattern inside the sub-tree.
    ERA_ASSIGN_OR_RETURN(SubTreeMatch match,
                         MatchInSubTree(*tree, ctx, pattern, session));
    if (match.matched) {
      TraceSpan span(ctx.trace, "collect");
      ERA_RETURN_NOT_OK(
          tree->CollectLeaves(match.node, &ctx, collect_limit, &hits));
    }
  }
  // Counts what was actually decoded — kArbitrary's whole point is that
  // this stays O(limit) instead of O(occurrences).
  session->stats.leaves_enumerated += hits.size();
  // kSmallest guarantees the smallest `limit` offsets, not the first `limit`
  // in tree order; a small limit only pays a selection, not a full sort.
  if (hits.size() > limit) {
    std::nth_element(hits.begin(), hits.begin() + limit, hits.end());
    hits.resize(limit);
  }
  std::sort(hits.begin(), hits.end());
  return hits;
}

StatusOr<uint64_t> QueryEngine::Count(const std::string& pattern) {
  return Count(QueryContext::Background(), pattern);
}

StatusOr<uint64_t> QueryEngine::Count(const QueryContext& ctx,
                                      const std::string& pattern) {
  auto trace = MaybeStartTrace("count", ctx);
  if (trace == nullptr) return CountImpl(ctx, pattern);
  QueryContext traced = ctx;
  traced.trace = trace.get();
  return FinishTraced(trace, CountImpl(traced, pattern));
}

StatusOr<uint64_t> QueryEngine::CountImpl(const QueryContext& ctx,
                                          const std::string& pattern) {
  Permit permit;
  {
    TraceSpan span(ctx.trace, "admission");
    ERA_RETURN_NOT_OK(admission_.Admit(ctx, &permit));
  }
  Lease lease;
  ERA_RETURN_NOT_OK(lease.Acquire(this));
  ReaderContextGuard guard(lease.get(), &ctx);
  auto result = CountWithSession(lease.get(), ctx, pattern);
  if (!result.ok()) admission_.RecordOutcome(result.status());
  return result;
}

StatusOr<std::vector<uint64_t>> QueryEngine::Locate(const std::string& pattern,
                                                    std::size_t limit,
                                                    LocateOrder order) {
  return Locate(QueryContext::Background(), pattern, limit, order);
}

StatusOr<std::vector<uint64_t>> QueryEngine::Locate(const QueryContext& ctx,
                                                    const std::string& pattern,
                                                    std::size_t limit,
                                                    LocateOrder order) {
  auto trace = MaybeStartTrace("locate", ctx);
  if (trace == nullptr) return LocateImpl(ctx, pattern, limit, order);
  QueryContext traced = ctx;
  traced.trace = trace.get();
  return FinishTraced(trace, LocateImpl(traced, pattern, limit, order));
}

StatusOr<std::vector<uint64_t>> QueryEngine::LocateImpl(
    const QueryContext& ctx, const std::string& pattern, std::size_t limit,
    LocateOrder order) {
  Permit permit;
  {
    TraceSpan span(ctx.trace, "admission");
    ERA_RETURN_NOT_OK(admission_.Admit(ctx, &permit));
  }
  Lease lease;
  ERA_RETURN_NOT_OK(lease.Acquire(this));
  ReaderContextGuard guard(lease.get(), &ctx);
  auto result = LocateWithSession(lease.get(), ctx, pattern, limit, order);
  if (!result.ok()) admission_.RecordOutcome(result.status());
  return result;
}

StatusOr<bool> QueryEngine::Contains(const std::string& pattern) {
  return Contains(QueryContext::Background(), pattern);
}

StatusOr<bool> QueryEngine::Contains(const QueryContext& ctx,
                                     const std::string& pattern) {
  ERA_ASSIGN_OR_RETURN(uint64_t count, Count(ctx, pattern));
  return count > 0;
}

}  // namespace era
