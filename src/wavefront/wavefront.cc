#include "wavefront/wavefront.h"

#include <algorithm>

#include "common/timer.h"
#include "suffixtree/serializer.h"
#include "text/aho_corasick.h"

namespace era {

namespace {

/// Reads one symbol at `pos` through a buffered reader (the nested-loop
/// tile access pattern: hits are free, misses refill a tile).
StatusOr<char> SymbolAt(StringReader* reader, uint64_t pos) {
  char c = 0;
  uint32_t got = 0;
  ERA_RETURN_NOT_OK(reader->RandomFetch(pos, 1, &c, &got));
  if (got != 1) return Status::Internal("symbol read past end of string");
  return c;
}

/// Compares text[a..a+len) (edge side) with text[b..b+len) (suffix side) in
/// chunks; returns the number of equal leading symbols.
Status CompareRun(StringReader* edge_reader, StringReader* suffix_reader,
                  uint64_t a, uint64_t b, uint64_t len, uint64_t* matched) {
  char buf_a[64];
  char buf_b[64];
  uint64_t done = 0;
  while (done < len) {
    uint32_t want = static_cast<uint32_t>(
        std::min<uint64_t>(sizeof(buf_a), len - done));
    uint32_t got_a = 0;
    uint32_t got_b = 0;
    ERA_RETURN_NOT_OK(edge_reader->RandomFetch(a + done, want, buf_a, &got_a));
    ERA_RETURN_NOT_OK(
        suffix_reader->RandomFetch(b + done, want, buf_b, &got_b));
    uint32_t m = std::min(got_a, got_b);
    for (uint32_t i = 0; i < m; ++i) {
      if (buf_a[i] != buf_b[i]) {
        *matched = done + i;
        return Status::OK();
      }
    }
    if (m == 0) break;
    done += m;
  }
  *matched = done;
  return Status::OK();
}

}  // namespace

StatusOr<TreeBuffer> WaveFrontBuildSubTree(const std::string& prefix,
                                           const std::vector<uint64_t>& occ,
                                           uint64_t text_length,
                                           StringReader* suffix_reader,
                                           StringReader* edge_reader) {
  (void)prefix;
  TreeBuffer tree;
  tree.Reserve(2 * occ.size());

  bool first = true;
  for (uint64_t q : occ) {
    if (first) {
      uint32_t leaf = tree.AddNode();
      TreeNode& node = tree.node(leaf);
      node.edge_start = q;
      node.edge_len = static_cast<uint32_t>(text_length - q);
      node.leaf_id = q;
      tree.node(0).first_child = leaf;
      first = false;
      continue;
    }

    // Top-down traversal from the sub-tree root for every new suffix — the
    // repeated tree navigation WaveFront pays per node (Section 3).
    uint32_t node = 0;
    uint64_t depth = 0;
    for (;;) {
      ERA_ASSIGN_OR_RETURN(char want, SymbolAt(suffix_reader, q + depth));
      // Find the child whose edge begins with `want`, tracking the
      // insertion point to keep siblings sorted. Probing stays sequential
      // with early exit — batching all sibling symbols would fetch tiles
      // the real algorithm never touches and inflate the baseline's
      // measured I/O.
      uint32_t prev = kNilNode;
      uint32_t child = tree.node(node).first_child;
      char have = 0;
      while (child != kNilNode) {
        ERA_ASSIGN_OR_RETURN(
            have, SymbolAt(edge_reader, tree.node(child).edge_start));
        if (have >= want) break;
        prev = child;
        child = tree.node(child).next_sibling;
      }

      if (child == kNilNode || have != want) {
        // No matching edge: attach a fresh leaf here, between prev and
        // child (sorted order).
        uint32_t leaf = tree.AddNode();
        TreeNode& leaf_node = tree.node(leaf);
        leaf_node.edge_start = q + depth;
        leaf_node.edge_len = static_cast<uint32_t>(text_length - q - depth);
        leaf_node.leaf_id = q;
        leaf_node.next_sibling = child;
        if (prev == kNilNode) {
          tree.node(node).first_child = leaf;
        } else {
          tree.node(prev).next_sibling = leaf;
        }
        break;
      }

      // Walk the edge label, comparing with the suffix (chunked reads from
      // the two nested-loop buffers).
      const uint32_t edge_len = tree.node(child).edge_len;
      const uint64_t edge_start = tree.node(child).edge_start;
      uint64_t run = 0;
      ERA_RETURN_NOT_OK(CompareRun(edge_reader, suffix_reader, edge_start + 1,
                                   q + depth + 1, edge_len - 1, &run));
      uint32_t j = 1 + static_cast<uint32_t>(run);
      if (j == edge_len) {
        // Whole edge matched: descend.
        depth += edge_len;
        node = child;
        continue;
      }

      // Mismatch inside the edge: split at j, then attach the new leaf in
      // symbol order relative to the old edge's continuation.
      uint32_t mid = tree.AddNode();
      uint32_t leaf = tree.AddNode();
      TreeNode& child_node = tree.node(child);
      TreeNode& mid_node = tree.node(mid);
      TreeNode& leaf_node = tree.node(leaf);

      mid_node.edge_start = child_node.edge_start;
      mid_node.edge_len = j;
      mid_node.next_sibling = child_node.next_sibling;
      child_node.edge_start += j;
      child_node.edge_len -= j;
      child_node.next_sibling = kNilNode;

      leaf_node.edge_start = q + depth + j;
      leaf_node.edge_len =
          static_cast<uint32_t>(text_length - q - depth - j);
      leaf_node.leaf_id = q;

      ERA_ASSIGN_OR_RETURN(char old_sym,
                           SymbolAt(edge_reader, child_node.edge_start));
      ERA_ASSIGN_OR_RETURN(char new_sym,
                           SymbolAt(suffix_reader, q + depth + j));
      if (new_sym < old_sym) {
        mid_node.first_child = leaf;
        leaf_node.next_sibling = child;
      } else {
        mid_node.first_child = child;
        child_node.next_sibling = leaf;
      }

      if (prev == kNilNode) {
        tree.node(node).first_child = mid;
      } else {
        tree.node(prev).next_sibling = mid;
      }
      break;
    }
  }
  return tree;
}

Status WaveFrontProcessUnit(const TextInfo& text, const BuildOptions& options,
                            const VirtualTree& unit, uint64_t unit_id,
                            StringReader* scan_reader,
                            StringReader* suffix_reader,
                            StringReader* edge_reader, GroupOutput* out) {
  if (unit.prefixes.size() != 1) {
    return Status::InvalidArgument(
        "WaveFront processes one sub-tree per unit (no virtual trees)");
  }
  const std::string& prefix = unit.prefixes[0].prefix;

  // One scan of S per sub-tree: WaveFront has no grouping to amortize it.
  ERA_ASSIGN_OR_RETURN(auto matcher,
                       AhoCorasick::Build({prefix}));
  std::vector<uint64_t> occ;
  occ.reserve(unit.prefixes[0].frequency);
  ERA_RETURN_NOT_OK(matcher.ScanAll(
      scan_reader, [&](int32_t, uint64_t pos) { occ.push_back(pos); }));
  if (occ.size() != unit.prefixes[0].frequency) {
    return Status::Internal("occurrence count mismatch for " + prefix);
  }

  ERA_ASSIGN_OR_RETURN(TreeBuffer tree,
                       WaveFrontBuildSubTree(prefix, occ, text.length,
                                             suffix_reader, edge_reader));
  out->rounds = 1;
  out->tree_bytes = tree.MemoryBytes();
  std::string filename = "st_" + std::to_string(unit_id) + "_0.bin";
  ERA_RETURN_NOT_OK(WriteSubTree(options.GetEnv(),
                                 options.work_dir + "/" + filename, prefix,
                                 tree, &out->write_io));
  out->subtrees.push_back({prefix, occ.size(), filename});
  return Status::OK();
}

StatusOr<BuildResult> WaveFrontBuilder::Build(const TextInfo& text) {
  WallTimer total_timer;
  ERA_RETURN_NOT_OK(ValidateBuildOptions(options_));
  ERA_RETURN_NOT_OK(options_.GetEnv()->CreateDir(options_.work_dir));

  BuildStats stats;
  ERA_ASSIGN_OR_RETURN(MemoryLayout layout,
                       PlanMemoryWaveFront(options_, text.alphabet.size()));
  stats.fm = layout.fm;
  stats.text_bytes = text.length;

  BuildOptions partition_options = options_;
  partition_options.group_virtual_trees = false;
  ERA_ASSIGN_OR_RETURN(PartitionPlan plan,
                       VerticalPartition(text, partition_options, layout.fm));
  stats.vertical_seconds = plan.seconds;
  stats.io.Add(plan.io);
  stats.num_groups = plan.groups.size();
  stats.num_subtrees = plan.NumSubTrees();

  WallTimer horizontal_timer;
  IoStats scan_io;
  StringReaderOptions scan_options;
  scan_options.buffer_bytes = std::max<uint64_t>(4096, layout.trie_bytes);
  scan_options.seek_optimization = false;  // WaveFront reads S in full
  ERA_ASSIGN_OR_RETURN(auto scan_reader,
                       OpenStringReader(options_.GetEnv(), text.path,
                                        scan_options, &scan_io));
  StringReaderOptions suffix_options;
  suffix_options.buffer_bytes = layout.input_buffer_bytes;
  suffix_options.bill_random_as_sequential = true;  // BNL tile traffic
  suffix_options.random_window_bytes = 512;
  ERA_ASSIGN_OR_RETURN(auto suffix_reader,
                       OpenStringReader(options_.GetEnv(), text.path,
                                        suffix_options, &scan_io));
  StringReaderOptions edge_options;
  edge_options.buffer_bytes = layout.r_buffer_bytes;
  edge_options.bill_random_as_sequential = true;  // BNL tile traffic
  edge_options.random_window_bytes = 512;
  ERA_ASSIGN_OR_RETURN(auto edge_reader,
                       OpenStringReader(options_.GetEnv(), text.path,
                                        edge_options, &scan_io));

  std::vector<GroupOutput> outputs(plan.groups.size());
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    ERA_RETURN_NOT_OK(WaveFrontProcessUnit(
        text, options_, plan.groups[g], g, scan_reader.get(),
        suffix_reader.get(), edge_reader.get(), &outputs[g]));
    stats.prepare_rounds += outputs[g].rounds;
    stats.peak_tree_bytes =
        std::max(stats.peak_tree_bytes, outputs[g].tree_bytes);
    stats.io.Add(outputs[g].write_io);
  }
  stats.io.Add(scan_io);
  stats.horizontal_seconds = horizontal_timer.Seconds();

  BuildResult result;
  ERA_ASSIGN_OR_RETURN(result.index,
                       AssembleIndex(text, options_, plan, outputs));
  stats.total_seconds = total_timer.Seconds();
  result.stats = stats;
  return result;
}

}  // namespace era
