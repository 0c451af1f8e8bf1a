#include "query/applications.h"

#include <algorithm>

#include "query/query_engine.h"

namespace era {

namespace {

/// Iterative DFS over one sub-tree invoking `visit(node, depth)` for every
/// internal node with >= 2 children (true branching points). Walks the
/// packed served form through the NodeView cursor, without inflating.
template <typename Visit>
void VisitBranchingNodes(const ServedSubTree& tree, Visit&& visit) {
  struct Frame {
    uint32_t node;
    uint64_t depth;
  };
  std::vector<Frame> stack{{0, 0}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const NodeView n = tree.node(f.node);
    if (n.IsLeaf()) continue;
    for (uint32_t i = 0; i < n.num_children; ++i) {
      uint32_t c = n.children_begin + i;
      stack.push_back({c, f.depth + tree.node(c).edge_len});
    }
    if (n.num_children >= 2) visit(f.node, f.depth);
  }
}

/// First leaf position under `node` (cheap existence witness).
uint64_t FirstLeafUnder(const ServedSubTree& tree, uint32_t node) {
  uint32_t u = node;
  NodeView v = tree.node(u);
  while (!v.IsLeaf()) {
    u = v.children_begin;
    v = tree.node(u);
  }
  return tree.LeafIdOf(v);
}

}  // namespace

StatusOr<Substring> LongestRepeatedSubstring(Env* env, const TreeIndex& index,
                                             const std::string& text) {
  Substring best;
  for (uint32_t id = 0; id < index.subtrees().size(); ++id) {
    ERA_ASSIGN_OR_RETURN(auto tree, index.OpenSubTree(env, id, nullptr));
    VisitBranchingNodes(*tree, [&](uint32_t node, uint64_t depth) {
      if (depth > best.length) {
        best.length = depth;
        best.offset = FirstLeafUnder(*tree, node);
      }
    });
  }
  // Branching points shared between sub-trees live on trie paths; a trie
  // node with >= 2 suffixes below it witnesses a repeat of its path length.
  // Trie paths are the (short) partition prefixes, so this only matters for
  // texts whose repeats are shorter than the prefixes.
  struct TrieFrame {
    uint32_t node;
    uint64_t depth;
  };
  std::vector<TrieFrame> stack{{0, 0}};
  while (!stack.empty()) {
    TrieFrame f = stack.back();
    stack.pop_back();
    const PrefixTrie::Node& n = index.trie().node(f.node);
    if (f.depth > best.length && index.trie().TotalFrequency(f.node) >= 2) {
      // Witness: any suffix below shares this path.
      std::vector<PrefixTrie::Entry> entries;
      index.trie().CollectEntries(f.node, &entries);
      uint64_t offset = 0;
      if (entries[0].subtree_id >= 0) {
        ERA_ASSIGN_OR_RETURN(
            auto tree,
            index.OpenSubTree(
                env, static_cast<uint32_t>(entries[0].subtree_id), nullptr));
        offset = FirstLeafUnder(*tree, 0);
      } else {
        offset = entries[0].leaf_position;
      }
      best.length = f.depth;
      best.offset = offset;
    }
    for (const auto& [sym, child] : n.children) {
      (void)sym;
      stack.push_back({child, f.depth + 1});
    }
  }
  (void)text;
  return best;
}

StatusOr<Motif> MostFrequentKmer(Env* env, const TreeIndex& index,
                                 const std::string& text, uint64_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  Motif best;

  // Count leaves under the shallowest node at depth >= k in each sub-tree:
  // that node's leaf count is the frequency of its k-symbol path prefix.
  for (uint32_t id = 0; id < index.subtrees().size(); ++id) {
    ERA_ASSIGN_OR_RETURN(auto tree, index.OpenSubTree(env, id, nullptr));
    struct Frame {
      uint32_t node;
      uint64_t depth;
    };
    std::vector<Frame> stack{{0, 0}};
    while (!stack.empty()) {
      Frame f = stack.back();
      stack.pop_back();
      const NodeView n = tree->node(f.node);
      if (f.depth >= k) {
        // All leaves below share the first k symbols.
        std::vector<uint64_t> leaves;
        ERA_RETURN_NOT_OK(
            tree->CollectLeaves(f.node, nullptr, SIZE_MAX, &leaves));
        // Exclude windows that would run past the text body (terminal), and
        // witness the motif with an occurrence that lies fully inside it.
        uint64_t offset = leaves.front();
        uint64_t count = 0;
        for (uint64_t pos : leaves) {
          if (pos + k < text.size()) {  // strictly inside the body
            if (count == 0) offset = pos;
            ++count;
          }
        }
        if (count > best.count) {
          best.count = count;
          best.offset = offset;
        }
        continue;
      }
      for (uint32_t i = 0; i < n.num_children; ++i) {
        uint32_t c = n.children_begin + i;
        stack.push_back({c, f.depth + tree->node(c).edge_len});
      }
    }
  }
  return best;
}

StatusOr<GeneralizedCollection> ConcatenateDocuments(
    const std::vector<std::string>& documents, char separator) {
  std::vector<CollectionDocument> named;
  named.reserve(documents.size());
  for (std::size_t d = 0; d < documents.size(); ++d) {
    named.push_back({"doc" + std::to_string(d), documents[d]});
  }
  return ConcatenateCollection(named, separator);
}

StatusOr<Substring> LongestCommonSubstring(Env* env, const TreeIndex& index,
                                           const DocumentMap& documents,
                                           uint32_t doc_a, uint32_t doc_b) {
  if (doc_a >= documents.num_documents() ||
      doc_b >= documents.num_documents()) {
    return Status::InvalidArgument("document id out of range");
  }

  Substring best;
  for (uint32_t id = 0; id < index.subtrees().size(); ++id) {
    ERA_ASSIGN_OR_RETURN(auto tree, index.OpenSubTree(env, id, nullptr));
    Status collect = Status::OK();
    VisitBranchingNodes(*tree, [&](uint32_t node, uint64_t depth) {
      if (!collect.ok() || depth <= best.length) return;
      std::vector<uint64_t> leaves;
      collect = tree->CollectLeaves(node, nullptr, SIZE_MAX, &leaves);
      if (!collect.ok()) return;
      bool has_a = false;
      bool has_b = false;
      uint64_t witness = 0;
      bool have_witness = false;
      for (uint64_t pos : leaves) {
        DocLocation loc;
        // A suffix starting on a separator/terminal byte belongs to no
        // document; a suffix whose first `depth` symbols leave its document
        // cannot witness a common substring of that length.
        if (!documents.ResolveSpan(pos, depth, &loc)) continue;
        if (!have_witness) {
          witness = pos;
          have_witness = true;
        }
        has_a |= (loc.doc_id == doc_a);
        has_b |= (loc.doc_id == doc_b);
      }
      if (!has_a || !has_b) return;
      best.length = depth;
      best.offset = witness;
    });
    ERA_RETURN_NOT_OK(collect);
  }
  return best;
}

}  // namespace era
