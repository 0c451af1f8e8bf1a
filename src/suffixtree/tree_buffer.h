// Append-only node arena for one sub-tree (builder side) and the immutable
// counted layout served at query time, plus the conversions between them.

#ifndef ERA_SUFFIXTREE_TREE_BUFFER_H_
#define ERA_SUFFIXTREE_TREE_BUFFER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "suffixtree/node.h"

namespace era {

/// Growable array of TreeNodes. Node 0 is always the root. The buffer only
/// provides storage and navigation; builders maintain the sibling ordering
/// invariant (lexicographic by first edge symbol).
class TreeBuffer {
 public:
  TreeBuffer() { nodes_.emplace_back(); }

  /// Appends a fresh node, returning its index.
  uint32_t AddNode() {
    nodes_.emplace_back();
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  TreeNode& node(uint32_t i) { return nodes_[i]; }
  const TreeNode& node(uint32_t i) const { return nodes_[i]; }

  uint32_t size() const { return static_cast<uint32_t>(nodes_.size()); }
  uint64_t MemoryBytes() const { return nodes_.size() * sizeof(TreeNode); }

  void Reserve(uint64_t n) { nodes_.reserve(n); }

  /// Appends `child` as the LAST child of `parent` (O(#children); used by
  /// merge-based builders — batch builders link siblings directly).
  void AppendChildLast(uint32_t parent, uint32_t child) {
    uint32_t c = nodes_[parent].first_child;
    if (c == kNilNode) {
      nodes_[parent].first_child = child;
      return;
    }
    while (nodes_[c].next_sibling != kNilNode) c = nodes_[c].next_sibling;
    nodes_[c].next_sibling = child;
  }

  /// Number of children of `u` (O(#children)).
  uint32_t CountChildren(uint32_t u) const {
    uint32_t n = 0;
    for (uint32_t c = nodes_[u].first_child; c != kNilNode;
         c = nodes_[c].next_sibling) {
      ++n;
    }
    return n;
  }

  const std::vector<TreeNode>& nodes() const { return nodes_; }
  std::vector<TreeNode>& mutable_nodes() { return nodes_; }

 private:
  std::vector<TreeNode> nodes_;
};

/// Flat array of CountedNodes in the counted layout (see node.h). Node 0 is
/// the root. The input of the packed encoder (ServedSubTree::EncodePayload)
/// and the output of ServedSubTree::Inflate; legacy v2 files hold it
/// verbatim.
class CountedTree {
 public:
  const CountedNode& node(uint32_t i) const { return nodes_[i]; }

  uint32_t size() const { return static_cast<uint32_t>(nodes_.size()); }
  uint64_t MemoryBytes() const { return nodes_.size() * sizeof(CountedNode); }
  /// Total suffixes indexed by this sub-tree.
  uint64_t LeafCount() const {
    return nodes_.empty() ? 0 : nodes_[0].LeafCount();
  }

  const std::vector<CountedNode>& nodes() const { return nodes_; }
  std::vector<CountedNode>& mutable_nodes() { return nodes_; }

 private:
  std::vector<CountedNode> nodes_;
};

/// Converts a builder-side linked tree into the counted layout: DFS node
/// order with per-node contiguous child blocks (sibling order — which the
/// builders keep lexicographic — is preserved, so the blocks are sorted by
/// first symbol) and subtree leaf counts filled in. Fails with Corruption if
/// the linked structure is not a tree rooted at node 0 (cycle, orphan, or a
/// childless internal node).
StatusOr<CountedTree> BuildCountedTree(const TreeBuffer& tree);

/// Rebuilds a linked TreeBuffer from a counted tree (slot i maps to node i;
/// child blocks become first_child/next_sibling chains). Used to hand
/// v2/v3 files to consumers that still operate on the linked form, e.g. the
/// TRELLIS merge phase.
StatusOr<TreeBuffer> LinkedFromCounted(const CountedTree& tree);

/// Full structural check of a counted node array: root has no incoming edge,
/// child blocks are in bounds and strictly after their parent (traversals
/// strictly increase slot indices), stored subtree leaf counts aggregate
/// correctly, every node is reachable exactly once, and the canonical DFS
/// block layout holds — each internal node's strict descendants occupy
/// exactly [children_begin, children_begin + subtree_node_count - 1), which
/// is the invariant that makes a node's leaves one contiguous leaf-rank range
/// in the packed form. Run by the serializer on every v2 load (before the
/// tree is packed) and by the validator.
Status ValidateCountedLayout(const CountedTree& tree);

}  // namespace era

#endif  // ERA_SUFFIXTREE_TREE_BUFFER_H_
