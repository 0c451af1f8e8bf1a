// Sub-tree persistence: a fixed header + CRC-protected payload.
//
// Three on-disk versions share the header:
//   * v3 — the packed layout (CRC-32C): bit-packed width-minimal counted
//     records plus a delta/varint leaf stream (see
//     suffixtree/compressed_tree.h). The only version builders write.
//   * v2 — the legacy counted layout (CountedNode array, CRC-32C): nodes in
//     DFS order, contiguous child blocks sorted by first symbol, per-node
//     subtree leaf counts. Read-only; WriteSubTreeV2 writes compat fixtures.
//   * v1 — the legacy linked TreeNode array (IEEE CRC-32). Read-only;
//     WriteSubTreeV1 writes compat fixtures.
//
// Every version is served in one form: ReadServedSubTree loads v3 as is and
// re-encodes v1/v2 into the packed form after their structural checks, so
// the cache charges and the query path walks packed trees only. ReadSubTree
// converts to the linked form for consumers that operate on TreeNode
// (TRELLIS merge, compat fixtures).

#ifndef ERA_SUFFIXTREE_SERIALIZER_H_
#define ERA_SUFFIXTREE_SERIALIZER_H_

#include <string>

#include "common/status.h"
#include "io/env.h"
#include "io/io_stats.h"
#include "suffixtree/compressed_tree.h"
#include "suffixtree/node.h"
#include "suffixtree/tree_buffer.h"

namespace era {

/// Writes `tree` for S-prefix `prefix` to `path` as a v3 (packed) file.
/// The file is published atomically and durably (temp + Sync + rename): a
/// crash mid-write never leaves a readable torn file at `path`. Billed to
/// `stats` if given. `file_crc` (optional) receives the CRC-32C of the
/// complete file as written — the checksum the build checkpoint records.
Status WriteSubTree(Env* env, const std::string& path,
                    const std::string& prefix, const TreeBuffer& tree,
                    IoStats* stats, uint32_t* file_crc = nullptr);

/// Writes `tree` verbatim in the legacy v1 format (linked TreeNode array).
/// Compat fixtures only; no builder calls it.
Status WriteSubTreeV1(Env* env, const std::string& path,
                      const std::string& prefix, const TreeBuffer& tree,
                      IoStats* stats);

/// Writes `tree` verbatim in the legacy v2 format (CountedNode array).
/// Compat fixtures only; no builder calls it.
Status WriteSubTreeV2(Env* env, const std::string& path,
                      const std::string& prefix, const CountedTree& tree,
                      IoStats* stats);

/// Reads a sub-tree (any version) into the linked form; verifies magic,
/// version and CRC. `prefix_out` may be nullptr.
Status ReadSubTree(Env* env, const std::string& path, TreeBuffer* tree,
                   std::string* prefix_out, IoStats* stats);

/// Reads a sub-tree (any version) into the served form TreeIndex caches.
/// v3 payloads are decoded and validated in place; v1 files are converted
/// to the counted layout (BuildCountedTree) and v2 files pass
/// ValidateCountedLayout, then both are encoded into the packed form and
/// validated like a v3 payload. Any structural fault is Corruption.
Status ReadServedSubTree(Env* env, const std::string& path,
                         ServedSubTree* tree, std::string* prefix_out,
                         IoStats* stats);

/// Per-file facts for `era_cli inspect` and the bench: header fields plus
/// the sizes needed to compute compression ratios. A v3 file is read to its
/// prefix only; a v1/v2 file is loaded once, because its served size is
/// that of its packed re-encoding.
struct SubTreeFileInfo {
  uint32_t version = 0;
  uint64_t node_count = 0;
  std::string prefix;
  uint64_t file_bytes = 0;      // total on-disk size
  uint64_t payload_bytes = 0;   // file minus header and prefix
  uint64_t serving_bytes = 0;   // packed blob + reader pad: the resident
                                // size when cached, whatever the version
  uint64_t inflated_bytes = 0;  // node_count * sizeof(CountedNode)
};

StatusOr<SubTreeFileInfo> InspectSubTreeFile(Env* env, const std::string& path);

}  // namespace era

#endif  // ERA_SUFFIXTREE_SERIALIZER_H_
