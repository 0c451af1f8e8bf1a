#include "suffixtree/serializer.h"

#include <cstring>
#include <vector>

#include "common/codec.h"
#include "common/crc32.h"

namespace era {

namespace {

constexpr char kMagic[8] = {'E', 'R', 'A', 'S', 'U', 'B', 'T', 'R'};
constexpr uint32_t kVersionLinked = 1;
constexpr uint32_t kVersionCounted = 2;
constexpr uint32_t kVersionPacked = 3;

struct Header {
  char magic[8];
  uint32_t version;
  uint32_t prefix_len;
  uint64_t node_count;
  uint32_t crc;
  uint32_t reserved;
};
static_assert(sizeof(Header) == 32, "keep the header fixed-size");

/// v1 checksums with IEEE CRC-32 (what legacy files carry); v2/v3 with the
/// hardware-dispatched CRC-32C.
uint32_t PayloadCrc(uint32_t version, const std::string& prefix,
                    const void* payload, std::size_t payload_bytes) {
  if (version == kVersionLinked) {
    return Crc32(payload, payload_bytes, Crc32(prefix.data(), prefix.size()));
  }
  return Crc32c(payload, payload_bytes, Crc32c(prefix.data(), prefix.size()));
}

Status WritePayload(Env* env, const std::string& path,
                    const std::string& prefix, uint32_t version,
                    const void* payload, uint64_t node_count,
                    std::size_t payload_bytes, IoStats* stats,
                    uint32_t* file_crc) {
  Header header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = version;
  header.prefix_len = static_cast<uint32_t>(prefix.size());
  header.node_count = node_count;
  header.reserved = 0;
  header.crc = PayloadCrc(version, prefix, payload, payload_bytes);

  // Atomic + durable: stream into <path>.tmp, Sync, rename. A crash leaves
  // either no file or the complete file, never a torn sub-tree a serving
  // TreeIndex could open.
  ERA_ASSIGN_OR_RETURN(AtomicFileWriter writer,
                       AtomicFileWriter::Open(env, path));
  ERA_RETURN_NOT_OK(writer.Append(reinterpret_cast<const char*>(&header),
                                  sizeof(header)));
  ERA_RETURN_NOT_OK(writer.Append(prefix.data(), prefix.size()));
  ERA_RETURN_NOT_OK(
      writer.Append(static_cast<const char*>(payload), payload_bytes));
  ERA_RETURN_NOT_OK(writer.Commit());
  if (file_crc != nullptr) *file_crc = writer.crc32c();
  if (stats != nullptr) {
    stats->bytes_written += sizeof(header) + prefix.size() + payload_bytes;
  }
  return Status::OK();
}

/// Reads header + prefix + payload (validating magic, version, CRC and a
/// non-empty node count). Exactly one of `v1_nodes`/`v2_nodes`/`v3_payload`
/// is filled, selected by the version on disk; `*version_out` reports which.
/// The v3 payload is the raw byte string (decoded and structure-checked by
/// ServedSubTree::FromPayload).
Status ReadPayload(Env* env, const std::string& path,
                   std::vector<TreeNode>* v1_nodes,
                   std::vector<CountedNode>* v2_nodes, std::string* v3_payload,
                   uint64_t* node_count_out, uint32_t* version_out,
                   std::string* prefix_out, IoStats* stats) {
  ERA_ASSIGN_OR_RETURN(auto file, env->OpenRandomAccess(path));
  Header header;
  std::size_t got = 0;
  ERA_RETURN_NOT_OK(file->Read(0, sizeof(header),
                               reinterpret_cast<char*>(&header), &got));
  if (got != sizeof(header) ||
      std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad sub-tree magic in " + path);
  }
  if (header.version != kVersionLinked && header.version != kVersionCounted &&
      header.version != kVersionPacked) {
    return Status::NotSupported("unsupported sub-tree version in " + path);
  }

  const uint64_t file_size = file->Size();
  if (sizeof(header) + header.prefix_len > file_size) {
    return Status::Corruption("truncated prefix in " + path);
  }
  std::string prefix(header.prefix_len, '\0');
  ERA_RETURN_NOT_OK(
      file->Read(sizeof(header), prefix.size(), prefix.data(), &got));
  if (got != prefix.size()) {
    return Status::Corruption("truncated prefix in " + path);
  }

  std::size_t payload_bytes;
  char* payload_dst;
  if (header.version == kVersionPacked) {
    // v3 payload size is whatever follows the prefix; the packed decoder
    // cross-checks it against the node count and recorded section sizes.
    payload_bytes = file_size - sizeof(header) - prefix.size();
    v3_payload->resize(payload_bytes);
    payload_dst = v3_payload->data();
  } else {
    static_assert(sizeof(TreeNode) == sizeof(CountedNode),
                  "both node formats are 32 bytes");
    // Guard the allocation below against a corrupt count before trusting it.
    if (header.node_count > file_size / sizeof(TreeNode)) {
      return Status::Corruption("node count exceeds file size in " + path);
    }
    payload_bytes = header.node_count * sizeof(TreeNode);
    if (header.version == kVersionLinked) {
      v1_nodes->resize(header.node_count);
      payload_dst = reinterpret_cast<char*>(v1_nodes->data());
    } else {
      v2_nodes->resize(header.node_count);
      payload_dst = reinterpret_cast<char*>(v2_nodes->data());
    }
  }
  ERA_RETURN_NOT_OK(file->Read(sizeof(header) + prefix.size(), payload_bytes,
                               payload_dst, &got));
  if (got != payload_bytes) {
    return Status::Corruption("truncated node array in " + path);
  }

  uint32_t crc = PayloadCrc(header.version, prefix, payload_dst,
                            payload_bytes);
  if (crc != header.crc) {
    return Status::Corruption("CRC mismatch in " + path);
  }
  if (header.node_count == 0) {
    return Status::Corruption("empty sub-tree in " + path);
  }
  if (node_count_out != nullptr) *node_count_out = header.node_count;
  *version_out = header.version;
  if (prefix_out != nullptr) *prefix_out = std::move(prefix);
  if (stats != nullptr) {
    stats->bytes_read += sizeof(header) + header.prefix_len + payload_bytes;
    ++stats->seeks;  // sub-tree loads are random accesses
  }
  return Status::OK();
}

/// Turns a payload ReadPayload produced into the served form: v3 decodes in
/// place; v1 converts and v2 is layout-checked, and both are then packed, so
/// FromPayload never sees a tree that failed its version's checks.
Status DecodeServed(const std::string& path, uint32_t version,
                    std::vector<TreeNode> v1_nodes, const CountedTree& counted,
                    std::string v3_payload, uint64_t node_count,
                    ServedSubTree* tree) {
  if (version == kVersionLinked) {
    TreeBuffer linked;
    linked.mutable_nodes() = std::move(v1_nodes);
    auto converted = BuildCountedTree(linked);
    if (!converted.ok()) {
      return Status::Corruption(converted.status().message() + " in " + path);
    }
    v3_payload = ServedSubTree::EncodePayload(*converted);
    node_count = converted->size();
  } else if (version == kVersionCounted) {
    if (Status s = ValidateCountedLayout(counted); !s.ok()) {
      return Status::Corruption(s.message() + " in " + path);
    }
    v3_payload = ServedSubTree::EncodePayload(counted);
  }
  auto packed = ServedSubTree::FromPayload(std::move(v3_payload), node_count);
  if (!packed.ok()) {
    return packed.status().WithContext("packed sub-tree " + path);
  }
  *tree = std::move(packed).value();
  return Status::OK();
}

}  // namespace

Status WriteSubTree(Env* env, const std::string& path,
                    const std::string& prefix, const TreeBuffer& tree,
                    IoStats* stats, uint32_t* file_crc) {
  ERA_ASSIGN_OR_RETURN(CountedTree counted, BuildCountedTree(tree));
  const std::string payload = ServedSubTree::EncodePayload(counted);
  return WritePayload(env, path, prefix, kVersionPacked, payload.data(),
                      counted.size(), payload.size(), stats, file_crc);
}

Status WriteSubTreeV1(Env* env, const std::string& path,
                      const std::string& prefix, const TreeBuffer& tree,
                      IoStats* stats) {
  return WritePayload(env, path, prefix, kVersionLinked, tree.nodes().data(),
                      tree.size(), tree.nodes().size() * sizeof(TreeNode),
                      stats, nullptr);
}

Status WriteSubTreeV2(Env* env, const std::string& path,
                      const std::string& prefix, const CountedTree& tree,
                      IoStats* stats) {
  return WritePayload(env, path, prefix, kVersionCounted, tree.nodes().data(),
                      tree.size(), tree.size() * sizeof(CountedNode), stats,
                      nullptr);
}

Status ReadSubTree(Env* env, const std::string& path, TreeBuffer* tree,
                   std::string* prefix_out, IoStats* stats) {
  CountedTree counted;
  std::vector<TreeNode> v1_nodes;
  std::string v3_payload;
  uint64_t node_count = 0;
  uint32_t version = 0;
  ERA_RETURN_NOT_OK(ReadPayload(env, path, &v1_nodes,
                                &counted.mutable_nodes(), &v3_payload,
                                &node_count, &version, prefix_out, stats));
  if (version == kVersionLinked) {
    tree->mutable_nodes() = std::move(v1_nodes);
    return Status::OK();
  }
  ServedSubTree served;
  ERA_RETURN_NOT_OK(DecodeServed(path, version, {}, counted,
                                 std::move(v3_payload), node_count, &served));
  ERA_ASSIGN_OR_RETURN(counted, served.Inflate());
  ERA_ASSIGN_OR_RETURN(*tree, LinkedFromCounted(counted));
  return Status::OK();
}

Status ReadServedSubTree(Env* env, const std::string& path,
                         ServedSubTree* tree, std::string* prefix_out,
                         IoStats* stats) {
  std::vector<TreeNode> v1_nodes;
  CountedTree counted;
  std::string v3_payload;
  uint64_t node_count = 0;
  uint32_t version = 0;
  ERA_RETURN_NOT_OK(ReadPayload(env, path, &v1_nodes,
                                &counted.mutable_nodes(), &v3_payload,
                                &node_count, &version, prefix_out, stats));
  return DecodeServed(path, version, std::move(v1_nodes), counted,
                      std::move(v3_payload), node_count, tree);
}

StatusOr<SubTreeFileInfo> InspectSubTreeFile(Env* env,
                                             const std::string& path) {
  ERA_ASSIGN_OR_RETURN(auto file, env->OpenRandomAccess(path));
  Header header;
  std::size_t got = 0;
  ERA_RETURN_NOT_OK(file->Read(0, sizeof(header),
                               reinterpret_cast<char*>(&header), &got));
  if (got != sizeof(header) ||
      std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad sub-tree magic in " + path);
  }
  if (header.version != kVersionLinked && header.version != kVersionCounted &&
      header.version != kVersionPacked) {
    return Status::NotSupported("unsupported sub-tree version in " + path);
  }
  SubTreeFileInfo info;
  info.version = header.version;
  info.node_count = header.node_count;
  info.file_bytes = file->Size();
  if (sizeof(header) + header.prefix_len > info.file_bytes) {
    return Status::Corruption("truncated prefix in " + path);
  }
  info.prefix.resize(header.prefix_len);
  ERA_RETURN_NOT_OK(
      file->Read(sizeof(header), info.prefix.size(), info.prefix.data(),
                 &got));
  if (got != info.prefix.size()) {
    return Status::Corruption("truncated prefix in " + path);
  }
  info.payload_bytes = info.file_bytes - sizeof(header) - header.prefix_len;
  info.inflated_bytes = header.node_count * sizeof(CountedNode);
  if (header.version == kVersionPacked) {
    info.serving_bytes = info.payload_bytes + kBitReaderPadBytes;
  } else {
    ServedSubTree served;
    ERA_RETURN_NOT_OK(ReadServedSubTree(env, path, &served, nullptr, nullptr));
    info.serving_bytes = served.PayloadBytes() + kBitReaderPadBytes;
  }
  return info;
}

}  // namespace era
