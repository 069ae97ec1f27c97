// On-disk partition block format (one file per partition), the stand-in for
// the Parquet files the paper writes during reorganization:
//
//   [magic "OREOBLK1"] [u32 version = 2] [u32 ncols] [u64 nrows]
//   per column: [varint name_len][name][u8 type][u8 encoding]
//               [u64 payload_size][payload]
//   [u32 CRC-32C over everything above]
//
// Payloads (storage/codec.h):
//   int64   plain | RLE | delta-varint | frame-of-reference
//           ([i64 base][u8 w][w-bit packed offsets])
//   double  plain
//   string  dictionary: [varint used][used x (varint len, bytes)]
//           [codes packed at ceil(log2 used) bits]; the dictionary holds
//           only the entries this block's rows use, in order of first
//           appearance, so a block's bytes depend only on its row values.
//
// Only version 2 is readable. The reader validates magic, version,
// structure, and checksum, returning Status::Corruption on any mismatch
// (exercised by failure-injection tests). Decoded string columns carry the
// block's own dictionary and codes, not the writer table's.
#ifndef OREO_STORAGE_BLOCK_H_
#define OREO_STORAGE_BLOCK_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "storage/backend.h"
#include "storage/table.h"

namespace oreo {

/// Read-side options.
struct BlockReadOptions {
  /// Column projection: when non-null, only the named columns are decoded
  /// (in block order). Names absent from the block are ignored. Scans that
  /// touch a few columns of a wide table decode proportionally less — the
  /// same effect a columnar format gets from reading a subset of column
  /// chunks. Checksum validation always covers the whole block.
  const std::vector<std::string>* columns = nullptr;
};

/// Serializes `table` into the block wire format (no I/O).
std::string SerializeBlock(const Table& table);

/// Parses a serialized block back into a Table.
Result<Table> DeserializeBlock(const std::string& data,
                               const BlockReadOptions& options = {});

/// Serializes `table` and atomically publishes it at `path` through
/// `backend` (overwrites). With `sync`, the bytes are durable before
/// returning — reorganization rewrites must be durable before the layout
/// swap. Returns the serialized byte count.
Result<uint64_t> WriteBlockTo(StorageBackend* backend, const std::string& path,
                              const Table& table, bool sync = false);

/// Reads and validates a block through `backend`.
Result<Table> ReadBlockFrom(StorageBackend* backend, const std::string& path,
                            const BlockReadOptions& options = {});

/// Legacy path-based round trip over DefaultPosixBackend().
Status WriteBlockFile(const std::string& path, const Table& table,
                      bool sync = false);

/// Legacy path-based read over DefaultPosixBackend().
Result<Table> ReadBlockFile(const std::string& path,
                            const BlockReadOptions& options = {});

/// Size in bytes of the serialized form (without writing).
size_t SerializedBlockSize(const Table& table);

}  // namespace oreo

#endif  // OREO_STORAGE_BLOCK_H_
