#ifndef MUBE_COMMON_CHUNKED_TABLE_H_
#define MUBE_COMMON_CHUNKED_TABLE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

/// \file chunked_table.h
/// A copy-on-write table of records, for structures that a clone shares
/// with its parent and then edits by a small delta (the universe's sources
/// and name index, the sparse similarity index's facts and rows).

namespace mube {

/// \brief Records in chunks of 2^kBits, each a shared buffer.
///
/// Copying the table shares every chunk and *freezes* it: a frozen chunk
/// is never written again by any table. A write through Mutable() copies
/// its chunk first when it is frozen, so a copy owns no chunk until it
/// copies one, and the table it was copied from stops writing the shared
/// chunks in place too. A chunk that is not frozen is held by one table
/// only, which writes it in place. Ownership never depends on reference
/// counts, so a write cannot race with another table's last reads of a
/// chunk.
///
/// Thread compatibility: const methods (copying included) are safe from
/// any number of threads while no mutator runs on the same table; a
/// mutator on one copy may run while other copies are read.
template <typename T, size_t kBits>
class ChunkedTable {
 public:
  static constexpr size_t kChunkSize = size_t{1} << kBits;

  ChunkedTable() = default;
  ChunkedTable(const ChunkedTable& other) : chunks_(other.chunks_) {
    other.Freeze();
  }
  ChunkedTable& operator=(const ChunkedTable& other) {
    if (this != &other) {
      chunks_ = other.chunks_;
      other.Freeze();
    }
    return *this;
  }
  ChunkedTable(ChunkedTable&&) noexcept = default;
  ChunkedTable& operator=(ChunkedTable&&) noexcept = default;

  const T& operator[](size_t i) const {
    return chunks_[i >> kBits]->records[i & (kChunkSize - 1)];
  }

  /// Records the table has room for: a whole number of chunks.
  size_t capacity() const { return chunks_.size() << kBits; }

  /// Appends chunks of T{} until `n` records fit. Never shrinks.
  void Grow(size_t n) {
    const size_t chunks = (n + kChunkSize - 1) >> kBits;
    while (chunks_.size() < chunks) chunks_.push_back(std::make_shared<Chunk>());
  }

  /// Record i for writing; its chunk is copied first if frozen.
  T& Mutable(size_t i) {
    std::shared_ptr<Chunk>& chunk = chunks_[i >> kBits];
    if (chunk->frozen.load()) {
      chunk = std::make_shared<Chunk>(chunk->records);
    }
    return chunk->records[i & (kChunkSize - 1)];
  }

  size_t MemoryBytes() const {
    return chunks_.capacity() * sizeof(chunks_[0]) +
           chunks_.size() * sizeof(Chunk);
  }

 private:
  struct Chunk {
    Chunk() = default;
    explicit Chunk(const std::array<T, kChunkSize>& copy) : records(copy) {}
    std::array<T, kChunkSize> records{};
    std::atomic<bool> frozen{false};
  };

  void Freeze() const {
    for (const std::shared_ptr<Chunk>& chunk : chunks_) {
      chunk->frozen.store(true);
    }
  }

  std::vector<std::shared_ptr<Chunk>> chunks_;
};

}  // namespace mube

#endif  // MUBE_COMMON_CHUNKED_TABLE_H_
