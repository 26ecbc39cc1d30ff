// Read-only memory-mapped file: the lowest layer of src/store.
//
// One FlatMmap maps one file's contents at open (MAP_SHARED, PROT_READ) and
// unmaps them on close.  Shard walks read through it; appends never do —
// the writer pwrites to a plain descriptor (flat_timeshard), so a file is
// exactly the bytes written to it.  open() returns bool instead of
// throwing: store walks sit under the controller's throw-free per-epoch
// path (jaal.hpp error policy).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace jaal::store {

class FlatMmap {
 public:
  FlatMmap() = default;
  ~FlatMmap();

  FlatMmap(const FlatMmap&) = delete;
  FlatMmap& operator=(const FlatMmap&) = delete;

  /// Maps the current contents of `path` (an empty file maps nothing).
  /// Returns false on any syscall failure; the object is then closed.
  [[nodiscard]] bool open(const std::string& path);

  void close() noexcept;

  /// Mapped length == file length at open.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const std::uint8_t* data() const noexcept { return data_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace jaal::store
