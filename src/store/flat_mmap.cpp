#include "store/flat_mmap.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace jaal::store {

FlatMmap::~FlatMmap() { close(); }

bool FlatMmap::open(const std::string& path) {
  close();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st{};
  bool ok = ::fstat(fd, &st) == 0;
  if (ok && st.st_size > 0) {
    const auto size = static_cast<std::size_t>(st.st_size);
    void* p = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
    ok = p != MAP_FAILED;
    if (ok) {
      data_ = static_cast<const std::uint8_t*>(p);
      size_ = size;
    }
  }
  ::close(fd);  // the mapping outlives the descriptor
  return ok;
}

void FlatMmap::close() noexcept {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
    data_ = nullptr;
    size_ = 0;
  }
}

}  // namespace jaal::store
