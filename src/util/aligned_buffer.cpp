#include "util/aligned_buffer.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

#include "util/error.hpp"

namespace ao::util {

namespace {

// munmap accepts a length that is not a page multiple: every page holding a
// byte of [ptr, ptr + length) goes.
void unmap(void* ptr, std::size_t length) {
  if (ptr != nullptr && length > 0) {
    ::munmap(ptr, length);
  }
}

}  // namespace

AlignedBuffer::AlignedBuffer(std::size_t length, std::size_t alignment)
    : length_(length), alignment_(alignment) {
  AO_REQUIRE(length > 0, "AlignedBuffer length must be positive");
  AO_REQUIRE(alignment > 0 && (alignment & (alignment - 1)) == 0,
             "AlignedBuffer alignment must be a power of two");
  capacity_ = round_up(length, alignment);
  // One private anonymous mapping, over-sized so an `alignment`-aligned
  // window of `capacity_` bytes fits; the kernel zero-fills each page on its
  // first touch, so pages a model-only run never reads or writes cost nothing.
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t mapped = round_up(capacity_, page);
  const std::size_t slack = alignment > page ? alignment - page : 0;
  void* raw = ::mmap(nullptr, mapped + slack, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) {
    throw std::bad_alloc();
  }
  auto* base = static_cast<std::byte*>(raw);
  auto* aligned = reinterpret_cast<std::byte*>(
      round_up(reinterpret_cast<std::uintptr_t>(base), alignment));
  const std::size_t head = static_cast<std::size_t>(aligned - base);
  unmap(base, head);
  unmap(aligned + mapped, slack - head);
  data_ = aligned;
}

AlignedBuffer::AlignedBuffer(AlignedBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      length_(std::exchange(other.length_, 0)),
      capacity_(std::exchange(other.capacity_, 0)),
      alignment_(std::exchange(other.alignment_, 0)) {}

AlignedBuffer& AlignedBuffer::operator=(AlignedBuffer&& other) noexcept {
  if (this != &other) {
    unmap(data_, capacity_);
    data_ = std::exchange(other.data_, nullptr);
    length_ = std::exchange(other.length_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
    alignment_ = std::exchange(other.alignment_, 0);
  }
  return *this;
}

AlignedBuffer::~AlignedBuffer() { unmap(data_, capacity_); }

void AlignedBuffer::clear() {
  // For private anonymous pages MADV_DONTNEED drops the touched pages; the
  // next access of any of them faults in a fresh zero page. Should the kernel
  // refuse (locked pages), zero the bytes instead.
  if (data_ != nullptr && ::madvise(data_, capacity_, MADV_DONTNEED) != 0) {
    std::memset(data_, 0, capacity_);
  }
}

std::size_t AlignedBuffer::round_up(std::size_t length, std::size_t alignment) {
  const std::size_t rem = length % alignment;
  return rem == 0 ? length : length + (alignment - rem);
}

bool AlignedBuffer::is_aligned(const void* ptr, std::size_t alignment) {
  return reinterpret_cast<std::uintptr_t>(ptr) % alignment == 0;
}

}  // namespace ao::util
