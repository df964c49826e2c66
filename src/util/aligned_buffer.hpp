#pragma once

#include <cstddef>
#include <span>

#include "util/units.hpp"

namespace ao::util {

/// Page-aligned, page-granular, zero-filled host allocation.
///
/// The paper allocates every matrix via aligned_alloc with the Apple page
/// size (16384 bytes) and rounds lengths up to the next page multiple so the
/// GPU can wrap the allocation zero-copy ("such that the GPU could bypass
/// memory copying", Section 3.2). This class reproduces those semantics as a
/// RAII owner; ao::metal::Buffer validates the same alignment rules when
/// wrapping one of these no-copy.
///
/// The memory is one private anonymous mapping: contents read zero, and host
/// pages are committed on first touch, so a model-only run that never reads
/// or writes a buffer pays for its address space only.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  /// Allocates at least `length` bytes aligned to `alignment`; the usable
  /// capacity is rounded up to a whole number of alignment units and reads
  /// zero. Throws std::bad_alloc if the mapping fails.
  explicit AlignedBuffer(std::size_t length, std::size_t alignment = kApplePageSize);

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  AlignedBuffer(AlignedBuffer&& other) noexcept;
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept;
  ~AlignedBuffer();

  /// Requested length in bytes (before rounding).
  std::size_t length() const { return length_; }
  /// Allocated capacity in bytes (rounded up to a page multiple).
  std::size_t capacity() const { return capacity_; }
  /// Alignment in bytes.
  std::size_t alignment() const { return alignment_; }

  void* data() { return data_; }
  const void* data() const { return data_; }
  bool empty() const { return data_ == nullptr; }

  /// Zeroes the whole capacity by returning its pages to the kernel; costs
  /// only the pages touched since the last clear. data() and capacity() stay.
  void clear();

  /// Typed view over the *requested* length (not the rounded capacity).
  template <typename T>
  std::span<T> as_span() {
    return {static_cast<T*>(data_), length_ / sizeof(T)};
  }
  template <typename T>
  std::span<const T> as_span() const {
    return {static_cast<const T*>(data_), length_ / sizeof(T)};
  }

  /// Rounds `length` up to the next multiple of `alignment`.
  static std::size_t round_up(std::size_t length, std::size_t alignment);

  /// True if `ptr` is aligned to `alignment` bytes.
  static bool is_aligned(const void* ptr, std::size_t alignment);

 private:
  void* data_ = nullptr;
  std::size_t length_ = 0;
  std::size_t capacity_ = 0;
  std::size_t alignment_ = 0;
};

}  // namespace ao::util
