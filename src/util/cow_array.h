#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>

#include "util/require.h"

namespace choreo {

/// A handle to one heap array of trivially copyable T, shared copy-on-write:
/// copying a handle shares the array, and mutable_data() first copies it
/// unless this handle is the only one. One allocation holds the share count,
/// the size, then the elements, so a handle is one pointer.
///
/// Handles to one array may live on different threads: a serving plane's
/// readers drop their copies while its writer asks whether its own handle
/// is the last. The share check is an acquire load and a drop is an acq_rel
/// decrement, so a count of 1 seen by mutable_data() orders every read the
/// dropped handles made before the in-place write. A copy is made from a
/// live handle, so the array cannot be freed meanwhile and the increment
/// needs no ordering.
///
/// A default-constructed or moved-from handle holds no array: it may only be
/// tested, assigned, copied or destroyed.
template <typename T>
class CowArray {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(alignof(T) <= alignof(std::max_align_t));

 public:
  CowArray() = default;
  /// A new, unshared array of `size` copies of `fill`.
  CowArray(std::size_t size, T fill) : block_(allocate(size)) {
    std::fill_n(payload(block_), size, fill);
  }
  CowArray(const CowArray& other) noexcept : block_(other.block_) {
    if (block_) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  CowArray(CowArray&& other) noexcept : block_(std::exchange(other.block_, nullptr)) {}
  CowArray& operator=(CowArray other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~CowArray() {
    if (block_) drop(block_);
  }

  /// Whether this handle holds an array.
  explicit operator bool() const { return block_ != nullptr; }
  std::size_t size() const { return block_->size; }
  /// Read in place, shared or not. The address identifies the array: two
  /// live handles return the same pointer exactly when they share it.
  const T* data() const { return payload(block_); }
  /// The array for writing, copied first while another handle shares it.
  T* mutable_data() {
    if (block_->refs.load(std::memory_order_acquire) != 1) unshare();
    return payload(block_);
  }

 private:
  struct Header {
    std::atomic<std::uint32_t> refs{1};
    std::uint32_t size = 0;
  };
  static constexpr std::size_t kPayloadOffset =
      (sizeof(Header) + alignof(T) - 1) / alignof(T) * alignof(T);

  static T* payload(Header* block) {
    return reinterpret_cast<T*>(reinterpret_cast<char*>(block) + kPayloadOffset);
  }
  static Header* allocate(std::size_t size) {
    CHOREO_REQUIRE(size <= std::numeric_limits<std::uint32_t>::max());
    Header* block = ::new (::operator new(kPayloadOffset + size * sizeof(T))) Header;
    block->size = static_cast<std::uint32_t>(size);
    return block;
  }
  static void drop(Header* block) noexcept {
    // Release publishes this handle's reads to whoever next sees the count
    // fall; the last handle's acquire orders them before the free.
    if (block->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      block->~Header();
      ::operator delete(block);
    }
  }
  void unshare() {
    Header* copy = allocate(block_->size);
    std::copy_n(payload(block_), block_->size, payload(copy));
    drop(block_);
    block_ = copy;
  }

  Header* block_ = nullptr;
};

}  // namespace choreo
