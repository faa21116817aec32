// Typed in-place pack/unpack over pooled transport buffers.
//
// PackedWriter fills a pool-acquired Buffer front to back with trivially
// copyable elements; the finished buffer is *moved* into the network
// (Communicator::send_buffer), so a message is packed exactly once, in its
// final wire location. PackedReader walks a received payload in place —
// unpacking reads straight out of the pooled storage, no copy-out vector.
//
// Both sides are cursor-checked: a writer must be filled exactly to its
// declared size before take(), and a reader throws if a read runs past the
// payload — the typed equivalent of the old recv-size-mismatch check.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>

#include "simnet/buffer_pool.hpp"
#include "util/error.hpp"

namespace agcm::comm {

using Buffer = simnet::Buffer;

/// Packs typed elements into a fixed-size pooled buffer.
class PackedWriter {
 public:
  /// Wraps storage whose logical size is the exact wire size of the message.
  explicit PackedWriter(Buffer buffer) : buffer_(std::move(buffer)) {}

  std::size_t size_bytes() const { return buffer_.size(); }
  std::size_t remaining_bytes() const { return buffer_.size() - cursor_; }

  /// Reserves the next `count` elements and returns them for in-place
  /// filling (the zero-copy pack path: memcpy rows straight into the wire
  /// buffer).
  template <typename T>
  std::span<T> append(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t bytes = count * sizeof(T);
    if (bytes > remaining_bytes()) {
      throw CommError("PackedWriter overflow: appending " +
                      std::to_string(bytes) + " bytes with " +
                      std::to_string(remaining_bytes()) + " remaining");
    }
    T* base = reinterpret_cast<T*>(buffer_.data() + cursor_);
    cursor_ += bytes;
    return {base, count};
  }

  /// Copies `values` into the buffer.
  template <typename T>
  void write(std::span<const T> values) {
    auto dst = append<T>(values.size());
    if (!values.empty()) {
      std::memcpy(dst.data(), values.data(), values.size_bytes());
    }
  }

  /// Releases the filled buffer for sending; the writer must be full.
  Buffer take() {
    if (cursor_ != buffer_.size()) {
      throw CommError("PackedWriter::take before the buffer was filled (" +
                      std::to_string(cursor_) + " of " +
                      std::to_string(buffer_.size()) + " bytes)");
    }
    cursor_ = 0;
    return std::move(buffer_);
  }

 private:
  Buffer buffer_;
  std::size_t cursor_ = 0;
};

/// Reads typed elements out of a received payload, in place.
class PackedReader {
 public:
  explicit PackedReader(Buffer buffer) : buffer_(std::move(buffer)) {}

  std::size_t size_bytes() const { return buffer_.size(); }
  std::size_t remaining_bytes() const { return buffer_.size() - cursor_; }

  /// Views the next `count` elements without copying. The payload start is
  /// allocator-aligned and messages are packed homogeneously, so the
  /// in-place view is correctly aligned; debug builds assert it.
  template <typename T>
  std::span<const T> view(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t bytes = count * sizeof(T);
    if (bytes > remaining_bytes()) {
      throw CommError("PackedReader underflow: reading " +
                      std::to_string(bytes) + " bytes with " +
                      std::to_string(remaining_bytes()) + " remaining");
    }
    const T* base = reinterpret_cast<const T*>(buffer_.data() + cursor_);
    AGCM_DBG_ASSERT(reinterpret_cast<std::uintptr_t>(base) % alignof(T) == 0);
    cursor_ += bytes;
    return {base, count};
  }

  /// Copies the next out.size() elements into `out`.
  template <typename T>
  void read(std::span<T> out) {
    auto src = view<T>(out.size());
    if (!out.empty()) {
      std::memcpy(out.data(), src.data(), src.size_bytes());
    }
  }

 private:
  Buffer buffer_;
  std::size_t cursor_ = 0;
};

/// A whole received payload viewed as a typed array; owns the pooled
/// storage, so the span stays valid for the view's lifetime.
template <typename T>
class TypedView {
 public:
  static_assert(std::is_trivially_copyable_v<T>);

  explicit TypedView(Buffer buffer) : buffer_(std::move(buffer)) {
    if (buffer_.size() % sizeof(T) != 0) {
      throw CommError("recv_view: payload not a multiple of sizeof(T)");
    }
  }

  std::size_t size() const { return buffer_.size() / sizeof(T); }
  bool empty() const { return buffer_.empty(); }
  const T* data() const {
    return reinterpret_cast<const T*>(buffer_.data());
  }
  const T& operator[](std::size_t i) const { return data()[i]; }
  std::span<const T> values() const { return {data(), size()}; }
  operator std::span<const T>() const { return values(); }

 private:
  Buffer buffer_;
};

}  // namespace agcm::comm
