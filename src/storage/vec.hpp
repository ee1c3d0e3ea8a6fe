// storage::Vec<T> — THE owned-or-borrowed storage seam (DESIGN.md #8).
//
// Every succinct structure in this library stores its payload and derived
// directories in flat trivially-copyable arrays. Vec<T> is the one type
// those arrays go through, and it has exactly two modes:
//
//   * owned    — a growable heap buffer (a minimal vector for trivial T),
//                what every construction produces;
//   * borrowed — a (const T*, count) window over bytes somebody else keeps
//                alive (a mapped v5 image or its heap-loaded twin). Zero
//                copies, zero allocation; the structure is query-ready the
//                instant the bytes are visible.
//
// Layout is deliberately {data, size, capacity} — 24 bytes, the same as
// std::vector — with "borrowed" encoded as a capacity sentinel, so hot
// read paths (data/size/operator[]) are single loads with no mode branch
// and sizeof(every structure) is unchanged by the seam (the append-only
// bitvector's space accounting counts 8*sizeof(Rrr) per chunk; a fatter
// Vec would be a real space regression, not a bookkeeping one).
//
// Mutating a borrowed Vec is a programming error (asserted) except for
// clear()/assign(), which detach back to an empty owned buffer.
//
// Lifetime contract: a borrowed Vec never extends the life of the bytes it
// points into. Owners of borrowed structures must pin the backing blob
// (api/sequence.hpp keeps a shared_ptr to it; the engine's snapshots pin
// segments, hence blobs, transitively).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"

namespace wt::storage {

template <typename T>
class Vec {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  Vec() = default;

  ~Vec() { FreeOwned(); }

  Vec(const Vec& o) { CopyFrom(o); }
  Vec& operator=(const Vec& o) {
    if (this != &o) {
      FreeOwned();
      CopyFrom(o);
    }
    return *this;
  }
  Vec(Vec&& o) noexcept : data_(o.data_), size_(o.size_), cap_(o.cap_) {
    o.data_ = nullptr;
    o.size_ = 0;
    o.cap_ = 0;
  }
  Vec& operator=(Vec&& o) noexcept {
    if (this != &o) {
      FreeOwned();
      data_ = o.data_;
      size_ = o.size_;
      cap_ = o.cap_;
      o.data_ = nullptr;
      o.size_ = 0;
      o.cap_ = 0;
    }
    return *this;
  }

  /// A borrowed view over `count` elements at `p` (8-byte alignment of `p`
  /// is the image layer's contract). The bytes must outlive the Vec.
  static Vec Borrow(const T* p, size_t count) {
    Vec v;
    v.data_ = const_cast<T*>(p);  // never written: every mutator asserts
    v.size_ = count;
    v.cap_ = kBorrowed;
    return v;
  }

  bool borrowed() const { return cap_ == kBorrowed; }

  // ------------------------------------------------------- read accessors

  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T& back() const { return data_[size_ - 1]; }
  /// Heap-accounting convention: a borrowed view reports its size as its
  /// capacity, matching what an exactly-sized owned buffer reports — so
  /// SizeInBits() is identical between a mapped structure and the one it
  /// was saved from (asserted by the storage differential tests).
  size_t capacity() const { return borrowed() ? size_ : cap_; }

  friend bool operator==(const Vec& a, const Vec& b) {
    if (a.size_ != b.size_) return false;
    return a.size_ == 0 ||
           std::memcmp(a.data_, b.data_, a.size_ * sizeof(T)) == 0;
  }

  // -------------------------------------------- mutators (owned mode only)

  T& operator[](size_t i) {
    WT_DASSERT(!borrowed());
    return data_[i];
  }
  T& back() {
    WT_DASSERT(!borrowed());
    return data_[size_ - 1];
  }
  T* mutable_data() {
    WT_DASSERT(!borrowed());
    return data_;
  }
  void push_back(const T& v) {
    WT_DASSERT(!borrowed());
    if (size_ == cap_) Grow(size_ + 1);
    data_[size_++] = v;
  }
  void reserve(size_t n) {
    WT_DASSERT(!borrowed());
    if (n > cap_) Grow(n);
  }
  void resize(size_t n, T fill = T{}) {
    WT_DASSERT(!borrowed());
    if (n > cap_) Grow(n);
    for (size_t i = size_; i < n; ++i) data_[i] = fill;
    size_ = n;
  }
  void shrink_to_fit() {
    if (borrowed() || cap_ == size_) return;
    Reallocate(size_);
  }

  // ------------------------------------- mutators that detach a borrow

  void clear() {
    if (borrowed()) {
      data_ = nullptr;
      size_ = 0;
      cap_ = 0;
    } else {
      size_ = 0;
    }
  }
  void assign(size_t n, const T& fill) {
    clear();
    resize(n, fill);
  }

 private:
  static constexpr size_t kBorrowed = static_cast<size_t>(-1);

  void FreeOwned() {
    if (!borrowed()) delete[] data_;
  }

  void CopyFrom(const Vec& o) {
    if (o.borrowed()) {
      data_ = o.data_;
      size_ = o.size_;
      cap_ = kBorrowed;
      return;
    }
    // Exact-size copy (capacity == size), like copying a shrunk vector.
    data_ = o.size_ == 0 ? nullptr : new T[o.size_];
    size_ = cap_ = o.size_;
    if (size_ != 0) std::memcpy(data_, o.data_, size_ * sizeof(T));
  }

  // Geometric growth so repeated push_backs stay amortized O(1). `new T[]`
  // default-initialization is vacuous for these trivial types, so reserved
  // slack costs no writes.
  void Grow(size_t need) { Reallocate(std::max(need, cap_ * 2)); }

  void Reallocate(size_t new_cap) {
    T* fresh = new_cap == 0 ? nullptr : new T[new_cap];
    if (size_ != 0) std::memcpy(fresh, data_, size_ * sizeof(T));
    delete[] data_;
    data_ = fresh;
    cap_ = new_cap;
  }

  T* data_ = nullptr;  // owned allocation, or the borrow (never written)
  size_t size_ = 0;
  size_t cap_ = 0;  // kBorrowed marks a borrow
};

}  // namespace wt::storage
