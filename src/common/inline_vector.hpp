// Inline-first vector for the short per-entity lists on the hot paths.
//
// A chunk's replica locations, a task's input chunks and a simulated flow's
// resource path are each a handful of 32-bit ids, and a paper-scale run
// creates tens of thousands of them. std::vector gives every one its own heap
// block; InlineVector keeps the first N elements inside the object and moves
// to the heap only when element N + 1 arrives ("spills"), so the common case
// never allocates and a walk over the list reads memory its owner already
// holds. A spilled vector keeps its heap block, clear() included, until it
// is moved from or move-assigned.
//
// Every operation preserves element order, erase included: replica order
// drives the kFirst read policy, the kRandom index and the planners' edge
// order, so an unordered erase would change simulated outputs.
//
// Elements must be trivial: they are copied bytewise and never constructed
// or destroyed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <type_traits>

namespace opass {

template <typename T, std::uint32_t N>
class InlineVector {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_default_constructible_v<T>,
                "InlineVector copies its elements bytewise");
  static_assert(N > 0, "InlineVector needs a positive inline capacity");

 public:
  using value_type = T;
  using size_type = std::size_t;
  using iterator = T*;
  using const_iterator = const T*;

  /// Elements stored without a heap allocation.
  static constexpr std::uint32_t kInlineCapacity = N;

  InlineVector() noexcept {}
  InlineVector(std::initializer_list<T> init) { assign(init.begin(), init.end()); }
  template <std::input_iterator It>
  InlineVector(It first, It last) { assign(first, last); }
  InlineVector(const InlineVector& other) { assign(other.begin(), other.end()); }
  InlineVector(InlineVector&& other) noexcept { take(other); }
  ~InlineVector() { release(); }

  InlineVector& operator=(const InlineVector& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  InlineVector& operator=(InlineVector&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  InlineVector& operator=(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
    return *this;
  }

  /// Replace the contents with [first, last), which must not alias *this.
  template <std::input_iterator It>
  void assign(It first, It last) {
    clear();
    if constexpr (std::forward_iterator<It>)
      reserve(static_cast<size_type>(std::distance(first, last)));
    for (; first != last; ++first) push_back(*first);
  }

  T* data() noexcept { return spilled() ? heap_ : inline_; }
  const T* data() const noexcept { return spilled() ? heap_ : inline_; }
  iterator begin() noexcept { return data(); }
  iterator end() noexcept { return data() + size_; }
  const_iterator begin() const noexcept { return data(); }
  const_iterator end() const noexcept { return data() + size_; }

  size_type size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// N while the elements are inline; the heap block's size once spilled.
  size_type capacity() const noexcept { return capacity_; }

  const T& operator[](size_type i) const noexcept { return data()[i]; }
  const T& front() const noexcept { return data()[0]; }

  void push_back(T value) {
    if (size_ == capacity_) reserve(size_type{capacity_} * 2);
    data()[size_++] = value;
  }

  /// Remove the element at `pos`, shifting the tail down one place (order
  /// preserved). Returns the iterator to the element that followed it.
  iterator erase(const_iterator pos) noexcept {
    T* base = data();
    T* at = base + (pos - base);
    std::copy(at + 1, base + size_, at);
    --size_;
    return at;
  }

  /// Drop every element; a heap block is kept for reuse.
  void clear() noexcept { size_ = 0; }

  /// Make room for `n` elements, spilling to the heap when n > N.
  void reserve(size_type n) {
    if (n <= capacity_) return;
    if (n > UINT32_MAX) throw std::length_error("InlineVector capacity overflow");
    T* grown = std::allocator<T>().allocate(n);
    std::copy_n(data(), size_, grown);
    release();
    heap_ = grown;
    capacity_ = static_cast<std::uint32_t>(n);
  }

  friend bool operator==(const InlineVector& a, const InlineVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  bool spilled() const noexcept { return capacity_ > N; }

  /// Free the heap block, if any, and return to inline storage.
  void release() noexcept {
    if (spilled()) std::allocator<T>().deallocate(heap_, capacity_);
    capacity_ = N;
  }

  /// Adopt `other`'s elements (its heap block, or a copy of its inline
  /// elements) and leave it empty and inline. *this must hold no heap block.
  void take(InlineVector& other) noexcept {
    size_ = other.size_;
    capacity_ = other.capacity_;
    if (other.spilled()) {
      heap_ = other.heap_;
    } else {
      std::copy_n(other.inline_, size_, inline_);
    }
    other.size_ = 0;
    other.capacity_ = N;
  }

  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N;
  union {
    T inline_[N];        ///< the elements while capacity_ == N
    T* heap_ = nullptr;  ///< the elements once spilled (capacity_ > N)
  };
};

}  // namespace opass
