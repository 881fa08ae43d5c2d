// Name storage shared by the registries that key entries by name (the
// metrics registry, the timeline recorder): an open-addressing hash index
// over names the owning table already stores, and one reused buffer that
// composes per-node and per-process names with std::to_chars. A run's names
// are therefore stored once and composed without a temporary string each.
#pragma once

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace opass::obs {

/// Hash index from a name to the id of the entry that stores it. Slots hold
/// only entry ids; every probe compares against the stored name through the
/// owner's `name_of(id)`, so the index keeps no second copy of any name.
/// Linear probing, kept at most half full.
class NameIndex {
 public:
  static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

  /// Id of the entry named `name`, or kNone.
  template <typename NameOf>
  std::uint32_t find(std::string_view name, const NameOf& name_of) const {
    if (slots_.empty()) return kNone;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(name) & mask;; i = (i + 1) & mask)
      if (slots_[i] == kNone || name_of(slots_[i]) == name) return slots_[i];
  }

  /// Index entry `id`, whose stored name is `name` and which is not indexed
  /// yet.
  template <typename NameOf>
  void insert(std::uint32_t id, std::string_view name, const NameOf& name_of) {
    reserve(size_ + 1, name_of);
    place(id, name);
    ++size_;
  }

  /// Make room for `count` entries in all, so inserting up to there never
  /// rehashes.
  template <typename NameOf>
  void reserve(std::size_t count, const NameOf& name_of) {
    if (2 * count <= slots_.size()) return;
    std::size_t capacity = std::max<std::size_t>(16, slots_.size());
    while (capacity < 2 * count) capacity *= 2;
    std::vector<std::uint32_t> old(capacity, kNone);
    old.swap(slots_);
    for (const std::uint32_t id : old)
      if (id != kNone) place(id, name_of(id));
  }

 private:
  static std::size_t hash(std::string_view name) {
    return std::hash<std::string_view>{}(name);
  }

  void place(std::uint32_t id, std::string_view name) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(name) & mask;
    while (slots_[i] != kNone) i = (i + 1) & mask;
    slots_[i] = id;
  }

  std::vector<std::uint32_t> slots_;  ///< entry ids; size a power of two
  std::size_t size_ = 0;
};

/// One reused buffer holding a fixed prefix; each call rewrites what follows
/// it. `name(".node.", n, ".bytes_served")` returns "<prefix>.node.<n>.bytes_served",
/// valid until the next call.
class NameBuffer {
 public:
  explicit NameBuffer(std::string_view prefix) : buf_(prefix), base_(prefix.size()) {
    buf_.reserve(base_ + 48);  // an id and the longest tail, so calls never reallocate
  }

  template <typename... Parts>
  const std::string& operator()(const Parts&... parts) {
    buf_.resize(base_);
    (append(parts), ...);
    return buf_;
  }

 private:
  void append(std::string_view s) { buf_.append(s); }
  template <std::integral T>
  void append(T v) {
    char digits[std::numeric_limits<T>::digits10 + 3];
    buf_.append(digits, std::to_chars(digits, digits + sizeof digits, v).ptr);
  }

  std::string buf_;
  std::size_t base_;
};

}  // namespace opass::obs
