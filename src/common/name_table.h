// Dense ids for distinct byte strings.
//
// A NameTable hands out ids 0, 1, 2, ... in first-interned order: one per
// distinct spelling of a query's names (lang::FlowGraph and the parser), or
// per distinct pool of the server's probe plan. It is one flat
// open-addressed table with no heap node per name, and keeps views, so the
// bytes they point into must outlive it and stay put.
#ifndef CLOUDTALK_SRC_COMMON_NAME_TABLE_H_
#define CLOUDTALK_SRC_COMMON_NAME_TABLE_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace cloudtalk {

class NameTable {
 public:
  // The id of `name`, interning it when it is new.
  int Intern(std::string_view name) {
    reserve(names_.size() + 1);
    int32_t& id = buckets_[BucketOf(name)];
    if (id < 0) {
      id = static_cast<int32_t>(names_.size());
      names_.push_back(name);
    }
    return id;
  }

  // The id of `name`, or -1.
  int Find(std::string_view name) const {
    return buckets_.empty() ? -1 : buckets_[BucketOf(name)];
  }

  std::string_view name(int id) const { return names_[id]; }
  int size() const { return static_cast<int>(names_.size()); }

  // Room for `n` names without growing.
  void reserve(size_t n) {
    if (2 * n <= buckets_.size()) {
      return;
    }
    size_t size = 16;
    while (size < 2 * n) {
      size *= 2;
    }
    names_.reserve(size / 2);
    buckets_.assign(size, -1);
    for (size_t id = 0; id < names_.size(); ++id) {
      buckets_[BucketOf(names_[id])] = static_cast<int32_t>(id);
    }
  }

 private:
  // The bucket holding `name`'s id, or the empty one it would take.
  size_t BucketOf(std::string_view name) const {
    const size_t mask = buckets_.size() - 1;
    size_t b = std::hash<std::string_view>{}(name) & mask;
    while (buckets_[b] >= 0 && names_[buckets_[b]] != name) {
      b = (b + 1) & mask;
    }
    return b;
  }

  std::vector<std::string_view> names_;  // By id.
  std::vector<int32_t> buckets_;         // Ids, -1 when empty; at most half full.
};

}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_COMMON_NAME_TABLE_H_
