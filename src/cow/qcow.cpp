#include "cow/qcow.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace squirrel::cow {

QcowOverlay::QcowOverlay(std::uint64_t logical_size, std::uint32_t cluster_size)
    : logical_size_(logical_size), cluster_size_(cluster_size) {
  if (cluster_size == 0) throw std::invalid_argument("cluster_size");
}

bool QcowOverlay::Present(std::uint64_t offset) const {
  return clusters_.contains(offset / cluster_size_);
}

void QcowOverlay::ReadWindow(std::uint64_t offset,
                             [[maybe_unused]] std::uint64_t length,
                             std::uint64_t skip, util::MutableByteSpan out) {
  assert(skip + out.size() <= length && offset + length <= logical_size_);
  offset += skip;
  std::uint64_t pos = 0;
  while (pos < out.size()) {
    const std::uint64_t abs = offset + pos;
    const std::uint64_t index = abs / cluster_size_;
    const std::uint64_t within = abs % cluster_size_;
    const std::uint64_t take =
        std::min<std::uint64_t>(cluster_size_ - within, out.size() - pos);
    const auto it = clusters_.find(index);
    if (it == clusters_.end()) {
      throw std::logic_error("reading unallocated cluster");
    }
    std::memcpy(out.data() + pos, it->second.get() + within, take);
    pos += take;
  }
}

void QcowOverlay::WriteAt(std::uint64_t offset, util::ByteSpan data) {
  assert(offset + data.size() <= logical_size_);
  std::uint64_t pos = 0;
  while (pos < data.size()) {
    const std::uint64_t abs = offset + pos;
    const std::uint64_t index = abs / cluster_size_;
    const std::uint64_t within = abs % cluster_size_;
    const std::uint64_t take =
        std::min<std::uint64_t>(cluster_size_ - within, data.size() - pos);
    auto it = clusters_.find(index);
    if (it == clusters_.end()) {
      // The chain is responsible for copy-on-write fills; a direct write
      // allocates a cluster whose unwritten bytes are zero (tail clusters
      // stay full-sized for simplicity; the logical size bounds reads).
      it = clusters_.emplace(index, NewCluster(within, within + take)).first;
    }
    std::memcpy(it->second.get() + within, data.data() + pos, take);
    pos += take;
  }
}

void QcowOverlay::InstallCluster(
    std::uint64_t index, std::uint64_t length,
    const std::function<void(util::MutableByteSpan)>& fill) {
  assert(length <= cluster_size_);
  std::unique_ptr<util::Byte[]> cluster = NewCluster(0, length);
  fill(util::MutableByteSpan(cluster.get(), length));
  clusters_[index] = std::move(cluster);
}

std::unique_ptr<util::Byte[]> QcowOverlay::NewCluster(std::uint64_t from,
                                                      std::uint64_t to) const {
  auto cluster = std::make_unique_for_overwrite<util::Byte[]>(cluster_size_);
  std::memset(cluster.get(), 0, from);
  std::memset(cluster.get() + to, 0, cluster_size_ - to);
  return cluster;
}

}  // namespace squirrel::cow
