#include "cow/chain.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace squirrel::cow {

Chain::Chain(QcowOverlay* cow, WritableDevice* cache, Device* base,
             bool copy_on_read)
    : cow_(cow), cache_(cache), base_(base), copy_on_read_(copy_on_read) {
  if (cow_ == nullptr || base_ == nullptr) {
    throw std::invalid_argument("chain requires a CoW overlay and a base");
  }
  if (cache_ != nullptr && copy_on_read_) {
    cluster_buffer_ =
        std::make_unique_for_overwrite<util::Byte[]>(cow_->cluster_size());
  }
}

ReadSource Chain::FetchClusterFromBelow(std::uint64_t cluster_index,
                                        std::uint64_t skip,
                                        util::MutableByteSpan out) {
  const std::uint64_t cluster_start =
      cluster_index * cow_->cluster_size();
  const std::uint64_t cluster_len = std::min<std::uint64_t>(
      cow_->cluster_size(), size() - cluster_start);
  if (cache_ != nullptr && cache_->Present(cluster_start)) {
    cache_->ReadWindow(cluster_start, cluster_len, skip, out);
    cache_bytes_read_ += cluster_len;
    if (observer_) {
      observer_(ReadEvent{ReadSource::kCache, cluster_start,
                          static_cast<std::uint32_t>(cluster_len), false});
    }
    return ReadSource::kCache;
  }

  if (!base_->Allocated(cluster_start, cluster_len)) {
    // Unallocated backing range: zero-fill locally, no I/O (QCOW2 semantics).
    std::memset(out.data(), 0, out.size());
    return ReadSource::kBase;
  }
  const bool filled = cache_ != nullptr && copy_on_read_;
  if (filled && out.size() < cluster_len) {
    // The copy-on-read fill writes the whole cluster into the cache, so a
    // partial window fetches it through the scratch cluster.
    const util::MutableByteSpan cluster(cluster_buffer_.get(), cluster_len);
    base_->ReadAt(cluster_start, cluster);
    cache_->WriteAt(cluster_start, cluster);
    std::memcpy(out.data(), cluster.data() + skip, out.size());
  } else {
    base_->ReadWindow(cluster_start, cluster_len, skip, out);
    if (filled) cache_->WriteAt(cluster_start, out);
  }
  base_bytes_read_ += cluster_len;
  if (observer_) {
    observer_(ReadEvent{ReadSource::kBase, cluster_start,
                        static_cast<std::uint32_t>(cluster_len), filled});
  }
  return ReadSource::kBase;
}

void Chain::ReadInto(std::uint64_t offset, util::MutableByteSpan out) {
  if (offset + out.size() > size()) {
    throw std::out_of_range("chain read past end");
  }
  const std::uint32_t cluster_size = cow_->cluster_size();

  std::uint64_t pos = 0;
  while (pos < out.size()) {
    const std::uint64_t abs = offset + pos;
    const std::uint64_t index = abs / cluster_size;
    const std::uint64_t within = abs % cluster_size;
    const std::uint64_t take =
        std::min<std::uint64_t>(cluster_size - within, out.size() - pos);
    const util::MutableByteSpan dst = out.subspan(pos, take);

    if (cow_->ClusterPresent(index)) {
      cow_->ReadAt(abs, dst);
      if (observer_) {
        observer_(ReadEvent{ReadSource::kCowOverlay, abs,
                            static_cast<std::uint32_t>(take), false});
      }
    } else {
      // Lower layers serve whole clusters (QCOW2 request shaping); only the
      // guest's part of the cluster lands in `out`.
      FetchClusterFromBelow(index, within, dst);
    }
    pos += take;
  }
}

util::Bytes Chain::Read(std::uint64_t offset, std::uint64_t length) {
  // Checked before sizing the buffer, as ReadInto checks it again.
  if (offset + length > size()) throw std::out_of_range("chain read past end");
  util::Bytes out(length);
  ReadInto(offset, out);
  return out;
}

void Chain::Write(std::uint64_t offset, util::ByteSpan data) {
  if (offset + data.size() > size()) {
    throw std::out_of_range("chain write past end");
  }
  const std::uint32_t cluster_size = cow_->cluster_size();
  std::uint64_t pos = 0;
  while (pos < data.size()) {
    const std::uint64_t abs = offset + pos;
    const std::uint64_t index = abs / cluster_size;
    const std::uint64_t within = abs % cluster_size;
    const std::uint64_t take = std::min<std::uint64_t>(
        cluster_size - within, data.size() - pos);

    if (!cow_->ClusterPresent(index)) {
      // Copy-on-write: bring the full cluster up, into the overlay's new
      // cluster, before overwriting part of it.
      const std::uint64_t cluster_len = std::min<std::uint64_t>(
          cluster_size, size() - index * cluster_size);
      cow_->InstallCluster(index, cluster_len,
                           [&](util::MutableByteSpan cluster) {
                             FetchClusterFromBelow(index, 0, cluster);
                           });
    }
    cow_->WriteAt(abs, data.subspan(pos, take));
    pos += take;
  }
}

}  // namespace squirrel::cow
