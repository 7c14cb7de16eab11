#include "cow/chain.h"

#include <gtest/gtest.h>

#include "buffer_source.h"
#include "cow/qcow.h"
#include "util/rng.h"
#include "util/source.h"

namespace squirrel::cow {
namespace {

using util::Bytes;

using test::BufferSource;

/// Each request a layer served: (offset, length).
using RequestLog = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// Minimal always-present device over a DataSource (no cost model). A range
/// inside [hole_begin, hole_end) is unallocated backing (QCOW2's allocation
/// map), which the chain reads as zeros without asking the device.
class PlainDevice final : public Device {
 public:
  explicit PlainDevice(const util::DataSource* content,
                       std::uint64_t hole_begin = 0, std::uint64_t hole_end = 0)
      : content_(content), hole_begin_(hole_begin), hole_end_(hole_end) {}
  std::uint64_t size() const override { return content_->size(); }
  bool Present(std::uint64_t) const override { return true; }
  bool Allocated(std::uint64_t offset, std::uint64_t length) const override {
    return offset < hole_begin_ || offset + length > hole_end_;
  }
  void ReadWindow(std::uint64_t offset, std::uint64_t length,
                  std::uint64_t skip, util::MutableByteSpan out) override {
    requests.emplace_back(offset, length);
    content_->Read(offset + skip, out);
  }

  RequestLog requests;

 private:
  const util::DataSource* content_;
  std::uint64_t hole_begin_;
  std::uint64_t hole_end_;
};

/// In-memory writable cache layer with cluster presence.
class MemCache final : public WritableDevice {
 public:
  MemCache(std::uint64_t size, std::uint32_t cluster)
      : overlay_(size, cluster) {}
  std::uint64_t size() const override { return overlay_.size(); }
  bool Present(std::uint64_t offset) const override {
    return overlay_.Present(offset);
  }
  void ReadWindow(std::uint64_t offset, std::uint64_t length,
                  std::uint64_t skip, util::MutableByteSpan out) override {
    requests.emplace_back(offset, length);
    overlay_.ReadWindow(offset, length, skip, out);
  }
  void WriteAt(std::uint64_t offset, util::ByteSpan data) override {
    overlay_.WriteAt(offset, data);
  }
  QcowOverlay& overlay() { return overlay_; }

  RequestLog requests;

 private:
  QcowOverlay overlay_;
};

/// Serves each read by reading the whole request from `inner` into a
/// buffer of its own and copying the window out: the reference a windowed
/// chain must match.
class WholeRequestLayer final : public WritableDevice {
 public:
  WholeRequestLayer(Device* inner, WritableDevice* writable)
      : inner_(inner), writable_(writable) {}
  std::uint64_t size() const override { return inner_->size(); }
  bool Present(std::uint64_t offset) const override {
    return inner_->Present(offset);
  }
  bool Allocated(std::uint64_t offset, std::uint64_t length) const override {
    return inner_->Allocated(offset, length);
  }
  void ReadWindow(std::uint64_t offset, std::uint64_t length,
                  std::uint64_t skip, util::MutableByteSpan out) override {
    util::Bytes whole(length);
    inner_->ReadAt(offset, whole);
    std::copy_n(whole.begin() + static_cast<std::ptrdiff_t>(skip), out.size(),
                out.begin());
  }
  void WriteAt(std::uint64_t offset, util::ByteSpan data) override {
    writable_->WriteAt(offset, data);
  }

 private:
  Device* inner_;
  WritableDevice* writable_;
};

constexpr std::uint32_t kCluster = 16 * 1024;

Bytes RandomBytes(std::size_t size, std::uint64_t seed) {
  Bytes data(size);
  util::Rng(seed).Fill(data);
  return data;
}

TEST(QcowOverlay, WriteReadRoundTrip) {
  QcowOverlay overlay(1 << 20, kCluster);
  const Bytes data = RandomBytes(40000, 1);
  overlay.WriteAt(10000, data);
  Bytes out(data.size());
  overlay.ReadAt(10000, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(overlay.allocated_clusters(),
            (10000 + 40000 - 1) / kCluster - 10000 / kCluster + 1);
}

TEST(QcowOverlay, UnwrittenPartsOfClusterReadZero) {
  // A new cluster is not zero-filled where its first write lands; every
  // other byte must still read zero, also when the cluster reuses memory
  // an earlier overlay left dirty.
  {
    QcowOverlay dirty(1 << 20, kCluster);
    for (std::uint64_t c = 0; c < 8; ++c) {
      dirty.WriteAt(c * kCluster, Bytes(kCluster, 0xff));
    }
  }
  QcowOverlay overlay(1 << 20, kCluster);
  const Bytes one{0x42};
  overlay.WriteAt(5, one);
  Bytes out(kCluster);
  overlay.ReadAt(0, out);
  Bytes want(kCluster, 0);
  want[5] = 0x42;
  EXPECT_EQ(out, want);
}

TEST(QcowOverlay, ReadingUnallocatedClusterThrows) {
  QcowOverlay overlay(1 << 20, kCluster);
  Bytes out(16);
  EXPECT_THROW(overlay.ReadAt(0, out), std::logic_error);
}

TEST(Chain, ReadThroughEqualsBase) {
  const Bytes base_content = RandomBytes(300000, 2);
  BufferSource source(base_content);
  PlainDevice base(&source);
  QcowOverlay cow(base_content.size(), kCluster);
  Chain chain(&cow, nullptr, &base, false);

  const Bytes out = chain.Read(12345, 100000);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), base_content.begin() + 12345));
  EXPECT_EQ(chain.base_bytes_read(), chain.base_bytes_read());
  EXPECT_GT(chain.base_bytes_read(), 100000u);  // cluster amplification
}

TEST(Chain, WritesIsolatedFromBase) {
  const Bytes base_content = RandomBytes(100000, 3);
  BufferSource source(base_content);
  PlainDevice base(&source);
  QcowOverlay cow(base_content.size(), kCluster);
  Chain chain(&cow, nullptr, &base, false);

  const Bytes patch = RandomBytes(5000, 4);
  chain.Write(20000, patch);
  // Chain sees the write...
  EXPECT_EQ(chain.Read(20000, patch.size()), patch);
  // ...the base does not, and bytes around the write are preserved (CoW
  // filled the cluster from below before overwriting).
  const Bytes around = chain.Read(19000, 1000);
  EXPECT_TRUE(std::equal(around.begin(), around.end(),
                         base_content.begin() + 19000));
}

TEST(Chain, ColdCachePopulatedCopyOnRead) {
  const Bytes base_content = RandomBytes(400000, 5);
  BufferSource source(base_content);
  PlainDevice base(&source);
  MemCache cache(base_content.size(), kCluster);
  QcowOverlay cow(base_content.size(), kCluster);
  Chain chain(&cow, &cache, &base, /*copy_on_read=*/true);

  EXPECT_EQ(cache.overlay().allocated_clusters(), 0u);
  chain.Read(0, 100000);
  const std::uint64_t populated = cache.overlay().allocated_clusters();
  EXPECT_GE(populated, 100000 / kCluster);

  // Second read of the same range: served by the cache, not the base.
  const std::uint64_t base_before = chain.base_bytes_read();
  const Bytes again = chain.Read(0, 100000);
  EXPECT_EQ(chain.base_bytes_read(), base_before);
  EXPECT_TRUE(std::equal(again.begin(), again.end(), base_content.begin()));
  EXPECT_GT(chain.cache_bytes_read(), 0u);
}

TEST(Chain, WarmCacheServesWithoutBaseReads) {
  const Bytes base_content = RandomBytes(200000, 6);
  BufferSource source(base_content);
  PlainDevice base(&source);
  MemCache cache(base_content.size(), kCluster);
  // Pre-warm the full cache.
  for (std::uint64_t off = 0; off < base_content.size(); off += kCluster) {
    const std::uint64_t len =
        std::min<std::uint64_t>(kCluster, base_content.size() - off);
    cache.WriteAt(off, util::ByteSpan(base_content.data() + off, len));
  }
  QcowOverlay cow(base_content.size(), kCluster);
  Chain chain(&cow, &cache, &base, false);

  const Bytes out = chain.Read(1000, 150000);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), base_content.begin() + 1000));
  EXPECT_EQ(chain.base_bytes_read(), 0u);
}

TEST(Chain, ObserverSeesClusterShapedLowerReads) {
  const Bytes base_content = RandomBytes(100000, 7);
  BufferSource source(base_content);
  PlainDevice base(&source);
  QcowOverlay cow(base_content.size(), kCluster);
  Chain chain(&cow, nullptr, &base, false);

  std::vector<ReadEvent> events;
  chain.set_observer([&](const ReadEvent& e) { events.push_back(e); });
  chain.Read(100, 200);  // tiny guest read
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].source, ReadSource::kBase);
  EXPECT_EQ(events[0].offset, 0u);              // cluster aligned
  EXPECT_EQ(events[0].length, kCluster);        // full cluster fetched
}

TEST(Chain, OverlayHitsReportedToObserver) {
  const Bytes base_content = RandomBytes(100000, 8);
  BufferSource source(base_content);
  PlainDevice base(&source);
  QcowOverlay cow(base_content.size(), kCluster);
  Chain chain(&cow, nullptr, &base, false);
  chain.Write(0, RandomBytes(kCluster, 9));

  std::vector<ReadEvent> events;
  chain.set_observer([&](const ReadEvent& e) { events.push_back(e); });
  chain.Read(0, 100);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].source, ReadSource::kCowOverlay);
}

TEST(Chain, TailClusterHandled) {
  // Image size not a multiple of the cluster size.
  const Bytes base_content = RandomBytes(kCluster * 3 + 1000, 10);
  BufferSource source(base_content);
  PlainDevice base(&source);
  QcowOverlay cow(base_content.size(), kCluster);
  Chain chain(&cow, nullptr, &base, false);
  const Bytes out = chain.Read(kCluster * 3, 1000);
  EXPECT_TRUE(std::equal(out.begin(), out.end(),
                         base_content.begin() + kCluster * 3));
  EXPECT_THROW(chain.Read(kCluster * 3, 1001), std::out_of_range);
}

TEST(Chain, ReadIntoMatchesRead) {
  // The chain hands each lower layer the whole cluster as the request and
  // the guest's part of it as the window. Against a reference chain whose
  // layers read every request whole and copy the window out, a windowed
  // read into a buffer pre-filled with a non-zero pattern must give the
  // same bytes, the same lower-layer events and byte counters, and the
  // same requests to each layer: whole, partial and overlay-served reads,
  // partial reads from the cache layer and from the base, an unallocated
  // base cluster and the short tail cluster, with and without copy-on-read.
  Bytes base_content = RandomBytes(kCluster * 7 + 1000, 21);
  std::fill_n(base_content.begin() + 5 * kCluster, kCluster, util::Byte{0});
  BufferSource source(base_content);
  const Bytes first_write = RandomBytes(kCluster - 100, 22);
  const Bytes second_write = RandomBytes(50, 23);
  Bytes want = base_content;
  std::copy(first_write.begin(), first_write.end(),
            want.begin() + kCluster + 100);
  std::copy(second_write.begin(), second_write.end(),
            want.begin() + 4 * kCluster + 5);

  for (const bool copy_on_read : {true, false}) {
    SCOPED_TRACE(copy_on_read ? "copy-on-read" : "no copy-on-read");
    // Cluster 5 is unallocated backing; the caches start with cluster 2.
    PlainDevice read_base(&source, 5 * kCluster, 6 * kCluster);
    PlainDevice into_base(&source, 5 * kCluster, 6 * kCluster);
    MemCache read_cache(base_content.size(), kCluster);
    MemCache into_cache(base_content.size(), kCluster);
    for (MemCache* cache : {&read_cache, &into_cache}) {
      cache->WriteAt(2 * kCluster,
                     util::ByteSpan(base_content.data() + 2 * kCluster,
                                    kCluster));
    }
    WholeRequestLayer whole_base(&read_base, nullptr);
    WholeRequestLayer whole_cache(&read_cache, &read_cache);
    QcowOverlay read_cow(base_content.size(), kCluster);
    QcowOverlay into_cow(base_content.size(), kCluster);
    Chain read_chain(&read_cow, &whole_cache, &whole_base, copy_on_read);
    Chain into_chain(&into_cow, &into_cache, &into_base, copy_on_read);
    std::vector<ReadEvent> read_events;
    std::vector<ReadEvent> into_events;
    read_chain.set_observer(
        [&](const ReadEvent& e) { read_events.push_back(e); });
    into_chain.set_observer(
        [&](const ReadEvent& e) { into_events.push_back(e); });
    // The overlay serves clusters 1 (written from byte 100 on) and 4 (50
    // bytes written, the rest copied up from below).
    for (Chain* chain : {&read_chain, &into_chain}) {
      chain->Write(kCluster + 100, first_write);
      chain->Write(4 * kCluster + 5, second_write);
    }

    const std::pair<std::uint64_t, std::uint64_t> ranges[] = {
        {0, kCluster},                     // one whole cluster
        {2 * kCluster + 5, 100},           // partial, from the cache
        {2 * kCluster, 2 * kCluster},      // two whole clusters
        {7 * kCluster, 1000},              // the whole short tail cluster
        {7 * kCluster + 10, 500},          // partial tail cluster
        {100, 300},                        // inside one cluster
        {kCluster - 10, kCluster + 20},    // crosses into the overlay
        {4 * kCluster, kCluster},          // a whole overlay cluster
        {5 * kCluster + 9, 40},            // partial, unallocated base
        {3 * kCluster + 7, 3 * kCluster},  // partial, overlay, partial
        {6 * kCluster + 1, 700},           // partial, from the base
        {0, base_content.size()},          // everything
        {6 * kCluster + 3, 90},            // partial again
    };
    for (const auto& [offset, length] : ranges) {
      SCOPED_TRACE("offset " + std::to_string(offset) + " length " +
                   std::to_string(length));
      Bytes got(length, 0xa5);
      into_chain.ReadInto(offset, got);
      EXPECT_EQ(got, read_chain.Read(offset, length));
      EXPECT_TRUE(std::equal(
          got.begin(), got.end(),
          want.begin() + static_cast<std::ptrdiff_t>(offset)));
    }
    ASSERT_EQ(into_events.size(), read_events.size());
    for (std::size_t i = 0; i < read_events.size(); ++i) {
      EXPECT_EQ(into_events[i].source, read_events[i].source) << i;
      EXPECT_EQ(into_events[i].offset, read_events[i].offset) << i;
      EXPECT_EQ(into_events[i].length, read_events[i].length) << i;
      EXPECT_EQ(into_events[i].cor_fill, read_events[i].cor_fill) << i;
    }
    EXPECT_EQ(into_chain.base_bytes_read(), read_chain.base_bytes_read());
    EXPECT_EQ(into_chain.cache_bytes_read(), read_chain.cache_bytes_read());
    EXPECT_EQ(into_base.requests, read_base.requests);
    EXPECT_EQ(into_cache.requests, read_cache.requests);
    // Every lower-layer request is one whole cluster, the tail one short.
    for (const RequestLog* log : {&into_base.requests, &into_cache.requests}) {
      for (const auto& [offset, length] : *log) {
        EXPECT_EQ(offset % kCluster, 0u) << offset;
        EXPECT_EQ(length, std::min<std::uint64_t>(
                              kCluster, base_content.size() - offset))
            << offset;
      }
    }
    EXPECT_EQ(into_cache.overlay().allocated_clusters(),
              read_cache.overlay().allocated_clusters());
    Bytes past_end(1001);
    EXPECT_THROW(into_chain.ReadInto(7 * kCluster, past_end),
                 std::out_of_range);
  }
}

TEST(Chain, FailedCopyOnWriteFetchLeavesOverlayUnchanged) {
  // The copy-on-write fetch fills the overlay's new cluster in place; a
  // fetch that throws must not leave that cluster installed half-filled.
  class FailingDevice final : public Device {
   public:
    std::uint64_t size() const override { return 4 * kCluster; }
    bool Present(std::uint64_t) const override { return true; }
    void ReadWindow(std::uint64_t, std::uint64_t, std::uint64_t,
                    util::MutableByteSpan) override {
      throw std::runtime_error("backing read failed");
    }
  };
  FailingDevice base;
  QcowOverlay cow(base.size(), kCluster);
  Chain chain(&cow, nullptr, &base, false);
  EXPECT_THROW(chain.Write(kCluster + 10, RandomBytes(20, 24)),
               std::runtime_error);
  EXPECT_FALSE(cow.ClusterPresent(1));
  EXPECT_EQ(cow.allocated_clusters(), 0u);
}

TEST(Chain, RequiresOverlayAndBase) {
  QcowOverlay cow(1000, kCluster);
  BufferSource source(Bytes(1000, 0));
  PlainDevice base(&source);
  EXPECT_THROW(Chain(nullptr, nullptr, &base, false), std::invalid_argument);
  EXPECT_THROW(Chain(&cow, nullptr, nullptr, false), std::invalid_argument);
}

}  // namespace
}  // namespace squirrel::cow
