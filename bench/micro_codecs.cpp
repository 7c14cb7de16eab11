// Microbenchmarks (google-benchmark): codec throughput on corpus-realistic
// content. Establishes the compress/decompress cost ordering Figure 3's
// discussion relies on (gzip9 > gzip6 >> lz4/lzjb compress cost;
// decompression cheap everywhere).
#include <benchmark/benchmark.h>

#include <algorithm>

#include "compress/codec.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/sha256.h"
#include "vmi/corpus.h"

using namespace squirrel;

namespace {

util::Bytes CorpusBlock(std::size_t size) {
  util::Bytes data(size);
  vmi::GenerateCorpus(/*seed=*/4242, 0, data);
  return data;
}

// A block like those a cold boot decodes: runs of 1-3 corpus grains, each
// from its own corpus offset, with 0.5-1.5 KiB zero gaps between them, as
// a cache image holds a boot working set's ranges and reads zeros between
// them. At 64 KiB it is 15.8 % zero bytes and compresses to 0.637 under
// gzip6; the 154 gzip6 blocks a seed-1 boot_cold catalog boots from average
// 15.4 % and 0.636 (median 0.660), where CorpusBlock is 3.3 % and 0.71.
util::Bytes BootLikeBlock(std::size_t size) {
  util::Bytes data(size, 0);
  util::Rng rng(/*seed=*/138);
  for (std::size_t pos = rng.Between(1, 3) * 512; pos < size;
       pos += rng.Between(1, 3) * 512) {
    const std::size_t take = std::min<std::size_t>(
        size - pos, vmi::kCorpusGrain * rng.Between(1, 3));
    vmi::GenerateCorpus(4242, rng.Below(1u << 16) * vmi::kCorpusGrain,
                        util::MutableByteSpan(data.data() + pos, take));
    pos += take;
  }
  return data;
}

void BM_Compress(benchmark::State& state, const char* codec_name) {
  const compress::Codec* codec = compress::FindCodec(codec_name);
  const util::Bytes block = CorpusBlock(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->Compress(block));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.size()));
}

void BM_Decompress(benchmark::State& state, const char* codec_name,
                   util::Bytes (*make_block)(std::size_t) = CorpusBlock) {
  const compress::Codec* codec = compress::FindCodec(codec_name);
  const util::Bytes block = make_block(static_cast<std::size_t>(state.range(0)));
  const util::Bytes compressed = codec->Compress(block);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->Decompress(compressed, block.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.size()));
}

void BM_Sha256(benchmark::State& state) {
  const util::Bytes block = CorpusBlock(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Sha256(block));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.size()));
}

// The portable compression function on the same block, so hosts with the
// SHA extensions print both rates.
void BM_Sha256Portable(benchmark::State& state) {
  const util::Bytes block = CorpusBlock(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    util::Sha256Context ctx(util::sha256_internal::CompressPortable);
    ctx.Update(block);
    benchmark::DoNotOptimize(ctx.Finish());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.size()));
}

void BM_FastHash128(benchmark::State& state) {
  const util::Bytes block = CorpusBlock(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::FastHash128(block));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.size()));
}

void BM_CorpusGeneration(benchmark::State& state) {
  util::Bytes block(static_cast<std::size_t>(state.range(0)));
  std::uint64_t offset = 0;
  for (auto _ : state) {
    vmi::GenerateCorpus(7, offset, block);
    offset += block.size();
    benchmark::DoNotOptimize(block.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.size()));
}

}  // namespace

BENCHMARK_CAPTURE(BM_Compress, gzip1, "gzip1")->Arg(64 << 10);
BENCHMARK_CAPTURE(BM_Compress, gzip6, "gzip6")->Arg(64 << 10);
BENCHMARK_CAPTURE(BM_Compress, gzip9, "gzip9")->Arg(64 << 10);
BENCHMARK_CAPTURE(BM_Compress, lz4, "lz4")->Arg(64 << 10);
BENCHMARK_CAPTURE(BM_Compress, lzjb, "lzjb")->Arg(64 << 10);
BENCHMARK_CAPTURE(BM_Decompress, gzip6, "gzip6")->Arg(64 << 10);
BENCHMARK_CAPTURE(BM_Decompress, gzip6_bootlike, "gzip6", BootLikeBlock)
    ->Arg(64 << 10);
BENCHMARK_CAPTURE(BM_Decompress, lz4, "lz4")->Arg(64 << 10);
BENCHMARK_CAPTURE(BM_Decompress, lzjb, "lzjb")->Arg(64 << 10);
BENCHMARK(BM_Sha256)->Arg(64 << 10);
BENCHMARK(BM_Sha256Portable)->Arg(64 << 10);
BENCHMARK(BM_FastHash128)->Arg(64 << 10);
BENCHMARK(BM_CorpusGeneration)->Arg(64 << 10);

BENCHMARK_MAIN();
