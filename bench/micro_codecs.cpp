// Microbenchmarks (google-benchmark): codec throughput on corpus-realistic
// content. Establishes the compress/decompress cost ordering Figure 3's
// discussion relies on (gzip9 > gzip6 >> lz4/lzjb compress cost;
// decompression cheap everywhere).
#include <benchmark/benchmark.h>

#include "compress/codec.h"
#include "util/hash.h"
#include "util/sha256.h"
#include "vmi/corpus.h"

using namespace squirrel;

namespace {

util::Bytes CorpusBlock(std::size_t size) {
  util::Bytes data(size);
  vmi::GenerateCorpus(/*seed=*/4242, 0, data);
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

void BM_Decompress(benchmark::State& state, const char* codec_name) {
  const compress::Codec* codec = compress::FindCodec(codec_name);
  const util::Bytes block = CorpusBlock(static_cast<std::size_t>(state.range(0)));
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
BENCHMARK_CAPTURE(BM_Decompress, lz4, "lz4")->Arg(64 << 10);
BENCHMARK_CAPTURE(BM_Decompress, lzjb, "lzjb")->Arg(64 << 10);
BENCHMARK(BM_Sha256)->Arg(64 << 10);
BENCHMARK(BM_Sha256Portable)->Arg(64 << 10);
BENCHMARK(BM_FastHash128)->Arg(64 << 10);
BENCHMARK(BM_CorpusGeneration)->Arg(64 << 10);

BENCHMARK_MAIN();
