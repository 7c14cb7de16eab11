#include "compress/huffman.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>

namespace squirrel::compress {
namespace {

struct Node {
  std::uint64_t freq;
  int left = -1;   // index into node pool, -1 for leaf
  int right = -1;
  std::size_t symbol = 0;  // valid for leaves
};

// Computes the depth of every leaf of the Huffman tree rooted at `root`.
void AssignDepths(const std::vector<Node>& pool, int root, unsigned depth,
                  std::vector<std::uint8_t>& lengths, unsigned& max_depth) {
  const Node& node = pool[root];
  if (node.left < 0) {
    lengths[node.symbol] = static_cast<std::uint8_t>(std::max(1u, depth));
    max_depth = std::max(max_depth, std::max(1u, depth));
    return;
  }
  AssignDepths(pool, node.left, depth + 1, lengths, max_depth);
  AssignDepths(pool, node.right, depth + 1, lengths, max_depth);
}

bool TryBuild(const std::vector<std::uint64_t>& freqs,
              std::vector<std::uint8_t>& lengths, unsigned& max_depth) {
  lengths.assign(freqs.size(), 0);
  max_depth = 0;

  std::vector<Node> pool;
  using Entry = std::pair<std::uint64_t, int>;  // (freq, pool index)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    if (freqs[s] == 0) continue;
    pool.push_back(Node{freqs[s], -1, -1, s});
    heap.emplace(freqs[s], static_cast<int>(pool.size() - 1));
  }
  if (heap.empty()) return true;  // nothing used
  if (heap.size() == 1) {
    lengths[pool[heap.top().second].symbol] = 1;
    max_depth = 1;
    return true;
  }
  while (heap.size() > 1) {
    const auto [fa, ia] = heap.top();
    heap.pop();
    const auto [fb, ib] = heap.top();
    heap.pop();
    pool.push_back(Node{fa + fb, ia, ib, 0});
    heap.emplace(fa + fb, static_cast<int>(pool.size() - 1));
  }
  AssignDepths(pool, heap.top().second, 0, lengths, max_depth);
  return max_depth <= kMaxCodeLength;
}

// The low `count` bits of `code` in reverse order.
std::uint32_t ReverseBits(std::uint32_t code, unsigned count) {
  std::uint32_t reversed = 0;
  for (unsigned i = 0; i < count; ++i) {
    reversed = (reversed << 1) | ((code >> i) & 1u);
  }
  return reversed;
}

}  // namespace

std::vector<std::uint8_t> BuildCodeLengths(const std::vector<std::uint64_t>& freqs) {
  std::vector<std::uint64_t> damped = freqs;
  std::vector<std::uint8_t> lengths;
  unsigned max_depth = 0;
  // Damp frequencies until the optimal tree fits the depth limit. Each pass
  // halves the dynamic range, so this terminates quickly.
  while (!TryBuild(damped, lengths, max_depth)) {
    for (auto& f : damped) {
      if (f > 0) f = (f + 1) / 2;
    }
  }
  return lengths;
}

HuffmanEncoder::HuffmanEncoder(const std::vector<std::uint8_t>& lengths)
    : lengths_(lengths), codes_(lengths.size(), 0) {
  // Canonical assignment: symbols sorted by (length, index).
  std::array<std::uint32_t, kMaxCodeLength + 2> count{};
  for (auto len : lengths_) {
    if (len > 0) ++count[len];
  }
  std::array<std::uint32_t, kMaxCodeLength + 2> next_code{};
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= kMaxCodeLength; ++len) {
    code = (code + count[len - 1]) << 1;
    next_code[len] = code;
  }
  for (std::size_t s = 0; s < lengths_.size(); ++s) {
    if (lengths_[s] > 0) {
      codes_[s] = ReverseBits(next_code[lengths_[s]]++, lengths_[s]);
    }
  }
}

HuffmanDecoder::HuffmanDecoder(const std::vector<std::uint8_t>& lengths) {
  if (lengths.size() > (std::size_t{1} << (16 - kSymbolShift))) {
    throw std::invalid_argument("Huffman alphabet too large");
  }
  for (auto len : lengths) {
    if (len > kMaxCodeLength) throw std::runtime_error("invalid code length");
    if (len > 0) ++count_[len];
  }
  std::uint32_t code = 0;
  std::uint32_t offset = 0;
  for (unsigned len = 1; len <= kMaxCodeLength; ++len) {
    code = (code + count_[len - 1]) << 1;
    first_code_[len] = code;
    symbol_offset_[len] = offset;
    offset += count_[len];
  }
  sorted_symbols_.resize(offset);
  std::array<std::uint32_t, kMaxCodeLength + 2> fill = symbol_offset_;
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] > 0) sorted_symbols_[fill[lengths[s]]++] = static_cast<std::uint32_t>(s);
  }

  // Root table, shortest length first. Canonical assignment is prefix-free
  // even for an over-subscribed vector: cutting a code back to any shorter
  // length lands past that length's range (first_code_ above), so no slot is
  // claimed twice and at most one length's range can hold any prefix. Over-
  // subscription only pushes codes of `len` bits to 2^len and beyond, where
  // no len-bit prefix reaches them: the walk never returns them and the
  // table leaves them out.
  for (unsigned len = 1; len <= kRootBits; ++len) {
    for (std::uint32_t i = 0; i < count_[len]; ++i) {
      const std::uint32_t canonical = first_code_[len] + i;
      if ((canonical >> len) != 0) break;
      const auto entry = static_cast<std::uint16_t>(
          (sorted_symbols_[symbol_offset_[len] + i] << kSymbolShift) | len);
      for (std::uint32_t slot = ReverseBits(canonical, len); slot < root_.size();
           slot += 1u << len) {
        assert(root_[slot] == 0 && "canonical codes are prefix-free");
        root_[slot] = entry;
      }
    }
  }
}

std::size_t HuffmanDecoder::DecodeSlow(BitReader& reader) const {
  // Decode refilled the reader, so fewer than kMaxCodeLength bits are
  // buffered only at the end of the stream, and past it Peek reads zeros.
  // The walk reads those zeros too, but a code that ends past the buffered
  // bits, or no code while bits are missing, means the stream ended inside
  // a code: a bit-serial walk would have run out of input first.
  const std::uint32_t entry = Walk(reader.Peek(kMaxCodeLength));
  const unsigned len = entry & kLengthMask;
  if (len == 0 ? reader.available() < kMaxCodeLength
               : len > reader.available()) {
    throw std::runtime_error("bit stream underflow");
  }
  if (len == 0) throw std::runtime_error("invalid Huffman code");
  reader.Consume(len);
  return entry >> kSymbolShift;
}

namespace {

/// Calls emit(value, bit_count) for each field of the serialized code
/// lengths: 4 bits per length; a zero is followed by a 6-bit run extension
/// so long stretches of unused symbols stay cheap.
template <typename Emit>
void ForEachCodeLengthField(const std::vector<std::uint8_t>& lengths,
                            Emit&& emit) {
  std::size_t i = 0;
  while (i < lengths.size()) {
    if (lengths[i] == 0) {
      std::size_t run = 1;
      while (i + run < lengths.size() && lengths[i + run] == 0 && run < 64) ++run;
      emit(0, 4);
      emit(static_cast<std::uint32_t>(run - 1), 6);
      i += run;
    } else {
      emit(lengths[i], 4);
      ++i;
    }
  }
}

}  // namespace

void WriteCodeLengths(BitWriter& writer, const std::vector<std::uint8_t>& lengths) {
  ForEachCodeLengthField(lengths, [&](std::uint32_t value, unsigned bits) {
    writer.Write(value, bits);
  });
}

std::size_t CodeLengthsBits(const std::vector<std::uint8_t>& lengths) {
  std::size_t total = 0;
  ForEachCodeLengthField(lengths,
                         [&](std::uint32_t, unsigned bits) { total += bits; });
  return total;
}

std::vector<std::uint8_t> ReadCodeLengths(BitReader& reader, std::size_t symbol_count) {
  std::vector<std::uint8_t> lengths(symbol_count, 0);
  std::size_t i = 0;
  while (i < symbol_count) {
    const std::uint32_t value = reader.Read(4);
    if (value == 0) {
      const std::size_t run = reader.Read(6) + 1;
      if (i + run > symbol_count) throw std::runtime_error("code length overrun");
      i += run;
    } else {
      lengths[i++] = static_cast<std::uint8_t>(value);
    }
  }
  return lengths;
}

}  // namespace squirrel::compress
