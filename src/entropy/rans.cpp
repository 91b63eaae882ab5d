#include "entropy/rans.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace easz::entropy {
namespace {

constexpr std::uint32_t kRansLowerBound = 1U << 23U;  // v1 renormalisation bound

}  // namespace

FrequencyTable FrequencyTable::from_counts(
    const std::vector<std::uint64_t>& counts, bool laplace_floor) {
  const int n = static_cast<int>(counts.size());
  if (n <= 0 || n > 65536) {
    throw std::invalid_argument("FrequencyTable: bad alphabet size");
  }
  std::vector<std::uint64_t> adjusted(counts);
  if (laplace_floor) {
    for (auto& c : adjusted) c += 1;
  }
  std::uint64_t total = 0;
  for (const auto c : adjusted) total += c;
  if (total == 0) {
    throw std::invalid_argument("FrequencyTable: no symbols observed");
  }

  FrequencyTable table;
  table.freq_.assign(n, 0);
  // Largest-remainder scaling with a floor of 1 for every observed symbol.
  std::uint64_t assigned = 0;
  std::vector<std::pair<double, int>> remainders;
  remainders.reserve(n);
  for (int s = 0; s < n; ++s) {
    if (adjusted[s] == 0) continue;
    const double exact = static_cast<double>(adjusted[s]) *
                         static_cast<double>(kProbScale) /
                         static_cast<double>(total);
    auto q = static_cast<std::uint32_t>(exact);
    if (q == 0) q = 1;
    table.freq_[s] = q;
    assigned += q;
    remainders.emplace_back(exact - static_cast<double>(q), s);
  }
  std::int64_t leftover =
      static_cast<std::int64_t>(kProbScale) - static_cast<std::int64_t>(assigned);
  if (leftover < 0) {
    // The floor-of-1 clamps oversubscribed the budget. Shrink every symbol
    // proportionally to the real budget in ONE pass (the old code re-ran
    // std::max_element per surplus slot, O(n * leftover)); the
    // largest-remainder fixup below settles the residual few slots.
    std::uint64_t shrunk = 0;
    remainders.clear();
    for (int s = 0; s < n; ++s) {
      if (table.freq_[s] == 0) continue;
      const double exact = static_cast<double>(table.freq_[s]) *
                           static_cast<double>(kProbScale) /
                           static_cast<double>(assigned);
      auto q = static_cast<std::uint32_t>(exact);
      if (q == 0) q = 1;
      table.freq_[s] = q;
      shrunk += q;
      remainders.emplace_back(exact - static_cast<double>(q), s);
    }
    leftover = static_cast<std::int64_t>(kProbScale) -
               static_cast<std::int64_t>(shrunk);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::size_t idx = 0;
  while (leftover > 0) {
    // Top up the symbols that lost the most to flooring, cyclically.
    table.freq_[remainders[idx % remainders.size()].second] += 1;
    --leftover;
    ++idx;
  }
  if (leftover < 0) {
    // Proportional shrink can still overshoot by a few slots when many
    // symbols sit at the floor of 1. Take them back from the symbols that
    // kept the most fractional headroom (smallest remainder first), never
    // below 1.
    idx = remainders.size();
    bool progressed = false;
    while (leftover < 0) {
      if (idx == 0) {
        if (!progressed) {
          throw std::runtime_error("FrequencyTable: cannot normalise");
        }
        idx = remainders.size();
        progressed = false;
      }
      --idx;
      auto& f = table.freq_[remainders[idx].second];
      if (f > 1) {
        f -= 1;
        ++leftover;
        progressed = true;
      }
    }
  }

  table.cum_.assign(n + 1, 0);
  for (int s = 0; s < n; ++s) table.cum_[s + 1] = table.cum_[s] + table.freq_[s];
  return table;
}

void FrequencyTable::ensure_lookup() const {
  if (lookup_built()) return;
  const int n = alphabet_size();
  sym_fc_.resize(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    sym_fc_[s] = (freq_[s] << 16U) | cum_[s];
  }
  if (n <= 256) {
    slot_sym8_.assign(kProbScale, 0);
    for (int s = 0; s < n; ++s) {
      for (std::uint32_t k = cum_[s]; k < cum_[s + 1]; ++k) {
        slot_sym8_[k] = static_cast<std::uint8_t>(s);
      }
    }
  } else {
    slot_sym16_.assign(kProbScale, 0);
    for (int s = 0; s < n; ++s) {
      for (std::uint32_t k = cum_[s]; k < cum_[s + 1]; ++k) {
        slot_sym16_[k] = static_cast<std::uint16_t>(s);
      }
    }
  }
}

int FrequencyTable::symbol_from_slot(std::uint32_t slot) const {
  ensure_lookup();
  return slot_sym8_.empty() ? slot_sym16_[slot] : slot_sym8_[slot];
}

std::vector<std::uint8_t> FrequencyTable::serialize() const {
  // Sparse layout: 16-bit alphabet size, presence bitmap, then 16-bit
  // (freq - 1) for present symbols only. kProbBits <= 14 so freq-1 fits,
  // except a degenerate one-symbol table (freq == kProbScale) which still
  // fits in 16 bits as kProbScale - 1.
  std::vector<std::uint8_t> out;
  const auto push16 = [&out](std::uint32_t v) {
    out.push_back(static_cast<std::uint8_t>(v & 0xFFU));
    out.push_back(static_cast<std::uint8_t>((v >> 8U) & 0xFFU));
  };
  push16(static_cast<std::uint32_t>(alphabet_size()));
  for (int s = 0; s < alphabet_size(); s += 8) {
    std::uint8_t byte = 0;
    for (int b = 0; b < 8 && s + b < alphabet_size(); ++b) {
      if (freq_[s + b] > 0) byte |= static_cast<std::uint8_t>(1U << b);
    }
    out.push_back(byte);
  }
  for (int s = 0; s < alphabet_size(); ++s) {
    if (freq_[s] > 0) push16(freq_[s] - 1U);
  }
  return out;
}

FrequencyTable FrequencyTable::deserialize(const std::uint8_t* data,
                                           std::size_t size,
                                           std::size_t* consumed) {
  std::size_t pos = 0;
  const auto read16 = [&]() -> std::uint32_t {
    if (pos + 2 > size) throw std::out_of_range("FrequencyTable: truncated");
    const std::uint32_t v = data[pos] | (static_cast<std::uint32_t>(data[pos + 1]) << 8U);
    pos += 2;
    return v;
  };
  const int n = static_cast<int>(read16());
  if (n <= 0 || n > 65536) {
    throw std::runtime_error("FrequencyTable: bad serialized alphabet");
  }
  std::vector<bool> present(n, false);
  for (int s = 0; s < n; s += 8) {
    if (pos >= size) throw std::out_of_range("FrequencyTable: truncated bitmap");
    const std::uint8_t byte = data[pos++];
    for (int b = 0; b < 8 && s + b < n; ++b) {
      present[s + b] = ((byte >> b) & 1U) != 0U;
    }
  }
  FrequencyTable table;
  table.freq_.assign(n, 0);
  for (int s = 0; s < n; ++s) {
    if (present[s]) table.freq_[s] = read16() + 1U;
  }
  table.cum_.assign(n + 1, 0);
  for (int s = 0; s < n; ++s) table.cum_[s + 1] = table.cum_[s] + table.freq_[s];
  if (table.cum_[n] != kProbScale) {
    throw std::runtime_error("FrequencyTable: corrupt table sum");
  }
  if (consumed != nullptr) *consumed = pos;
  return table;
}

double FrequencyTable::entropy_bits() const {
  double h = 0.0;
  for (const auto f : freq_) {
    if (f == 0) continue;
    const double p = static_cast<double>(f) / kProbScale;
    h -= p * std::log2(p);
  }
  return h;
}

std::vector<std::uint8_t> rans_encode(const std::vector<int>& symbols,
                                      const FrequencyTable& table) {
  // Reserve from the entropy estimate and emit back to front: the stream is
  // naturally produced last-byte-first, so writing downward from the end of
  // the buffer replaces the old push_back-then-std::reverse.
  std::size_t cap = static_cast<std::size_t>(
                        table.entropy_bits() *
                        static_cast<double>(symbols.size()) / 8.0) +
                    symbols.size() / 16 + 64;
  std::vector<std::uint8_t> buf(cap);
  std::size_t pos = cap;
  const auto emit = [&buf, &pos](std::uint8_t byte) {
    if (pos == 0) {
      // Estimate fell short (pathological table/content mismatch): grow at
      // the front, keeping the already-written tail in place.
      std::vector<std::uint8_t> bigger(buf.size() * 2 + 64);
      std::copy(buf.begin(), buf.end(), bigger.end() - buf.size());
      pos = bigger.size() - buf.size();
      buf.swap(bigger);
    }
    buf[--pos] = byte;
  };

  std::uint32_t state = kRansLowerBound;
  // Encode in reverse so the decoder emits in forward order.
  for (auto it = symbols.rbegin(); it != symbols.rend(); ++it) {
    const int s = *it;
    const std::uint32_t f = table.freq(s);
    if (f == 0) throw std::invalid_argument("rans_encode: zero-freq symbol");
    // Renormalise: stream out low bytes until state fits the encode step.
    const std::uint32_t x_max =
        ((kRansLowerBound >> FrequencyTable::kProbBits) << 8U) * f;
    while (state >= x_max) {
      emit(static_cast<std::uint8_t>(state & 0xFFU));
      state >>= 8U;
    }
    state = ((state / f) << FrequencyTable::kProbBits) + (state % f) +
            table.cum_freq(s);
  }
  // Flush final 4-byte state.
  for (int i = 0; i < 4; ++i) {
    emit(static_cast<std::uint8_t>(state & 0xFFU));
    state >>= 8U;
  }
  buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(pos));
  return buf;
}

std::vector<int> rans_decode(const std::uint8_t* data, std::size_t size,
                             std::size_t count, const FrequencyTable& table) {
  if (size < 4) throw std::out_of_range("rans_decode: buffer too small");
  table.ensure_lookup();
  std::size_t pos = 0;
  std::uint32_t state = 0;
  for (int i = 0; i < 4; ++i) {
    state = (state << 8U) | data[pos++];
  }

  std::vector<int> symbols(count);
  const std::uint32_t* fc = table.sym_fc();
  const std::uint8_t* sym8 = table.slot_sym8();
  const std::uint16_t* sym16 = table.slot_sym16();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t slot = state & (FrequencyTable::kProbScale - 1U);
    const int s = sym8 != nullptr ? sym8[slot] : sym16[slot];
    symbols[i] = s;
    const std::uint32_t v = fc[s];
    state = (v >> 16U) * (state >> FrequencyTable::kProbBits) + slot -
            (v & 0xFFFFU);
    while (state < kRansLowerBound) {
      if (pos >= size) throw std::out_of_range("rans_decode: truncated stream");
      state = (state << 8U) | data[pos++];
    }
  }
  return symbols;
}

namespace {

FrequencyTable table_from_symbols(const std::vector<int>& symbols,
                                  int alphabet_size, const char* who) {
  std::vector<std::uint64_t> counts(alphabet_size, 0);
  for (const int s : symbols) {
    if (s < 0 || s >= alphabet_size) {
      throw std::invalid_argument(std::string(who) + ": symbol out of range");
    }
    ++counts[s];
  }
  // No Laplace floor: every symbol the decoder will request was observed
  // here, and flooring a wide alphabet wastes table mass and table bytes.
  return FrequencyTable::from_counts(counts, false);
}

}  // namespace

std::vector<std::uint8_t> rans_encode_with_table(const std::vector<int>& symbols,
                                                 int alphabet_size) {
  const FrequencyTable table =
      table_from_symbols(symbols, alphabet_size, "rans_encode_with_table");
  std::vector<std::uint8_t> out = table.serialize();
  const std::vector<std::uint8_t> payload = rans_encode(symbols, table);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<int> rans_decode_with_table(const std::uint8_t* data,
                                        std::size_t size, std::size_t count) {
  std::size_t consumed = 0;
  const FrequencyTable table = FrequencyTable::deserialize(data, size, &consumed);
  return rans_decode(data + consumed, size - consumed, count, table);
}

std::vector<std::uint8_t> rans_encode_interleaved_with_table(
    const std::vector<int>& symbols, int alphabet_size) {
  const FrequencyTable table = table_from_symbols(
      symbols, alphabet_size, "rans_encode_interleaved_with_table");
  std::vector<std::uint8_t> out = table.serialize();
  const std::vector<std::uint8_t> payload =
      rans_encode_interleaved(symbols, table);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<int> rans_decode_interleaved_with_table(const std::uint8_t* data,
                                                    std::size_t size,
                                                    std::size_t count) {
  std::size_t consumed = 0;
  const FrequencyTable table = FrequencyTable::deserialize(data, size, &consumed);
  return rans_decode_interleaved(data + consumed, size - consumed, count, table);
}

}  // namespace easz::entropy
