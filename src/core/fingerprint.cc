#include "core/fingerprint.hh"

#include <bit>

#include "util/logging.hh"

namespace pcause
{

Fingerprint::Fingerprint(BitVec first_error_string)
    : pattern(std::move(first_error_string)), numSources(1)
{
}

Fingerprint::Fingerprint(BitVec intersected_pattern,
                         unsigned num_sources)
    : pattern(std::move(intersected_pattern)),
      numSources(num_sources)
{
    PC_ASSERT(num_sources > 0,
              "Fingerprint: adopted pattern needs sources");
}

void
Fingerprint::augment(const BitVec &error_string)
{
    if (numSources == 0) {
        pattern = error_string;
    } else {
        PC_ASSERT(error_string.size() == pattern.size(),
                  "augment: size mismatch");
        pattern &= error_string;
    }
    ++numSources;
}

BitVec
denseBits(const SparseView &v)
{
    BitVec bits(v.universe);
    for (std::size_t k = 0; k < v.count; ++k)
        bits.set(v.positions[k]);
    return bits;
}

SparseFingerprintArena::SparseFingerprintArena(
    PosVec positions, std::vector<std::uint64_t> record_offsets,
    std::uint64_t bits)
    : arena(std::move(positions)), offsets(std::move(record_offsets)),
      universe(bits)
{
    PC_ASSERT(!offsets.empty() && offsets.front() == 0 &&
                  offsets.back() == arena.size(),
              "SparseFingerprintArena: offsets do not span the arena");
}

SparseView
SparseFingerprintArena::view(std::size_t i) const
{
    PC_ASSERT(i < count(), "SparseFingerprintArena index out of range");
    SparseView v;
    v.positions = arena.data() + offsets[i];
    v.count = static_cast<std::size_t>(offsets[i + 1] - offsets[i]);
    v.universe = universe;
    return v;
}

void
writePositions(const BitVec &pattern, std::uint32_t *out)
{
    const auto &words = pattern.words();
    for (std::size_t wi = 0; wi < words.size(); ++wi) {
        std::uint64_t w = words[wi];
        while (w) {
            const auto bit = static_cast<std::uint32_t>(
                std::countr_zero(w));
            *out++ = static_cast<std::uint32_t>(wi * BitVec::wordBits + bit);
            w &= w - 1;
        }
    }
}

void
SparseFingerprintArena::add(const BitVec &pattern)
{
    PC_ASSERT(count() == 0 || pattern.size() == universe,
              "SparseFingerprintArena: a second bit count");
    const std::size_t at = arena.size();
    arena.resize(at + pattern.popcount());
    writePositions(pattern, arena.data() + at);
    offsets.push_back(arena.size());
    universe = pattern.size();
}

void
SparseFingerprintArena::append(const SparseFingerprintArena &more)
{
    if (more.count() == 0)
        return;
    PC_ASSERT(count() == 0 || more.universe == universe,
              "SparseFingerprintArena: a second bit count");
    const std::uint64_t base = arena.size();
    arena.insert(arena.end(), more.arena.begin(), more.arena.end());
    for (std::size_t i = 1; i < more.offsets.size(); ++i)
        offsets.push_back(base + more.offsets[i]);
    universe = more.universe;
}

} // namespace pcause
