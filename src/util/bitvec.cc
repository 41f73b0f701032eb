#include "util/bitvec.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace pcause
{

namespace
{

constexpr std::size_t bitsPerWord = BitVec::wordBits;

std::size_t
wordCountFor(std::size_t nbits)
{
    return (nbits + bitsPerWord - 1) / bitsPerWord;
}

} // anonymous namespace

BitVec::BitVec(std::size_t nbits_, bool value)
    : nbits(nbits_),
      wordStore(wordCountFor(nbits_), value ? ~0ull : 0ull)
{
    trimTail();
}

void
BitVec::trimTail()
{
    std::size_t rem = nbits % bitsPerWord;
    if (rem != 0 && !wordStore.empty())
        wordStore.back() &= (~0ull >> (bitsPerWord - rem));
}

bool
BitVec::get(std::size_t idx) const
{
    PC_ASSERT(idx < nbits, "BitVec::get out of range");
    return (wordStore[idx / bitsPerWord] >> (idx % bitsPerWord)) & 1ull;
}

void
BitVec::set(std::size_t idx, bool value)
{
    PC_ASSERT(idx < nbits, "BitVec::set out of range");
    std::uint64_t mask = 1ull << (idx % bitsPerWord);
    if (value)
        wordStore[idx / bitsPerWord] |= mask;
    else
        wordStore[idx / bitsPerWord] &= ~mask;
}

void
BitVec::fill(bool value)
{
    for (auto &w : wordStore)
        w = value ? ~0ull : 0ull;
    trimTail();
}

void
BitVec::setWord(std::size_t wi, std::uint64_t w)
{
    PC_ASSERT(wi < wordStore.size(), "BitVec::setWord out of range");
    wordStore[wi] = w;
    if (wi + 1 == wordStore.size())
        trimTail();
}

void
BitVec::applyMasked(std::size_t wi, std::uint64_t mask, bool value)
{
    PC_ASSERT(wi < wordStore.size(), "BitVec::applyMasked out of range");
    // The mask must not reach past size(); enforcing it here (instead
    // of trimming after the fact) keeps this safe to call on disjoint
    // words from several threads at once.
    PC_ASSERT(wi + 1 < wordStore.size() || nbits % bitsPerWord == 0 ||
                  (mask >> (nbits % bitsPerWord)) == 0,
              "BitVec::applyMasked mask past end");
    if (value)
        wordStore[wi] |= mask;
    else
        wordStore[wi] &= ~mask;
}

std::size_t
BitVec::popcount() const
{
    return simd::popcountWords(wordStore.data(), wordStore.size());
}

std::vector<std::size_t>
BitVec::setBits() const
{
    std::vector<std::size_t> out;
    for (std::size_t wi = 0; wi < wordStore.size(); ++wi) {
        std::uint64_t w = wordStore[wi];
        while (w) {
            unsigned bit = std::countr_zero(w);
            out.push_back(wi * bitsPerWord + bit);
            w &= w - 1;
        }
    }
    return out;
}

std::size_t
BitVec::overlapCount(const BitVec &other) const
{
    PC_ASSERT(nbits == other.nbits, "BitVec size mismatch");
    return simd::andCountWords(wordStore.data(),
                               other.wordStore.data(),
                               wordStore.size());
}

std::size_t
BitVec::andNotCount(const BitVec &other) const
{
    PC_ASSERT(nbits == other.nbits, "BitVec size mismatch");
    return simd::andNotCountWords(wordStore.data(),
                                  other.wordStore.data(),
                                  wordStore.size());
}

BitVec &
BitVec::operator&=(const BitVec &other)
{
    PC_ASSERT(nbits == other.nbits, "BitVec size mismatch");
    for (std::size_t i = 0; i < wordStore.size(); ++i)
        wordStore[i] &= other.wordStore[i];
    return *this;
}

BitVec &
BitVec::operator|=(const BitVec &other)
{
    PC_ASSERT(nbits == other.nbits, "BitVec size mismatch");
    for (std::size_t i = 0; i < wordStore.size(); ++i)
        wordStore[i] |= other.wordStore[i];
    return *this;
}

BitVec &
BitVec::operator^=(const BitVec &other)
{
    PC_ASSERT(nbits == other.nbits, "BitVec size mismatch");
    for (std::size_t i = 0; i < wordStore.size(); ++i)
        wordStore[i] ^= other.wordStore[i];
    return *this;
}

bool
BitVec::operator==(const BitVec &other) const
{
    return nbits == other.nbits && wordStore == other.wordStore;
}

bool
BitVec::isSubsetOf(const BitVec &other) const
{
    PC_ASSERT(nbits == other.nbits, "BitVec size mismatch");
    for (std::size_t i = 0; i < wordStore.size(); ++i) {
        if (wordStore[i] & ~other.wordStore[i])
            return false;
    }
    return true;
}

BitVec
BitVec::slice(std::size_t start, std::size_t len) const
{
    PC_ASSERT(start + len <= nbits, "BitVec::slice out of range");
    BitVec out(len);
    const std::size_t fw = start / bitsPerWord;
    const std::size_t off = start % bitsPerWord;
    if (off == 0) {
        for (std::size_t i = 0; i < out.wordStore.size(); ++i)
            out.wordStore[i] = wordStore[fw + i];
    } else {
        // Funnel shift: each output word is stitched from the tail
        // of one source word and the head of the next.
        for (std::size_t i = 0; i < out.wordStore.size(); ++i) {
            std::uint64_t w = wordStore[fw + i] >> off;
            if (fw + i + 1 < wordStore.size())
                w |= wordStore[fw + i + 1] << (bitsPerWord - off);
            out.wordStore[i] = w;
        }
    }
    out.trimTail();
    return out;
}

void
BitVec::blit(std::size_t start, const BitVec &src)
{
    PC_ASSERT(start + src.nbits <= nbits, "BitVec::blit out of range");
    if (src.nbits == 0)
        return;
    const std::size_t fw = start / bitsPerWord;
    const std::size_t off = start % bitsPerWord;
    const std::size_t rem = src.nbits % bitsPerWord;
    const std::size_t src_words = src.wordStore.size();
    for (std::size_t i = 0; i < src_words; ++i) {
        // Valid bits of this source word (the last may be partial).
        const std::uint64_t m = (i + 1 == src_words && rem != 0)
            ? (~0ull >> (bitsPerWord - rem)) : ~0ull;
        const std::uint64_t v = src.wordStore[i] & m;
        wordStore[fw + i] =
            (wordStore[fw + i] & ~(m << off)) | (v << off);
        if (off != 0) {
            // The carry into the next destination word; mh is zero
            // when the source word fits entirely below the boundary.
            const std::uint64_t mh = m >> (bitsPerWord - off);
            if (mh) {
                wordStore[fw + i + 1] =
                    (wordStore[fw + i + 1] & ~mh) |
                    (v >> (bitsPerWord - off));
            }
        }
    }
}

std::size_t
BitVec::hammingDistance(const BitVec &other) const
{
    PC_ASSERT(nbits == other.nbits, "BitVec size mismatch");
    return simd::xorCountWords(wordStore.data(),
                               other.wordStore.data(),
                               wordStore.size());
}

std::string
BitVec::toString() const
{
    std::string out;
    out.reserve(nbits);
    for (std::size_t i = 0; i < nbits; ++i)
        out.push_back(get(i) ? '1' : '0');
    return out;
}

std::uint64_t
BitVec::hash() const
{
    std::uint64_t h = mix64(0x243f6a8885a308d3ull, nbits);
    for (auto w : wordStore)
        h = mix64(h, w);
    return h;
}

} // namespace pcause
