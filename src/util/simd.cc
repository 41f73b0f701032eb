#include "util/simd.hh"

#include <atomic>
#include <bit>
#include <cstdlib>

#include "util/logging.hh"

#if defined(__x86_64__) || defined(__i386__)
#define PC_SIMD_X86 1
#include <immintrin.h>
// GCC's _mm512_undefined_*()-based intrinsics (broadcast, extract,
// reduce) trip spurious -W(maybe-)uninitialized reports when inlined
// into target("avx512...") functions; this TU is all kernels, so
// silence them file-wide.
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#else
#define PC_SIMD_X86 0
#endif

// The AVX-512 paths want F (512-bit integer ops) and BW (byte
// shuffles/SAD for popcount); the target names the whole feature set
// levelAvailable() checks for the level, DQ and VL included.
#define PC_AVX512_TARGET "avx512f,avx512bw,avx512dq,avx512vl"

namespace pcause
{
namespace simd
{

namespace
{

enum CountOp
{
    opPop,
    opAnd,
    opAndNot,
    opXor,
};

inline std::uint64_t
combineScalar(CountOp op, std::uint64_t a, std::uint64_t b)
{
    switch (op) {
      case opPop:
        return a;
      case opAnd:
        return a & b;
      case opAndNot:
        return a & ~b;
      default:
        return a ^ b;
    }
}

// ---------------------------------------------------------------
// Scalar reference paths. These are the semantics; the vector paths
// below must reproduce them bit for bit.
// ---------------------------------------------------------------

template <CountOp op>
std::size_t
countWordsScalar(const std::uint64_t *a, const std::uint64_t *b,
                 std::size_t n)
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
        total += std::popcount(combineScalar(op, a[i], b ? b[i] : 0));
    return total;
}

std::size_t
buildChargedWordsScalar(const std::uint64_t *content, std::size_t n,
                        std::uint64_t defw, const float *word_min_eff,
                        double stress, std::uint64_t *charged_out)
{
    std::size_t nonzero = 0;
    for (std::size_t i = 0; i < n; ++i) {
        // The float bound is promoted to double exactly as the
        // per-word scalar engine compares it.
        const std::uint64_t charged =
            stress < static_cast<double>(word_min_eff[i])
                ? 0
                : content[i] ^ defw;
        charged_out[i] = charged;
        nonzero += charged != 0;
    }
    return nonzero;
}

inline bool
sparseBitSet(const std::uint64_t *words, std::uint32_t pos)
{
    return (words[pos >> 6] >> (pos & 63)) & 1ull;
}

std::size_t
sparseMissCountBoundedScalar(const std::uint64_t *words,
                             const std::uint32_t *pos, std::size_t n,
                             std::size_t limit)
{
    std::size_t misses = 0;
    for (std::size_t i = 0; i < n; i += boundedBlock) {
        const std::size_t stop = std::min(n, i + boundedBlock);
        for (std::size_t j = i; j < stop; ++j)
            misses += !sparseBitSet(words, pos[j]);
        if (misses > limit)
            return misses;
    }
    return misses;
}

SparseInterScan
sparseInterCountBoundedScalar(const std::uint64_t *words,
                              const std::uint32_t *pos, std::size_t n,
                              std::size_t es_weight, std::size_t limit)
{
    std::size_t inter = 0;
    for (std::size_t i = 0; i < n; i += boundedBlock) {
        const std::size_t stop = std::min(n, i + boundedBlock);
        for (std::size_t j = i; j < stop; ++j)
            inter += sparseBitSet(words, pos[j]);
        // Certified lower bound on the final miss count; compare
        // without risking unsigned underflow on the right.
        if (es_weight - inter > limit + (n - stop))
            return {inter, stop};
    }
    return {inter, n};
}

#if PC_SIMD_X86

// ---------------------------------------------------------------
// AVX2 paths (4 x 64-bit lanes). Popcount is the classic pshufb
// nibble LUT summed per 64-bit lane with SAD.
// ---------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i
popcnt256(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i nib = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(v, nib);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(v, 4), nib);
    const __m256i cnt =
        _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                        _mm256_shuffle_epi8(lut, hi));
    return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) inline std::uint64_t
hsum64x4(__m256i v)
{
    const __m128i s =
        _mm_add_epi64(_mm256_castsi256_si128(v),
                      _mm256_extracti128_si256(v, 1));
    return static_cast<std::uint64_t>(_mm_cvtsi128_si64(s)) +
           static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
}

__attribute__((target("avx2"))) inline std::uint32_t
hsum32x8(__m256i v)
{
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    s = _mm_add_epi32(s, _mm_srli_si128(s, 8));
    s = _mm_add_epi32(s, _mm_srli_si128(s, 4));
    return static_cast<std::uint32_t>(_mm_cvtsi128_si32(s));
}

template <CountOp op>
__attribute__((target("avx2"))) inline __m256i
combine256(const std::uint64_t *a, const std::uint64_t *b,
           std::size_t i)
{
    const __m256i av = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(a + i));
    if constexpr (op == opPop)
        return av;
    const __m256i bv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(b + i));
    if constexpr (op == opAnd)
        return _mm256_and_si256(av, bv);
    else if constexpr (op == opAndNot)
        return _mm256_andnot_si256(bv, av); // ~bv & av
    else
        return _mm256_xor_si256(av, bv);
}

template <CountOp op>
__attribute__((target("avx2"))) std::size_t
countWordsAvx2(const std::uint64_t *a, const std::uint64_t *b,
               std::size_t n)
{
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        acc = _mm256_add_epi64(acc, popcnt256(combine256<op>(a, b, i)));
    std::size_t total = hsum64x4(acc);
    for (; i < n; ++i)
        total += std::popcount(combineScalar(op, a[i], b ? b[i] : 0));
    return total;
}

__attribute__((target("avx2"))) std::size_t
buildChargedWordsAvx2(const std::uint64_t *content, std::size_t n,
                      std::uint64_t defw, const float *word_min_eff,
                      double stress, std::uint64_t *charged_out)
{
    const __m256i defv =
        _mm256_set1_epi64x(static_cast<long long>(defw));
    const __m256d sv = _mm256_set1_pd(stress);
    const __m256i zero = _mm256_setzero_si256();
    std::size_t nonzero = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        // Promote the float bounds to double before comparing, so
        // the verdict is bit-identical to the scalar engine's
        // `stress < double(word_min_eff[i])`.
        const __m256d bounds =
            _mm256_cvtps_pd(_mm_loadu_ps(word_min_eff + i));
        const __m256d keep =
            _mm256_cmp_pd(sv, bounds, _CMP_GE_OQ);
        const __m256i charged = _mm256_and_si256(
            _mm256_xor_si256(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(content + i)),
                defv),
            _mm256_castpd_si256(keep));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(charged_out + i), charged);
        const int zmask = _mm256_movemask_pd(_mm256_castsi256_pd(
            _mm256_cmpeq_epi64(charged, zero)));
        nonzero += 4 - std::popcount(static_cast<unsigned>(zmask));
    }
    for (; i < n; ++i) {
        const std::uint64_t charged =
            stress < static_cast<double>(word_min_eff[i])
                ? 0
                : content[i] ^ defw;
        charged_out[i] = charged;
        nonzero += charged != 0;
    }
    return nonzero;
}

/**
 * Gather the addressed bits of 8 positions as 0/1 in epi32 lanes.
 * The dense operand is viewed as little-endian uint32s: position p
 * lives in element p>>5, bit p&31 — exact on x86.
 */
__attribute__((target("avx2"))) inline __m256i
gatherBits8(const std::uint64_t *words, const std::uint32_t *pos)
{
    const __m256i p = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(pos));
    const __m256i elems = _mm256_i32gather_epi32(
        reinterpret_cast<const int *>(words),
        _mm256_srli_epi32(p, 5), 4);
    return _mm256_and_si256(
        _mm256_srlv_epi32(elems,
                          _mm256_and_si256(p, _mm256_set1_epi32(31))),
        _mm256_set1_epi32(1));
}

__attribute__((target("avx2"))) std::size_t
sparseMissCountBoundedAvx2(const std::uint64_t *words,
                           const std::uint32_t *pos, std::size_t n,
                           std::size_t limit)
{
    std::size_t misses = 0;
    for (std::size_t i = 0; i < n; i += boundedBlock) {
        const std::size_t stop = std::min(n, i + boundedBlock);
        std::size_t j = i;
        for (; j + 8 <= stop; j += 8) {
            misses += 8 - hsum32x8(gatherBits8(words, pos + j));
        }
        for (; j < stop; ++j)
            misses += !sparseBitSet(words, pos[j]);
        if (misses > limit)
            return misses;
    }
    return misses;
}

__attribute__((target("avx2"))) SparseInterScan
sparseInterCountBoundedAvx2(const std::uint64_t *words,
                            const std::uint32_t *pos, std::size_t n,
                            std::size_t es_weight, std::size_t limit)
{
    std::size_t inter = 0;
    for (std::size_t i = 0; i < n; i += boundedBlock) {
        const std::size_t stop = std::min(n, i + boundedBlock);
        std::size_t j = i;
        for (; j + 8 <= stop; j += 8)
            inter += hsum32x8(gatherBits8(words, pos + j));
        for (; j < stop; ++j)
            inter += sparseBitSet(words, pos[j]);
        if (es_weight - inter > limit + (n - stop))
            return {inter, stop};
    }
    return {inter, n};
}

// ---------------------------------------------------------------
// AVX-512 paths (8 x 64-bit lanes). Same structure; popcount uses
// the BW byte shuffle (no vpopcntdq requirement).
// ---------------------------------------------------------------

__attribute__((target(PC_AVX512_TARGET))) inline __m512i
popcnt512(__m512i v)
{
    const __m512i lut = _mm512_broadcast_i32x4(_mm_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
    const __m512i nib = _mm512_set1_epi8(0x0f);
    const __m512i lo = _mm512_and_si512(v, nib);
    const __m512i hi =
        _mm512_and_si512(_mm512_srli_epi16(v, 4), nib);
    const __m512i cnt =
        _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo),
                        _mm512_shuffle_epi8(lut, hi));
    return _mm512_sad_epu8(cnt, _mm512_setzero_si512());
}

template <CountOp op>
__attribute__((target(PC_AVX512_TARGET))) inline __m512i
combine512(const std::uint64_t *a, const std::uint64_t *b,
           std::size_t i)
{
    const __m512i av = _mm512_loadu_si512(a + i);
    if constexpr (op == opPop)
        return av;
    const __m512i bv = _mm512_loadu_si512(b + i);
    if constexpr (op == opAnd)
        return _mm512_and_si512(av, bv);
    else if constexpr (op == opAndNot)
        return _mm512_andnot_si512(bv, av);
    else
        return _mm512_xor_si512(av, bv);
}

template <CountOp op>
__attribute__((target(PC_AVX512_TARGET))) std::size_t
countWordsAvx512(const std::uint64_t *a, const std::uint64_t *b,
                 std::size_t n)
{
    __m512i acc = _mm512_setzero_si512();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        acc = _mm512_add_epi64(acc, popcnt512(combine512<op>(a, b, i)));
    std::size_t total =
        static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc));
    for (; i < n; ++i)
        total += std::popcount(combineScalar(op, a[i], b ? b[i] : 0));
    return total;
}

__attribute__((target(PC_AVX512_TARGET))) std::size_t
buildChargedWordsAvx512(const std::uint64_t *content, std::size_t n,
                        std::uint64_t defw, const float *word_min_eff,
                        double stress, std::uint64_t *charged_out)
{
    const __m512i defv =
        _mm512_set1_epi64(static_cast<long long>(defw));
    const __m512d sv = _mm512_set1_pd(stress);
    std::size_t nonzero = 0;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512d bounds =
            _mm512_cvtps_pd(_mm256_loadu_ps(word_min_eff + i));
        const __mmask8 keep =
            _mm512_cmp_pd_mask(sv, bounds, _CMP_GE_OQ);
        const __m512i charged = _mm512_maskz_xor_epi64(
            keep, _mm512_loadu_si512(content + i), defv);
        _mm512_storeu_si512(charged_out + i, charged);
        nonzero += std::popcount(static_cast<unsigned>(
            _mm512_test_epi64_mask(charged, charged)));
    }
    for (; i < n; ++i) {
        const std::uint64_t charged =
            stress < static_cast<double>(word_min_eff[i])
                ? 0
                : content[i] ^ defw;
        charged_out[i] = charged;
        nonzero += charged != 0;
    }
    return nonzero;
}

/** One 16-position block's set-bit count via a 512-bit gather. */
__attribute__((target(PC_AVX512_TARGET))) inline std::uint32_t
gatherBitSum16(const std::uint64_t *words, const std::uint32_t *pos)
{
    const __m512i p = _mm512_loadu_si512(pos);
    const __m512i elems = _mm512_i32gather_epi32(
        _mm512_srli_epi32(p, 5), words, 4);
    const __m512i bits = _mm512_and_si512(
        _mm512_srlv_epi32(elems,
                          _mm512_and_si512(p, _mm512_set1_epi32(31))),
        _mm512_set1_epi32(1));
    return static_cast<std::uint32_t>(_mm512_reduce_add_epi32(bits));
}

__attribute__((target(PC_AVX512_TARGET))) std::size_t
sparseMissCountBoundedAvx512(const std::uint64_t *words,
                             const std::uint32_t *pos, std::size_t n,
                             std::size_t limit)
{
    static_assert(boundedBlock == 16);
    std::size_t misses = 0;
    std::size_t i = 0;
    for (; i + boundedBlock <= n; i += boundedBlock) {
        misses += boundedBlock - gatherBitSum16(words, pos + i);
        if (misses > limit)
            return misses;
    }
    if (i < n) {
        for (; i < n; ++i)
            misses += !sparseBitSet(words, pos[i]);
        if (misses > limit)
            return misses;
    }
    return misses;
}

__attribute__((target(PC_AVX512_TARGET))) SparseInterScan
sparseInterCountBoundedAvx512(const std::uint64_t *words,
                              const std::uint32_t *pos, std::size_t n,
                              std::size_t es_weight, std::size_t limit)
{
    std::size_t inter = 0;
    std::size_t i = 0;
    for (; i + boundedBlock <= n; i += boundedBlock) {
        inter += gatherBitSum16(words, pos + i);
        const std::size_t stop = i + boundedBlock;
        if (es_weight - inter > limit + (n - stop))
            return {inter, stop};
    }
    if (i < n) {
        for (; i < n; ++i)
            inter += sparseBitSet(words, pos[i]);
        if (es_weight - inter > limit)
            return {inter, n};
    }
    return {inter, n};
}

#endif // PC_SIMD_X86

// ---------------------------------------------------------------
// Dispatch state.
// ---------------------------------------------------------------

std::atomic<int> activeLvl{static_cast<int>(Level::Scalar)};

/** Parse and apply a level spec; "" on success, else diagnostic. */
std::string
trySelect(const std::string &spec)
{
    Level level;
    if (spec == "auto") {
        level = bestAvailableLevel();
    } else if (spec == "scalar") {
        level = Level::Scalar;
    } else if (spec == "avx2") {
        level = Level::Avx2;
    } else if (spec == "avx512") {
        level = Level::Avx512;
    } else {
        return "unknown SIMD level '" + spec +
               "' (expected scalar, avx2, avx512, or auto)";
    }
    if (!levelAvailable(level)) {
        return std::string("SIMD level '") + levelName(level) +
               "' is not supported by this CPU";
    }
    activeLvl.store(static_cast<int>(level),
                    std::memory_order_relaxed);
    return "";
}

} // anonymous namespace

const char *
levelName(Level level)
{
    switch (level) {
      case Level::Scalar:
        return "scalar";
      case Level::Avx2:
        return "avx2";
      case Level::Avx512:
        return "avx512";
      default:
        panic("unhandled SIMD level");
    }
}

bool
levelAvailable(Level level)
{
    if (level == Level::Scalar)
        return true;
#if PC_SIMD_X86
    // __builtin_cpu_supports checks both the CPUID feature bits and
    // OS support (XCR0) via libgcc's resolver.
    static const bool cpuInit = [] {
        __builtin_cpu_init();
        return true;
    }();
    (void)cpuInit;
    switch (level) {
      case Level::Avx2:
        return __builtin_cpu_supports("avx2");
      case Level::Avx512:
        return __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512bw") &&
               __builtin_cpu_supports("avx512dq") &&
               __builtin_cpu_supports("avx512vl");
      default:
        return false;
    }
#else
    return false;
#endif
}

Level
bestAvailableLevel()
{
    if (levelAvailable(Level::Avx512))
        return Level::Avx512;
    if (levelAvailable(Level::Avx2))
        return Level::Avx2;
    return Level::Scalar;
}

void
applyEnvSpec(const char *spec)
{
    const std::string s = (spec && *spec) ? spec : "auto";
    const std::string err = trySelect(s);
    if (!err.empty())
        fatal("PCAUSE_SIMD: %s", err.c_str());
}

Level
activeLevel()
{
    // One-time env initialization; selectLevel() may override later.
    static const bool envDone = [] {
        applyEnvSpec(std::getenv("PCAUSE_SIMD"));
        return true;
    }();
    (void)envDone;
    return static_cast<Level>(
        activeLvl.load(std::memory_order_relaxed));
}

std::string
selectLevel(const std::string &spec)
{
    activeLevel(); // settle env precedence before overriding
    return trySelect(spec);
}

std::size_t
popcountWords(const std::uint64_t *words, std::size_t n, Level level)
{
#if PC_SIMD_X86
    if (level == Level::Avx512)
        return countWordsAvx512<opPop>(words, nullptr, n);
    if (level == Level::Avx2)
        return countWordsAvx2<opPop>(words, nullptr, n);
#else
    (void)level;
#endif
    return countWordsScalar<opPop>(words, nullptr, n);
}

std::size_t
andCountWords(const std::uint64_t *a, const std::uint64_t *b,
              std::size_t n, Level level)
{
#if PC_SIMD_X86
    if (level == Level::Avx512)
        return countWordsAvx512<opAnd>(a, b, n);
    if (level == Level::Avx2)
        return countWordsAvx2<opAnd>(a, b, n);
#else
    (void)level;
#endif
    return countWordsScalar<opAnd>(a, b, n);
}

std::size_t
andNotCountWords(const std::uint64_t *a, const std::uint64_t *b,
                 std::size_t n, Level level)
{
#if PC_SIMD_X86
    if (level == Level::Avx512)
        return countWordsAvx512<opAndNot>(a, b, n);
    if (level == Level::Avx2)
        return countWordsAvx2<opAndNot>(a, b, n);
#else
    (void)level;
#endif
    return countWordsScalar<opAndNot>(a, b, n);
}

std::size_t
xorCountWords(const std::uint64_t *a, const std::uint64_t *b,
              std::size_t n, Level level)
{
#if PC_SIMD_X86
    if (level == Level::Avx512)
        return countWordsAvx512<opXor>(a, b, n);
    if (level == Level::Avx2)
        return countWordsAvx2<opXor>(a, b, n);
#else
    (void)level;
#endif
    return countWordsScalar<opXor>(a, b, n);
}

std::size_t
buildChargedWords(const std::uint64_t *content, std::size_t n,
                  std::uint64_t defw, const float *word_min_eff,
                  double stress, std::uint64_t *charged_out,
                  Level level)
{
#if PC_SIMD_X86
    if (level == Level::Avx512) {
        return buildChargedWordsAvx512(content, n, defw, word_min_eff,
                                       stress, charged_out);
    }
    if (level == Level::Avx2) {
        return buildChargedWordsAvx2(content, n, defw, word_min_eff,
                                     stress, charged_out);
    }
#else
    (void)level;
#endif
    return buildChargedWordsScalar(content, n, defw, word_min_eff,
                                   stress, charged_out);
}

std::size_t
sparseMissCountBounded(const std::uint64_t *words,
                       const std::uint32_t *pos, std::size_t n,
                       std::size_t limit, Level level)
{
#if PC_SIMD_X86
    if (level == Level::Avx512)
        return sparseMissCountBoundedAvx512(words, pos, n, limit);
    if (level == Level::Avx2)
        return sparseMissCountBoundedAvx2(words, pos, n, limit);
#else
    (void)level;
#endif
    return sparseMissCountBoundedScalar(words, pos, n, limit);
}

SparseInterScan
sparseInterCountBounded(const std::uint64_t *words,
                        const std::uint32_t *pos, std::size_t n,
                        std::size_t es_weight, std::size_t limit,
                        Level level)
{
#if PC_SIMD_X86
    if (level == Level::Avx512) {
        return sparseInterCountBoundedAvx512(words, pos, n, es_weight,
                                             limit);
    }
    if (level == Level::Avx2) {
        return sparseInterCountBoundedAvx2(words, pos, n, es_weight,
                                           limit);
    }
#else
    (void)level;
#endif
    return sparseInterCountBoundedScalar(words, pos, n, es_weight,
                                         limit);
}

} // namespace simd
} // namespace pcause
