/**
 * @file
 * The SIMD dispatch plumbing: level detection, the PCAUSE_SIMD /
 * selectLevel() override surface, and the 32-byte word-storage
 * alignment the vector kernels (and the PCDB v4 mmap layout) rely
 * on. The kernels' bit-exactness itself lives in
 * tests/prop/prop_simd.cc; this file covers the state machine around
 * them.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "core/fingerprint.hh"
#include "util/aligned.hh"
#include "util/bitvec.hh"
#include "util/simd.hh"

namespace pcause
{
namespace
{

/** Restore the active level after each test. */
class SimdTest : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        ASSERT_EQ(simd::selectLevel(simd::levelName(saved)), "");
    }

  private:
    simd::Level saved = simd::activeLevel();
};

TEST_F(SimdTest, ScalarAlwaysAvailable)
{
    EXPECT_TRUE(simd::levelAvailable(simd::Level::Scalar));
    // bestAvailableLevel() can never land below scalar, and whatever
    // it reports must itself be available.
    EXPECT_GE(static_cast<int>(simd::bestAvailableLevel()),
              static_cast<int>(simd::Level::Scalar));
    EXPECT_TRUE(simd::levelAvailable(simd::bestAvailableLevel()));
}

TEST_F(SimdTest, LevelNamesAreStable)
{
    EXPECT_STREQ(simd::levelName(simd::Level::Scalar), "scalar");
    EXPECT_STREQ(simd::levelName(simd::Level::Avx2), "avx2");
    EXPECT_STREQ(simd::levelName(simd::Level::Avx512), "avx512");
}

TEST_F(SimdTest, SelectLevelScalarAndAuto)
{
    EXPECT_EQ(simd::selectLevel("scalar"), "");
    EXPECT_EQ(simd::activeLevel(), simd::Level::Scalar);

    EXPECT_EQ(simd::selectLevel("auto"), "");
    EXPECT_EQ(simd::activeLevel(), simd::bestAvailableLevel());
}

TEST_F(SimdTest, SelectLevelRejectsBogusSpec)
{
    ASSERT_EQ(simd::selectLevel("scalar"), "");
    const std::string err = simd::selectLevel("bogus");
    EXPECT_NE(err, "");
    // A rejected spec must leave the active level untouched.
    EXPECT_EQ(simd::activeLevel(), simd::Level::Scalar);
}

TEST_F(SimdTest, SelectLevelRejectsUnavailableLevel)
{
    // Every level strictly above the best available one must be
    // refused with a diagnostic (vacuous on a maxed-out CPU).
    for (simd::Level lvl : {simd::Level::Avx2, simd::Level::Avx512}) {
        if (simd::levelAvailable(lvl))
            continue;
        ASSERT_EQ(simd::selectLevel("scalar"), "");
        EXPECT_NE(simd::selectLevel(simd::levelName(lvl)), "");
        EXPECT_EQ(simd::activeLevel(), simd::Level::Scalar);
    }
}

TEST_F(SimdTest, ExplicitLevelSurvivesSelect)
{
    // Kernels honor an explicit trailing level regardless of the
    // globally selected one.
    const std::uint64_t w[2] = {~0ull, 1ull};
    ASSERT_EQ(simd::selectLevel("scalar"), "");
    for (simd::Level lvl : {simd::Level::Scalar, simd::Level::Avx2,
                            simd::Level::Avx512}) {
        if (!simd::levelAvailable(lvl))
            continue;
        EXPECT_EQ(simd::popcountWords(w, 2, lvl), 65u);
    }
}

TEST_F(SimdTest, EnvSpecBogusValueIsFatal)
{
    // applyEnvSpec is the exact code path PCAUSE_SIMD initialization
    // takes: a typo'd value must be a loud configuration error, not
    // a silent fallback to some other level.
    EXPECT_EXIT(simd::applyEnvSpec("avx1024"),
                ::testing::ExitedWithCode(1), "PCAUSE_SIMD");
}

TEST_F(SimdTest, EnvSpecEmptyMeansAuto)
{
    ASSERT_EQ(simd::selectLevel("scalar"), "");
    simd::applyEnvSpec(nullptr);
    EXPECT_EQ(simd::activeLevel(), simd::bestAvailableLevel());

    ASSERT_EQ(simd::selectLevel("scalar"), "");
    simd::applyEnvSpec("");
    EXPECT_EQ(simd::activeLevel(), simd::bestAvailableLevel());
}

TEST_F(SimdTest, WordStorageIsSimdAligned)
{
    // The vector kernels use unaligned loads, so this is about
    // performance, not correctness — but the allocator contract is
    // part of the layer and worth pinning across odd sizes.
    for (std::size_t nbits : {1u, 63u, 64u, 257u, 4096u, 100001u}) {
        const BitVec v(nbits);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.words().data()) %
                      simdAlignment,
                  0u)
            << nbits;
    }

    SparseFingerprintArena arena;
    BitVec fp(512);
    fp.set(3, true);
    fp.set(300, true);
    arena.add(fp);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(
                  arena.positions().data()) %
                  simdAlignment,
              0u);
}

TEST_F(SimdTest, AlignedStorageKeepsElementLayout)
{
    // The PCDB v4 writer streams these arrays verbatim; alignment
    // must change where they live, never what they hold.
    static_assert(sizeof(WordVec::value_type) == 8);
    static_assert(sizeof(PosVec::value_type) == 4);

    BitVec v(130);
    v.set(0, true);
    v.set(64, true);
    v.set(129, true);
    ASSERT_EQ(v.words().size(), 3u);
    EXPECT_EQ(v.wordAt(0), 1ull);
    EXPECT_EQ(v.wordAt(1), 1ull);
    EXPECT_EQ(v.wordAt(2), 2ull);

    SparseFingerprintArena arena;
    arena.add(v);
    ASSERT_EQ(arena.totalPositions(), 3u);
    EXPECT_EQ(arena.positions()[0], 0u);
    EXPECT_EQ(arena.positions()[1], 64u);
    EXPECT_EQ(arena.positions()[2], 129u);
}

} // anonymous namespace
} // namespace pcause
