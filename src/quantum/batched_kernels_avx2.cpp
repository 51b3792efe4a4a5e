/**
 * @file
 * AVX2 lane kernels for BatchedStateSet.
 *
 * This TU is the only one compiled with -mavx2 (CMake sets the flag
 * plus REDQAOA_AVX2_BUILD when the compiler supports it) and it is
 * compiled WITHOUT -mfma on purpose: the rest of the library targets
 * baseline x86-64, where GCC's default -ffp-contract=fast has no FMA
 * instruction to contract into, so scalar mul+add rounds twice.
 * Matching that bit-for-bit from SIMD code requires sticking to
 * mul/add/sub intrinsics — one rounding per operation, exactly like
 * the scalar kernels. Do not add -mfma or _mm256_fmadd_pd here.
 *
 * Layout recap (batched_kernels.hpp): kBatchLanes = 8 lanes per
 * amplitude, so each plane row is two __m256d vectors. A mixer tile
 * runs once per row half, so its 4 amplitudes' re/im parts fit in 8
 * of the 16 ymm registers next to c and s (all 16 lanes at once would
 * spill). Its loops have compile-time trip counts, so the compiler
 * unrolls them and the tile stays in registers. A lane stores the half
 * of its state with the top qubit 0; the flip tile of a layer's last
 * pass is this tile body with mirrored slot addresses
 * (detail::tileSlot), and the readout walks the mirrored half
 * downward.
 */

#include "quantum/batched_kernels.hpp"

#if defined(REDQAOA_AVX2_BUILD) && defined(__AVX2__)

#include <immintrin.h>

namespace redqaoa {
namespace batched {

namespace {

static_assert(kBatchLanes == 8,
              "AVX2 kernels assume 8 lanes (2 x 4 doubles)");

/**
 * Tiles of 2^W amplitudes, 4 lanes at a time: each tile runs once per
 * lane half, its amplitudes' re/im parts in 2^(W+1) registers.
 */
struct TilesAvx2
{
    /** The rxButterfly body: (a0, a1) <- RX-matrix * (a0, a1). */
    static inline void
    butterfly(__m256d &r0, __m256d &m0, __m256d &r1, __m256d &m1,
              __m256d c, __m256d s)
    {
        const __m256d nr0 = _mm256_add_pd(_mm256_mul_pd(c, r0),
                                          _mm256_mul_pd(s, m1));
        const __m256d nm0 = _mm256_sub_pd(_mm256_mul_pd(c, m0),
                                          _mm256_mul_pd(s, r1));
        const __m256d nr1 = _mm256_add_pd(_mm256_mul_pd(c, r1),
                                          _mm256_mul_pd(s, m0));
        const __m256d nm1 = _mm256_sub_pd(_mm256_mul_pd(c, m1),
                                          _mm256_mul_pd(s, r0));
        r0 = nr0;
        m0 = nm0;
        r1 = nr1;
        m1 = nm1;
    }

    template <int W, detail::TileSource S, TileSlots F>
    static void
    run(double *re, double *im, std::size_t tile_begin,
        std::size_t tile_end, int q, const double *c, const double *s,
        const TileLoad &load)
    {
        constexpr int kAmps = 1 << W;
        const std::size_t step = std::size_t{1} << q;
        const std::size_t mask = step - 1;
        for (std::size_t t = tile_begin; t < tile_end; ++t) {
            const std::size_t b = ((t & ~mask) << W) | (t & mask);
            for (int h = 0; h < 8; h += 4) {
                __m256d r[kAmps], m[kAmps];
                for (int j = 0; j < kAmps; ++j) {
                    const std::size_t i = detail::tileSlot<W, F>(b, j, step);
                    __m256d ar, ai;
                    if constexpr (S == detail::TileSource::kUniformPhase) {
                        ar = _mm256_set1_pd(load.uniform);
                        ai = _mm256_setzero_pd();
                    } else {
                        ar = _mm256_loadu_pd(re + i * 8 + h);
                        ai = _mm256_loadu_pd(im + i * 8 + h);
                    }
                    if constexpr (S == detail::TileSource::kStored) {
                        r[j] = ar;
                        m[j] = ai;
                    } else {
                        // The phase kernel's complex product, one
                        // rounding per mul/sub/add.
                        const std::size_t e =
                            static_cast<std::size_t>(load.codes[i]) * 8 + h;
                        const __m256d br = _mm256_loadu_pd(load.pre + e);
                        const __m256d bi = _mm256_loadu_pd(load.pim + e);
                        r[j] = _mm256_sub_pd(_mm256_mul_pd(ar, br),
                                             _mm256_mul_pd(ai, bi));
                        m[j] = _mm256_add_pd(_mm256_mul_pd(ar, bi),
                                             _mm256_mul_pd(ai, br));
                    }
                }
                const __m256d cv = _mm256_loadu_pd(c + h);
                const __m256d sv = _mm256_loadu_pd(s + h);
                for (int k = 0; k < W; ++k)
                    for (int j = 0; j < kAmps; ++j)
                        if ((j & (1 << k)) == 0)
                            butterfly(r[j], m[j], r[j | (1 << k)],
                                      m[j | (1 << k)], cv, sv);
                for (int j = 0; j < kAmps; ++j) {
                    const std::size_t i = detail::tileSlot<W, F>(b, j, step);
                    _mm256_storeu_pd(re + i * 8 + h, r[j]);
                    _mm256_storeu_pd(im + i * 8 + h, m[j]);
                }
            }
        }
    }
};

void
tilesAvx2(double *re, double *im, std::size_t tile_begin,
          std::size_t tile_end, int q, int width, TileSlots slots,
          const double *c, const double *s, const TileLoad &load)
{
    detail::dispatchTiles<TilesAvx2>(width, slots, load, re, im, tile_begin,
                                     tile_end, q, c, s);
}

void
expectAvx2(const double *re, const double *im, const std::int32_t *codes,
           std::size_t begin, std::size_t end, bool mirrored, double *acc)
{
    __m256d acc0 = _mm256_loadu_pd(acc);
    __m256d acc1 = _mm256_loadu_pd(acc + 4);
    const std::size_t step = mirrored ? ~std::size_t{0} : 1;
    std::size_t i = mirrored ? end - 1 : begin;
    for (std::size_t k = begin; k < end; ++k, i += step) {
        const __m256d code =
            _mm256_set1_pd(static_cast<double>(codes[i]));
        const double *r = re + i * 8;
        const double *m = im + i * 8;
        const __m256d r0 = _mm256_loadu_pd(r);
        const __m256d r1 = _mm256_loadu_pd(r + 4);
        const __m256d m0 = _mm256_loadu_pd(m);
        const __m256d m1 = _mm256_loadu_pd(m + 4);
        // acc += ((r*r) + (m*m)) * code — per-lane rounding order of
        // the scalar loop (norm, then code product, then running add).
        const __m256d n0 = _mm256_add_pd(_mm256_mul_pd(r0, r0),
                                         _mm256_mul_pd(m0, m0));
        const __m256d n1 = _mm256_add_pd(_mm256_mul_pd(r1, r1),
                                         _mm256_mul_pd(m1, m1));
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(n0, code));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(n1, code));
    }
    _mm256_storeu_pd(acc, acc0);
    _mm256_storeu_pd(acc + 4, acc1);
}

} // namespace

namespace detail {

const KernelOps *
avx2KernelsBuild()
{
    static const KernelOps ops{"avx2", tilesAvx2, expectAvx2};
    return &ops;
}

} // namespace detail

} // namespace batched
} // namespace redqaoa

#else // !REDQAOA_AVX2_BUILD || !__AVX2__

namespace redqaoa {
namespace batched {
namespace detail {

const KernelOps *
avx2KernelsBuild()
{
    return nullptr;
}

} // namespace detail
} // namespace batched
} // namespace redqaoa

#endif
