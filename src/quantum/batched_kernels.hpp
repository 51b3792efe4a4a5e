/**
 * @file
 * Lane-level kernels behind BatchedStateSet, with runtime SIMD dispatch.
 *
 * A batched state set holds kBatchLanes statevectors in struct-of-arrays
 * form: for amplitude index i, the lanes' real parts occupy
 * re[i * kBatchLanes .. i * kBatchLanes + kBatchLanes) and the imaginary
 * parts mirror them in im[]. Every kernel below performs, per lane,
 * EXACTLY the arithmetic the scalar Statevector kernels perform on one
 * state — same operations, same order, no fused multiply-add — so a
 * batched sweep is bit-identical to running the lanes one at a time.
 *
 * The mixer runs as register tiles: one tile pass applies the RX
 * butterflies of two adjacent qubits to each 4-amplitude tile held in
 * registers and stores it once, so the lane set is walked once per two
 * qubits instead of once per qubit. A layer's first pass also applies
 * the cost layer's phase to each amplitude as it loads it (and on the
 * first layer reads the uniform start operands instead of loading).
 * Per amplitude that is the same mul/add/sub sequence, in the same
 * qubit order, as a phase pass followed by per-qubit RX passes.
 *
 * Two implementations are provided:
 *  - scalar: plain loops over the lane dimension (the portable
 *    fallback; the lane loops are trivially auto-vectorizable and any
 *    auto-vectorization is value-preserving because the per-lane
 *    operations are independent IEEE mul/add/sub);
 *  - AVX2: explicit 4-wide double vectors, a tile running once per
 *    half of the lanes (4 amplitudes x re/im in 8 registers; a full
 *    8-lane tile would need 16 and spills). The AVX2 translation unit
 *    is compiled with -mavx2 and deliberately WITHOUT -mfma: the rest
 *    of the library targets baseline x86-64 where the compiler cannot
 *    contract a*b+c into fma(a,b,c), and the bit-identity contract
 *    requires the SIMD lanes to round exactly like the scalar path.
 *
 * Selection: activeKernels() picks AVX2 when it was compiled in and the
 * CPU reports support, unless REDQAOA_BATCHED_KERNELS=scalar (or
 * =avx2, which insists and falls back with a note to stderr when
 * unavailable). forceKernels() lets tests and benchmarks pin a specific
 * implementation mid-process.
 */

#ifndef REDQAOA_QUANTUM_BATCHED_KERNELS_HPP
#define REDQAOA_QUANTUM_BATCHED_KERNELS_HPP

#include <cstddef>
#include <cstdint>

namespace redqaoa {
namespace batched {

/** Statevectors advanced per batched sweep (two AVX2 vectors wide). */
constexpr int kBatchLanes = 8;

/**
 * How a tile pass gets its operands. With codes set, each amplitude i
 * is multiplied on load by its lane's phase-table entry for codes[i]
 * (entry (code, lane) at pre/pim[code * kBatchLanes + lane]), with the
 * scalar phase kernel's expression (ar*br - ai*bi, ar*bi + ai*br).
 * With fromUniform also set, the operand is (uniform, 0.0) instead of
 * the stored amplitude: what a uniform reset followed by the phase
 * pass would have produced. Without codes, amplitudes load as stored.
 */
struct TileLoad
{
    const std::int32_t *codes = nullptr;
    const double *pre = nullptr;
    const double *pim = nullptr;
    bool fromUniform = false;
    double uniform = 0.0;
};

/**
 * One kernel implementation. All ranges are amplitude (or tile)
 * indices: the lane dimension is implicit, every amplitude is
 * kBatchLanes doubles in each plane.
 */
struct KernelOps
{
    const char *name; //!< "scalar" or "avx2" (bench / stats labels).

    /**
     * Mixer tiles [tile_begin, tile_end) over qubits q .. q + width - 1
     * (width 1 or 2; 0 on a 0-qubit state, where a tile is the load
     * alone). Tile t holds amplitudes b + j * 2^q for j < 2^width,
     * b = ((t & ~(2^q - 1)) << width) | (t & (2^q - 1)). Each tile
     * loads them per @p load, applies qubit q's rxButterfly to slot
     * pairs (0,1) and (2,3), then qubit q+1's to (0,2) and (1,3), and
     * stores once. c / s are the per-lane cos/sin of the half angle.
     */
    void (*tiles)(double *re, double *im, std::size_t tile_begin,
                  std::size_t tile_end, int q, int width, const double *c,
                  const double *s, const TileLoad &load);

    /**
     * acc[lane] += sum over i in [begin, end) of |amp_i|^2 * codes[i],
     * accumulated in ascending i exactly like the scalar
     * expectationFromCodes loop (norm first, then the code product,
     * then the running-sum add).
     */
    void (*expect)(const double *re, const double *im,
                   const std::int32_t *codes, std::size_t begin,
                   std::size_t end, double *acc);
};

/** The portable lane-loop implementation (always available). */
const KernelOps &scalarKernels();

/**
 * The AVX2 implementation, or nullptr when it was not compiled in
 * (configure-time -mavx2 probe failed / REDQAOA_ENABLE_AVX2=OFF) or
 * the running CPU lacks AVX2.
 */
const KernelOps *avx2Kernels();

/** The implementation batched sweeps use (see file comment). */
const KernelOps &activeKernels();

/**
 * Pin the active implementation (test/bench hook; not thread-safe
 * against concurrent sweeps). nullptr restores automatic selection.
 */
void forceKernels(const KernelOps *ops);

namespace detail {

/** Raw AVX2 table: non-null iff the TU was built with -mavx2. */
const KernelOps *avx2KernelsBuild();

/** The three operand sources of TileLoad, as a compile-time choice. */
enum class TileSource
{
    kStored,
    kPhase,
    kUniformPhase
};

/**
 * Calls Impl::run<W, S>(args..., load) for the tile width and operand
 * source, so each implementation's tile loop is compiled with constant
 * trip counts (registers, not memory, hold a tile).
 */
template <class Impl, class... Args>
void
dispatchTiles(int width, const TileLoad &load, Args... args)
{
    auto bySource = [&]<int W>() {
        if (load.codes == nullptr)
            Impl::template run<W, TileSource::kStored>(args..., load);
        else if (load.fromUniform)
            Impl::template run<W, TileSource::kUniformPhase>(args..., load);
        else
            Impl::template run<W, TileSource::kPhase>(args..., load);
    };
    if (width == 2)
        bySource.template operator()<2>();
    else if (width == 1)
        bySource.template operator()<1>();
    else
        bySource.template operator()<0>();
}

} // namespace detail

} // namespace batched
} // namespace redqaoa

#endif // REDQAOA_QUANTUM_BATCHED_KERNELS_HPP
