/**
 * @file
 * BatchedStateSet and the lane sweeps built on it, plus the scalar
 * lane kernels and the kernel selection (batched_kernels.hpp). A lane
 * stores the half of its flip-symmetric state with the top qubit 0. A
 * layer runs as two-qubit tile passes over that half: qubits 0 .. n-3
 * below a cache block pass by pass inside each block, the rest as
 * passes over the whole half, then qubits n-2 and n-1 as one flip tile
 * pass whose top slots are mirrors. The first pass carries the phase (and
 * on layer 0 the uniform start).
 */

#include "quantum/batched_state.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "common/thread_pool.hpp"
#include "quantum/maxcut.hpp"
#include "quantum/statevector.hpp"

namespace redqaoa {
namespace batched {

namespace {

constexpr int kL = kBatchLanes;

/**
 * Scalar kernels: a plain lane loop per tile (or amplitude). Each lane
 * performs the exact operation sequence of the corresponding scalar
 * Statevector kernels (see the header contract); the lane iterations
 * are independent, so compiler auto-vectorization cannot change
 * values.
 */
struct TilesScalar
{
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
            double *r[kAmps], *m[kAmps];
            const double *pr[kAmps] = {}, *pi[kAmps] = {};
            for (int j = 0; j < kAmps; ++j) {
                const std::size_t i = detail::tileSlot<W, F>(b, j, step);
                r[j] = re + i * kL;
                m[j] = im + i * kL;
                if constexpr (S != detail::TileSource::kStored) {
                    const std::size_t e =
                        static_cast<std::size_t>(load.codes[i]) * kL;
                    pr[j] = load.pre + e;
                    pi[j] = load.pim + e;
                }
            }
            for (int l = 0; l < kL; ++l) {
                double tr[kAmps], tm[kAmps];
                for (int j = 0; j < kAmps; ++j) {
                    double ar, ai;
                    if constexpr (S == detail::TileSource::kUniformPhase) {
                        ar = load.uniform;
                        ai = 0.0;
                    } else {
                        ar = r[j][l];
                        ai = m[j][l];
                    }
                    if constexpr (S == detail::TileSource::kStored) {
                        tr[j] = ar;
                        tm[j] = ai;
                    } else {
                        // amp *= phase, expanded like std::complex
                        // operator*, no contraction.
                        const double br = pr[j][l], bi = pi[j][l];
                        tr[j] = ar * br - ai * bi;
                        tm[j] = ar * bi + ai * br;
                    }
                }
                for (int k = 0; k < W; ++k)
                    for (int j = 0; j < kAmps; ++j) {
                        if ((j & (1 << k)) != 0)
                            continue;
                        // The rxButterfly body, per lane.
                        const int o = j | (1 << k);
                        const double re0 = tr[j], im0 = tm[j];
                        const double re1 = tr[o], im1 = tm[o];
                        tr[j] = c[l] * re0 + s[l] * im1;
                        tm[j] = c[l] * im0 - s[l] * re1;
                        tr[o] = c[l] * re1 + s[l] * im0;
                        tm[o] = c[l] * im1 - s[l] * re0;
                    }
                for (int j = 0; j < kAmps; ++j) {
                    r[j][l] = tr[j];
                    m[j][l] = tm[j];
                }
            }
        }
    }
};

void
tilesScalar(double *re, double *im, std::size_t tile_begin,
            std::size_t tile_end, int q, int width, TileSlots slots,
            const double *c, const double *s, const TileLoad &load)
{
    detail::dispatchTiles<TilesScalar>(width, slots, load, re, im, tile_begin,
                                       tile_end, q, c, s);
}

void
expectScalar(const double *re, const double *im, const std::int32_t *codes,
             std::size_t begin, std::size_t end, bool mirrored, double *acc)
{
    const std::size_t step = mirrored ? ~std::size_t{0} : 1;
    std::size_t i = mirrored ? end - 1 : begin;
    for (std::size_t k = begin; k < end; ++k, i += step) {
        const double code = static_cast<double>(codes[i]);
        const double *r = re + i * kL;
        const double *m = im + i * kL;
        for (int l = 0; l < kL; ++l)
            acc[l] += (r[l] * r[l] + m[l] * m[l]) * code;
    }
}

const KernelOps *gForced = nullptr;

} // namespace

const KernelOps &
scalarKernels()
{
    static const KernelOps ops{"scalar", tilesScalar, expectScalar};
    return ops;
}

const KernelOps *
avx2Kernels()
{
    const KernelOps *built = detail::avx2KernelsBuild();
    if (!built)
        return nullptr;
#if defined(__x86_64__) || defined(__i386__)
    if (!__builtin_cpu_supports("avx2"))
        return nullptr;
    return built;
#else
    return nullptr;
#endif
}

const KernelOps &
activeKernels()
{
    if (gForced)
        return *gForced;
    static const KernelOps *selected = [] {
        const char *env = std::getenv("REDQAOA_BATCHED_KERNELS");
        const std::string_view want = env ? env : "";
        if (want == "scalar")
            return &scalarKernels();
        const KernelOps *avx = avx2Kernels();
        if (want == "avx2" && !avx)
            std::fprintf(stderr,
                         "redqaoa: REDQAOA_BATCHED_KERNELS=avx2 but AVX2"
                         " is unavailable; using scalar kernels\n");
        return avx ? avx : &scalarKernels();
    }();
    return *selected;
}

void
forceKernels(const KernelOps *ops)
{
    gForced = ops;
}

} // namespace batched

namespace {

constexpr int kL = batched::kBatchLanes;
constexpr std::size_t kChunkLen = detail::kStateChunkLen;

/**
 * Stored amplitudes per pool chunk of a tile pass: half a reduction
 * chunk, so a pass over the stored half spreads over as many chunks as
 * a full-state pass would.
 */
constexpr std::size_t kPassChunk = kChunkLen / 2;

/**
 * Cache block of the tiled mixer: 2^10 amplitudes * kL lanes * 16 bytes
 * = 128 KiB of lane data, L2-resident. Even, so no two-qubit tile
 * straddles a block edge: the qubits below it run as tile passes
 * inside each block in turn, the rest as tile passes over the whole
 * stored half. Blocking never changes values.
 */
constexpr int kBatchBlockQubits = 10;

using batched::TileSlots;
using detail::intraStateParallel;

} // namespace

void
BatchedStateSet::resetUniform(int num_qubits)
{
    assert(num_qubits >= 0 && num_qubits < 30);
    numQubits_ = num_qubits;
    re_.resize(storedDim() * kL);
    im_.resize(storedDim() * kL);
    startPending_ = true;
}

void
BatchedStateSet::applyLayer(std::span<const std::int32_t> codes,
                            std::span<const double> pre,
                            std::span<const double> pim,
                            std::span<const double> thetas)
{
    const std::size_t n = dim();
    const std::size_t half = storedDim();
    assert(codes.size() == n);
    assert(thetas.size() == static_cast<std::size_t>(kL));
    // Per-lane c/s computed exactly as Statevector::applyRxAll does.
    double c[kL], s[kL];
    for (int l = 0; l < kL; ++l) {
        c[l] = std::cos(thetas[static_cast<std::size_t>(l)] / 2.0);
        s[l] = std::sin(thetas[static_cast<std::size_t>(l)] / 2.0);
    }
    batched::TileLoad first;
    first.codes = codes.data();
    first.pre = pre.data();
    first.pim = pim.data();
    first.fromUniform = startPending_;
    first.uniform = 1.0 / std::sqrt(static_cast<double>(n));
    startPending_ = false;
    const batched::TileLoad stored;
    double *re = re_.data();
    double *im = im_.data();
    const batched::KernelOps &ops = batched::activeKernels();
    // fn(begin, end) over [0, count) units of 2^w stored amplitudes,
    // chunked over the pool when the full state is large enough.
    const bool pooled = intraStateParallel(n);
    auto spread = [&](std::size_t count, int w, auto &&fn) {
        if (pooled)
            parallelForChunks(count, fn,
                              std::max<std::size_t>(1, kPassChunk >> w));
        else
            fn(0, count);
    };

    // Qubits 0 .. n-3 as plain passes over the stored half (a 0-qubit
    // state runs its load-only tile here). The qubits below the block
    // run every pass of one block before the next block, the first pass
    // with the phase (qubits below the block size never pair across
    // blocks); the rest run one pass over the whole half per two.
    const int plain = std::max(0, numQubits_ - 2);
    if (plain > 0 || numQubits_ == 0) {
        const int low = std::min(plain, kBatchBlockQubits);
        const std::size_t block = std::size_t{1} << low;
        spread(half >> low, low, [&](std::size_t bbegin, std::size_t bend) {
            for (std::size_t b = bbegin; b < bend; ++b) {
                batched::TileLoad load = first;
                load.codes += b * block;
                int q = 0;
                do {
                    const int w = std::min(2, low - q);
                    ops.tiles(re + b * block * kL, im + b * block * kL, 0,
                              block >> w, q, w, TileSlots::kPlain, c, s,
                              load);
                    load = stored;
                    q += 2;
                } while (q < low);
            }
        });
        for (int q = low; q < plain; q += 2) {
            const int w = std::min(2, plain - q);
            spread(half >> w, w, [&](std::size_t tb, std::size_t te) {
                ops.tiles(re, im, tb, te, q, w, TileSlots::kPlain, c, s,
                          stored);
            });
        }
    }
    if (numQubits_ == 0)
        return;

    // Qubits n-2 and n-1 as one flip tile pass (the layer's first pass
    // for n <= 2; one qubit for n = 1, where amplitude 0 pairs with
    // itself). Tiles b and (2^(n-2) - 1) ^ b hold the same four
    // amplitudes, so only b < 2^(n-3) run: on a pool, a range with
    // both would write them from two threads. At n = 2 the one tile's
    // slots alias {0, 1, 1, 0}.
    const int w = std::min(2, numQubits_);
    const batched::TileLoad &load = plain > 0 ? stored : first;
    auto flipTiles = [&](std::size_t tb, std::size_t te) {
        ops.tiles(re, im, tb, te, numQubits_ - w, w, TileSlots::kFlip, c, s,
                  load);
    };
    spread(std::max<std::size_t>(1, half >> 2), w, flipTiles);
}

void
BatchedStateSet::expectationFromCodes(std::span<const std::int32_t> codes,
                                      std::span<double> out)
{
    const std::size_t n = dim();
    const std::size_t half = storedDim();
    if (startPending_) {
        // No layer ran (depth 0): the lanes are the uniform start.
        std::fill(re_.begin(), re_.end(),
                  1.0 / std::sqrt(static_cast<double>(n)));
        std::fill(im_.begin(), im_.end(), 0.0);
        startPending_ = false;
    }
    assert(codes.size() == n);
    assert(out.size() == static_cast<std::size_t>(kL));
    const double *re = re_.data();
    const double *im = im_.data();
    const std::int32_t *cd = codes.data();
    const batched::KernelOps &ops = batched::activeKernels();
    // Full indices [begin, end) within one half, in ascending order:
    // index i >= half is its mirror n - 1 - i, whose code is the same
    // (MaxCut codes are flip-symmetric), so the upper half walks the
    // stored amplitudes downward.
    auto readout = [&](std::size_t begin, std::size_t end, double *acc) {
        assert(end <= half || begin >= half);
        if (end <= half)
            ops.expect(re, im, cd, begin, end, false, acc);
        else
            ops.expect(re, im, cd, n - end, n - begin, true, acc);
    };
    // The scalar chunkedSum shape over the full 2^n, per lane: serial
    // single accumulator below the parallel threshold / on a 1-thread
    // pool; fixed-chunk partials combined in chunk order otherwise
    // (from 2^14 amplitudes every chunk lies in one half).
    if (!intraStateParallel(n)) {
        double acc[kL] = {};
        readout(0, half, acc);
        readout(half, n, acc);
        std::copy(acc, acc + kL, out.begin());
        return;
    }
    const std::size_t chunks = (n + kChunkLen - 1) / kChunkLen;
    thread_local std::vector<double> partial_scratch;
    partial_scratch.assign(chunks * kL, 0.0);
    double *partials = partial_scratch.data();
    parallelFor(chunks, [&, partials](std::size_t ch) {
        const std::size_t begin = ch * kChunkLen;
        readout(begin, std::min(n, begin + kChunkLen), partials + ch * kL);
    });
    for (int l = 0; l < kL; ++l) {
        double total = 0.0;
        for (std::size_t ch = 0; ch < chunks; ++ch)
            total += partials[ch * kL + static_cast<std::size_t>(l)];
        out[static_cast<std::size_t>(l)] = total;
    }
}

void
buildPhaseTablesSoA(int max_code, std::span<const double> angles,
                    std::vector<double> &pre, std::vector<double> &pim)
{
    assert(angles.size() == static_cast<std::size_t>(kL));
    const std::size_t entries = static_cast<std::size_t>(max_code) + 1;
    pre.resize(entries * kL);
    pim.resize(entries * kL);
    thread_local std::vector<Complex> lane;
    for (int l = 0; l < kL; ++l) {
        buildPhaseTable(max_code, angles[static_cast<std::size_t>(l)],
                        lane);
        for (std::size_t c = 0; c < entries; ++c) {
            pre[c * kL + static_cast<std::size_t>(l)] = lane[c].real();
            pim[c * kL + static_cast<std::size_t>(l)] = lane[c].imag();
        }
    }
}

void
sweepLaneGroup(std::span<const std::int32_t> codes, int max_code,
               int num_qubits, const LaneGroup &group, std::span<double> out)
{
    thread_local BatchedStateSet set;
    thread_local std::vector<double> pre, pim;
    set.resetUniform(num_qubits);
    double gammas[kL], thetas[kL];
    for (int layer = 0; layer < group.depth; ++layer) {
        const std::size_t l2 = static_cast<std::size_t>(layer);
        for (int l = 0; l < kL; ++l) {
            gammas[l] = group.pts[static_cast<std::size_t>(l)]->gamma[l2];
            thetas[l] =
                2.0 * group.pts[static_cast<std::size_t>(l)]->beta[l2];
        }
        buildPhaseTablesSoA(max_code, gammas, pre, pim);
        set.applyLayer(codes, pre, pim, thetas);
    }
    double acc[kL];
    set.expectationFromCodes(codes, acc);
    for (int l = 0; l < group.count; ++l)
        out[group.outIdx[static_cast<std::size_t>(l)]] = acc[l];
}

bool
laneSweepUsesPool(int num_qubits)
{
    return intraStateParallel(std::size_t{1} << num_qubits);
}

std::vector<LaneGroup>
planLaneGroups(std::span<const QaoaParams *const> points)
{
    // Lanes of one sweep must share the layer count (every lane takes
    // the same number of phase + mixer passes). Bucket points by depth
    // in first-seen order, then cut each bucket into groups of kL,
    // padding the tail by replicating its last point — padded lanes
    // are computed and discarded, and byte-identity makes the grouping
    // invisible in the results.
    std::vector<int> depths;
    std::vector<std::vector<std::size_t>> buckets;
    for (std::size_t k = 0; k < points.size(); ++k) {
        const int d = points[k]->layers();
        std::size_t b = 0;
        while (b < depths.size() && depths[b] != d)
            ++b;
        if (b == depths.size()) {
            depths.push_back(d);
            buckets.emplace_back();
        }
        buckets[b].push_back(k);
    }

    std::vector<LaneGroup> groups;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        const std::vector<std::size_t> &idx = buckets[b];
        for (std::size_t off = 0; off < idx.size(); off += kL) {
            LaneGroup g;
            g.depth = depths[b];
            g.count = static_cast<int>(
                std::min<std::size_t>(kL, idx.size() - off));
            for (int l = 0; l < kL; ++l) {
                const std::size_t src =
                    idx[off + static_cast<std::size_t>(
                                  std::min(l, g.count - 1))];
                g.pts[static_cast<std::size_t>(l)] = points[src];
                g.outIdx[static_cast<std::size_t>(l)] = src;
            }
            groups.push_back(g);
        }
    }
    return groups;
}

std::size_t
batchedCutExpectations(std::span<const std::int32_t> codes, int max_code,
                       int num_qubits,
                       std::span<const QaoaParams *const> points,
                       std::span<double> out)
{
    assert(out.size() == points.size());
    const std::vector<LaneGroup> groups = planLaneGroups(points);
    parallelFor(groups.size(), [&](std::size_t gi) {
        sweepLaneGroup(codes, max_code, num_qubits, groups[gi], out);
    });
    return groups.size();
}

} // namespace redqaoa
