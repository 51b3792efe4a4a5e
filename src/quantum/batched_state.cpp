/**
 * @file
 * BatchedStateSet and the lane sweeps built on it, plus the scalar
 * lane kernels and the kernel selection (batched_kernels.hpp). A
 * layer runs as two-qubit tile passes: the qubits below a cache block
 * pass by pass inside each block, the rest as full-state passes, the
 * first pass carrying the phase (and on layer 0 the uniform start).
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
    template <int W, detail::TileSource S>
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
                const std::size_t i = b + static_cast<std::size_t>(j) * step;
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
            std::size_t tile_end, int q, int width, const double *c,
            const double *s, const TileLoad &load)
{
    detail::dispatchTiles<TilesScalar>(width, load, re, im, tile_begin,
                                       tile_end, q, c, s);
}

void
expectScalar(const double *re, const double *im, const std::int32_t *codes,
             std::size_t begin, std::size_t end, double *acc)
{
    for (std::size_t i = begin; i < end; ++i) {
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
 * Cache block of the tiled mixer: 2^10 amplitudes * kL lanes * 16 bytes
 * = 128 KiB of lane data, L2-resident. Even, so no two-qubit tile
 * straddles a block edge: the qubits below it run as tile passes
 * inside each block in turn, the rest as full-state tile passes.
 * Blocking never changes values.
 */
constexpr int kBatchBlockQubits = 10;

using detail::intraStateParallel;

} // namespace

void
BatchedStateSet::resetUniform(int num_qubits)
{
    assert(num_qubits >= 0 && num_qubits < 30);
    numQubits_ = num_qubits;
    re_.resize(dim() * kL);
    im_.resize(dim() * kL);
    startPending_ = true;
}

void
BatchedStateSet::applyLayer(std::span<const std::int32_t> codes,
                            std::span<const double> pre,
                            std::span<const double> pim,
                            std::span<const double> thetas)
{
    const std::size_t n = dim();
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
    const bool pooled = intraStateParallel(n);

    // Qubits below the block: every tile pass of one block before the
    // next block, the first pass with the phase (qubits below the block
    // size never pair across blocks).
    const int low = std::min(numQubits_, kBatchBlockQubits);
    const std::size_t block = std::size_t{1} << low;
    auto blocked = [&](std::size_t bbegin, std::size_t bend) {
        for (std::size_t b = bbegin; b < bend; ++b) {
            batched::TileLoad load = first;
            load.codes += b * block;
            int q = 0;
            do {
                const int w = std::min(2, low - q);
                ops.tiles(re + b * block * kL, im + b * block * kL, 0,
                          block >> w, q, w, c, s, load);
                load = stored;
                q += 2;
            } while (q < low);
        }
    };
    if (pooled)
        parallelForChunks(n / block, blocked,
                          std::max<std::size_t>(1, kChunkLen / block));
    else
        blocked(0, n / block);

    // Higher qubits: one full-state tile pass per two of them.
    for (int q = low; q < numQubits_; q += 2) {
        const int w = std::min(2, numQubits_ - q);
        if (pooled)
            parallelForChunks(
                n >> w,
                [&](std::size_t tb, std::size_t te) {
                    ops.tiles(re, im, tb, te, q, w, c, s, stored);
                },
                kChunkLen >> w);
        else
            ops.tiles(re, im, 0, n >> w, q, w, c, s, stored);
    }
}

void
BatchedStateSet::expectationFromCodes(std::span<const std::int32_t> codes,
                                      std::span<double> out)
{
    const std::size_t n = dim();
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
    // The scalar chunkedSum shape, per lane: serial single accumulator
    // below the parallel threshold / on a 1-thread pool; fixed-chunk
    // partials combined in chunk order otherwise.
    if (!intraStateParallel(n)) {
        double acc[kL] = {};
        ops.expect(re, im, cd, 0, n, acc);
        std::copy(acc, acc + kL, out.begin());
        return;
    }
    const std::size_t chunks = (n + kChunkLen - 1) / kChunkLen;
    thread_local std::vector<double> partial_scratch;
    partial_scratch.assign(chunks * kL, 0.0);
    double *partials = partial_scratch.data();
    parallelFor(chunks, [&, partials](std::size_t ch) {
        const std::size_t begin = ch * kChunkLen;
        ops.expect(re, im, cd, begin, std::min(n, begin + kChunkLen),
                   partials + ch * kL);
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
