#include "quantum/statevector.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "common/thread_pool.hpp"

namespace redqaoa {

namespace {

/**
 * Kernels go parallel above this many amplitudes (16k amps = 256 KiB,
 * enough work to amortize the fork-join). Below it, or on a 1-thread
 * pool, every loop is the plain serial one.
 */
constexpr std::size_t kMinParallelDim = std::size_t{1} << 14;

/**
 * Fixed reduction chunk: partial sums are always accumulated over
 * [c * kChunkLen, (c+1) * kChunkLen) windows and combined in window
 * order, so a parallel reduction is independent of the thread count.
 */
constexpr std::size_t kChunkLen = detail::kStateChunkLen;

/** Cache block for the fused mixer: 2^11 amps = 32 KiB, L1-resident. */
constexpr int kBlockQubits = 11;

using detail::intraStateParallel;

/**
 * chunk(begin, end) over the @p n stored amplitudes of a 2^n = @p dim
 * state: parallel when the state is large and the pool is
 * multi-threaded, inline otherwise. Only for element-wise updates, whose
 * values do not depend on the partition.
 */
template <typename Chunk>
void
forAmpChunks(std::size_t dim, std::size_t n, Chunk &&chunk)
{
    if (intraStateParallel(dim))
        parallelForChunks(n, chunk, kChunkLen);
    else
        chunk(0, n);
}

/**
 * Deterministic sum reduction: serial single-accumulator loop on a
 * 1-thread pool (bit-identical to the historical kernels), fixed-chunk
 * partials combined in chunk order otherwise (identical at every
 * thread count >= 2).
 */
template <typename PartialSum>
double
chunkedSum(std::size_t n, PartialSum &&partial_sum)
{
    if (!intraStateParallel(n))
        return partial_sum(0, n);
    const std::size_t chunks = (n + kChunkLen - 1) / kChunkLen;
    // Plain pointer into the caller's scratch: a thread_local named in
    // the worker lambda would resolve to the WORKER's instance.
    thread_local std::vector<double> partials;
    partials.assign(chunks, 0.0);
    double *out = partials.data();
    parallelFor(chunks, [&, out](std::size_t c) {
        const std::size_t begin = c * kChunkLen;
        out[c] = partial_sum(begin, std::min(n, begin + kChunkLen));
    });
    double total = 0.0;
    for (double p : partials)
        total += p;
    return total;
}

/** The RX butterfly: (a0, a1) <- RX-matrix * (a0, a1), real arithmetic. */
inline void
rxButterfly(Complex &a0, Complex &a1, double c, double s)
{
    const double re0 = a0.real(), im0 = a0.imag();
    const double re1 = a1.real(), im1 = a1.imag();
    a0 = Complex{c * re0 + s * im1, c * im0 - s * re1};
    a1 = Complex{c * re1 + s * im0, c * im1 - s * re0};
}

/** Serial RX pass over [0, n) with pair stride @p step. */
void
rxPass(Complex *amps, std::size_t n, std::size_t step, double c, double s)
{
    if (step == 1) {
        for (std::size_t i = 0; i < n; i += 2)
            rxButterfly(amps[i], amps[i + 1], c, s);
        return;
    }
    for (std::size_t base = 0; base < n; base += 2 * step)
        for (std::size_t i = base; i < base + step; ++i)
            rxButterfly(amps[i], amps[i + step], c, s);
}

/**
 * Parallel RX pass: the n/2 butterflies are independent, so they are
 * chunked over a flat pair index (value-identical to rxPass under any
 * partition).
 */
void
rxPassParallel(Complex *amps, std::size_t n, std::size_t step, double c,
               double s)
{
    const std::size_t mask = step - 1;
    parallelForChunks(
        n / 2,
        [&](std::size_t pb, std::size_t pe) {
            for (std::size_t p = pb; p < pe; ++p) {
                const std::size_t i = ((p & ~mask) << 1) | (p & mask);
                rxButterfly(amps[i], amps[i + step], c, s);
            }
        },
        kChunkLen / 2);
}

/**
 * The Pauli-Y butterfly: Y = [[0, -i], [i, 0]] as a swap with sign
 * flips. The 0 * v terms are the zero products the generic 2x2 path
 * adds (with -i = (-0, -1)), kept so that zero components keep the signs
 * apply1Q gave them; they never change a nonzero value.
 */
inline void
yButterfly(Complex &a0, Complex &a1)
{
    const double x = a0.real(), y = a0.imag();
    const double c = a1.real(), d = a1.imag();
    const double zx = 0.0 * x, zy = 0.0 * y;
    const double zc = 0.0 * c, zd = 0.0 * d;
    a0 = Complex{(zx - zy) + (d - zc), (zy + zx) + (-zd - c)};
    a1 = Complex{(zx - y) + (zc - zd), (zy + x) + (zd + zc)};
}

/**
 * The top qubit's pass over a mirrored state's @p half stored
 * amplitudes: stored z (top bit 0) pairs with z + 2^(n-1), which is
 * sign * amps[m] at its mirror m = half - 1 - z, and m pairs likewise
 * with sign * amps[z]. So one visit of z < m loads both and keeps the
 * a0 output of butterfly(a0, a1) for each; at n = 1 amplitude 0 is its
 * own mirror. Chunks of z touch disjoint z and m ranges.
 */
template <typename Butterfly>
void
mirrorPairPass(Complex *amps, std::size_t half, double sign, bool parallel,
               Butterfly &&butterfly)
{
    auto pairs = [&](std::size_t begin, std::size_t end) {
        for (std::size_t z = begin; z < end; ++z) {
            const std::size_t m = half - 1 - z;
            const Complex az = amps[z], am = amps[m];
            Complex z0 = az, z1{sign * am.real(), sign * am.imag()};
            Complex m0 = am, m1{sign * az.real(), sign * az.imag()};
            butterfly(z0, z1);
            butterfly(m0, m1);
            amps[z] = z0;
            amps[m] = m0;
        }
    };
    const std::size_t visits = (half + 1) / 2;
    if (parallel)
        parallelForChunks(visits, pairs, kChunkLen / 2);
    else
        pairs(0, visits);
}

/** One 1q-unitary butterfly (generic complex 2x2). */
inline void
gateButterfly(Complex &a0, Complex &a1, const Gate1Q &u)
{
    const Complex b0 = a0;
    const Complex b1 = a1;
    a0 = u[0] * b0 + u[1] * b1;
    a1 = u[2] * b0 + u[3] * b1;
}

/**
 * x * y as (ac - bd, ad + bc): for finite operands exactly what the
 * inline std::complex product rounds to, and what the batched lane
 * kernels compute, but without the NaN-recovery call (__muldc3) that
 * keeps a loop around the inline product scalar. Every per-amplitude
 * product of the diagonal passes goes through here.
 */
inline Complex
mulFinite(Complex x, Complex y)
{
    const double a = x.real(), b = x.imag();
    const double c = y.real(), d = y.imag();
    return Complex{a * c - b * d, a * d + b * c};
}

/**
 * Parity patterns of up to 8 outputs over the basis index: bit k of
 * at(i) is the parity of i & mask_k, and column[q] holds the outputs
 * whose mask has bit q. The pattern is linear in i over GF(2): going
 * from i to i + 1 flips the low r + 1 bits, r = ctz(i + 1), so the
 * pattern steps by delta[r], the XOR of columns 0..r.
 */
struct ParitySteps
{
    std::uint8_t column[32] = {};
    std::uint8_t delta[32] = {};

    /** Toggle qubit @p q in output @p k's mask (twice cancels). */
    void toggle(int q, std::size_t k)
    {
        column[q] ^= static_cast<std::uint8_t>(1u << k);
    }

    /** Fill delta from the columns; call after the last toggle. */
    void finish()
    {
        std::uint8_t run = 0;
        for (int r = 0; r < 32; ++r) {
            run ^= column[r];
            delta[r] = run;
        }
    }

    /** The pattern at index @p i: the XOR of its set bits' columns. */
    std::uint8_t at(std::size_t i) const
    {
        std::uint8_t pattern = 0;
        for (int q = 0; i != 0; ++q, i >>= 1)
            if (i & 1u)
                pattern ^= column[q];
        return pattern;
    }
};

/** Outputs per register block of the fused <Z>/<ZZ> readout. */
constexpr std::size_t kReadoutBlock = 8;

/** |amp|^2 values staged per tile of the fused readout (8 KiB). */
constexpr std::size_t kReadoutTile = 1024;

/** Row p, lane k: the sign bit iff bit k of p is set (-x = x ^ row). */
struct SignRows
{
    alignas(64) std::uint64_t row[256][kReadoutBlock];
};

constexpr SignRows
makeSignRows()
{
    SignRows t{};
    for (std::size_t p = 0; p < 256; ++p)
        for (std::size_t k = 0; k < kReadoutBlock; ++k)
            t.row[p][k] = ((p >> k) & 1u) ? std::uint64_t{1} << 63 : 0;
    return t;
}

constexpr SignRows kSignRows = makeSignRows();

} // namespace

Statevector::Statevector(int num_qubits)
    : numQubits_(num_qubits),
      amps_(static_cast<std::size_t>(1) << num_qubits, Complex{0.0, 0.0})
{
    assert(num_qubits >= 0 && num_qubits < 30);
    amps_[0] = 1.0;
}

Statevector
Statevector::uniform(int num_qubits, StateLayout layout)
{
    Statevector s(0);
    s.resetUniform(num_qubits, layout);
    return s;
}

void
Statevector::resetUniform(int num_qubits, StateLayout layout)
{
    assert(num_qubits >= 0 && num_qubits < 30);
    numQubits_ = num_qubits;
    mirrored_ = layout == StateLayout::kMirrored;
    sign_ = 1.0;
    const std::size_t dim = static_cast<std::size_t>(1) << num_qubits;
    const double a = 1.0 / std::sqrt(static_cast<double>(dim));
    amps_.assign(mirrored_ && num_qubits > 0 ? dim / 2 : dim,
                 Complex{a, 0.0});
}

void
Statevector::apply1Q(int q, const Gate1Q &u)
{
    assert(!mirrored_);
    const std::size_t step = static_cast<std::size_t>(1) << q;
    const std::size_t n = amps_.size();
    Complex *amps = amps_.data();
    if (intraStateParallel(n)) {
        const std::size_t mask = step - 1;
        parallelForChunks(
            n / 2,
            [&](std::size_t pb, std::size_t pe) {
                for (std::size_t p = pb; p < pe; ++p) {
                    const std::size_t i = ((p & ~mask) << 1) | (p & mask);
                    gateButterfly(amps[i], amps[i + step], u);
                }
            },
            kChunkLen / 2);
        return;
    }
    for (std::size_t base = 0; base < n; base += 2 * step)
        for (std::size_t i = base; i < base + step; ++i)
            gateButterfly(amps[i], amps[i + step], u);
}

void
Statevector::applyH(int q)
{
    const double s = 1.0 / std::sqrt(2.0);
    apply1Q(q, Gate1Q{Complex{s, 0}, Complex{s, 0}, Complex{s, 0},
                      Complex{-s, 0}});
}

void
Statevector::applyX(int q)
{
    const std::size_t n = amps_.size();
    if (isMirroredTop(q)) {
        auto swap = [](Complex &a0, Complex &a1) { std::swap(a0, a1); };
        mirrorPairPass(amps_.data(), n, sign_, intraStateParallel(dim()),
                       swap);
        return;
    }
    const std::size_t step = static_cast<std::size_t>(1) << q;
    for (std::size_t base = 0; base < n; base += 2 * step)
        for (std::size_t i = base; i < base + step; ++i)
            std::swap(amps_[i], amps_[i + step]);
}

void
Statevector::applyY(int q)
{
    const std::size_t n = amps_.size();
    Complex *amps = amps_.data();
    if (isMirroredTop(q)) {
        mirrorPairPass(amps, n, sign_, intraStateParallel(dim()),
                       yButterfly);
    } else {
        const std::size_t step = static_cast<std::size_t>(1) << q;
        for (std::size_t base = 0; base < n; base += 2 * step)
            for (std::size_t i = base; i < base + step; ++i)
                yButterfly(amps[i], amps[i + step]);
    }
    // Y anticommutes with the global flip.
    if (mirrored_)
        sign_ = -sign_;
}

void
Statevector::applyZ(int q)
{
    // Z anticommutes with the global flip; on the top qubit it only
    // negates amplitudes that a mirrored state does not store.
    if (mirrored_)
        sign_ = -sign_;
    if (isMirroredTop(q))
        return;
    const std::size_t step = static_cast<std::size_t>(1) << q;
    const std::size_t n = amps_.size();
    for (std::size_t base = 0; base < n; base += 2 * step)
        for (std::size_t i = base; i < base + step; ++i)
            amps_[i + step] = -amps_[i + step];
}

void
Statevector::applyRx(int q, double theta)
{
    applyRx(q, std::cos(theta / 2.0), std::sin(theta / 2.0));
}

void
Statevector::applyRx(int q, double c, double s)
{
    const bool parallel = intraStateParallel(dim());
    if (isMirroredTop(q)) {
        auto rx = [c, s](Complex &a0, Complex &a1) {
            rxButterfly(a0, a1, c, s);
        };
        mirrorPairPass(amps_.data(), amps_.size(), sign_, parallel, rx);
        return;
    }
    const std::size_t step = static_cast<std::size_t>(1) << q;
    if (parallel)
        rxPassParallel(amps_.data(), amps_.size(), step, c, s);
    else
        rxPass(amps_.data(), amps_.size(), step, c, s);
}

void
Statevector::applyRy(int q, double theta)
{
    double c = std::cos(theta / 2.0);
    double s = std::sin(theta / 2.0);
    apply1Q(q, Gate1Q{Complex{c, 0}, Complex{-s, 0}, Complex{s, 0},
                      Complex{c, 0}});
}

void
Statevector::applyRz(int q, double theta)
{
    assert(!mirrored_);
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    const Complex mul[2] = {Complex{c, -s}, Complex{c, s}};
    const std::size_t n = amps_.size();
    Complex *amps = amps_.data();
    forAmpChunks(n, n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            amps[i] = mulFinite(amps[i], mul[(i >> q) & 1u]);
    });
}

void
Statevector::applyCnot(int c, int t)
{
    assert(!mirrored_);
    const std::uint64_t cbit = static_cast<std::uint64_t>(1) << c;
    const std::uint64_t tbit = static_cast<std::uint64_t>(1) << t;
    const std::size_t n = amps_.size();
    for (std::size_t i = 0; i < n; ++i) {
        if ((i & cbit) && !(i & tbit))
            std::swap(amps_[i], amps_[i | tbit]);
    }
}

void
Statevector::applyRzz(int a, int b, double theta)
{
    applyRzz0(makeRzzTerm(a, b, theta));
}

void
Statevector::applyRzzBatch(std::span<const RzzTerm> terms)
{
    // Tile width: adaptive so the phase-product table build never
    // rivals the state pass itself (table <= dim/4 entries), capped at
    // 2^8 = 4 KiB (L1-resident). Keyed on the full dim in either layout:
    // a different tiling rounds the phase products differently. A term
    // on a mirrored state's top qubit reads that bit as 0 over the
    // stored half, and its mirror has both parity bits flipped.
    const std::size_t dim = this->dim();
    const std::size_t n = amps_.size();
    Complex *amps = amps_.data();
    std::size_t group = 8;
    while (group > 1 && (std::size_t{1} << group) > dim / 4)
        --group;
    for (std::size_t offset = 0; offset < terms.size(); offset += group) {
        const std::size_t k = std::min(group, terms.size() - offset);
        if (k == 1) {
            applyRzz0(terms[offset]);
            continue;
        }
        Complex table[std::size_t{1} << 8];
        table[0] = Complex{1.0, 0.0};
        std::size_t filled = 1;
        ParitySteps steps;
        for (std::size_t j = 0; j < k; ++j) {
            const RzzTerm &t = terms[offset + j];
            for (std::size_t idx = 0; idx < filled; ++idx) {
                table[idx | filled] = mulFinite(table[idx], t.odd);
                table[idx] = mulFinite(table[idx], t.even);
            }
            filled <<= 1;
            // Term j's parity is that of i & (bit a ^ bit b): a self
            // pair toggles nothing, as Z_a Z_a = I.
            steps.toggle(t.a, j);
            steps.toggle(t.b, j);
        }
        steps.finish();
        // The table row steps with i (ParitySteps), so the per-amplitude
        // cost is one ctz + xor + lookup + multiply, independent of the
        // tile width.
        forAmpChunks(dim, n, [&](std::size_t begin, std::size_t end) {
            std::uint8_t idx = steps.at(begin);
            for (std::size_t i = begin; i < end; ++i) {
                amps[i] = mulFinite(amps[i], table[idx]);
                idx ^= steps.delta[std::countr_zero(i + 1)];
            }
        });
    }
}

void
Statevector::applyRzz0(const RzzTerm &t)
{
    const Complex mul[2] = {t.even, t.odd};
    const std::size_t n = amps_.size();
    Complex *amps = amps_.data();
    const int a = t.a, b = t.b;
    forAmpChunks(dim(), n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            amps[i] = mulFinite(amps[i], mul[((i >> a) ^ (i >> b)) & 1u]);
    });
}

void
Statevector::applyDiagonalPhase(const std::vector<double> &diag, double angle)
{
    assert(!mirrored_ && diag.size() == amps_.size());
    const std::size_t n = amps_.size();
    Complex *amps = amps_.data();
    forAmpChunks(n, n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            double phi = -angle * diag[i];
            amps[i] = mulFinite(amps[i],
                                Complex{std::cos(phi), std::sin(phi)});
        }
    });
}

void
Statevector::applyPhaseTable(std::span<const std::int32_t> codes,
                             std::span<const Complex> phases)
{
    assert(!mirrored_ && codes.size() == amps_.size());
    const std::size_t n = amps_.size();
    Complex *amps = amps_.data();
    forAmpChunks(n, n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            amps[i] = mulFinite(amps[i],
                                phases[static_cast<std::size_t>(codes[i])]);
    });
}

void
Statevector::applyRxAll(double theta)
{
    assert(!mirrored_);
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    const std::size_t n = amps_.size();
    Complex *amps = amps_.data();

    // Low qubits: fused back-to-back butterflies inside each cache
    // block. Qubits below the block size never pair across blocks, so
    // this is bit-identical to full per-qubit passes — it just visits
    // memory once per block instead of once per qubit.
    const int low = std::min(numQubits_, kBlockQubits);
    const std::size_t block = std::size_t{1} << low;
    const std::size_t blocks = n / block;
    auto fused = [&](std::size_t bbegin, std::size_t bend) {
        for (std::size_t b = bbegin; b < bend; ++b) {
            Complex *base = amps + b * block;
            for (int q = 0; q < low; ++q)
                rxPass(base, block, std::size_t{1} << q, c, s);
        }
    };
    if (intraStateParallel(n))
        parallelForChunks(blocks, fused,
                          std::max<std::size_t>(1, kChunkLen / block));
    else
        fused(0, blocks);

    // High qubits: one strided streaming pass each (inner runs are at
    // least a full cache block, so these are bandwidth-bound anyway).
    for (int q = low; q < numQubits_; ++q) {
        const std::size_t step = std::size_t{1} << q;
        if (intraStateParallel(n))
            rxPassParallel(amps, n, step, c, s);
        else
            rxPass(amps, n, step, c, s);
    }
}

double
Statevector::norm2() const
{
    assert(!mirrored_);
    const Complex *amps = amps_.data();
    return chunkedSum(amps_.size(), [&](std::size_t begin, std::size_t end) {
        double s = 0.0;
        for (std::size_t i = begin; i < end; ++i)
            s += std::norm(amps[i]);
        return s;
    });
}

std::vector<double>
Statevector::probabilities() const
{
    assert(!mirrored_);
    const std::size_t n = amps_.size();
    std::vector<double> p(n);
    const Complex *amps = amps_.data();
    forAmpChunks(n, n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            p[i] = std::norm(amps[i]);
    });
    return p;
}

double
Statevector::zzExpectation(int a, int b) const
{
    assert(!mirrored_);
    const Complex *amps = amps_.data();
    return chunkedSum(amps_.size(), [&](std::size_t begin, std::size_t end) {
        double s = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
            double pr = std::norm(amps[i]);
            s += (((i >> a) ^ (i >> b)) & 1u) ? -pr : pr;
        }
        return s;
    });
}

double
Statevector::zExpectation(int q) const
{
    assert(!mirrored_);
    const Complex *amps = amps_.data();
    return chunkedSum(amps_.size(), [&](std::size_t begin, std::size_t end) {
        double s = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
            double pr = std::norm(amps[i]);
            s += ((i >> q) & 1u) ? -pr : pr;
        }
        return s;
    });
}

void
Statevector::zAndZzExpectations(std::span<const std::pair<int, int>> pairs,
                                std::span<double> z_out,
                                std::span<double> zz_out) const
{
    assert(z_out.empty() ||
           z_out.size() == static_cast<std::size_t>(numQubits_));
    assert(zz_out.size() == pairs.size());
    const std::size_t dim = this->dim();
    const std::size_t nz = z_out.size();
    const std::size_t ne = pairs.size();
    const std::size_t outs = nz + ne;
    if (outs == 0)
        return;

    // Output o lives in lane o % 8 of register block o / 8; the sign of
    // its term at index i is the parity of i & mask_o (one bit for <Z>,
    // two for <ZZ>), so each block's sign pattern steps with i.
    const std::size_t blocks = (outs + kReadoutBlock - 1) / kReadoutBlock;
    const std::size_t width = blocks * kReadoutBlock;
    thread_local std::vector<ParitySteps> steps_scratch;
    steps_scratch.assign(blocks, ParitySteps{});
    ParitySteps *steps = steps_scratch.data();
    for (std::size_t q = 0; q < nz; ++q)
        steps[q / kReadoutBlock].toggle(static_cast<int>(q),
                                        q % kReadoutBlock);
    for (std::size_t k = 0; k < ne; ++k) {
        const std::size_t o = nz + k;
        steps[o / kReadoutBlock].toggle(pairs[k].first, o % kReadoutBlock);
        steps[o / kReadoutBlock].toggle(pairs[k].second, o % kReadoutBlock);
    }
    for (std::size_t b = 0; b < blocks; ++b)
        steps[b].finish();

    // Each accumulator adds its +-|amp|^2 terms in index order, exactly
    // as a per-output loop would: the sign is applied by XOR-ing the
    // sign bit from the pattern's row, with no branch per term. A
    // mirrored state's index i >= stored is read at dim - 1 - i.
    const Complex *amps = amps_.data();
    const std::size_t stored = amps_.size();
    auto accumulate = [=](std::size_t begin, std::size_t end, double *acc) {
        double pr[kReadoutTile];
        for (std::size_t tile = begin; tile < end; tile += kReadoutTile) {
            const std::size_t len = std::min(end - tile, kReadoutTile);
            const std::size_t below =
                std::min(len, stored - std::min(stored, tile));
            for (std::size_t j = 0; j < below; ++j)
                pr[j] = std::norm(amps[tile + j]);
            for (std::size_t j = below; j < len; ++j)
                pr[j] = std::norm(amps[dim - 1 - (tile + j)]);
            for (std::size_t b = 0; b < blocks; ++b) {
                const ParitySteps &ps = steps[b];
                double *block_acc = acc + b * kReadoutBlock;
                double sum[kReadoutBlock];
                std::copy_n(block_acc, kReadoutBlock, sum);
                std::uint8_t pattern = ps.at(tile);
                for (std::size_t j = 0; j < len; ++j) {
                    const auto bits = std::bit_cast<std::uint64_t>(pr[j]);
                    const std::uint64_t *sign = kSignRows.row[pattern];
                    for (std::size_t k = 0; k < kReadoutBlock; ++k)
                        sum[k] += std::bit_cast<double>(bits ^ sign[k]);
                    pattern ^= ps.delta[std::countr_zero(tile + j + 1)];
                }
                std::copy_n(sum, kReadoutBlock, block_acc);
            }
        }
    };

    thread_local std::vector<double> acc;
    if (!intraStateParallel(dim)) {
        acc.assign(width, 0.0);
        accumulate(0, dim, acc.data());
    } else {
        const std::size_t chunks = (dim + kChunkLen - 1) / kChunkLen;
        thread_local std::vector<double> partial_scratch;
        partial_scratch.assign(chunks * width, 0.0);
        double *partials = partial_scratch.data();
        parallelFor(chunks, [&, partials](std::size_t c) {
            const std::size_t begin = c * kChunkLen;
            accumulate(begin, std::min(dim, begin + kChunkLen),
                       partials + c * width);
        });
        acc.assign(width, 0.0);
        for (std::size_t c = 0; c < chunks; ++c)
            for (std::size_t j = 0; j < outs; ++j)
                acc[j] += partials[c * width + j];
    }
    for (std::size_t q = 0; q < nz; ++q)
        z_out[q] = acc[q];
    for (std::size_t k = 0; k < ne; ++k)
        zz_out[k] = acc[nz + k];
}

double
Statevector::expectationFromTable(std::span<const double> diag) const
{
    assert(!mirrored_ && diag.size() == amps_.size());
    const Complex *amps = amps_.data();
    return chunkedSum(amps_.size(), [&](std::size_t begin, std::size_t end) {
        double s = 0.0;
        for (std::size_t i = begin; i < end; ++i)
            s += std::norm(amps[i]) * diag[i];
        return s;
    });
}

double
Statevector::expectationFromCodes(std::span<const std::int32_t> codes) const
{
    assert(!mirrored_ && codes.size() == amps_.size());
    const Complex *amps = amps_.data();
    return chunkedSum(amps_.size(), [&](std::size_t begin, std::size_t end) {
        double s = 0.0;
        for (std::size_t i = begin; i < end; ++i)
            s += std::norm(amps[i]) * static_cast<double>(codes[i]);
        return s;
    });
}

std::vector<std::uint64_t>
Statevector::sample(int shots, Rng &rng) const
{
    std::vector<std::uint64_t> out;
    sampleInto(shots, rng, out);
    return out;
}

void
Statevector::sampleInto(int shots, Rng &rng,
                        std::vector<std::uint64_t> &out) const
{
    // Cumulative distribution + binary search per shot; the table is
    // per-thread scratch so batch sweeps do not allocate it each call.
    // It covers the full index order, a mirrored state's index
    // i >= stored read at dim - 1 - i.
    const std::size_t dim = this->dim();
    const std::size_t stored = amps_.size();
    thread_local std::vector<double> cdf_scratch;
    cdf_scratch.resize(dim);
    double *cdf = cdf_scratch.data();
    double acc = 0.0;
    for (std::size_t i = 0; i < stored; ++i) {
        acc += std::norm(amps_[i]);
        cdf[i] = acc;
    }
    for (std::size_t i = stored; i < dim; ++i) {
        acc += std::norm(amps_[dim - 1 - i]);
        cdf[i] = acc;
    }
    out.clear();
    out.reserve(static_cast<std::size_t>(shots));
    for (int s = 0; s < shots; ++s) {
        double u = rng.uniform() * acc;
        // Branchless fixed-depth lower bound (dim is a power of two):
        // pos ends as the count of cdf entries < u, i.e. the first
        // index with cdf[pos] >= u — identical to std::lower_bound.
        std::size_t pos = 0;
        for (std::size_t len = dim >> 1; len > 0; len >>= 1)
            if (cdf[pos + len - 1] < u)
                pos += len;
        out.push_back(pos);
    }
}

void
buildPhaseTable(int max_code, double angle, std::vector<Complex> &out)
{
    out.resize(static_cast<std::size_t>(max_code) + 1);
    for (int c = 0; c <= max_code; ++c) {
        double phi = -angle * static_cast<double>(c);
        out[static_cast<std::size_t>(c)] =
            Complex{std::cos(phi), std::sin(phi)};
    }
}

namespace detail {

bool
intraStateParallel(std::size_t dim)
{
    return dim >= kMinParallelDim && ThreadPool::globalThreadCount() > 1;
}

} // namespace detail

Statevector &
scratchUniformState(StateScratch slot, int num_qubits, StateLayout layout)
{
    thread_local std::array<Statevector, 3> states{
        Statevector(0), Statevector(0), Statevector(0)};
    Statevector &s = states[static_cast<std::size_t>(slot)];
    s.resetUniform(num_qubits, layout);
    return s;
}

} // namespace redqaoa
