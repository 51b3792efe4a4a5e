/**
 * @file
 * Kernel-overhaul equivalence suite. Three layers of protection:
 *  - golden values: ExactEvaluator / NoisyEvaluator / LightconeEvaluator
 *    expectations on fixed graphs+params, pinned to 1e-12 against the
 *    values the pre-overhaul kernels produced (captured at threads=1),
 *    and hashes of trajectory estimator bits at 1 and 4 threads;
 *  - kernel equivalences: each fused/fast-path kernel against the
 *    simple reference it replaced, bit-for-bit;
 *  - thread-count invariance: the intra-state parallel paths must give
 *    identical results at 2 and 8 threads, and stay within 1e-12 of
 *    the serial 1-thread value (reductions regroup into fixed chunks
 *    above the parallel threshold, so ulp-level drift is allowed
 *    across the 1-vs-many boundary but nothing more).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <span>
#include <string_view>

#include "common/thread_pool.hpp"
#include "graph/generators.hpp"
#include "quantum/batched_state.hpp"
#include "quantum/evaluator.hpp"

namespace redqaoa {
namespace {

constexpr double kGolden = 1e-12;

class ThreadGuard
{
  public:
    ThreadGuard() : saved_(ThreadPool::globalThreadCount()) {}
    ~ThreadGuard() { ThreadPool::setGlobalThreads(saved_); }

  private:
    int saved_;
};

// ---------------------------------------------------------------------
// Golden values (generated with the pre-overhaul scalar kernels).
// ---------------------------------------------------------------------

TEST(KernelGolden, ExactEvaluatorMatchesPreOverhaul)
{
    Rng rng(3);
    Graph g = gen::connectedGnp(10, 0.4, rng);
    ASSERT_EQ(g.numEdges(), 18);
    ExactEvaluator eval(g);
    EXPECT_NEAR(eval.expectation(QaoaParams({0.8}, {0.4})),
                10.986896769608293, kGolden);
    EXPECT_NEAR(eval.expectation(
                    QaoaParams({0.8, 0.5, 0.3}, {0.4, 0.2, 0.1})),
                11.243914612497715, kGolden);
}

TEST(KernelGolden, NoisyEvaluatorMatchesPreOverhaul)
{
    // The trajectory path must consume the RNG stream exactly as the
    // historical per-gate implementation did; any drift shows up here
    // as a large delta, not an ulp.
    Rng rng(5);
    Graph g = gen::connectedGnp(8, 0.45, rng);
    ASSERT_EQ(g.numEdges(), 14);
    QaoaParams p2({0.8, 0.5}, {0.4, 0.2});
    NoisyEvaluator exact_readout(g, noise::ibmKolkata(), 8, 7, 0);
    EXPECT_NEAR(exact_readout.expectation(p2), 8.0074688351753913,
                kGolden);
    NoisyEvaluator sampled(g, noise::ibmKolkata(), 8, 7, 333);
    EXPECT_NEAR(sampled.expectation(p2), 8.0792682926829276, kGolden);
}

TEST(KernelGolden, LightconeEvaluatorMatchesPreOverhaul)
{
    Rng rng(11);
    Graph g = gen::randomRegular(20, 3, rng);
    ASSERT_EQ(g.numEdges(), 30);
    QaoaParams p2({0.8, 0.5}, {0.4, 0.2});
    LightconeCutEvaluator cone12(g, 2, 12);
    EXPECT_NEAR(cone12.expectation(p2), 19.406385972506314, kGolden);
    LightconeCutEvaluator cone16(g, 2, 16);
    EXPECT_NEAR(cone16.expectation(p2), 19.400396703537446, kGolden);
}

// ---------------------------------------------------------------------
// Trajectory pins: a 64-bit hash over the bits of every trajectory
// estimator value (exact readout, sampled, batched) under two transpiled
// device models, recorded before the trajectory kernels were rewritten.
// n = 14 at 4 threads runs the chunked reductions, whose grouping
// differs from the serial one, so each thread count has its own hash.
// ---------------------------------------------------------------------

/** FNV-1a step over the 8 bytes of @p bits. */
void
fnvMix(std::uint64_t &h, std::uint64_t bits)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ull;
    }
}

std::uint64_t
trajectoryValuesHash(const NoiseModel &device)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](double v) { fnvMix(h, std::bit_cast<std::uint64_t>(v)); };
    for (int n : {5, 8, 12, 14}) {
        Rng grng(static_cast<std::uint64_t>(n) * 7 + 3);
        Graph g = gen::connectedGnp(n, 0.35, grng);
        for (int p : {1, 2}) {
            Rng prng(static_cast<std::uint64_t>(n) * 31 + p);
            const QaoaParams pts[2] = {QaoaParams::random(p, prng),
                                       QaoaParams::random(p, prng)};
            TrajectorySimulator sim(g, noise::transpiled(device, n), 4,
                                    static_cast<std::uint64_t>(n + p));
            mix(sim.expectation(pts[0]));
            mix(sim.sampledExpectation(pts[1], 96));
            for (double v : sim.batchExpectation(pts))
                mix(v);
        }
    }
    return h;
}

TEST(KernelGolden, TrajectoryValuesMatchPinnedHashes)
{
    ThreadGuard guard;
    struct Pin
    {
        const char *device;
        NoiseModel model;
        int threads;
        std::uint64_t hash;
    };
    const NoiseModel kolkata = noise::ibmKolkata();
    const NoiseModel melbourne = noise::ibmMelbourne();
    const Pin pins[] = {
        {"ibmq_kolkata", kolkata, 1, 0x915f31dfbe578710ull},
        {"ibmq_kolkata", kolkata, 4, 0x140029bf8ace7e03ull},
        {"ibmq_16_melbourne", melbourne, 1, 0x21163e68765d4db0ull},
        {"ibmq_16_melbourne", melbourne, 4, 0x5306e9593d9eda17ull},
    };
    for (const Pin &pin : pins) {
        ThreadPool::setGlobalThreads(pin.threads);
        const std::uint64_t got = trajectoryValuesHash(pin.model);
        EXPECT_EQ(got, pin.hash) << pin.device << " at " << pin.threads
                                 << " threads: hash 0x" << std::hex << got;
    }
}

// ---------------------------------------------------------------------
// Fused / fast-path kernels against their references, bit for bit (on a
// 1-thread pool, where every kernel takes the serial path, unless a
// test also runs 4 threads).
// ---------------------------------------------------------------------

/**
 * Random amplitudes in which about half of the components are zeros of
 * either sign, so signed-zero rounding is exercised too.
 */
Statevector
randomState(int n, std::uint64_t seed)
{
    Rng rng(seed);
    Statevector psi(n);
    auto component = [&rng] {
        const double v = rng.uniform(-1.0, 1.0);
        switch (rng.index(4)) {
          case 0:
            return 0.0;
          case 1:
            return -0.0;
          default:
            return v;
        }
    };
    for (std::size_t i = 0; i < psi.dim(); ++i) {
        const double re = component();
        psi[i] = Complex{re, component()};
    }
    return psi;
}

/** Bit patterns of every amplitude component (signed zeros included). */
std::vector<std::uint64_t>
ampBits(const std::vector<Complex> &amps)
{
    std::vector<std::uint64_t> bits;
    bits.reserve(2 * amps.size());
    for (const Complex &a : amps) {
        bits.push_back(std::bit_cast<std::uint64_t>(a.real()));
        bits.push_back(std::bit_cast<std::uint64_t>(a.imag()));
    }
    return bits;
}

/** Every fused readout output equals its per-output sum, bit for bit. */
void
expectFusedReadoutBitwise(const Statevector &psi,
                          const std::vector<std::pair<int, int>> &pairs)
{
    std::vector<double> z(static_cast<std::size_t>(psi.numQubits()));
    std::vector<double> zz(pairs.size());
    psi.zAndZzExpectations(pairs, z, zz);
    for (int q = 0; q < psi.numQubits(); ++q)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      z[static_cast<std::size_t>(q)]),
                  std::bit_cast<std::uint64_t>(psi.zExpectation(q)))
            << "Z" << q;
    for (std::size_t k = 0; k < pairs.size(); ++k)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(zz[k]),
                  std::bit_cast<std::uint64_t>(psi.zzExpectation(
                      pairs[k].first, pairs[k].second)))
            << "pair " << k;
    // Without the <Z> outputs the pair sums are unchanged.
    std::vector<double> zz_only(pairs.size());
    psi.zAndZzExpectations(pairs, {}, zz_only);
    EXPECT_EQ(zz_only, zz);
}

TEST(KernelEquivalence, PhaseTableMatchesDiagonalPhaseBitwise)
{
    ThreadGuard guard;
    ThreadPool::setGlobalThreads(1);
    Rng rng(21);
    Graph g = gen::connectedGnp(9, 0.4, rng);
    CutTable table = makeCutTable(g);
    std::vector<double> diag(table.codes.size());
    for (std::size_t z = 0; z < diag.size(); ++z)
        diag[z] = static_cast<double>(table.codes[z]);
    const double angle = 0.731;
    std::vector<Complex> phases;
    buildPhaseTable(table.maxCode, angle, phases);

    Statevector a = Statevector::uniform(9);
    Statevector b = Statevector::uniform(9);
    a.applyRxAll(0.9); // Some structure before the layer under test.
    b.applyRxAll(0.9);
    a.applyDiagonalPhase(diag, angle);
    b.applyPhaseTable(table.codes, phases);
    for (std::size_t i = 0; i < a.dim(); ++i) {
        EXPECT_EQ(a[i].real(), b[i].real());
        EXPECT_EQ(a[i].imag(), b[i].imag());
    }
}

TEST(KernelEquivalence, FusedRxAllMatchesPerQubitRxBitwise)
{
    ThreadGuard guard;
    ThreadPool::setGlobalThreads(1);
    for (int n : {3, 11, 13}) { // Below, at, and above the cache block.
        Statevector a = Statevector::uniform(n);
        Statevector b = Statevector::uniform(n);
        a.applyDiagonalPhase(std::vector<double>(a.dim(), 1.5), 0.8);
        b.applyDiagonalPhase(std::vector<double>(b.dim(), 1.5), 0.8);
        a.applyRxAll(0.7);
        for (int q = 0; q < n; ++q)
            b.applyRx(q, 0.7);
        for (std::size_t i = 0; i < a.dim(); ++i) {
            ASSERT_EQ(a[i].real(), b[i].real()) << "n=" << n;
            ASSERT_EQ(a[i].imag(), b[i].imag()) << "n=" << n;
        }
    }
}

TEST(KernelEquivalence, RzzBatchMatchesSequentialRzz)
{
    ThreadGuard guard;
    ThreadPool::setGlobalThreads(1);
    Rng rng(33);
    const int n = 10;
    std::vector<RzzTerm> terms;
    Statevector a = Statevector::uniform(n);
    Statevector b = Statevector::uniform(n);
    for (int t = 0; t < 17; ++t) { // Spans several batch tiles.
        int u = static_cast<int>(rng.index(n));
        int v = (u + 1 + static_cast<int>(rng.index(n - 1))) % n;
        double theta = rng.uniform(-1.5, 1.5);
        terms.push_back(makeRzzTerm(u, v, theta));
        b.applyRzz(u, v, theta);
    }
    // Self pairs share the last tile: Z_a Z_a = I, so RZZ(a, a) is the
    // even phase everywhere, in the batch as in the one-term pass.
    for (int u : {0, 4, 9}) {
        const double theta = rng.uniform(-1.5, 1.5);
        terms.push_back(makeRzzTerm(u, u, theta));
        b.applyRzz(u, u, theta);
    }
    a.applyRzzBatch(terms);
    for (std::size_t i = 0; i < a.dim(); ++i)
        EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-14)
            << "batched phase product drifted at amp " << i;
}

TEST(KernelEquivalence, FusedZAndZzMatchesIndividualBitwise)
{
    ThreadGuard guard;
    ThreadPool::setGlobalThreads(1);
    Rng rng(44);
    Graph g = gen::connectedGnp(8, 0.5, rng);
    QaoaSimulator sim(g);
    Statevector psi = sim.state(QaoaParams({0.8}, {0.4}));

    std::vector<std::pair<int, int>> pairs;
    for (const Edge &e : g.edges())
        pairs.emplace_back(e.u, e.v);
    std::vector<double> z(static_cast<std::size_t>(g.numNodes()));
    std::vector<double> zz(pairs.size());
    psi.zAndZzExpectations(pairs, z, zz);
    for (int q = 0; q < g.numNodes(); ++q)
        EXPECT_EQ(z[static_cast<std::size_t>(q)], psi.zExpectation(q));
    for (std::size_t k = 0; k < pairs.size(); ++k)
        EXPECT_EQ(zz[k],
                  psi.zzExpectation(pairs[k].first, pairs[k].second));

    // Random states with more than 8 outputs, never a multiple of 8, so
    // the last register block is partial; the pairs include a self pair
    // and a reversed one. n = 14 at 4 threads takes the chunked path.
    for (int threads : {1, 4}) {
        ThreadPool::setGlobalThreads(threads);
        for (int n : {3, 9, 12, 14}) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         " threads=" + std::to_string(threads));
            Rng state_rng(static_cast<std::uint64_t>(n) * 17 + 2);
            std::vector<std::pair<int, int>> more{{0, 0}, {n - 1, 0}};
            const std::size_t count = n == 3 ? 6 : 3 * n + 1;
            while (more.size() < count) {
                const int u = static_cast<int>(state_rng.index(n));
                const int v =
                    (u + 1 + static_cast<int>(state_rng.index(n - 1))) % n;
                more.emplace_back(u, v);
            }
            ASSERT_NE((n + more.size()) % 8, 0u);
            expectFusedReadoutBitwise(randomState(n, state_rng.bits53()),
                                      more);
        }
    }
}

/** applyRzz as a std::complex operator* loop. */
void
referenceRzz(std::vector<Complex> &amps, const RzzTerm &t)
{
    for (std::size_t i = 0; i < amps.size(); ++i)
        amps[i] *= ((i >> t.a) ^ (i >> t.b)) & 1u ? t.odd : t.even;
}

/**
 * applyRzzBatch as std::complex operator* loops: the same tiles, the
 * same phase-product table built in the same order, and each
 * amplitude's table row found from its term parities directly.
 */
void
referenceRzzBatch(std::vector<Complex> &amps, std::span<const RzzTerm> terms)
{
    std::size_t group = 8;
    while (group > 1 && (std::size_t{1} << group) > amps.size() / 4)
        --group;
    for (std::size_t offset = 0; offset < terms.size(); offset += group) {
        const std::size_t k = std::min(group, terms.size() - offset);
        if (k == 1) {
            referenceRzz(amps, terms[offset]);
            continue;
        }
        std::vector<Complex> table(std::size_t{1} << k);
        table[0] = Complex{1.0, 0.0};
        for (std::size_t j = 0, filled = 1; j < k; ++j, filled <<= 1) {
            for (std::size_t idx = 0; idx < filled; ++idx) {
                table[idx | filled] = table[idx] * terms[offset + j].odd;
                table[idx] = table[idx] * terms[offset + j].even;
            }
        }
        for (std::size_t i = 0; i < amps.size(); ++i) {
            std::size_t idx = 0;
            for (std::size_t j = 0; j < k; ++j) {
                const RzzTerm &t = terms[offset + j];
                idx |= (((i >> t.a) ^ (i >> t.b)) & 1u) << j;
            }
            amps[i] *= table[idx];
        }
    }
}

TEST(KernelEquivalence, DiagonalPassesMatchComplexProductLoopsBitwise)
{
    // n = 4 shrinks the RZZ tile to 2 terms; n = 15 at 4 threads runs
    // the chunked element-wise paths.
    ThreadGuard guard;
    for (int threads : {1, 4}) {
        ThreadPool::setGlobalThreads(threads);
        for (int n : {4, 12, 15}) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         " threads=" + std::to_string(threads));
            Rng rng(static_cast<std::uint64_t>(n) * 5 + 1);
            const Statevector start = randomState(n, rng.bits53());

            // 17 terms: full tiles plus a one-term remainder (applyRzz0).
            std::vector<RzzTerm> terms;
            for (int t = 0; t < 17; ++t) {
                const int u = static_cast<int>(rng.index(n));
                const int v =
                    (u + 1 + static_cast<int>(rng.index(n - 1))) % n;
                terms.push_back(makeRzzTerm(u, v, rng.uniform(-2.0, 2.0)));
            }
            Statevector batch = start;
            batch.applyRzzBatch(terms);
            std::vector<Complex> want = start.amplitudes();
            referenceRzzBatch(want, terms);
            EXPECT_EQ(ampBits(batch.amplitudes()), ampBits(want))
                << "applyRzzBatch";

            Statevector single = start;
            want = start.amplitudes();
            for (const RzzTerm &t : terms) {
                const double theta = rng.uniform(-2.0, 2.0);
                single.applyRzz(t.a, t.b, theta);
                referenceRzz(want, makeRzzTerm(t.a, t.b, theta));
            }
            EXPECT_EQ(ampBits(single.amplitudes()), ampBits(want))
                << "applyRzz";

            Statevector rz = start;
            want = start.amplitudes();
            for (int q = 0; q < n; ++q) {
                const double theta = rng.uniform(-2.0, 2.0);
                rz.applyRz(q, theta);
                const Complex mul[2] = {
                    Complex{std::cos(theta / 2.0), -std::sin(theta / 2.0)},
                    Complex{std::cos(theta / 2.0), std::sin(theta / 2.0)}};
                for (std::size_t i = 0; i < want.size(); ++i)
                    want[i] *= mul[(i >> q) & 1u];
            }
            EXPECT_EQ(ampBits(rz.amplitudes()), ampBits(want)) << "applyRz";

            const int max_code = 3 * n;
            std::vector<std::int32_t> codes(start.dim());
            for (std::int32_t &c : codes)
                c = static_cast<std::int32_t>(
                    rng.index(static_cast<std::size_t>(max_code) + 1));
            std::vector<Complex> phases;
            buildPhaseTable(max_code, 0.77, phases);
            Statevector table = start;
            table.applyPhaseTable(codes, phases);
            want = start.amplitudes();
            for (std::size_t i = 0; i < want.size(); ++i)
                want[i] *= phases[static_cast<std::size_t>(codes[i])];
            EXPECT_EQ(ampBits(table.amplitudes()), ampBits(want))
                << "applyPhaseTable";
        }
    }
}

TEST(KernelEquivalence, PauliYMatchesGenericGateBitwise)
{
    // The Y matrix exactly as the generic path has always been handed
    // it: -i carries a negative-zero real part.
    const Complex i_unit{0.0, 1.0};
    const Gate1Q y{Complex{0, 0}, -i_unit, i_unit, Complex{0, 0}};
    ThreadGuard guard;
    for (int threads : {1, 4}) {
        ThreadPool::setGlobalThreads(threads);
        for (int n : {4, 12, 15}) {
            const Statevector start = randomState(n, 900 + n);
            for (int q : {0, n / 2, n - 1}) {
                Statevector fast = start;
                Statevector generic = start;
                fast.applyY(q);
                generic.apply1Q(q, y);
                EXPECT_EQ(ampBits(fast.amplitudes()),
                          ampBits(generic.amplitudes()))
                    << "n=" << n << " q=" << q << " threads=" << threads;
            }
        }
    }
}

TEST(KernelEquivalence, ExpectationFromTableMatchesManualLoop)
{
    ThreadGuard guard;
    ThreadPool::setGlobalThreads(1);
    Rng rng(55);
    Graph g = gen::connectedGnp(9, 0.35, rng);
    QaoaSimulator sim(g);
    Statevector psi = sim.state(QaoaParams({1.1}, {0.3}));
    const auto &codes = sim.costTable();
    std::vector<double> cut(codes.begin(), codes.end());
    double manual = 0.0;
    for (std::size_t z = 0; z < psi.dim(); ++z)
        manual += std::norm(psi[z]) * cut[z];
    EXPECT_EQ(psi.expectationFromTable(cut), manual);
    EXPECT_EQ(psi.expectationFromCodes(codes), manual);
    EXPECT_EQ(sim.expectation(QaoaParams({1.1}, {0.3})), manual);
}

TEST(KernelEquivalence, CutTableCodesMatchCutValue)
{
    Rng rng(66);
    Graph g = gen::connectedGnp(11, 0.3, rng);
    CutTable table = makeCutTable(g);
    ASSERT_EQ(table.codes.size(), std::size_t{1} << 11);
    EXPECT_EQ(table.maxCode, g.numEdges());
    for (std::uint64_t z = 0; z < table.codes.size(); ++z)
        ASSERT_EQ(table.codes[z], cutValue(g, z));
    // Flip symmetry, which the half-state lanes rely on: every cut is
    // the same with every bit flipped.
    const std::uint64_t all = table.codes.size() - 1;
    for (std::uint64_t z = 0; z < table.codes.size(); ++z)
        ASSERT_EQ(table.codes[z], table.codes[z ^ all]) << "z=" << z;
}

TEST(KernelEquivalence, SampleIntoMatchesSample)
{
    Statevector psi = Statevector::uniform(6);
    psi.applyRxAll(0.4);
    Rng r1(9), r2(9);
    auto a = psi.sample(200, r1);
    std::vector<std::uint64_t> b;
    psi.sampleInto(200, r2, b);
    EXPECT_EQ(a, b);
}

TEST(KernelEquivalence, ScratchStateResetsCleanly)
{
    Statevector &s = scratchUniformState(StateScratch::kEvaluator, 5);
    s.applyRxAll(1.0);
    Statevector &t = scratchUniformState(StateScratch::kEvaluator, 5);
    EXPECT_EQ(&s, &t); // Same per-thread instance...
    Statevector u = Statevector::uniform(5);
    for (std::size_t i = 0; i < u.dim(); ++i)
        EXPECT_EQ(t[i], u[i]); // ...reset to a fresh uniform state.
    // Distinct slots never alias.
    Statevector &v = scratchUniformState(StateScratch::kTrajectory, 5);
    EXPECT_NE(&t, &v);
}

// ---------------------------------------------------------------------
// Thread-count invariance of the intra-state parallel paths. n = 16
// (65536 amplitudes) is above the parallel threshold, so these exercise
// the chunked kernels and reductions for real.
// ---------------------------------------------------------------------

TEST(KernelThreads, LargeStateExpectationInvariantAcrossPools)
{
    ThreadGuard guard;
    Rng rng(77);
    Graph g = gen::connectedGnp(16, 0.25, rng);
    QaoaParams p({0.8, 0.5}, {0.4, 0.2});

    ThreadPool::setGlobalThreads(1);
    QaoaSimulator sim1(g);
    const double serial = sim1.expectation(p);

    std::vector<double> multi;
    for (int threads : {2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        QaoaSimulator sim(g);
        multi.push_back(sim.expectation(p));
    }
    // Fixed-chunk reductions: every multi-thread pool gives the same
    // bits; the serial path may differ by reassociation ulps only.
    EXPECT_EQ(multi[0], multi[1]);
    EXPECT_NEAR(serial, multi[0], kGolden);
}

TEST(KernelThreads, LightconeInvariantAcrossPools)
{
    ThreadGuard guard;
    Rng rng(88);
    Graph g = gen::randomRegular(24, 3, rng);
    QaoaParams p({0.8, 0.5}, {0.4, 0.2});

    ThreadPool::setGlobalThreads(1);
    LightconeEvaluator serial_eval(g, 2, 16);
    const double serial = serial_eval.expectation(p);

    std::vector<double> multi;
    for (int threads : {2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        LightconeEvaluator eval(g, 2, 16);
        multi.push_back(eval.expectation(p));
    }
    EXPECT_EQ(multi[0], multi[1]);
    EXPECT_NEAR(serial, multi[0], kGolden);
}

TEST(KernelThreads, NoisySmallStateBitIdenticalAcrossPools)
{
    // Below the parallel threshold every statevector kernel is serial,
    // so the PR-1 contract still holds exactly: the trajectory value is
    // bit-identical at every pool size.
    ThreadGuard guard;
    Rng rng(99);
    Graph g = gen::connectedGnp(8, 0.45, rng);
    QaoaParams p({0.8}, {0.4});
    std::vector<double> values;
    for (int threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        NoisyEvaluator eval(g, noise::ibmKolkata(), 8, 7, 0);
        values.push_back(eval.expectation(p));
    }
    EXPECT_EQ(values[0], values[1]);
    EXPECT_EQ(values[1], values[2]);
}

TEST(KernelThreads, ElementwiseKernelsBitIdenticalAcrossPools)
{
    // Element-wise updates (phase table, mixer butterflies) are exact
    // under any partition: a 16-qubit layer stack must produce the same
    // bits at 1, 2, and 8 threads.
    ThreadGuard guard;
    Rng rng(111);
    Graph g = gen::connectedGnp(16, 0.25, rng);
    CutTable table = makeCutTable(g);
    std::vector<Complex> phases;
    buildPhaseTable(table.maxCode, 0.9, phases);

    std::vector<std::vector<Complex>> amps;
    for (int threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        Statevector psi = Statevector::uniform(16);
        psi.applyPhaseTable(table.codes, phases);
        psi.applyRxAll(0.7);
        psi.applyRzz(3, 11, 0.4);
        amps.push_back(psi.amplitudes());
    }
    EXPECT_EQ(amps[0], amps[1]);
    EXPECT_EQ(amps[1], amps[2]);
}

// ---------------------------------------------------------------------
// Batched-point sweeps (BatchedStateSet lane groups). The contract is
// byte-identity with the point-at-a-time path AT EACH thread count:
// per lane the batched kernels perform the scalar arithmetic sequence
// exactly, including the chunked-reduction shape above the parallel
// threshold.
// ---------------------------------------------------------------------

/** Restore automatic kernel selection when a test returns. */
class KernelGuard
{
  public:
    ~KernelGuard() { batched::forceKernels(nullptr); }
};

std::vector<double>
batchedValues(const Graph &g, const std::vector<QaoaParams> &pts)
{
    CutTable table = makeCutTable(g);
    std::vector<const QaoaParams *> ptrs;
    ptrs.reserve(pts.size());
    for (const QaoaParams &p : pts)
        ptrs.push_back(&p);
    std::vector<double> out(pts.size());
    batchedCutExpectations(table.codes, table.maxCode, g.numNodes(),
                           ptrs, out);
    return out;
}

/** Mixed-depth point set: full lane groups plus a padded partial one. */
std::vector<QaoaParams>
mixedDepthPoints(Rng &rng, std::size_t p1_count, std::size_t p3_count)
{
    std::vector<QaoaParams> pts;
    for (std::size_t i = 0; i < p1_count; ++i)
        pts.emplace_back(std::vector<double>{rng.uniform(-1.5, 1.5)},
                         std::vector<double>{rng.uniform(-1.5, 1.5)});
    for (std::size_t i = 0; i < p3_count; ++i)
        pts.emplace_back(std::vector<double>{rng.uniform(-1.5, 1.5),
                                             rng.uniform(-1.5, 1.5),
                                             rng.uniform(-1.5, 1.5)},
                         std::vector<double>{rng.uniform(-1.5, 1.5),
                                             rng.uniform(-1.5, 1.5),
                                             rng.uniform(-1.5, 1.5)});
    return pts;
}

TEST(BatchedKernels, GoldenAndBitIdenticalToScalarPath)
{
    ThreadGuard guard;
    KernelGuard kernels;
    ThreadPool::setGlobalThreads(1);
    Rng rng(3);
    Graph g = gen::connectedGnp(10, 0.4, rng);
    ASSERT_EQ(g.numEdges(), 18);

    // The golden points lead the batch; the rest fill out full and
    // partial lane groups at both depths.
    Rng prng(123);
    std::vector<QaoaParams> pts = mixedDepthPoints(prng, 9, 4);
    pts[0] = QaoaParams({0.8}, {0.4});
    pts[9] = QaoaParams({0.8, 0.5, 0.3}, {0.4, 0.2, 0.1});

    ExactEvaluator direct(g);
    for (const batched::KernelOps *ops :
         {&batched::scalarKernels(), batched::avx2Kernels()}) {
        if (!ops)
            GTEST_SKIP() << "AVX2 kernels unavailable on this build/CPU";
        batched::forceKernels(ops);
        std::vector<double> got = batchedValues(g, pts);
        EXPECT_NEAR(got[0], 10.986896769608293, kGolden) << ops->name;
        EXPECT_NEAR(got[9], 11.243914612497715, kGolden) << ops->name;
        for (std::size_t i = 0; i < pts.size(); ++i)
            EXPECT_EQ(got[i], direct.expectation(pts[i]))
                << ops->name << " point " << i;

        // Every n from 0 to 14: n = 0 runs the load-only tile, n = 1
        // and 2 the flip tile alone (its slots aliasing), odd n >= 3
        // end their plain passes in a one-qubit pass, n = 11, 12 and
        // 13..14 put their n - 2 plain qubits below, at and above the
        // 2^10-amplitude tile block, and at 4 threads n = 14 takes the
        // chunked readout. A depth-0 point reads the uniform start
        // itself.
        for (int threads : {1, 4}) {
            ThreadPool::setGlobalThreads(threads);
            for (int n = 0; n <= 14; ++n) {
                Rng grng(static_cast<std::uint64_t>(1000 + n));
                Graph gn = n < 2 ? Graph(n) : gen::connectedGnp(n, 0.5, grng);
                Rng nrng(static_cast<std::uint64_t>(2000 + n));
                std::vector<QaoaParams> pn = mixedDepthPoints(nrng, 9, 4);
                pn.emplace_back();
                std::vector<double> gotN = batchedValues(gn, pn);
                ExactEvaluator directN(gn);
                for (std::size_t i = 0; i < pn.size(); ++i)
                    EXPECT_EQ(gotN[i], directN.expectation(pn[i]))
                        << ops->name << " threads=" << threads
                        << " n=" << n << " point " << i;
            }
            // The half-state lanes' flip symmetry needs no
            // connectivity: n = 12 with vertices 8..11 isolated.
            Rng irng(3012);
            const Graph core = gen::connectedGnp(8, 0.5, irng);
            Graph isolated(12);
            for (const Edge &e : core.edges())
                isolated.addEdge(e.u, e.v);
            Rng iprng(4012);
            std::vector<QaoaParams> pI = mixedDepthPoints(iprng, 9, 4);
            std::vector<double> gotI = batchedValues(isolated, pI);
            ExactEvaluator directI(isolated);
            for (std::size_t i = 0; i < pI.size(); ++i)
                EXPECT_EQ(gotI[i], directI.expectation(pI[i]))
                    << ops->name << " threads=" << threads
                    << " isolated vertices, point " << i;
        }
        ThreadPool::setGlobalThreads(1);
    }
}

TEST(BatchedKernels, ByteIdenticalAcrossPoolsOnLargeState)
{
    // n = 16 crosses the intra-state parallel threshold, so the batched
    // sweep must mirror the chunked reduction: at EVERY thread count
    // the batched value equals the point-at-a-time value computed at
    // that same thread count, bit for bit.
    ThreadGuard guard;
    Rng rng(77);
    Graph g = gen::connectedGnp(16, 0.25, rng);
    Rng prng(321);
    std::vector<QaoaParams> pts = mixedDepthPoints(prng, 6, 5);
    // n = 15's plain passes end in a one-qubit tile pass.
    Rng rng15(78);
    Graph g15 = gen::connectedGnp(15, 0.25, rng15);

    for (const Graph *graph : {&g, &g15}) {
        std::vector<std::vector<double>> multi;
        for (int threads : {1, 2, 8}) {
            ThreadPool::setGlobalThreads(threads);
            std::vector<double> got = batchedValues(*graph, pts);
            QaoaSimulator sim(*graph);
            for (std::size_t i = 0; i < pts.size(); ++i)
                EXPECT_EQ(got[i], sim.expectation(pts[i]))
                    << "n=" << graph->numNodes() << " threads=" << threads
                    << " point " << i;
            if (threads >= 2)
                multi.push_back(std::move(got));
        }
        // And the multi-thread pools agree among themselves exactly.
        EXPECT_EQ(multi[0], multi[1]);
    }
}

TEST(BatchedKernels, LoneGroupSpreadsItsPassesOverThePool)
{
    // A batch of one lane group sweeps on the calling thread, so from
    // 2^14 amplitudes its kernels chunk every pass over the pool (the
    // flip pass over tile indices); the groups of a larger batch fan
    // out and run their passes inline. Under ThreadSanitizer this is
    // the case that would show two chunks writing one amplitude.
    ThreadGuard guard;
    for (int n : {14, 15, 16}) {
        Rng grng(static_cast<std::uint64_t>(5000 + n));
        Graph g = gen::connectedGnp(n, 0.25, grng);
        Rng prng(static_cast<std::uint64_t>(6000 + n));
        std::vector<QaoaParams> pts =
            mixedDepthPoints(prng, 0, batched::kBatchLanes);
        for (int threads : {2, 4, 8}) {
            ThreadPool::setGlobalThreads(threads);
            ASSERT_TRUE(laneSweepUsesPool(n));
            std::vector<double> got = batchedValues(g, pts);
            QaoaSimulator sim(g);
            for (std::size_t i = 0; i < pts.size(); ++i)
                EXPECT_EQ(got[i], sim.expectation(pts[i]))
                    << "n=" << n << " threads=" << threads << " i=" << i;
        }
    }
}

TEST(BatchedKernels, EvaluatorBatchRoutesThroughLanes)
{
    ThreadGuard guard;
    ThreadPool::setGlobalThreads(1);
    Rng rng(21);
    Graph g = gen::connectedGnp(9, 0.4, rng);
    Rng prng(555);

    ExactEvaluator eval(g);
    ExactEvaluator direct(g);
    // At or above the threshold the batch sweeps through lane groups;
    // below it the per-point default runs. Both are bit-identical to
    // point-at-a-time expectation, so the switch is invisible.
    const auto lanes = static_cast<std::size_t>(batched::kBatchLanes);
    for (std::size_t count : {lanes - 1, lanes, lanes + 5}) {
        std::vector<QaoaParams> pts = mixedDepthPoints(prng, count, 0);
        std::vector<double> got = eval.batchExpectation(pts);
        ASSERT_EQ(got.size(), pts.size());
        for (std::size_t i = 0; i < pts.size(); ++i)
            EXPECT_EQ(got[i], direct.expectation(pts[i]))
                << "count=" << count << " point " << i;
    }
}

TEST(BatchedKernels, EnvOverrideAndForcePinSelection)
{
    KernelGuard kernels;
    // forceKernels pins; nullptr restores the automatic policy.
    batched::forceKernels(&batched::scalarKernels());
    EXPECT_STREQ(batched::activeKernels().name, "scalar");
    batched::forceKernels(nullptr);
    // The automatic choice: scalar under REDQAOA_BATCHED_KERNELS=scalar,
    // otherwise AVX2 when it is available.
    const char *env = std::getenv("REDQAOA_BATCHED_KERNELS");
    const bool wantScalar = env && std::string_view(env) == "scalar";
    const batched::KernelOps &active = batched::activeKernels();
    if (batched::avx2Kernels() && !wantScalar)
        EXPECT_STREQ(active.name, "avx2");
    else
        EXPECT_STREQ(active.name, "scalar");
}

} // namespace
} // namespace redqaoa
