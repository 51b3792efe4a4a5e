/**
 * @file
 * Batched-point sweep figure: the win from advancing kBatchLanes
 * statevectors through each phase/mixer/expectation pass together
 * (BatchedStateSet) instead of evaluating parameter points one at a
 * time. Reports points/sec for both paths at n = 12 and 16 qubits,
 * the speedup, and — the CI gate — `batched_identical`, which is 1
 * only when every batched value is byte-identical to the
 * point-at-a-time value for every kernel implementation available on
 * the machine (scalar always; AVX2 when compiled in and supported).
 * The optimize row runs the service's search (n = 12, p = 2, 8
 * CobylaLite restarts of 60 evaluations; 20 at quick scale) once with
 * the point objective and once in lockstep rounds over the batch
 * objective; `lockstep_identical` is 1 only when every lockstep run
 * matches its sequential run bit for bit. The `_per_second` metrics
 * are compared against BENCH_baseline.json by scripts/compare_bench.py,
 * where a drop is a regression.
 */

#include <bit>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "engine/eval_engine.hpp"
#include "graph/generators.hpp"
#include "opt/cobyla_lite.hpp"
#include "quantum/batched_state.hpp"
#include "quantum/maxcut.hpp"

using namespace redqaoa;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start;
    return dt.count();
}

/** Best-of-@p trials wall seconds of fn() (micro_kernels convention). */
template <typename F>
double
bestSeconds(F &&fn, int trials)
{
    double best = 0.0;
    for (int t = 0; t < trials; ++t) {
        auto start = std::chrono::steady_clock::now();
        fn();
        double dt = secondsSince(start);
        if (t == 0 || dt < best)
            best = dt;
    }
    return best;
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/** Every reported field of two runs matches bit for bit. */
bool
identicalRuns(const OptResult &a, const OptResult &b)
{
    if (!sameBits(a.x, b.x) ||
        std::bit_cast<std::uint64_t>(a.value) !=
            std::bit_cast<std::uint64_t>(b.value) ||
        a.evaluations != b.evaluations || !sameBits(a.trace, b.trace) ||
        a.iterates.size() != b.iterates.size())
        return false;
    for (std::size_t k = 0; k < a.iterates.size(); ++k)
        if (!sameBits(a.iterates[k], b.iterates[k]))
            return false;
    return true;
}

} // namespace

REDQAOA_REGISTER_FIGURE(batched_points, "Micro",
                        "batched multi-point statevector sweeps vs"
                        " point-at-a-time evaluation")
{
    const int kPoints = ctx.scale(32, 64);
    const int kTrials = 3;
    bool identical = true;

    ctx.out("%-8s %-10s %-14s %-14s %-10s\n", "qubits", "kernel",
            "serial pts/s", "batched pts/s", "speedup");
    for (int n : {12, 16}) {
        Rng rng(static_cast<std::uint64_t>(n) * 31 + 7);
        Graph g = gen::connectedGnp(n, std::min(0.9, 6.0 / (n - 1)), rng);
        CutTable table = makeCutTable(g);
        auto points = randomParameterSets(1, kPoints, rng);
        std::vector<const QaoaParams *> ptrs;
        for (const QaoaParams &p : points)
            ptrs.push_back(&p);

        // Point-at-a-time reference (and the identity oracle).
        QaoaSimulator sim(g);
        std::vector<double> want(points.size());
        double t_serial = bestSeconds(
            [&] {
                for (std::size_t i = 0; i < points.size(); ++i)
                    want[i] = sim.expectation(points[i]);
            },
            kTrials);
        const double serial_pps = points.size() / t_serial;
        const std::string suffix = "_n" + std::to_string(n);
        ctx.sink.metric("serial_points_per_second" + suffix, serial_pps);

        // Batched sweep per available kernel implementation. The
        // machine-selected one (activeKernels) provides THE tracked
        // speedup metric; pinned runs gate identity for both paths.
        for (const batched::KernelOps *ops :
             {&batched::scalarKernels(), batched::avx2Kernels()}) {
            if (!ops)
                continue;
            batched::forceKernels(ops);
            std::vector<double> got(points.size());
            double t_batched = bestSeconds(
                [&] {
                    batchedCutExpectations(table.codes, table.maxCode, n,
                                           ptrs, got);
                },
                kTrials);
            batched::forceKernels(nullptr);
            for (std::size_t i = 0; i < got.size(); ++i)
                if (got[i] != want[i])
                    identical = false;

            const double batched_pps = points.size() / t_batched;
            ctx.out("%-8d %-10s %-14.3e %-14.3e %-10.2f\n", n, ops->name,
                    serial_pps, batched_pps, batched_pps / serial_pps);
            if (ops == &batched::activeKernels()) {
                ctx.sink.metric("batched_points_per_second" + suffix,
                                batched_pps);
                ctx.sink.metric("batched_speedup" + suffix,
                                batched_pps / serial_pps);
            }
        }
    }
    ctx.sink.metric("batched_identical", identical ? 1.0 : 0.0);

    // Optimize row: restart after restart through the point objective
    // vs lockstep rounds of 8 points through the batch objective.
    {
        Rng rng(12 * 31 + 7);
        Graph g = gen::connectedGnp(12, 6.0 / 11.0, rng);
        EvalEngine engine;
        const EvalSpec spec = EvalSpec::ideal(2);
        Objective point = engine.objective(g, spec);
        BatchObjective batch = engine.batchObjective(g, spec);
        OptOptions opts;
        opts.maxEvaluations = ctx.scale(20, 60); // Service default: 60.
        CobylaLite optimizer(opts);
        auto sampler = [](Rng &r) {
            return QaoaParams::random(2, r).flatten();
        };
        // One run each, and a 20-evaluation budget at quick scale: the
        // CI gate holds the figure's wall-clock within 25%.
        Rng sequential_starts(5);
        auto start = std::chrono::steady_clock::now();
        const std::vector<OptResult> sequential =
            multiRestart(optimizer, point, 8, sampler, sequential_starts);
        const double t_sequential = secondsSince(start);
        Rng lockstep_starts(5);
        start = std::chrono::steady_clock::now();
        const std::vector<OptResult> lockstep =
            multiRestart(optimizer, batch, 8, sampler, lockstep_starts);
        const double t_lockstep = secondsSince(start);
        bool same = sequential.size() == lockstep.size();
        for (std::size_t r = 0; same && r < sequential.size(); ++r)
            same = identicalRuns(sequential[r], lockstep[r]);

        ctx.out("optimize n=12 p=2 x8: sequential %.1f/s, lockstep"
                " %.1f/s (%.2fx), %s\n",
                1.0 / t_sequential, 1.0 / t_lockstep,
                t_sequential / t_lockstep,
                same ? "bit-identical" : "MISMATCH");
        ctx.sink.metric("optimize_sequential_per_second",
                        1.0 / t_sequential);
        ctx.sink.metric("optimize_lockstep_per_second", 1.0 / t_lockstep);
        ctx.sink.metric("lockstep_identical", same ? 1.0 : 0.0);
    }
    ctx.note("one pass over the cut table advances kBatchLanes"
             " statevectors (SoA planes, SIMD across lanes), so table"
             " and mixer traffic is amortized over the batch while"
             " every lane rounds exactly like the scalar path —"
             " batched_identical gates byte-identity in CI, and"
             " lockstep_identical gates the lockstep optimize row.");
}
