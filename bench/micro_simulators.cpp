/**
 * @file
 * google-benchmark microbenchmarks for the performance-critical kernels:
 * statevector QAOA layers, cut-table construction, trajectory noise
 * sampling, density-matrix channels, the analytic p=1 evaluator, the
 * light-cone evaluator, and the annealing reducer. These are the knobs
 * that determine how far the experiment harness scales.
 */

#include <benchmark/benchmark.h>

#include "circuit/qaoa_builder.hpp"
#include "circuit/sabre.hpp"
#include "circuit/topologies.hpp"
#include "core/red_qaoa.hpp"
#include "graph/generators.hpp"
#include "quantum/analytic_p1.hpp"
#include "quantum/density_matrix.hpp"
#include "quantum/lightcone.hpp"
#include "quantum/maxcut.hpp"
#include "quantum/trajectory.hpp"

using namespace redqaoa;

namespace {

Graph
graphFor(int n, double p = 0.4)
{
    Rng rng(static_cast<std::uint64_t>(n) * 13 + 1);
    return gen::connectedGnp(n, p, rng);
}

void
BM_StatevectorQaoaExpectation(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    Graph g = graphFor(n);
    QaoaSimulator sim(g);
    QaoaParams p({0.8}, {0.4});
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.expectation(p));
    state.counters["qubits"] = n;
}
BENCHMARK(BM_StatevectorQaoaExpectation)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void
BM_CutTableConstruction(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    Graph g = graphFor(n);
    for (auto _ : state)
        benchmark::DoNotOptimize(makeCutTable(g));
}
BENCHMARK(BM_CutTableConstruction)->Arg(10)->Arg(14)->Arg(18);

// The three kernel layers of every statevector simulation, mirrored
// from the registered micro_kernels figure (same shapes: sparse graph,
// n = 12/16/20) so google-benchmark users see the identical workload.

void
BM_PhaseTableLayer(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    Graph g = graphFor(n, std::min(0.9, 6.0 / (n - 1)));
    CutTable table = makeCutTable(g);
    std::vector<Complex> phases;
    buildPhaseTable(table.maxCode, 0.8, phases);
    Statevector psi = Statevector::uniform(n);
    for (auto _ : state)
        psi.applyPhaseTable(table.codes, phases);
    state.counters["amps"] = static_cast<double>(psi.dim());
}
BENCHMARK(BM_PhaseTableLayer)->Arg(12)->Arg(16)->Arg(20);

void
BM_FusedMixerLayer(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    Statevector psi = Statevector::uniform(n);
    for (auto _ : state)
        psi.applyRxAll(0.8);
    state.counters["amps"] = static_cast<double>(psi.dim());
}
BENCHMARK(BM_FusedMixerLayer)->Arg(12)->Arg(16)->Arg(20);

void
BM_ExpectationFromCodes(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    Graph g = graphFor(n, std::min(0.9, 6.0 / (n - 1)));
    CutTable table = makeCutTable(g);
    Statevector psi = Statevector::uniform(n);
    for (auto _ : state)
        benchmark::DoNotOptimize(psi.expectationFromCodes(table.codes));
    state.counters["amps"] = static_cast<double>(psi.dim());
}
BENCHMARK(BM_ExpectationFromCodes)->Arg(12)->Arg(16)->Arg(20);

void
BM_TrajectoryExpectation(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    Graph g = graphFor(n);
    TrajectorySimulator sim(g, noise::ibmKolkata(), 8, 3);
    QaoaParams p({0.8}, {0.4});
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.expectation(p));
}
BENCHMARK(BM_TrajectoryExpectation)->Arg(8)->Arg(12)->Arg(14);

void
BM_DensityMatrixNoisyQaoa(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    Graph g = graphFor(n);
    QaoaParams p({0.8}, {0.4});
    NoiseModel nm = noise::ibmKolkata();
    for (auto _ : state)
        benchmark::DoNotOptimize(noisyQaoaExpectationDM(g, p, nm));
}
BENCHMARK(BM_DensityMatrixNoisyQaoa)->Arg(4)->Arg(6)->Arg(8);

void
BM_AnalyticP1(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    Rng rng(7);
    Graph g = gen::erdosRenyiGnp(n, std::min(0.9, 6.0 / (n - 1)), rng);
    AnalyticP1Evaluator eval(g);
    for (auto _ : state)
        benchmark::DoNotOptimize(eval.expectation(0.8, 0.4));
    state.counters["edges"] = g.numEdges();
}
BENCHMARK(BM_AnalyticP1)->Arg(30)->Arg(100)->Arg(1000);

void
BM_LightconeP2(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    Rng rng(9);
    Graph g = gen::connectedGnp(n, std::min(0.9, 3.5 / (n - 1)), rng);
    LightconeEvaluator eval(g, 2, 14);
    QaoaParams p({0.8, 0.5}, {0.4, 0.2});
    for (auto _ : state)
        benchmark::DoNotOptimize(eval.expectation(p));
    state.counters["maxCone"] = eval.maxConeSize();
}
BENCHMARK(BM_LightconeP2)->Arg(20)->Arg(30);

void
BM_RedQaoaReduce(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    Graph g = graphFor(n, std::min(0.9, 6.0 / (n - 1)));
    RedQaoaReducer reducer;
    std::uint64_t seed = 0;
    for (auto _ : state) {
        Rng rng(seed++);
        benchmark::DoNotOptimize(reducer.reduce(g, rng).andRatio);
    }
}
BENCHMARK(BM_RedQaoaReduce)->Arg(12)->Arg(30)->Arg(100);

void
BM_SabreRouteFalcon(benchmark::State &state)
{
    Graph g = graphFor(static_cast<int>(state.range(0)));
    QaoaParams p({0.8}, {0.4});
    Circuit c = buildQaoaCircuit(g, p, true);
    CouplingMap dev = topologies::falcon27();
    SabreRouter router(dev);
    std::uint64_t seed = 0;
    for (auto _ : state) {
        Rng rng(seed++);
        benchmark::DoNotOptimize(router.routeBestOf(c, 1, rng).depth);
    }
}
BENCHMARK(BM_SabreRouteFalcon)->Arg(8)->Arg(14)->Arg(20);

} // namespace

BENCHMARK_MAIN();
