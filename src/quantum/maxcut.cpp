#include "quantum/maxcut.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace redqaoa {

std::vector<double>
QaoaParams::flatten() const
{
    std::vector<double> x = gamma;
    x.insert(x.end(), beta.begin(), beta.end());
    return x;
}

QaoaParams
QaoaParams::unflatten(const std::vector<double> &x)
{
    assert(x.size() % 2 == 0);
    std::size_t p = x.size() / 2;
    QaoaParams out;
    out.gamma.assign(x.begin(), x.begin() + static_cast<long>(p));
    out.beta.assign(x.begin() + static_cast<long>(p), x.end());
    return out;
}

QaoaParams
QaoaParams::random(int p, Rng &rng)
{
    QaoaParams out;
    out.gamma.reserve(static_cast<std::size_t>(p));
    out.beta.reserve(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) {
        out.gamma.push_back(rng.uniform(0.0, 2.0 * M_PI));
        out.beta.push_back(rng.uniform(0.0, M_PI));
    }
    return out;
}

int
cutValue(const Graph &g, std::uint64_t z)
{
    int cut = 0;
    for (const Edge &e : g.edges()) {
        bool bu = (z >> e.u) & 1u;
        bool bv = (z >> e.v) & 1u;
        cut += bu != bv;
    }
    return cut;
}

CutTable
makeCutTable(const Graph &g)
{
    const int n = g.numNodes();
    if (n > 26)
        throw std::invalid_argument("cutTable: graph too large (n > 26)");
    const std::size_t dim = static_cast<std::size_t>(1) << n;
    CutTable table;
    table.maxCode = g.numEdges();
    table.codes.resize(dim);
    // One pass over the table with the per-edge parities accumulated in
    // registers, instead of the historical m read-modify-write sweeps.
    const Edge *edge_data = g.edges().data();
    const std::size_t m = g.edges().size();
    std::int32_t *codes = table.codes.data();
    auto fill = [codes, edge_data, m](std::size_t begin, std::size_t end) {
        for (std::size_t z = begin; z < end; ++z) {
            std::int32_t cut = 0;
            for (std::size_t e = 0; e < m; ++e)
                cut += static_cast<std::int32_t>(
                    ((z >> edge_data[e].u) ^ (z >> edge_data[e].v)) &
                    1u);
            codes[z] = cut;
        }
    };
    if (detail::intraStateParallel(dim))
        parallelForChunks(dim, fill, detail::kStateChunkLen);
    else
        fill(0, dim);
    return table;
}

void
applyQaoaLayers(Statevector &psi, const CutTable &table,
                const QaoaParams &params)
{
    thread_local std::vector<Complex> phases;
    for (int layer = 0; layer < params.layers(); ++layer) {
        buildPhaseTable(table.maxCode,
                        params.gamma[static_cast<std::size_t>(layer)],
                        phases);
        psi.applyPhaseTable(table.codes, phases);
        psi.applyRxAll(2.0 * params.beta[static_cast<std::size_t>(layer)]);
    }
}

int
maxCutBruteForce(const Graph &g)
{
    const int n = g.numNodes();
    if (n > 26)
        throw std::invalid_argument("maxCutBruteForce: n > 26");
    if (n == 0)
        return 0;
    const std::uint64_t half = static_cast<std::uint64_t>(1)
                               << (n > 0 ? n - 1 : 0);
    int best = 0;
    // Cut is symmetric under global flip; scanning half the space suffices.
    for (std::uint64_t z = 0; z < half; ++z)
        best = std::max(best, cutValue(g, z));
    return best;
}

int
maxCutLocalSearch(const Graph &g, Rng &rng, int restarts)
{
    const int n = g.numNodes();
    int best = 0;
    std::vector<int> side(static_cast<std::size_t>(n), 0);
    for (int r = 0; r < restarts; ++r) {
        for (int v = 0; v < n; ++v)
            side[static_cast<std::size_t>(v)] = rng.bernoulli(0.5) ? 1 : 0;
        bool improved = true;
        while (improved) {
            improved = false;
            for (Node v = 0; v < n; ++v) {
                // Gain from flipping v: (#same-side nbrs) - (#cut nbrs).
                int same = 0, cut = 0;
                for (Node w : g.neighbors(v)) {
                    if (side[static_cast<std::size_t>(w)] ==
                        side[static_cast<std::size_t>(v)])
                        ++same;
                    else
                        ++cut;
                }
                if (same > cut) {
                    side[static_cast<std::size_t>(v)] ^= 1;
                    improved = true;
                }
            }
        }
        int value = 0;
        for (const Edge &e : g.edges())
            value += side[static_cast<std::size_t>(e.u)] !=
                     side[static_cast<std::size_t>(e.v)];
        best = std::max(best, value);
    }
    return best;
}

int
maxCutBest(const Graph &g, Rng &rng)
{
    if (g.numNodes() <= 24)
        return maxCutBruteForce(g);
    return maxCutLocalSearch(g, rng);
}

QaoaSimulator::QaoaSimulator(const Graph &g)
    : QaoaSimulator(g, std::make_shared<const CutTable>(makeCutTable(g)))
{}

QaoaSimulator::QaoaSimulator(const Graph &g,
                             std::shared_ptr<const CutTable> table)
    : graph_(g), table_(std::move(table))
{}

double
QaoaSimulator::expectation(const QaoaParams &params) const
{
    Statevector &psi = scratchUniformState(StateScratch::kEvaluator,
                                           graph_.numNodes());
    applyQaoaLayers(psi, *table_, params);
    return psi.expectationFromCodes(table_->codes);
}

Statevector
QaoaSimulator::state(const QaoaParams &params) const
{
    Statevector psi = Statevector::uniform(graph_.numNodes());
    applyQaoaLayers(psi, *table_, params);
    return psi;
}

} // namespace redqaoa
