/**
 * @file
 * MaxCut cost Hamiltonian machinery (Eq. 5 of the paper) and the ideal
 * QAOA expectation evaluator.
 *
 * H_c = sum_{(i,j) in E} (I - Z_i Z_j) / 2 is diagonal; its eigenvalue on
 * basis state z is the cut value cut(z). Cut values are small integers
 * (0..m), so the table is kept as integer codes: the cost layer then
 * applies exp(-i gamma H_c) through an (m+1)-entry phase lookup instead
 * of a per-amplitude cos/sin, and <H_c> is a fused reduction over the
 * amplitudes — no probability vector is ever materialized.
 */

#ifndef REDQAOA_QUANTUM_MAXCUT_HPP
#define REDQAOA_QUANTUM_MAXCUT_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "quantum/statevector.hpp"

namespace redqaoa {

/** QAOA variational parameters: p gammas and p betas (Eq. 3). */
struct QaoaParams
{
    std::vector<double> gamma; //!< Cost-layer angles, one per layer.
    std::vector<double> beta;  //!< Mixer-layer angles, one per layer.

    QaoaParams() = default;
    QaoaParams(std::vector<double> g, std::vector<double> b)
        : gamma(std::move(g)), beta(std::move(b))
    {}

    /** Number of QAOA layers. */
    int layers() const { return static_cast<int>(gamma.size()); }

    /** Flatten to [gamma..., beta...] for generic optimizers. */
    std::vector<double> flatten() const;

    /** Rebuild from a flattened vector of length 2p. */
    static QaoaParams unflatten(const std::vector<double> &x);

    /** Uniformly random parameters: gamma in [0, 2pi), beta in [0, pi). */
    static QaoaParams random(int p, Rng &rng);
};

/** Cut value of basis state @p z (bit i = partition of node i). */
int cutValue(const Graph &g, std::uint64_t z);

/**
 * Integer cut table: codes[z] = cut(z) for all 2^n basis states, plus
 * the largest representable code (the edge count). Built in a single
 * pass per basis state with shift-xor edge parities.
 */
struct CutTable
{
    std::vector<std::int32_t> codes; //!< cut(z) per basis state.
    int maxCode = 0;                 //!< Upper bound on codes (= |E|).
};

/** Cut table for all 2^n basis states (n <= 26 enforced). */
CutTable makeCutTable(const Graph &g);

/**
 * Apply the p QAOA layers in @p params to @p psi: per layer the cost
 * unitary exp(-i gamma H_c) via a phase-table lookup (per-thread table
 * scratch, no allocation after warmup) and the fused RX mixer. The one
 * layer-application path shared by the exact and light-cone backends.
 */
void applyQaoaLayers(Statevector &psi, const CutTable &table,
                     const QaoaParams &params);

/**
 * Exact MaxCut via exhaustive enumeration. O(2^(n-1) m); practical to
 * n = 26 or so. Used for approximation-ratio denominators (Eq. 13).
 */
int maxCutBruteForce(const Graph &g);

/**
 * MaxCut lower bound by multi-restart local search with 1-bit flips;
 * exact on small graphs with overwhelming probability and a strong
 * heuristic above the brute-force range.
 */
int maxCutLocalSearch(const Graph &g, Rng &rng, int restarts = 32);

/** Exact below 26 nodes, local search above. */
int maxCutBest(const Graph &g, Rng &rng);

/**
 * Ideal QAOA simulator for one graph. Caches the integer cut table and
 * runs expectation() entirely in per-thread scratch (statevector +
 * phase table), so repeated landscape evaluations do not allocate and
 * the instance is safe to share across concurrent batch workers.
 */
class QaoaSimulator
{
  public:
    explicit QaoaSimulator(const Graph &g);

    /**
     * Share a prebuilt cut table (it must be makeCutTable(g)). The
     * engine's artifact cache uses this so every evaluator of the same
     * graph reuses one 2^n table instead of rebuilding it.
     */
    QaoaSimulator(const Graph &g, std::shared_ptr<const CutTable> table);

    /** <H_c> for the trial state |psi(gamma, beta)> (Eq. 3). */
    double expectation(const QaoaParams &params) const;

    /** Prepare and return the trial state (for inspection / sampling). */
    Statevector state(const QaoaParams &params) const;

    /** The graph's cut table (integer codes, ground truth per state). */
    const std::vector<std::int32_t> &costTable() const
    {
        return table_->codes;
    }

    /** The shared table handle (artifact-cache identity checks). */
    const std::shared_ptr<const CutTable> &sharedTable() const
    {
        return table_;
    }

    int numQubits() const { return graph_.numNodes(); }
    const Graph &graph() const { return graph_; }

  private:
    Graph graph_;
    /** Integer codes: phase lookup + expectation (possibly shared). */
    std::shared_ptr<const CutTable> table_;
};

} // namespace redqaoa

#endif // REDQAOA_QUANTUM_MAXCUT_HPP
