/**
 * @file
 * Batch-of-statevectors QAOA evaluation (ROADMAP item 2).
 *
 * Landscape grids, optimizer sweeps and EvalEngine::drain() jobs ask
 * for dozens of parameter points on ONE graph. Point-at-a-time
 * evaluation re-reads the same cut table and re-walks the mixer
 * butterflies once per point; a BatchedStateSet instead advances
 * kBatchLanes statevectors through each pass together, so the
 * per-amplitude cut code is loaded once per kBatchLanes points and the
 * lane dimension maps directly onto SIMD vectors (see
 * batched_kernels.hpp for the dispatch policy).
 *
 * Contract: every lane evolves through EXACTLY the arithmetic the
 * scalar path (applyQaoaLayers + Statevector::expectationFromCodes on
 * scratchUniformState) performs for that point — same per-operation
 * rounding, same reduction shape (serial single-accumulator below the
 * parallel threshold / on a 1-thread pool, fixed kStateChunkLen chunk
 * partials combined in chunk order above it). Batched results are
 * byte-identical to the point-at-a-time path at every thread count,
 * which is what lets the engine route multi-point jobs through here
 * without perturbing a single golden.
 */

#ifndef REDQAOA_QUANTUM_BATCHED_STATE_HPP
#define REDQAOA_QUANTUM_BATCHED_STATE_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "quantum/batched_kernels.hpp"

namespace redqaoa {

struct QaoaParams;

/**
 * kBatchLanes dense statevectors in struct-of-arrays form: plane
 * index i * kBatchLanes + lane holds lane's amplitude i (re_ and im_
 * planes). All kernels advance every lane at once.
 */
class BatchedStateSet
{
  public:
    BatchedStateSet() = default;

    /**
     * Reset every lane to the uniform superposition on
     * @p num_qubits qubits (amplitude 1/sqrt(dim), the same value
     * Statevector::resetUniform computes).
     */
    void resetUniform(int num_qubits);

    int numQubits() const { return numQubits_; }

    /** Amplitudes per lane (2^numQubits). */
    std::size_t dim() const
    {
        return static_cast<std::size_t>(1) << numQubits_;
    }

    double *re() { return re_.data(); }
    double *im() { return im_.data(); }
    const double *re() const { return re_.data(); }
    const double *im() const { return im_.data(); }

    /**
     * Per-lane cost layer: lane's amplitude i is multiplied by its
     * phase table entry for codes[i]. Tables are lane-major
     * (buildPhaseTablesSoA layout): entry (code, lane) at
     * pre/pim[code * kBatchLanes + lane]. Mirrors
     * Statevector::applyPhaseTable per lane.
     */
    void applyPhaseTables(std::span<const std::int32_t> codes,
                          std::span<const double> pre,
                          std::span<const double> pim);

    /**
     * Per-lane fused mixer: RX(thetas[lane]) on every qubit of lane,
     * cache-blocked exactly like Statevector::applyRxAll (low qubits
     * fused per L1 block, high qubits one strided pass each) and
     * bit-identical to it per lane. @p thetas has kBatchLanes entries.
     */
    void applyRxAll(std::span<const double> thetas);

    /**
     * out[lane] = sum_i |amp_i|^2 * codes[i] for each lane, with the
     * reduction shaped exactly like the scalar chunked sum (see file
     * comment) so every lane matches
     * Statevector::expectationFromCodes byte-for-byte. @p out has
     * kBatchLanes entries.
     */
    void expectationFromCodes(std::span<const std::int32_t> codes,
                              std::span<double> out) const;

  private:
    int numQubits_ = 0;
    std::vector<double> re_;
    std::vector<double> im_;
};

/**
 * Lane-major phase tables for one cost layer: per lane the table is
 * built by the scalar buildPhaseTable (identical cos/sin values) and
 * transposed so entry (code, lane) lands at
 * pre/pim[code * kBatchLanes + lane]. @p angles has kBatchLanes
 * entries (the lanes' gammas).
 */
void buildPhaseTablesSoA(int max_code, std::span<const double> angles,
                         std::vector<double> &pre,
                         std::vector<double> &pim);

/**
 * Batched QAOA expectations on one graph: out[k] = <H_c> at points[k],
 * byte-identical to QaoaSimulator::expectation(*points[k]) at every
 * thread count. Points are grouped kBatchLanes at a time by equal
 * layer count (lanes of one sweep must share the pass structure);
 * partial groups are padded by replicating the last point and the
 * padded lanes discarded. Groups run through the global thread pool
 * when there is more than one; nested calls (e.g. from the engine's
 * drain fan-out) execute inline on the calling worker.
 *
 * @p codes / @p max_code are the graph's CutTable fields; @p out has
 * points.size() entries. Returns the number of lane groups swept (the
 * occupancy denominator: points / (kBatchLanes * groups)).
 */
std::size_t batchedCutExpectations(std::span<const std::int32_t> codes,
                                   int max_code, int num_qubits,
                                   std::span<const QaoaParams *const> points,
                                   std::span<double> out);

} // namespace redqaoa

#endif // REDQAOA_QUANTUM_BATCHED_STATE_HPP
