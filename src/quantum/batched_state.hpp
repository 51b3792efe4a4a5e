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
 * batched_kernels.hpp for the dispatch policy). A layer is one call:
 * the mixer walks the lane set once per two qubits (register tiles),
 * and its first pass applies the cost layer's phase on load; the
 * first layer also reads the uniform start instead of a stored state.
 *
 * Half-state lanes: a lane stores only the amplitudes whose top qubit
 * is 0. MaxCut's cut value is invariant under flipping every bit,
 * cut(z) == cut(~z), so the phase pass multiplies a(z) and a(~z) by the
 * same table entry; qubit q's butterfly maps the pair (z, z ^ 2^q) and
 * its mirror pair (~z, ~z ^ 2^q) through the same mul/add/sub sequence
 * on equal operands; and the uniform start is symmetric. By induction
 * a(z) and a(~z) are equal bit for bit after every step of the
 * full-state sweep, so amplitude i >= 2^(n-1) is read from its stored
 * mirror (2^n - 1) ^ i. Qubits 0 .. n-3 run as plain tile passes over
 * the stored half; one flip tile pass then applies qubit n-2 and after
 * it qubit n-1, whose partner of z is stored at its mirror. Per
 * amplitude the qubit order stays 0, 1, ..., n-1. The readout sums in
 * full index order, the upper half read from its mirrors. This holds
 * for cut-table codes only: a cost with a linear term (a field on
 * single qubits, e.g. a QUBO) breaks the symmetry, and such codes must
 * not reach the lanes.
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

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "quantum/batched_kernels.hpp"

namespace redqaoa {

struct QaoaParams;

/**
 * kBatchLanes flip-symmetric statevectors in struct-of-arrays form:
 * plane index i * kBatchLanes + lane holds lane's amplitude i for the
 * storedDim() amplitudes with the top qubit 0 (re_ and im_ planes);
 * amplitude i >= storedDim() equals stored amplitude dim() - 1 - i.
 * All kernels advance every lane at once.
 */
class BatchedStateSet
{
  public:
    BatchedStateSet() = default;

    /**
     * Reset every lane to the uniform superposition on
     * @p num_qubits qubits (amplitude 1/sqrt(dim), the same value
     * Statevector::resetUniform computes). Nothing is written here: the
     * next applyLayer reads the start operands (a, 0.0) in its first
     * pass instead of loading them.
     */
    void resetUniform(int num_qubits);

    int numQubits() const { return numQubits_; }

    /** Amplitudes per lane (2^numQubits). */
    std::size_t dim() const
    {
        return static_cast<std::size_t>(1) << numQubits_;
    }

    /**
     * Amplitudes stored per lane: the half with the top qubit 0
     * (2^(numQubits - 1)), or the one amplitude of a 0-qubit state.
     */
    std::size_t storedDim() const { return numQubits_ == 0 ? 1 : dim() / 2; }

    /**
     * One QAOA layer per lane: the cost layer (lane's amplitude i times
     * its phase-table entry for codes[i]; tables lane-major as
     * buildPhaseTablesSoA lays them out) then RX(thetas[lane]) on every
     * qubit, bit-identical per lane to Statevector::applyPhaseTable
     * followed by Statevector::applyRxAll. The mixer runs as two-qubit
     * tile passes (batched_kernels.hpp) over the stored half: qubits
     * 0 .. n-3 below a 2^10-amplitude cache block inside each block in
     * turn and the rest as passes over the whole half, then qubits n-2
     * and n-1 as one flip tile pass; the layer's first pass applies the
     * phase on load. @p codes are the full 2^n cut codes (only the
     * stored half is read) and must be flip-symmetric (see file
     * comment). @p thetas has kBatchLanes entries.
     */
    void applyLayer(std::span<const std::int32_t> codes,
                    std::span<const double> pre,
                    std::span<const double> pim,
                    std::span<const double> thetas);

    /**
     * out[lane] = sum_i |amp_i|^2 * codes[i] for each lane, with the
     * reduction shaped exactly like the scalar chunked sum (see file
     * comment) so every lane matches
     * Statevector::expectationFromCodes byte-for-byte: the stored
     * half ascending, then the upper half as its mirrors, descending.
     * Codes are read at the stored index (the same value, for
     * flip-symmetric codes). @p out has kBatchLanes entries. A set that
     * ran no layer since its reset writes its uniform start first.
     */
    void expectationFromCodes(std::span<const std::int32_t> codes,
                              std::span<double> out);

  private:
    int numQubits_ = 0;
    bool startPending_ = false; //!< Reset, no layer applied yet.
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
 * One padded lane sweep: kBatchLanes point slots sharing a layer
 * count. Lanes [0, count) hold distinct points whose values go to
 * out[outIdx[lane]]; the remaining lanes replicate the last of them
 * and are discarded.
 */
struct LaneGroup
{
    std::array<const QaoaParams *, batched::kBatchLanes> pts;
    std::array<std::size_t, batched::kBatchLanes> outIdx;
    int depth = 0;
    int count = 0;
};

/**
 * The lane plan of a batch: points are bucketed by layer count in
 * first-seen order (lanes of one sweep must share the pass structure)
 * and each bucket is cut into groups of kBatchLanes, the tail group
 * padded. Out indices are positions in @p points, so the groups of one
 * plan write disjoint slots.
 */
std::vector<LaneGroup>
planLaneGroups(std::span<const QaoaParams *const> points);

/**
 * Sweep one group on the calling thread's lane set (a thread-local
 * BatchedStateSet, 2^(num_qubits - 1) * kBatchLanes complex
 * amplitudes): out[group.outIdx[l]] = <H_c> at group.pts[l] for
 * l < group.count, byte-identical to QaoaSimulator::expectation at
 * every thread count. Groups of one plan may run concurrently on
 * distinct threads.
 *
 * @p codes / @p max_code are the graph's CutTable fields (makeCutTable).
 * Precondition: codes[z] == codes[z ^ (2^num_qubits - 1)] for every z,
 * which every cut table satisfies. The lanes store half of each state
 * on that symmetry (see file comment), so the codes of a cost with a
 * linear term (single-qubit fields, as in a general QUBO) would give
 * wrong values here. Only ExactEvaluator (lanePlan, sweepLanes,
 * batchExpectationInto) reaches the lanes, with its MaxCut table.
 */
void sweepLaneGroup(std::span<const std::int32_t> codes, int max_code,
                    int num_qubits, const LaneGroup &group,
                    std::span<double> out);

/**
 * Whether one lane sweep on @p num_qubits qubits spreads each of its
 * passes over the global pool by itself (the state is at or above the
 * kernels' intra-state parallel threshold and the pool has more than
 * one thread). Groups of such a state that run side by side each hold
 * a lane set on their own thread while their kernels, nested, run
 * inline; the engine's drain sweeps them one at a time instead.
 */
bool laneSweepUsesPool(int num_qubits);

/**
 * Batched QAOA expectations on one graph: out[k] = <H_c> at points[k]
 * via planLaneGroups + sweepLaneGroup, the groups fanned out over the
 * global thread pool at every state size (a nested call runs them
 * inline on the calling thread; a lone group runs directly, so its
 * kernels keep their intra-state parallelism).
 *
 * @p out has points.size() entries. Returns the number of lane groups
 * swept (the occupancy denominator: points / (kBatchLanes * groups)).
 */
std::size_t batchedCutExpectations(std::span<const std::int32_t> codes,
                                   int max_code, int num_qubits,
                                   std::span<const QaoaParams *const> points,
                                   std::span<double> out);

} // namespace redqaoa

#endif // REDQAOA_QUANTUM_BATCHED_STATE_HPP
