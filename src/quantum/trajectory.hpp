/**
 * @file
 * Pauli-trajectory noisy simulator.
 *
 * Density matrices cost 4^n memory; above ~12 qubits the paper's noisy
 * experiments (7-14 node graphs, Fig 10) need a cheaper route. We unravel
 * the noise channels into stochastic Pauli insertions on a statevector
 * and average over trajectories:
 *  - depolarizing(p): with prob p apply a uniform non-identity Pauli;
 *  - amplitude damping(g): Pauli twirl px = py = g/4,
 *    pz = ((1 - sqrt(1-g))/2)^2;
 *  - phase damping(l): pz = l/4 + ((1 - sqrt(1-l))/2)^2.
 * The twirl is exact for depolarizing and a standard approximation for
 * the damping channels (tests cross-check against the exact density
 * matrix on small systems). Readout error is folded analytically.
 *
 * Every trajectory state is a mirrored Statevector (statevector.hpp):
 * the 2^(n-1) amplitudes whose top qubit is 0 and a sign s with
 * a(~z) = s a(z). A trajectory applies only gates that commute (X, RX,
 * the edge and crosstalk RZZs) or anticommute (Y, Z) with the global
 * flip X^n, so from the flip-symmetric uniform start the relation holds
 * exactly, and every value equals the full-state value bit for bit.
 * Precondition for any new channel or gate: it must be one of those,
 * or the trajectory needs the full layout (H, CNOT, RY, RZ and general
 * diagonals assert a full state).
 */

#ifndef REDQAOA_QUANTUM_TRAJECTORY_HPP
#define REDQAOA_QUANTUM_TRAJECTORY_HPP

#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "quantum/maxcut.hpp"
#include "quantum/noise.hpp"

namespace redqaoa {

/** Per-qubit Pauli error probabilities of a twirled 1q channel stack. */
struct PauliChannel
{
    double px = 0.0;
    double py = 0.0;
    double pz = 0.0;

    /** Twirl of (depolarizing, amplitude damping, phase damping). */
    static PauliChannel fromModel(const NoiseModel &nm);
};

/**
 * Noisy QAOA expectation estimator for one graph under one noise model.
 * Deterministic given the Rng seed. Reuses buffers across calls, so a
 * single instance amortizes across a whole landscape grid.
 */
class TrajectorySimulator
{
  public:
    /**
     * @param g graph / MaxCut instance
     * @param nm noise model
     * @param trajectories number of Monte-Carlo unravelings per call
     * @param seed base seed (each expectation call derives sub-streams)
     */
    TrajectorySimulator(const Graph &g, const NoiseModel &nm,
                        int trajectories = 48, std::uint64_t seed = 99);

    /**
     * Mean <H_c> over trajectories with analytic readout folding.
     * Trajectory RNG streams are pre-split serially and the trajectories
     * then run on the global thread pool, so the value is identical at
     * any thread count (and to the historical serial implementation).
     */
    double expectation(const QaoaParams &params);

    /**
     * Shot-sampled estimate: per trajectory, draws measurement outcomes
     * (with readout flips) and averages cut values. @p shots total.
     * Parallel over trajectories with the same determinism guarantee as
     * expectation().
     */
    double sampledExpectation(const QaoaParams &params, int shots);

    /**
     * Expectation at every point of @p params (shots > 0 selects the
     * sampled estimator). All (point, trajectory) RNG streams are split
     * serially up front, then the points fan out over the thread pool;
     * the result matches a serial loop of expectation() /
     * sampledExpectation() calls bit-for-bit, at any thread count.
     */
    std::vector<double> batchExpectation(std::span<const QaoaParams> params,
                                         int shots = 0);

    int numQubits() const { return graph_.numNodes(); }

  private:
    /**
     * One layer's gates, the same in every trajectory of a point: the
     * duration factors, the RZZ terms of the edges (edge order) followed
     * by those of the crosstalk pairs, and each qubit's RX as
     * (cos, sin) of its half angle.
     */
    struct LayerGates
    {
        double rzzDuration = 1.0;
        double rxDuration = 1.0;
        std::vector<RzzTerm> rzz;
        std::vector<std::pair<double, double>> rx;
    };

    /** The gates of every layer of @p params, built once per point. */
    std::vector<LayerGates> pointGates(const QaoaParams &params) const;

    /**
     * One noisy trajectory into the calling thread's scratch
     * statevector (mirrored layout); the returned reference is valid
     * until the next trajectory on the same thread.
     */
    Statevector &runTrajectory(std::span<const LayerGates> layers,
                               Rng &rng) const;

    /** Trajectory energy with analytic readout folding. */
    double trajectoryEnergy(std::span<const LayerGates> layers,
                            Rng &rng) const;

    /** Trajectory cut-value total over @p shots sampled outcomes. */
    double sampledTrajectoryTotal(std::span<const LayerGates> layers,
                                  Rng &rng, int shots) const;

    /** Mean over pre-split per-trajectory streams (parallel fan-out). */
    double expectationWithStreams(const QaoaParams &params,
                                  std::span<Rng> streams, int shots) const;

    /** A deferred Pauli application (1 = X, 2 = Y, 3 = Z). */
    struct PauliOp
    {
        int qubit;
        int pauli;
    };

    /**
     * @param duration pulse-duration factor in (0, 1]; error
     *        probabilities scale with it when the model enables
     *        duration-scaled noise (1.0 otherwise).
     */
    void applyPauliError(Statevector &psi, int q, Rng &rng,
                         double duration) const;

    /**
     * Draw the stochastic errors after edge @p edge_index's RZZ
     * (identical RNG consumption to applying them immediately) into
     * @p ops (room for 4) and return how many fired. Deferring the
     * application lets the cost layer batch its commuting RZZs.
     */
    int collectTwoQubitError(std::size_t edge_index, Rng &rng,
                             double duration, PauliOp *ops) const;

    /** Angle-to-duration factor (see NoiseModel::durationScaledNoise). */
    double durationFactor(double angle) const;

    Graph graph_;
    NoiseModel model_;
    PauliChannel oneQ_;
    int trajectories_;
    Rng rng_;
    /**
     * Static calibration errors (coherent over-rotations), drawn once
     * per simulator: edgeScale_[e] multiplies the RZZ angle of edge e,
     * qubitScale_[q] the RX angle of qubit q. Deterministic given the
     * seed, and constant across trajectories — like real miscalibrated
     * gates, they do not average out.
     */
    std::vector<double> edgeScale_;
    std::vector<double> qubitScale_;
    /** Static per-edge 2q depolarizing probability (inhomogeneous). */
    std::vector<double> edgeDepol_;
    /** Parasitic ZZ pairs (phantom hardware-neighbor couplings). */
    std::vector<std::pair<int, int>> crosstalkPairs_;
    /** Static parasitic coupling strength per pair (rad per layer). */
    std::vector<double> crosstalkPhase_;
    /** Static per-qubit readout flip probabilities for |0> / |1>. */
    std::vector<double> readoutFlip0_;
    std::vector<double> readoutFlip1_;
    /** ceil(flip_p * 2^53): integer thresholds for bits53() draws. */
    std::vector<std::uint64_t> flipThresh0_;
    std::vector<std::uint64_t> flipThresh1_;
    /** Twirled per-2q-gate damping channel, precomputed once. */
    PauliChannel dampPerGate_;
    /** Edge endpoint pairs in edge order (fused kernels, cut values). */
    std::vector<std::pair<int, int>> edgePairs_;
    /**
     * Twirled idle-decoherence channel applied to every qubit once per
     * cost layer: the m edge pulses execute with parallelism ~ n/2, so
     * each qubit idles through ~ 2m/n sequential gate slots and damps
     * the whole time. This is the dominant size-dependent noise on
     * hardware — exactly the cost a smaller distilled circuit avoids.
     */
    PauliChannel idlePerLayer_;
};

} // namespace redqaoa

#endif // REDQAOA_QUANTUM_TRAJECTORY_HPP
