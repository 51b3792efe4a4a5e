#include "quantum/trajectory.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/thread_pool.hpp"

namespace redqaoa {

PauliChannel
PauliChannel::fromModel(const NoiseModel &nm)
{
    PauliChannel ch;
    // Depolarizing: exact twirl.
    ch.px += nm.oneQubitDepol / 3.0;
    ch.py += nm.oneQubitDepol / 3.0;
    ch.pz += nm.oneQubitDepol / 3.0;
    // Amplitude damping: twirl coefficients.
    if (nm.amplitudeDamping > 0.0) {
        double g = nm.amplitudeDamping;
        double z = (1.0 - std::sqrt(1.0 - g)) / 2.0;
        ch.px += g / 4.0;
        ch.py += g / 4.0;
        ch.pz += z * z;
    }
    // Phase damping: diagonal channel, twirls to pure dephasing.
    if (nm.phaseDamping > 0.0) {
        double l = nm.phaseDamping;
        double z = (1.0 - std::sqrt(1.0 - l)) / 2.0;
        ch.pz += l / 4.0 + z * z;
    }
    return ch;
}

TrajectorySimulator::TrajectorySimulator(const Graph &g,
                                         const NoiseModel &nm,
                                         int trajectories,
                                         std::uint64_t seed)
    : graph_(g), model_(nm), oneQ_(PauliChannel::fromModel(nm)),
      trajectories_(nm.isIdeal() ? 1 : trajectories), rng_(seed)
{
    // Static calibration errors: one draw per gate site, fixed for the
    // simulator's lifetime (quasi-static coherent error model).
    Rng calib(seed ^ 0xc0ffee123ULL);
    edgeScale_.assign(g.edges().size(), 1.0);
    qubitScale_.assign(static_cast<std::size_t>(g.numNodes()), 1.0);
    if (nm.overRotation > 0.0) {
        for (double &s : edgeScale_)
            s = 1.0 + calib.normal(0.0, nm.overRotation);
        for (double &s : qubitScale_)
            s = 1.0 + calib.normal(0.0, nm.overRotation);
    }

    // Heterogeneous 2q error rates (log-normal spread around the mean).
    edgeDepol_.assign(g.edges().size(), nm.twoQubitDepol);
    if (nm.inhomogeneity > 0.0 && nm.twoQubitDepol > 0.0) {
        for (double &p : edgeDepol_)
            p = std::min(0.5, p * std::exp(calib.normal(
                                  0.0, nm.inhomogeneity)));
    }

    // Idle decoherence per cost layer: each qubit sits through
    // ~ 2m/n sequential pulse slots, damping in each.
    if (nm.amplitudeDamping > 0.0 || nm.phaseDamping > 0.0) {
        double slots = g.numNodes() > 0
                           ? 2.0 * g.numEdges() / g.numNodes()
                           : 0.0;
        NoiseModel idle;
        idle.amplitudeDamping =
            1.0 - std::pow(1.0 - nm.amplitudeDamping, slots);
        idle.phaseDamping =
            1.0 - std::pow(1.0 - nm.phaseDamping, slots);
        idlePerLayer_ = PauliChannel::fromModel(idle);
    }

    // Parasitic ZZ couplings: on hardware, qubits that are neighbors on
    // the DEVICE (not necessarily in the problem graph) accumulate
    // conditional phase during the cost layer. We approximate the
    // embedding with a hardware chain over the qubits plus a few
    // longer-range spectator pairs.
    if (nm.zzCrosstalk > 0.0) {
        for (int q = 0; q + 1 < g.numNodes(); ++q)
            crosstalkPairs_.emplace_back(q, q + 1);
        // Spectator pairs grow superlinearly: a bigger circuit
        // occupies more of the chip and sees more parasitic couplings.
        int spectators = std::max(
            g.numNodes() / 2,
            g.numNodes() * (g.numNodes() - 6) / 8);
        for (int extra = 0; extra < spectators; ++extra) {
            int a = static_cast<int>(
                calib.index(static_cast<std::size_t>(g.numNodes())));
            int b = static_cast<int>(
                calib.index(static_cast<std::size_t>(g.numNodes())));
            if (a != b)
                crosstalkPairs_.emplace_back(a, b);
        }
        crosstalkPhase_.reserve(crosstalkPairs_.size());
        for (std::size_t i = 0; i < crosstalkPairs_.size(); ++i)
            crosstalkPhase_.push_back(
                calib.normal(0.0, nm.zzCrosstalk));
    }

    // Twirled per-gate damping channel for the 2q sites, fixed for the
    // simulator's lifetime (historically rebuilt per gate application).
    if (nm.amplitudeDamping > 0.0 || nm.phaseDamping > 0.0) {
        NoiseModel damp_only;
        damp_only.amplitudeDamping = nm.amplitudeDamping;
        damp_only.phaseDamping = nm.phaseDamping;
        dampPerGate_ = PauliChannel::fromModel(damp_only);
    }

    // Edge endpoint pairs in edge order, for the shift-xor parity cut
    // values of the sampled estimator and the fused <ZZ> reductions.
    edgePairs_.reserve(g.edges().size());
    for (const Edge &e : g.edges())
        edgePairs_.emplace_back(e.u, e.v);

    // Per-qubit asymmetric readout: |1> misreads more often than |0>.
    const auto nq = static_cast<std::size_t>(g.numNodes());
    readoutFlip0_.assign(nq, nm.readoutError);
    readoutFlip1_.assign(nq, nm.readoutError);
    if (nm.readoutError > 0.0) {
        for (std::size_t q = 0; q < nq; ++q) {
            double site = 1.0;
            if (nm.inhomogeneity > 0.0)
                site = std::exp(calib.normal(0.0,
                                             0.5 * nm.inhomogeneity));
            readoutFlip0_[q] = std::min(
                0.45,
                nm.readoutError * (1.0 - nm.readoutAsymmetry) * site);
            readoutFlip1_[q] = std::min(
                0.45,
                nm.readoutError * (1.0 + nm.readoutAsymmetry) * site);
        }
    }

    // Integer flip thresholds: uniform() < p == bits53() < ceil(p*2^53)
    // (p * 2^53 is an exact power-of-two scaling), so the per-shot
    // readout loop never leaves integer arithmetic.
    flipThresh0_.resize(nq);
    flipThresh1_.resize(nq);
    for (std::size_t q = 0; q < nq; ++q) {
        flipThresh0_[q] = static_cast<std::uint64_t>(
            std::ceil(readoutFlip0_[q] * 0x1.0p53));
        flipThresh1_[q] = static_cast<std::uint64_t>(
            std::ceil(readoutFlip1_[q] * 0x1.0p53));
    }
}

double
TrajectorySimulator::durationFactor(double angle) const
{
    if (!model_.durationScaledNoise)
        return 1.0;
    // Pulse length proportional to the wrapped angle, with a floor for
    // the fixed pulse-envelope overhead.
    double a = std::fabs(std::fmod(angle, 2.0 * M_PI));
    if (a > M_PI)
        a = 2.0 * M_PI - a;
    return 0.25 + 0.75 * a / M_PI;
}

void
TrajectorySimulator::applyPauliError(Statevector &psi, int q, Rng &rng,
                                     double duration) const
{
    double u = rng.uniform();
    if (u < duration * oneQ_.px) {
        psi.applyX(q);
    } else if (u < duration * (oneQ_.px + oneQ_.py)) {
        psi.applyY(q);
    } else if (u < duration * (oneQ_.px + oneQ_.py + oneQ_.pz)) {
        psi.applyZ(q);
    }
}

int
TrajectorySimulator::collectTwoQubitError(std::size_t edge_index, Rng &rng,
                                          double duration,
                                          PauliOp *ops) const
{
    // Draws and thresholds are identical to the historical immediate
    // application; only the state update is deferred so the diagonal
    // RZZ run can stay batched until a Pauli actually fires.
    const Edge &edge = graph_.edges()[edge_index];
    int count = 0;
    double p_edge = duration * edgeDepol_[edge_index];
    if (p_edge > 0.0 && rng.uniform() < p_edge) {
        // Uniform non-identity 2q Pauli: index 1..15 as base-4 digits.
        int code = 1 + static_cast<int>(rng.index(15));
        int pa = code & 3;
        int pb = (code >> 2) & 3;
        if (pa != 0)
            ops[count++] = PauliOp{edge.u, pa};
        if (pb != 0)
            ops[count++] = PauliOp{edge.v, pb};
    }
    // Per-gate damping on both qubits (twirled, precomputed once).
    if (model_.amplitudeDamping > 0.0 || model_.phaseDamping > 0.0) {
        const PauliChannel &damp = dampPerGate_;
        for (int q : {edge.u, edge.v}) {
            double u = rng.uniform();
            if (u < duration * damp.px)
                ops[count++] = PauliOp{q, 1};
            else if (u < duration * (damp.px + damp.py))
                ops[count++] = PauliOp{q, 2};
            else if (u < duration * (damp.px + damp.py + damp.pz))
                ops[count++] = PauliOp{q, 3};
        }
    }
    return count;
}

std::vector<TrajectorySimulator::LayerGates>
TrajectorySimulator::pointGates(const QaoaParams &params) const
{
    std::vector<LayerGates> layers(static_cast<std::size_t>(params.layers()));
    for (std::size_t layer = 0; layer < layers.size(); ++layer) {
        const double gma = params.gamma[layer];
        const double bta = params.beta[layer];
        LayerGates &gates = layers[layer];
        gates.rzzDuration = durationFactor(gma);
        gates.rxDuration = durationFactor(2.0 * bta);
        gates.rzz.reserve(graph_.edges().size() + crosstalkPairs_.size());
        // exp(-i gamma cut_e), with the static calibration error.
        for (std::size_t ei = 0; ei < graph_.edges().size(); ++ei) {
            const Edge &e = graph_.edges()[ei];
            gates.rzz.push_back(makeRzzTerm(e.u, e.v, -gma * edgeScale_[ei]));
        }
        // Parasitic conditional phases accumulate over the cost layer,
        // scaled by its duration (coherent: identical every trajectory).
        for (std::size_t ci = 0; ci < crosstalkPairs_.size(); ++ci)
            gates.rzz.push_back(makeRzzTerm(
                crosstalkPairs_[ci].first, crosstalkPairs_[ci].second,
                crosstalkPhase_[ci] * gates.rzzDuration));
        gates.rx.reserve(qubitScale_.size());
        for (double scale : qubitScale_) {
            const double theta = 2.0 * bta * scale;
            gates.rx.emplace_back(std::cos(theta / 2.0),
                                  std::sin(theta / 2.0));
        }
    }
    return layers;
}

Statevector &
TrajectorySimulator::runTrajectory(std::span<const LayerGates> layers,
                                   Rng &rng) const
{
    const int n = graph_.numNodes();
    // Per-thread workspace: batch sweeps stop allocating one 2^(n-1)
    // vector per (point, trajectory).
    Statevector &psi = scratchUniformState(StateScratch::kTrajectory, n,
                                           StateLayout::kMirrored);
    // Initial H layer counts as one 1q gate per qubit.
    for (int q = 0; q < n; ++q)
        applyPauliError(psi, q, rng, 1.0);

    auto applyPauli = [&psi](PauliOp op) {
        switch (op.pauli) {
          case 1:
            psi.applyX(op.qubit);
            break;
          case 2:
            psi.applyY(op.qubit);
            break;
          default:
            psi.applyZ(op.qubit);
            break;
        }
    };
    const std::size_t edges = graph_.edges().size();
    for (const LayerGates &gates : layers) {
        const double rzz_duration = gates.rzzDuration;
        // Cost layer: the diagonal RZZs all commute, so they accumulate
        // into fused batch applications that only flush when a
        // stochastic Pauli insertion actually fires in between (rare),
        // instead of one full state pass per edge. The pending run is
        // rzz[first, ei]; the last flush adds the crosstalk terms.
        const std::span<const RzzTerm> rzz = gates.rzz;
        std::size_t first = 0;
        for (std::size_t ei = 0; ei < edges; ++ei) {
            PauliOp ops[4];
            int nops = collectTwoQubitError(ei, rng, rzz_duration, ops);
            if (nops > 0) {
                psi.applyRzzBatch(rzz.subspan(first, ei + 1 - first));
                first = ei + 1;
                for (int k = 0; k < nops; ++k)
                    applyPauli(ops[k]);
            }
        }
        psi.applyRzzBatch(rzz.subspan(first));
        // Idle decoherence over the layer's wall time.
        for (int q = 0; q < n; ++q) {
            double u = rng.uniform();
            if (u < rzz_duration * idlePerLayer_.px)
                psi.applyX(q);
            else if (u < rzz_duration *
                             (idlePerLayer_.px + idlePerLayer_.py))
                psi.applyY(q);
            else if (u < rzz_duration *
                             (idlePerLayer_.px + idlePerLayer_.py +
                              idlePerLayer_.pz))
                psi.applyZ(q);
        }
        for (int q = 0; q < n; ++q) {
            const auto &[c, s] = gates.rx[static_cast<std::size_t>(q)];
            psi.applyRx(q, c, s);
            applyPauliError(psi, q, rng, gates.rxDuration);
        }
    }
    return psi;
}

double
TrajectorySimulator::trajectoryEnergy(std::span<const LayerGates> layers,
                                      Rng &rng) const
{
    Statevector &psi = runTrajectory(layers, rng);
    // Every <Z_q> and <Z_u Z_v> in one fused pass over the amplitudes
    // (historically 3 full passes per edge).
    thread_local std::vector<double> z, zz;
    z.resize(static_cast<std::size_t>(graph_.numNodes()));
    zz.resize(graph_.edges().size());
    psi.zAndZzExpectations(edgePairs_, z, zz);
    double e = 0.0;
    for (std::size_t ei = 0; ei < graph_.edges().size(); ++ei) {
        const Edge &edge = graph_.edges()[ei];
        // Asymmetric readout folded analytically: a qubit in state
        // s flips with prob q0 (s = +1) or q1 (s = -1), giving
        //   E[s^m] = a s + b,  a = 1 - q0 - q1,  b = q1 - q0.
        auto ui = static_cast<std::size_t>(edge.u);
        auto vi = static_cast<std::size_t>(edge.v);
        double au = 1.0 - readoutFlip0_[ui] - readoutFlip1_[ui];
        double bu = readoutFlip1_[ui] - readoutFlip0_[ui];
        double av = 1.0 - readoutFlip0_[vi] - readoutFlip1_[vi];
        double bv = readoutFlip1_[vi] - readoutFlip0_[vi];
        double zze = au * av * zz[ei] + au * bv * z[ui] +
                     bu * av * z[vi] + bu * bv;
        e += 0.5 * (1.0 - zze);
    }
    return e;
}

double
TrajectorySimulator::sampledTrajectoryTotal(
    std::span<const LayerGates> layers, Rng &rng, int shots) const
{
    Statevector &psi = runTrajectory(layers, rng);
    thread_local std::vector<std::uint64_t> outcomes;
    psi.sampleInto(shots, rng, outcomes);
    double total = 0.0;
    for (std::uint64_t z : outcomes) {
        // State-dependent readout flips (|1> misreads more often),
        // decided in pure integer arithmetic — same draws, same
        // outcomes as rng.bernoulli(flip_p) on the double thresholds.
        std::uint64_t flipped = z;
        for (int q = 0; q < graph_.numNodes(); ++q) {
            bool is_one = (z >> q) & 1u;
            std::uint64_t thresh =
                is_one ? flipThresh1_[static_cast<std::size_t>(q)]
                       : flipThresh0_[static_cast<std::size_t>(q)];
            if (rng.bits53() < thresh)
                flipped ^= (static_cast<std::uint64_t>(1) << q);
        }
        // Shift-xor parity cut value (identical to cutValue, two ops
        // per edge per shot).
        int cut = 0;
        for (const auto &[u, v] : edgePairs_)
            cut += static_cast<int>(((flipped >> u) ^ (flipped >> v)) &
                                    1u);
        total += cut;
    }
    return total;
}

double
TrajectorySimulator::expectationWithStreams(const QaoaParams &params,
                                            std::span<Rng> streams,
                                            int shots) const
{
    // One output slot per trajectory plus an in-order reduction keeps
    // the sum identical at every thread count. Cut-value totals are
    // integer-valued doubles, so even regrouping them would be exact.
    const std::vector<LayerGates> layers = pointGates(params);
    std::vector<double> per_traj(streams.size());
    if (shots == 0) {
        parallelFor(streams.size(), [&](std::size_t t) {
            per_traj[t] = trajectoryEnergy(layers, streams[t]);
        });
        double total = 0.0;
        for (double e : per_traj)
            total += e;
        return total / static_cast<double>(trajectories_);
    }
    int shots_per_traj = std::max(1, shots / trajectories_);
    parallelFor(streams.size(), [&](std::size_t t) {
        per_traj[t] = sampledTrajectoryTotal(layers, streams[t],
                                             shots_per_traj);
    });
    double total = 0.0;
    for (double s : per_traj)
        total += s;
    auto count = static_cast<double>(shots_per_traj) *
                 static_cast<double>(trajectories_);
    return total / count;
}

double
TrajectorySimulator::expectation(const QaoaParams &params)
{
    auto streams = rng_.splitN(static_cast<std::size_t>(trajectories_));
    return expectationWithStreams(params, streams, 0);
}

double
TrajectorySimulator::sampledExpectation(const QaoaParams &params, int shots)
{
    auto streams = rng_.splitN(static_cast<std::size_t>(trajectories_));
    return expectationWithStreams(params, streams, shots);
}

std::vector<double>
TrajectorySimulator::batchExpectation(std::span<const QaoaParams> params,
                                      int shots)
{
    // Serial seeding, parallel evaluation: point i consumes exactly the
    // RNG draws a serial loop of expectation() calls would have handed
    // it, so batch results are bit-identical to the serial path and
    // independent of the thread count.
    const auto traj = static_cast<std::size_t>(trajectories_);
    std::vector<Rng> streams = rng_.splitN(params.size() * traj);
    std::vector<double> out(params.size());
    parallelFor(params.size(), [&](std::size_t i) {
        out[i] = expectationWithStreams(
            params[i], std::span<Rng>(streams).subspan(i * traj, traj),
            shots);
    });
    return out;
}

} // namespace redqaoa
