/**
 * @file
 * Dense statevector simulator.
 *
 * This is the workhorse behind every ideal-execution experiment in the
 * paper (the "statevector backend" of §5.3). It provides generic 1- and
 * 2-qubit unitaries plus the fast paths QAOA actually needs:
 *  - a precomputed-phase-table multiply for the cost layer
 *    e^{-i gamma H_c} (the cut table holds small integers, so the
 *    per-amplitude cos/sin collapses into an m+1-entry lookup);
 *  - a fused, cache-blocked RX butterfly for the whole mixer layer
 *    e^{-i beta H_m} that walks the state once per cache block instead
 *    of once per qubit;
 *  - fused expectation reductions (cut-table energy, batched <Z>/<ZZ>)
 *    that read the amplitudes exactly once.
 *
 * Above kMinParallelDim amplitudes the kernels chunk their loops over
 * the global thread pool. Element-wise updates are value-exact under
 * any partition; reductions switch to fixed-size chunks with an
 * in-order combine, so results are identical at every thread count
 * >= 2, and with a 1-thread pool every kernel runs the plain serial
 * loop (bit-identical to the historical implementation).
 *
 * Qubit q corresponds to bit q of the basis-state index (little-endian).
 *
 * Mirrored layout. A state built only from gates that commute or
 * anticommute with the global flip X^n satisfies a(~z) = s a(z) with
 * s = +-1 exactly, so a mirrored Statevector stores the 2^(n-1)
 * amplitudes whose top qubit is 0 plus the sign s (the uniform start has
 * s = +1). X, RX and RZZ commute with the flip and keep s; Y and Z
 * anticommute and negate it. Qubits below the top run the full layout's
 * loops over the stored half; the top qubit pairs stored z with its
 * mirror 2^(n-1) - 1 - z. The <Z>/<ZZ> readout and the sampler walk the
 * full index order, reading index i >= 2^(n-1) at 2^n - 1 - i, and every
 * shape decision (RZZ tile width, serial-vs-chunked split, chunk
 * partition) is keyed on the full 2^n, so every value is bit-identical
 * to the full layout's (up to the sign of an exact zero). Precondition:
 * only X, Y, Z, RX and RZZ reach a mirrored state. H, CNOT, RY, RZ, the
 * general 2x2 and diagonal gates, the fused mixer and the other
 * reductions assert a full state.
 */

#ifndef REDQAOA_QUANTUM_STATEVECTOR_HPP
#define REDQAOA_QUANTUM_STATEVECTOR_HPP

#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace redqaoa {

using Complex = std::complex<double>;

/** 2x2 unitary, row-major. */
using Gate1Q = std::array<Complex, 4>;

/** One RZZ(theta) on (a, b) as its two parity phases (see makeRzzTerm). */
struct RzzTerm
{
    int a;
    int b;
    Complex even; //!< Phase for Z_a Z_b = +1: exp(-i theta / 2).
    Complex odd;  //!< Phase for Z_a Z_b = -1: exp(+i theta / 2).
};

/** RzzTerm for RZZ(theta) on qubits (a, b). */
inline RzzTerm
makeRzzTerm(int a, int b, double theta)
{
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    return RzzTerm{a, b, Complex{c, -s}, Complex{c, s}};
}

/** Which amplitudes a Statevector stores (see the file comment). */
enum class StateLayout
{
    kFull,    //!< All 2^n amplitudes.
    kMirrored //!< The 2^(n-1) with top qubit 0, and the flip sign.
};

/** Dense n-qubit state vector. */
class Statevector
{
  public:
    /** |0...0> on @p num_qubits qubits (full layout). */
    explicit Statevector(int num_qubits);

    /** Uniform superposition |s> = H^n |0...0>. */
    static Statevector uniform(int num_qubits,
                               StateLayout layout = StateLayout::kFull);

    /**
     * Reset to the uniform superposition on @p num_qubits qubits,
     * reusing the existing allocation when capacity permits (the
     * workspace fast path).
     */
    void resetUniform(int num_qubits,
                      StateLayout layout = StateLayout::kFull);

    int numQubits() const { return numQubits_; }

    /** Dimension 2^n of the state space (in either layout). */
    std::size_t dim() const { return std::size_t{1} << numQubits_; }

    /** s in a(~z) = s a(z) of a mirrored state (+1 for a full one). */
    double mirrorSign() const { return sign_; }

    /** Stored amplitude @p i (i < 2^(n-1) in a mirrored state). */
    Complex &operator[](std::size_t i) { return amps_[i]; }
    const Complex &operator[](std::size_t i) const { return amps_[i]; }

    /** Apply an arbitrary 2x2 unitary to qubit @p q. */
    void apply1Q(int q, const Gate1Q &u);

    /** Hadamard on qubit @p q. */
    void applyH(int q);

    /** Pauli gates on qubit @p q. */
    void applyX(int q);
    void applyY(int q);
    void applyZ(int q);

    /** RX(theta) = exp(-i theta X / 2). */
    void applyRx(int q, double theta);

    /** RX(theta) given c = cos(theta / 2) and s = sin(theta / 2). */
    void applyRx(int q, double c, double s);

    /** RY(theta) = exp(-i theta Y / 2). */
    void applyRy(int q, double theta);

    /** RZ(theta) = exp(-i theta Z / 2). */
    void applyRz(int q, double theta);

    /** CNOT with control @p c, target @p t. */
    void applyCnot(int c, int t);

    /** RZZ(theta) = exp(-i theta Z_a Z_b / 2) (diagonal fast path). */
    void applyRzz(int a, int b, double theta);

    /**
     * Apply a run of commuting RZZ terms in fused passes: terms are
     * tiled into groups whose 2^k-entry phase-product tables are
     * applied with one parity-indexed multiply per amplitude, instead
     * of one full pass per term. Equal to applying each term in order
     * (up to phase-product rounding; a term with a == b is the even
     * phase everywhere, as in applyRzz). The noisy cost layer batches
     * every RZZ between stochastic Pauli insertions through this.
     */
    void applyRzzBatch(std::span<const RzzTerm> terms);

    /**
     * Multiply amplitude of basis state z by exp(-i angle * diag[z]).
     * General-diagonal path; integer-valued layers (the QAOA cost
     * unitary) should precompute a phase table and use
     * applyPhaseTable, which is bit-identical and skips the
     * per-amplitude cos/sin.
     */
    void applyDiagonalPhase(const std::vector<double> &diag, double angle);

    /**
     * Multiply amplitude z by phases[codes[z]]. With phases built by
     * buildPhaseTable this applies exp(-i angle * codes[z]) exactly as
     * applyDiagonalPhase would for diag[z] = codes[z], at one table
     * lookup per amplitude instead of a cos/sin pair.
     */
    void applyPhaseTable(std::span<const std::int32_t> codes,
                         std::span<const Complex> phases);

    /**
     * Apply RX(theta) to every qubit (the QAOA mixer layer), fused:
     * qubits that fit a cache block are applied back-to-back while the
     * block is resident, so the state is traversed ~once instead of n
     * times. Bit-identical to applyRx(q, theta) for q = 0..n-1.
     */
    void applyRxAll(double theta);

    /** Squared norm (should stay 1 within rounding). */
    double norm2() const;

    /** Probability vector |amp_z|^2. */
    std::vector<double> probabilities() const;

    /** <Z_a Z_b> expectation (+1/-1 parity average). */
    double zzExpectation(int a, int b) const;

    /** <Z_q> expectation. */
    double zExpectation(int q) const;

    /**
     * Fused <Z_q> for every qubit and <Z_a Z_b> for every pair in
     * @p pairs: |amp|^2 is computed once per amplitude and added, with
     * its sign, to every output. z_out must have numQubits() slots (or
     * be empty to skip the <Z> sums); zz_out must have pairs.size()
     * slots. The outputs sit in register blocks of 8. The signs of a
     * block at index i form an 8-bit parity pattern that is linear in
     * i over GF(2), so it steps by a precomputed delta[ctz(i + 1)], and
     * a 256-row table turns it into sign-bit XORs: no branch per term.
     * Each output still adds its terms in index order (per fixed chunk
     * on the parallel path), so it matches the corresponding
     * zExpectation / zzExpectation call bit for bit at every thread
     * count.
     */
    void zAndZzExpectations(std::span<const std::pair<int, int>> pairs,
                            std::span<double> z_out,
                            std::span<double> zz_out) const;

    /**
     * <diag> = sum_z |amp_z|^2 diag[z] without materializing the
     * probability vector (the QAOA <H_c> fast path; diag is the cut
     * table).
     */
    double expectationFromTable(std::span<const double> diag) const;

    /**
     * expectationFromTable for an integer-coded diagonal (the CutTable
     * form): bit-identical to the double version on the same values,
     * with no materialized double mirror of the table.
     */
    double expectationFromCodes(std::span<const std::int32_t> codes) const;

    /**
     * Sample @p shots basis states from the current distribution.
     * O(2^n) preprocessing then O(log 2^n) per shot (branchless fixed-
     * depth search over the power-of-two cumulative table). The table
     * lives in per-thread scratch, so repeated calls do not allocate.
     */
    std::vector<std::uint64_t> sample(int shots, Rng &rng) const;

    /** sample() into a reusable buffer (@p out is clear()ed first). */
    void sampleInto(int shots, Rng &rng,
                    std::vector<std::uint64_t> &out) const;

    /** The stored amplitudes (the lower half of a mirrored state). */
    const std::vector<Complex> &amplitudes() const { return amps_; }

  private:
    /** One-term RZZ from its precomputed parity phases. */
    void applyRzz0(const RzzTerm &t);

    /** True when @p q is a mirrored state's top qubit. */
    bool isMirroredTop(int q) const
    {
        return mirrored_ && q == numQubits_ - 1;
    }

    int numQubits_;
    bool mirrored_ = false;
    double sign_ = 1.0;
    std::vector<Complex> amps_;
};

/**
 * Fill @p out with the m+1 phases exp(-i angle * c) for c = 0..max_code,
 * each computed exactly as applyDiagonalPhase computes the per-amplitude
 * phase (so applyPhaseTable reproduces it bit-for-bit).
 */
void buildPhaseTable(int max_code, double angle, std::vector<Complex> &out);

namespace detail {

/**
 * True when a loop over @p dim amplitudes should chunk over the global
 * thread pool (the statevector kernels' shared dispatch predicate —
 * also used by sibling amplitude-sized loops like the cut-table fill).
 */
bool intraStateParallel(std::size_t dim);

/** Fixed chunk length of the parallel amplitude loops / reductions. */
constexpr std::size_t kStateChunkLen = std::size_t{1} << 12;

} // namespace detail

/**
 * Named per-thread scratch statevectors. Each caller class owns a slot
 * so nested users (e.g. a light-cone evaluation inside a batched sweep)
 * can never clobber each other's live workspace on the same thread.
 */
enum class StateScratch { kEvaluator, kTrajectory, kLightcone };

/**
 * The calling thread's reusable scratch statevector for @p slot, reset
 * to the uniform superposition on @p num_qubits qubits in @p layout. The
 * returned reference stays valid for the lifetime of the thread;
 * repeated calls with the same or smaller sizes do not allocate.
 */
Statevector &scratchUniformState(StateScratch slot, int num_qubits,
                                 StateLayout layout = StateLayout::kFull);

} // namespace redqaoa

#endif // REDQAOA_QUANTUM_STATEVECTOR_HPP
