/**
 * @file
 * SPSA (Spall 1992): simultaneous-perturbation stochastic approximation.
 * Two objective evaluations per iteration regardless of dimension, which
 * is the standard choice for noisy quantum objectives; included both as
 * an alternative to COBYLA-lite and for the noisy-convergence ablations.
 */

#ifndef REDQAOA_OPT_SPSA_HPP
#define REDQAOA_OPT_SPSA_HPP

#include "opt/optimizer.hpp"

namespace redqaoa {

/** SPSA minimizer (deterministic given the seed). */
class Spsa : public Optimizer
{
  public:
    explicit Spsa(OptOptions opts = {}, std::uint64_t seed = 17,
                  double a0 = 0.2, double c0 = 0.15)
        : opts_(opts), seed_(seed), a0_(a0), c0_(c0)
    {}

    std::unique_ptr<OptRun>
    start(const std::vector<double> &x0) const override;

    std::string name() const override { return "spsa"; }

  private:
    OptOptions opts_;
    std::uint64_t seed_;
    double a0_; //!< Initial step gain.
    double c0_; //!< Initial perturbation size.
};

} // namespace redqaoa

#endif // REDQAOA_OPT_SPSA_HPP
