/**
 * @file
 * Nelder-Mead downhill simplex (1965): the library's robust default
 * derivative-free minimizer. Standard reflection / expansion /
 * contraction / shrink coefficients.
 */

#ifndef REDQAOA_OPT_NELDER_MEAD_HPP
#define REDQAOA_OPT_NELDER_MEAD_HPP

#include "opt/optimizer.hpp"

namespace redqaoa {

/** Nelder-Mead simplex minimizer. */
class NelderMead : public Optimizer
{
  public:
    explicit NelderMead(OptOptions opts = {}) : opts_(opts) {}

    std::unique_ptr<OptRun>
    start(const std::vector<double> &x0) const override;

    std::string name() const override { return "nelder-mead"; }

  private:
    OptOptions opts_;
};

} // namespace redqaoa

#endif // REDQAOA_OPT_NELDER_MEAD_HPP
