/**
 * @file
 * COBYLA-lite: a linear-interpolation trust-region minimizer in the
 * spirit of Powell's COBYLA (the optimizer the paper uses, §6.4).
 *
 * The paper's problems are unconstrained 2p-dimensional searches, so the
 * constraint machinery of full COBYLA is dead weight; what matters is
 * the algorithmic family: keep n+1 interpolation points, fit a linear
 * model of the objective, step to the trust-region minimizer of the
 * model, and shrink the radius when the model stops being predictive.
 * DESIGN.md §4 records this substitution.
 */

#ifndef REDQAOA_OPT_COBYLA_LITE_HPP
#define REDQAOA_OPT_COBYLA_LITE_HPP

#include "opt/optimizer.hpp"

namespace redqaoa {

/** Linear-model trust-region minimizer. */
class CobylaLite : public Optimizer
{
  public:
    /**
     * @param opts shared options; initialStep is the starting trust
     *             radius rho_begin, tolerance the final radius rho_end.
     */
    explicit CobylaLite(OptOptions opts = {}) : opts_(opts) {}

    std::unique_ptr<OptRun>
    start(const std::vector<double> &x0) const override;

    std::string name() const override { return "cobyla-lite"; }

  private:
    OptOptions opts_;
};

} // namespace redqaoa

#endif // REDQAOA_OPT_COBYLA_LITE_HPP
