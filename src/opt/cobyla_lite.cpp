#include "opt/cobyla_lite.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/linalg.hpp"

namespace redqaoa {

namespace {

/**
 * One CobylaLite run. Its three point-producing loops are the phases:
 * the initial interpolation set, a respan of the simplex around the
 * incumbent, and the trust-region candidate step.
 */
class CobylaRun : public OptRun
{
  public:
    CobylaRun(const OptOptions &opts, const std::vector<double> &x0)
        : OptRun(false), opts_(opts), n_(x0.size()), rho_(opts.initialStep),
          rhoEnd_(std::max(opts.tolerance, 1e-8)), pts_(n_ + 1, x0),
          vals_(n_ + 1)
    {
        assert(n_ >= 1);
        // Interpolation set: x0 plus axis offsets.
        for (std::size_t i = 0; i < n_; ++i)
            pts_[i + 1][i] += rho_;
        next();
    }

  protected:
    void
    advance(double v) override
    {
        if (phase_ == Phase::Initial) {
            vals_[i_] = v;
            ++i_;
        } else if (phase_ == Phase::Respan) {
            vals_[i_ + 1] = v;
            ++i_;
        } else {
            step(v);
        }
        next();
    }

  private:
    enum class Phase
    {
        Initial, //!< Evaluating pts_[i_], i_ = 0..n.
        Respan,  //!< Evaluating pts_[i_ + 1], i_ = 0..n-1.
        Model,   //!< Fitting the model (no point pending).
        Step,    //!< Evaluating the candidate point_.
    };

    /** Rebuild the simplex around pts_[best] with the current rho. */
    void
    respan(std::size_t best)
    {
        std::vector<double> anchor = pts_[best];
        double anchor_val = vals_[best];
        pts_.assign(n_ + 1, anchor);
        vals_.assign(n_ + 1, anchor_val);
        i_ = 0;
        phase_ = Phase::Respan;
    }

    /** Set point_ to the next point to evaluate, or finish. */
    void
    next()
    {
        const int budget = opts_.maxEvaluations;
        for (;;) {
            if (phase_ == Phase::Initial) {
                if (i_ <= n_ && evaluations() < budget) {
                    point_ = pts_[i_];
                    return;
                }
                phase_ = Phase::Model;
            }
            if (phase_ == Phase::Respan) {
                if (i_ < n_ && evaluations() < budget) {
                    pts_[i_ + 1][i_] += rho_;
                    point_ = pts_[i_ + 1];
                    return;
                }
                phase_ = Phase::Model;
            }
            if (!(evaluations() < budget && rho_ > rhoEnd_)) {
                finish();
                return;
            }
            if (model())
                return;
        }
    }

    /**
     * Fit the interpolating linear model and propose the trust-region
     * step (true, point_ pending), or halve rho and respan when the
     * model is degenerate (false).
     */
    bool
    model()
    {
        const std::size_t n = n_;
        best_ = 0;
        worst_ = 0;
        for (std::size_t i = 1; i <= n; ++i) {
            if (vals_[i] < vals_[best_])
                best_ = i;
            if (vals_[i] > vals_[worst_])
                worst_ = i;
        }

        // Fit the interpolating linear model around the incumbent:
        // rows are displacement vectors, rhs the value differences.
        Matrix m(n, n);
        std::vector<double> dv(n, 0.0);
        std::size_t row = 0;
        for (std::size_t i = 0; i <= n; ++i) {
            if (i == best_)
                continue;
            for (std::size_t d = 0; d < n; ++d)
                m(row, d) = pts_[i][d] - pts_[best_][d];
            dv[row] = vals_[i] - vals_[best_];
            ++row;
        }
        std::vector<double> grad;
        bool degenerate = false;
        try {
            grad = solveLinearSystem(m, dv);
        } catch (...) {
            degenerate = true;
        }
        double gnorm = 0.0;
        if (!degenerate) {
            for (double gd : grad)
                gnorm += gd * gd;
            gnorm = std::sqrt(gnorm);
        }
        if (degenerate || gnorm < 1e-12) {
            rho_ *= 0.5;
            respan(best_);
            return false;
        }

        // Trust-region step on the linear model.
        point_ = pts_[best_];
        for (std::size_t d = 0; d < n; ++d)
            point_[d] -= rho_ * grad[d] / gnorm;
        phase_ = Phase::Step;
        return true;
    }

    /** Take the candidate's value @p fc into the simplex. */
    void
    step(double fc)
    {
        phase_ = Phase::Model;
        if (fc < vals_[best_]) {
            // Model predicted well: replace the worst vertex, expand a bit.
            pts_[worst_] = point_;
            vals_[worst_] = fc;
            rho_ = std::min(rho_ * 1.25, opts_.initialStep * 4.0);
        } else if (fc < vals_[worst_]) {
            pts_[worst_] = point_;
            vals_[worst_] = fc;
        } else {
            rho_ *= 0.5;
            // Keep the geometry fresh near the incumbent after shrinking.
            if (rho_ > rhoEnd_)
                respan(best_);
        }
    }

    const OptOptions opts_;
    const std::size_t n_;
    double rho_;
    const double rhoEnd_;
    std::vector<std::vector<double>> pts_; //!< Interpolation set.
    std::vector<double> vals_;
    Phase phase_ = Phase::Initial;
    std::size_t i_ = 0;
    std::size_t best_ = 0;
    std::size_t worst_ = 0;
};

} // namespace

std::unique_ptr<OptRun>
CobylaLite::start(const std::vector<double> &x0) const
{
    return std::make_unique<CobylaRun>(opts_, x0);
}

} // namespace redqaoa
