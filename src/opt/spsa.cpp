#include "opt/spsa.hpp"

#include <cmath>

namespace redqaoa {

namespace {

// Standard gain schedules (Spall's recommended exponents).
constexpr double kAlpha = 0.602;
constexpr double kGammaExp = 0.101;
constexpr double kStability = 10.0;

/**
 * One SPSA run: the start point, then per iteration the plus and minus
 * perturbations, then the final iterate when one evaluation of the
 * budget is left over.
 */
class SpsaRun : public OptRun
{
  public:
    SpsaRun(const OptOptions &opts, std::uint64_t seed, double a0,
            double c0, const std::vector<double> &x0)
        : OptRun(false), opts_(opts), a0_(a0), c0_(c0), rng_(seed), x_(x0),
          delta_(x0.size())
    {
        point_ = x_;
    }

  protected:
    void
    advance(double v) override
    {
        const std::size_t n = x_.size();
        switch (phase_) {
            case Phase::Plus:
                fp_ = v;
                point_ = xm_;
                phase_ = Phase::Minus;
                return;
            case Phase::Minus: {
                double diff = (fp_ - v) / (2.0 * ck_);
                for (std::size_t d = 0; d < n; ++d)
                    x_[d] -= ak_ * diff / delta_[d];
                break;
            }
            case Phase::Start:
                break;
            case Phase::Final:
                finish();
                return;
        }
        if (evaluations() + 2 <= opts_.maxEvaluations) {
            perturb();
        } else if (evaluations() < opts_.maxEvaluations) {
            point_ = x_;
            phase_ = Phase::Final;
        } else {
            finish();
        }
    }

  private:
    enum class Phase
    {
        Start, //!< Evaluating x0.
        Plus,  //!< Evaluating x + ck * delta.
        Minus, //!< Evaluating x - ck * delta.
        Final, //!< Evaluating the last iterate.
    };

    /** Draw the next iteration's perturbation; point_ = x + ck delta. */
    void
    perturb()
    {
        const std::size_t n = x_.size();
        ++k_;
        ak_ = a0_ / std::pow(k_ + kStability, kAlpha);
        ck_ = c0_ / std::pow(k_, kGammaExp);

        // Rademacher perturbation.
        for (std::size_t d = 0; d < n; ++d)
            delta_[d] = rng_.bernoulli(0.5) ? 1.0 : -1.0;

        std::vector<double> xp = x_;
        xm_ = x_;
        for (std::size_t d = 0; d < n; ++d) {
            xp[d] += ck_ * delta_[d];
            xm_[d] -= ck_ * delta_[d];
        }
        point_ = std::move(xp);
        phase_ = Phase::Plus;
    }

    const OptOptions opts_;
    const double a0_;
    const double c0_;
    Rng rng_;
    std::vector<double> x_; //!< The current iterate.
    std::vector<double> delta_;
    std::vector<double> xm_;
    Phase phase_ = Phase::Start;
    int k_ = 0;
    double ak_ = 0.0;
    double ck_ = 0.0;
    double fp_ = 0.0; //!< Value at x + ck * delta.
};

} // namespace

std::unique_ptr<OptRun>
Spsa::start(const std::vector<double> &x0) const
{
    return std::make_unique<SpsaRun>(opts_, seed_, a0_, c0_, x0);
}

} // namespace redqaoa
