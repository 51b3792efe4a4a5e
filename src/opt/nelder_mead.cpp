#include "opt/nelder_mead.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace redqaoa {

namespace {

constexpr double kAlpha = 1.0; // Reflection.
constexpr double kGamma = 2.0; // Expansion.
constexpr double kRho = 0.5;   // Contraction.
constexpr double kSigma = 0.5; // Shrink.

/**
 * One Nelder-Mead run. Each phase names the point pending evaluation:
 * an initial vertex, the reflection, expansion or contraction of the
 * worst vertex, or a vertex shrunk toward the best one.
 */
class NelderMeadRun : public OptRun
{
  public:
    NelderMeadRun(const OptOptions &opts, const std::vector<double> &x0)
        : OptRun(true), opts_(opts), n_(x0.size()), pts_(n_ + 1, x0),
          vals_(n_ + 1)
    {
        assert(n_ >= 1);
        // Initial simplex: x0 plus one perturbed vertex per dimension.
        for (std::size_t i = 0; i < n_; ++i)
            pts_[i + 1][i] += opts_.initialStep;
        point_ = pts_[0];
    }

  protected:
    void
    advance(double v) override
    {
        switch (phase_) {
            case Phase::Initial:
                vals_[i_] = v;
                ++i_;
                if (i_ <= n_) {
                    point_ = pts_[i_];
                    return;
                }
                break;
            case Phase::Reflect:
                reflected_ = point_;
                fr_ = v;
                if (fr_ < vals_[best_]) {
                    point_ = blend(-kAlpha * kGamma);
                    phase_ = Phase::Expand;
                    return;
                }
                if (fr_ < vals_[secondWorst_]) {
                    pts_[worst_] = reflected_;
                    vals_[worst_] = fr_;
                    break;
                }
                point_ = blend(kRho);
                phase_ = Phase::Contract;
                return;
            case Phase::Expand:
                if (v < fr_) {
                    pts_[worst_] = point_;
                    vals_[worst_] = v;
                } else {
                    pts_[worst_] = reflected_;
                    vals_[worst_] = fr_;
                }
                break;
            case Phase::Contract:
                if (v < vals_[worst_]) {
                    pts_[worst_] = point_;
                    vals_[worst_] = v;
                    break;
                }
                // Shrink toward the best vertex.
                phase_ = Phase::Shrink;
                i_ = 0;
                if (nextShrink())
                    return;
                break;
            case Phase::Shrink:
                vals_[i_] = v;
                ++i_;
                if (evaluations() < opts_.maxEvaluations && nextShrink())
                    return;
                break;
        }
        reflect();
    }

  private:
    enum class Phase
    {
        Initial,  //!< Evaluating pts_[i_], i_ = 0..n.
        Reflect,  //!< Evaluating the reflected worst vertex.
        Expand,   //!< Evaluating the expanded reflection.
        Contract, //!< Evaluating the contracted worst vertex.
        Shrink,   //!< Evaluating shrunk vertex pts_[i_].
    };

    std::vector<double>
    blend(double t) const
    {
        std::vector<double> x(n_);
        for (std::size_t d = 0; d < n_; ++d)
            x[d] = centroid_[d] + t * (pts_[worst_][d] - centroid_[d]);
        return x;
    }

    /** Shrink the next vertex (skipping the best) into point_. */
    bool
    nextShrink()
    {
        if (i_ == best_)
            ++i_;
        if (i_ > n_)
            return false;
        for (std::size_t d = 0; d < n_; ++d)
            pts_[i_][d] =
                pts_[best_][d] + kSigma * (pts_[i_][d] - pts_[best_][d]);
        point_ = pts_[i_];
        return true;
    }

    /**
     * Start the next iteration: order the vertices and propose the
     * reflection of the worst, or finish on budget or convergence.
     */
    void
    reflect()
    {
        const std::size_t n = n_;
        if (evaluations() >= opts_.maxEvaluations) {
            finish();
            return;
        }
        // Order vertices by value.
        std::vector<std::size_t> idx(n + 1);
        for (std::size_t i = 0; i <= n; ++i)
            idx[i] = i;
        std::sort(idx.begin(), idx.end(), [this](std::size_t a,
                                                 std::size_t b) {
            return vals_[a] < vals_[b];
        });
        best_ = idx[0];
        worst_ = idx[n];
        secondWorst_ = idx[n - 1];

        if (std::fabs(vals_[worst_] - vals_[best_]) < opts_.tolerance) {
            finish();
            return;
        }

        // Centroid of all but the worst.
        centroid_.assign(n, 0.0);
        for (std::size_t i = 0; i <= n; ++i) {
            if (i == worst_)
                continue;
            for (std::size_t d = 0; d < n; ++d)
                centroid_[d] += pts_[i][d];
        }
        for (double &c : centroid_)
            c /= static_cast<double>(n);

        point_ = blend(-kAlpha);
        phase_ = Phase::Reflect;
    }

    const OptOptions opts_;
    const std::size_t n_;
    std::vector<std::vector<double>> pts_; //!< Simplex vertices.
    std::vector<double> vals_;
    Phase phase_ = Phase::Initial;
    std::size_t i_ = 0;
    std::size_t best_ = 0;
    std::size_t worst_ = 0;
    std::size_t secondWorst_ = 0;
    std::vector<double> centroid_;
    std::vector<double> reflected_;
    double fr_ = 0.0; //!< Value at reflected_.
};

} // namespace

std::unique_ptr<OptRun>
NelderMead::start(const std::vector<double> &x0) const
{
    return std::make_unique<NelderMeadRun>(opts_, x0);
}

} // namespace redqaoa
