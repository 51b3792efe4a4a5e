/**
 * @file
 * Derivative-free optimizer interface.
 *
 * The paper drives QAOA with COBYLA plus random restarts (§6.4, §6.5).
 * All optimizers here MINIMIZE; QAOA callers hand in -<H_c>. Each run
 * records the best-so-far trace per objective evaluation so the
 * convergence figures (Figs 1 and 20) can be regenerated.
 *
 * Every optimizer is an ask/tell run (OptRun) that hands out one point
 * at a time. Optimizer::minimize() is the one loop that feeds a run
 * from a point objective; the batch overload of multiRestart advances
 * all restarts in lockstep instead, so each round's points reach the
 * objective in one call (the batched statevector lanes) while every
 * run does exactly the arithmetic it does under minimize().
 */

#ifndef REDQAOA_OPT_OPTIMIZER_HPP
#define REDQAOA_OPT_OPTIMIZER_HPP

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace redqaoa {

/** Objective to minimize. */
using Objective = std::function<double(const std::vector<double> &)>;

/**
 * Objective over a batch of points: one value per point, in order.
 * Only for objectives that are pure functions of the point — a batch
 * reorders calls across runs.
 */
using BatchObjective =
    std::function<std::vector<double>(std::span<const std::vector<double>>)>;

/** Result of one optimizer run. */
struct OptResult
{
    std::vector<double> x;       //!< Best point found.
    double value = 0.0;          //!< Objective at the best point.
    int evaluations = 0;         //!< Objective calls consumed.
    std::vector<double> trace;   //!< Objective value per evaluation.
    std::vector<std::vector<double>> iterates; //!< Point per evaluation.
};

/** Common knobs. */
struct OptOptions
{
    int maxEvaluations = 200;
    double initialStep = 0.4; //!< Simplex edge / trust radius (radians).
    double tolerance = 1e-6;  //!< Convergence threshold on spread.
};

/**
 * One optimizer run driven from outside: ask() names the next point to
 * evaluate, tell() reports the objective value there. tell() does the
 * shared bookkeeping (evaluation count, best point, trace, iterates)
 * and then lets the optimizer pick its next point.
 */
class OptRun
{
  public:
    virtual ~OptRun() = default;

    /** The point to evaluate next; nullptr once the run has finished. */
    const std::vector<double> *ask() const
    {
        return finished_ ? nullptr : &point_;
    }

    /** Report the objective value at the point ask() returned. */
    void tell(double value);

    /** Move the result out (complete once ask() returns nullptr). */
    OptResult takeResult() { return std::move(result_); }

  protected:
    /**
     * @param first_value_is_best the first evaluation becomes the best
     *        point whatever its value (NaN and +inf included); otherwise
     *        a value must compare below the best so far (from +inf).
     */
    explicit OptRun(bool first_value_is_best);

    /**
     * The optimizer's step after f(point_) = @p value: update its state,
     * then set point_ to the next point or call finish().
     */
    virtual void advance(double value) = 0;

    void finish() { finished_ = true; }
    int evaluations() const { return result_.evaluations; }

    std::vector<double> point_; //!< The point ask() hands out.

  private:
    bool firstValueIsBest_;
    bool finished_ = false;
    OptResult result_;
};

/** Abstract minimizer. */
class Optimizer
{
  public:
    virtual ~Optimizer() = default;

    /** Start a run at @p x0 (its first ask() is the first point). */
    virtual std::unique_ptr<OptRun>
    start(const std::vector<double> &x0) const = 0;

    /** Minimize @p f from @p x0: a start() run fed point by point. */
    OptResult minimize(const Objective &f,
                       const std::vector<double> &x0) const;

    /** Identifier for logs ("nelder-mead", "cobyla-lite", "spsa"). */
    virtual std::string name() const = 0;
};

/**
 * Multi-restart driver: runs @p optimizer from @p restarts random
 * starting points drawn by @p sampler; returns every run (the Fig 17
 * protocol reports both the best and the mean across restarts). Runs
 * go one after another, so @p f sees restart 0's points, then restart
 * 1's — the order stateful (trajectory) objectives depend on.
 */
std::vector<OptResult> multiRestart(
    const Optimizer &optimizer, const Objective &f, int restarts,
    const std::function<std::vector<double>(Rng &)> &sampler, Rng &rng);

/**
 * Lockstep multi-restart over a batch objective: draws every starting
 * point in restart order, then each round asks every unfinished run for
 * one point, evaluates the round in one @p f call and tells the values
 * back in restart order. Runs are bit-identical to the point overload
 * whenever @p f is a pure function of the point: the runs never touch
 * @p rng, so the starting points come out the same.
 */
std::vector<OptResult> multiRestart(
    const Optimizer &optimizer, const BatchObjective &f, int restarts,
    const std::function<std::vector<double>(Rng &)> &sampler, Rng &rng);

/** Index of the best (lowest value) run. */
std::size_t bestRun(const std::vector<OptResult> &runs);

} // namespace redqaoa

#endif // REDQAOA_OPT_OPTIMIZER_HPP
