#include "stats/propagation.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hdpm::stats {

using streams::WordStats;

namespace {

double safe_rho(double cov_lag1, double variance)
{
    if (variance <= 0.0) {
        return 0.0;
    }
    return std::clamp(cov_lag1 / variance, -1.0, 1.0);
}

WordStats make(double mean, double variance, double rho, int width, std::size_t count)
{
    WordStats s;
    s.mean = mean;
    s.variance = std::max(variance, 0.0);
    s.rho = std::clamp(rho, -1.0, 1.0);
    s.width = width;
    s.count = count;
    return s;
}

} // namespace

WordStats propagate_add(const WordStats& a, const WordStats& b, int out_width)
{
    HDPM_REQUIRE(out_width >= 1, "bad output width");
    const double variance = a.variance + b.variance;
    const double cov = a.rho * a.variance + b.rho * b.variance;
    return make(a.mean + b.mean, variance, safe_rho(cov, variance), out_width,
                std::min(a.count, b.count));
}

WordStats propagate_const_mult(const WordStats& a, double c, int out_width)
{
    HDPM_REQUIRE(out_width >= 1, "bad output width");
    return make(c * a.mean, c * c * a.variance, a.rho, out_width, a.count);
}

} // namespace hdpm::stats
