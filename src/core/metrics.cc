#include "core/metrics.hh"

#include <cmath>

namespace swan::core
{

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / double(xs.size()));
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / double(xs.size());
}

} // namespace swan::core
