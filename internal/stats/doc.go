// Package stats provides the robust, nonparametric statistics used by the
// delay-change and forwarding-anomaly detectors: order statistics and
// quantiles, Wilson-score confidence intervals for the median, Pearson
// correlation, normalized entropy, median absolute deviation, and helpers
// for normality assessment (normal quantiles and Q-Q regression) and
// empirical distributions (CDF/CCDF).
//
// All functions operate on float64 samples. Unless documented otherwise they
// do not mutate their inputs and treat NaN values as absent (callers are
// expected to filter them; functions that sort copy first).
package stats
