package search

// EagerGreedyOracle exposes the eager marginal-scan oracle
// (eager_oracle_test.go) to the external test package.
var EagerGreedyOracle = eagerGreedy
